"""Acceptance suite: one test per shipping criterion.

Each test is self-contained and oracle-backed: closed forms are checked
against iterative reference implementations written here, and discovered
structure is confirmed by brute force before the pipeline's answer is
compared with it.  Tolerances are exact equality throughout; the two
timed criteria pin 100 ms and 10 s wall-clock budgets.
"""

import random
import string
import time

import pytest

from seqident.cli import main
from seqident.conjecture import VERIFIED, conjecture, detect_min_recurrence
from seqident.dsl import SpecSyntaxError, format_spec, parse
from seqident.expansion import expansion, sum_expansions
from seqident.sequences import FIBONACCI, TRIBONACCI, SequenceSpec, eval_range, fib
from seqident.verify import (
    check_range,
    convolution_sum,
    inductive_step_check,
    reindex_equal,
)


def iter_fib_upto(limit):
    vals = [0, 1]
    while len(vals) <= limit:
        vals.append(vals[-1] + vals[-2])
    return vals


def iter_lucas_upto(limit):
    vals = [2, 1]
    while len(vals) <= limit:
        vals.append(vals[-1] + vals[-2])
    return vals


def test_criterion_1_illustration_reproduction(capsys):
    t0 = time.perf_counter()
    assert main(["collect", "--spec", "builtin:fib", "--n", "6"]) == 0
    collect_out = capsys.readouterr().out
    assert main(["verify", "--range", "6..6"]) == 0
    verify_out = capsys.readouterr().out
    elapsed = time.perf_counter() - t0

    assert collect_out.splitlines()[0] == "weights: 1 3 4 7 11"
    assert verify_out == "n=6: S=40 (n-1)F=40 PASS\n"
    w = sum_expansions(FIBONACCI, 6)
    assert w.weights == (1, 3, 4, 7, 11)
    assert convolution_sum(6) == 40 == 5 * 8
    assert elapsed < 0.1


def test_criterion_2_identity_holds_to_2000():
    t0 = time.perf_counter()
    report = check_range(2, 2000)
    elapsed = time.perf_counter() - t0
    assert report.passed, f"least counterexample: {report.first_failure}"
    assert report.first_failure is None
    assert elapsed < 10.0


def oracle_substitute(coeffs, depth):
    # independent rewriter: list of pairs, renormalized from scratch
    pairs = [(i, c) for i, c in enumerate(coeffs, start=1)]
    for _ in range(depth - 1):
        k_min = min(k for k, _ in pairs)
        c_min = sum(c for k, c in pairs if k == k_min)
        pairs = [(k, c) for k, c in pairs if k != k_min]
        pairs += [(k_min + i, c_min * ci) for i, ci in enumerate(coeffs, start=1)]
        merged = {}
        for k, c in pairs:
            merged[k] = merged.get(k, 0) + c
        pairs = [(k, c) for k, c in merged.items() if c != 0]
    return dict(sorted(pairs))


def test_criterion_3_expansion_structure_to_depth_64():
    fib = iter_fib_upto(66)
    for r in range(1, 65):
        terms = expansion(FIBONACCI, r).terms
        assert terms == {r: fib[r + 1], r + 1: fib[r]}
        assert terms == oracle_substitute((1, 1), r)


def test_criterion_4_weights_identified_to_300():
    lucas = iter_lucas_upto(300)
    for n in range(2, 301):
        a = sum_expansions(FIBONACCI, n).weights
        assert list(a) == lucas[1:n]
        assert a[0] == 1
        if n >= 3:
            assert a[1] == 3
        for k in range(1, len(a) - 1):
            assert a[k + 1] == a[k] + a[k - 1]


def test_criterion_5_proof_replay():
    for m in range(3, 501):
        assert inductive_step_check(m)
    for m in range(3, 201):
        assert reindex_equal(m)


def test_criterion_6_generalized_seed_discovery():
    # brute force first: the leftover after subtracting Lucas-weighted
    # terms must match F(n-1) times the backward-extended value at 0
    g = [None, 2, 5]  # G(1), G(2)
    for _ in range(3, 201):
        g.append(g[-1] + g[-2])
    g0 = g[2] - g[1]
    assert g0 == 3 and g0 != 0
    fib = iter_fib_upto(200)
    lucas = iter_lucas_upto(200)
    for n in range(2, 201):
        leftover = (n - 1) * g[n] - sum(lucas[k] * g[n - k] for k in range(1, n))
        assert leftover == fib[n - 1] * g0

    spec = SequenceSpec("G", (1, 1), (2, 5), seed_start=1)
    conj = conjecture(spec, 40, 200)
    assert conj.status == VERIFIED
    assert (conj.verified_lo, conj.verified_hi) == (2, 200)
    assert conj.weight_recurrence.coeffs == (1, 1)
    assert list(conj.weight_seeds) == lucas[1:3]
    (rule,) = conj.residual_rules
    assert rule.constant == g0  # nonzero residual
    rho = list(rule.seeds) + rule.recurrence.extend(list(rule.seeds), 198)
    for n in range(2, 201):
        assert rho[n - rule.start_n] == fib[n - 1]


def test_criterion_7_tribonacci_discovery():
    conj = conjecture(TRIBONACCI, 40, 200)
    assert conj.status == VERIFIED
    assert (conj.verified_lo, conj.verified_hi) == (2, 200)
    assert conj.weight_recurrence.order == 3
    assert conj.weight_recurrence.coeffs == (1, 1, 1)
    # exact minimality: no recurrence of order below 3 fits the weights
    weights = list(sum_expansions(TRIBONACCI, 40).weights)
    assert detect_min_recurrence(weights, 2) is None
    assert detect_min_recurrence(weights, 8).order == 3


def test_criterion_8_oracle_equivalences():
    oracle = iter_fib_upto(10 ** 4)
    for n in range(10 ** 4 + 1):
        assert fib(n) == oracle[n]

    fibs = eval_range(FIBONACCI, 0, 300)
    for n in range(2, 301):
        w = sum_expansions(FIBONACCI, n)
        dot = sum(a * fibs[n - k] for k, a in enumerate(w.weights, start=1))
        assert convolution_sum(n) == dot


def random_spec(rng):
    name = rng.choice(string.ascii_uppercase) + "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randrange(0, 4))
    )
    order = rng.randrange(1, 7)
    coeffs = [rng.randrange(-9, 10) for _ in range(order - 1)]
    coeffs.append(rng.choice([c for c in range(-9, 10) if c != 0]))
    seeds = tuple(rng.randrange(-99, 100) for _ in range(order))
    return SequenceSpec(name, tuple(coeffs), seeds,
                        seed_start=rng.randrange(-10, 11))


MALFORMED = [
    "F: F(n)=F(n-1); F(1)=1",
    "seq F: F(n)=F(n-1)+F(n-1); F(1)=1; F(2)=1",
    "seq F: F(n)=F(n-1)+0*F(n-2); F(1)=1; F(2)=1",
    "seq F: F(n)=F(n-1)+F(n-2); F(1)=1",
    "seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(3)=1",
    "seq F: F(n)=2F(n-1); F(1)=1",
]


def test_criterion_9_dsl_roundtrip_and_errors(tmp_path, capsys):
    rng = random.Random(8128)
    for _ in range(100):
        spec = random_spec(rng)
        assert parse(format_spec(spec)) == spec

    for source in MALFORMED:
        with pytest.raises(SpecSyntaxError) as exc_info:
            parse(source)
        err = exc_info.value
        assert err.line >= 1 and err.col >= 1
        path = tmp_path / "bad.seq"
        path.write_text(source, encoding="utf-8")
        code = main(["eval", "--spec", str(path), "--n", "5"])
        capsys.readouterr()
        assert code == 2
