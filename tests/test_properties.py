"""Property tests over generated specs: sequence evaluation, the identity
scan, the conjecture pipeline and collection, each against plain loops
written here.

Recurrence detection is checked against exact elimination order by order.

Specs have order 1-4, coefficients in -3..3, a unit trailing coefficient
(so every spec runs backward in integers), seeds in -3..3 and seed starts
in -3..3; the evaluation properties and the conjecture pipeline also take
order 5 and trailing coefficients +-2 and +-3, whose values below the seeds
can be fractions.  Examples are derandomized so every run checks the same
cases.

The output of every CLI subcommand, in a drawn format, is also checked
against the benchmark's independent oracle, seqbench/oracle.py: expand,
eval, collect and conjecture on specs of order 1-6 written to a file in the
DSL, and verify on 2..H.  Every run passes the oracle.
"""

import contextlib
import importlib.util
import io
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqident import cli
from seqident.cli import _value_bits_bound
from seqident.conjecture import (
    REFUTED,
    VERIFIED,
    ConjecturedIdentity,
    Recurrence,
    ResidualRule,
    collect_general,
    conjecture,
    detect_min_recurrence,
    verify_conjecture,
)
from seqident.dsl import format_spec, parse
from seqident.expansion import sum_expansions
from seqident.sequences import SequenceSpec, eval_range

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
small = st.integers(-3, 3)


@st.composite
def specs(draw):
    order = draw(st.integers(1, 4))
    coeffs = [draw(small) for _ in range(order - 1)] + [draw(st.sampled_from((-1, 1)))]
    seeds = [draw(small) for _ in range(order)]
    return SequenceSpec("U", tuple(coeffs), tuple(seeds), seed_start=draw(small))


@st.composite
def any_specs(draw):
    order = draw(st.integers(1, 5))
    trailing = draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1)))
    coeffs = [draw(small) for _ in range(order - 1)] + [trailing]
    seeds = [draw(small) for _ in range(order)]
    return SequenceSpec("U", tuple(coeffs), tuple(seeds), seed_start=draw(small))


@st.composite
def windows(draw, spec):
    """lo <= hi in -80..300: below the seeds, from them up, or straddling them."""
    s = spec.seed_start
    kind = draw(st.sampled_from(("below", "above", "straddle")))
    lo = draw(st.integers(-80, s - 1) if kind != "above" else st.integers(s, 300))
    hi = draw(st.integers(lo, s - 1) if kind == "below" else st.integers(max(lo, s), 300))
    return lo, hi


@st.composite
def recurrences(draw):
    order = draw(st.integers(1, 3))
    coeffs = tuple(draw(st.integers(-2, 2)) for _ in range(order))
    seeds = tuple(draw(small) for _ in range(order))
    return Recurrence(order, coeffs), seeds


def values(spec, lo, hi):
    """{i: U(i)} for lo <= i <= hi, stepping out from the seeds one term at a
    time; backward by solving U(m+d) = c1*U(m+d-1) + ... + cd*U(m) for U(m),
    an int when integral and a Fraction otherwise."""
    d, c = spec.order, spec.coeffs
    u = {spec.seed_start + i: v for i, v in enumerate(spec.seeds)}
    for n in range(spec.seed_start + d, hi + 1):
        u[n] = sum(c[i] * u[n - 1 - i] for i in range(d))
    for m in range(spec.seed_start - 1, lo - 1, -1):
        top = u[m + d] - sum(c[i] * u[m + d - 1 - i] for i in range(d - 1))
        q = Fraction(top, c[-1])
        u[m] = q.numerator if q.denominator == 1 else q
    return u


def iterate(rec, seeds, count):
    out = list(seeds)
    while len(out) < count:
        out.append(sum(c * out[-1 - j] for j, c in enumerate(rec.coeffs)))
    return out


def plain_first_failure(conj, lo, hi):
    """(n, lhs, rhs) of the least failing n in lo..hi, by a nested loop."""
    u = values(conj.spec, min([1] + [-r.offset for r in conj.residual_rules]), hi)
    a = iterate(conj.weight_recurrence, conj.weight_seeds, hi)
    rhos = [(r, iterate(r.recurrence, r.seeds, hi)) for r in conj.residual_rules]
    for n in range(lo, hi + 1):
        lhs = (n - 1) * u[n]
        rhs = 0
        for k in range(1, n):
            rhs += a[k - 1] * u[n - k]
        for rule, rho in rhos:
            rhs += rho[n - rule.start_n] * u[-rule.offset]
        if lhs != rhs:
            return n, lhs, rhs
    return None


def eliminate(values, max_order):
    """The least r <= max_order whose (N-r) x r system values[i] =
    sum_j c_j*values[i-j], i >= r, is consistent, solved by exact Gauss-Jordan
    elimination with free variables 0; integral coefficients become ints."""
    for r in range(1, max_order + 1):
        rows = [[Fraction(values[i - j]) for j in range(1, r + 1)] + [Fraction(values[i])]
                for i in range(r, len(values))]
        pivots = []
        for col in range(r):
            top = len(pivots)
            p = next((i for i in range(top, len(rows)) if rows[i][col]), None)
            if p is None:
                continue
            rows[top], rows[p] = rows[p], rows[top]
            rows[top] = [x / rows[top][col] for x in rows[top]]
            for i, row in enumerate(rows):
                if i != top and row[col]:
                    rows[i] = [a - row[col] * b for a, b in zip(row, rows[top])]
            pivots.append(col)
        if any(row[r] for row in rows[len(pivots):]):
            continue
        sol = [Fraction(0)] * r
        for i, col in enumerate(pivots):
            sol[col] = rows[i][r]
        return Recurrence(r, tuple(c.numerator if c.denominator == 1 else c for c in sol))
    return None


@st.composite
def detection_inputs(draw):
    """(values, K) with 2K+1 <= len(values) <= 2K+9."""
    k = draw(st.integers(1, 5))
    n = 2 * k + 1 + draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("ints", "fractions", "leading zeros", "zeros", "values",
                                 "weights")))
    if kind == "ints":
        vals = draw(st.lists(small, min_size=n, max_size=n))
    elif kind == "fractions":
        vals = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    elif kind == "leading zeros":
        j = draw(st.integers(0, n))
        vals = [0] * j + draw(st.lists(small, min_size=n - j, max_size=n - j))
    elif kind == "zeros":
        vals = [0] * n
    elif kind == "values":
        spec = draw(any_specs())
        lo = draw(st.integers(spec.seed_start - 5, spec.seed_start + 20))
        u = values(spec, lo, lo + n - 1)
        vals = [u[i] for i in range(lo, lo + n)]
        if draw(st.booleans()):  # backward, a trailing cd gives coefficients 1/cd
            vals.reverse()
    else:
        vals = list(sum_expansions(draw(any_specs()), n + 1).weights)
    return vals, k


def as_tuple(failure):
    return None if failure is None else (failure.n, failure.lhs, failure.rhs)


@SETTINGS
@given(st.data())
def test_eval_range_matches_stepping_one_term_at_a_time(data):
    spec = data.draw(any_specs())
    lo, hi = data.draw(windows(spec))
    u = values(spec, lo, hi)
    got, expected = eval_range(spec, lo, hi), [u[n] for n in range(lo, hi + 1)]
    assert got == expected
    assert [type(v) for v in got] == [type(v) for v in expected]


@SETTINGS
@given(st.data())
def test_value_bits_bound_covers_every_value(data):
    # The bound is on log2 of the numerator and the denominator together, so
    # their bit lengths, each rounded up, may exceed it by under 2.
    spec = data.draw(any_specs())
    lo, hi = data.draw(windows(spec))
    u = values(spec, lo, hi)
    for n in range(lo, hi + 1):
        v = Fraction(u[n])
        assert (abs(v.numerator).bit_length() + v.denominator.bit_length()
                < _value_bits_bound(spec, n) + 2), n


@SETTINGS
@given(any_specs())
def test_format_then_parse_round_trips(spec):
    assert parse(format_spec(spec)) == spec


@SETTINGS
@given(detection_inputs())
def test_detect_min_recurrence_matches_elimination_order_by_order(case):
    vals, k = case
    got, expected = detect_min_recurrence(vals, k), eliminate(vals, k)
    assert got == expected
    if expected is not None:
        assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]


@SETTINGS
@given(specs(), recurrences(), st.lists(recurrences(), max_size=3),
       st.integers(2, 6), st.integers(0, 30))
def test_verify_conjecture_matches_a_nested_loop(spec, weights, residuals, lo, span):
    rules = tuple(ResidualRule(j, rec, seeds, 2, 0)
                  for j, (rec, seeds) in enumerate(residuals))
    hi = lo + span
    conj = ConjecturedIdentity(spec, weights[0], weights[1], rules, 2, hi, REFUTED)
    report = verify_conjecture(conj, lo, hi)
    expected = plain_first_failure(conj, lo, hi)
    assert as_tuple(report.first_failure) == expected
    assert report.passed == (expected is None)


@SETTINGS
@given(any_specs(), st.integers(10, 40))
def test_conjecture_reports_a_status_and_the_first_failure(spec, hi):
    # The derived identity holds for every spec, c1 = 0 included, and a
    # non-unit cd too, whose U(min(1, 2-d))..U(1) below the seeds are fractions.
    conj = conjecture(spec, 14, hi, max_order=5)
    assert (conj.status, conj.first_failure) == (VERIFIED, None)
    assert plain_first_failure(conj, 2, hi) is None


@SETTINGS
@given(specs(), st.integers(2, 16))
def test_collect_general_reproduces_the_scaled_term(spec, n):
    w = collect_general(spec, n)
    assert w == sum_expansions(spec, n)
    u = values(spec, min([1] + [n - k for k in w.residual]), n)
    rhs = sum(a * u[n - k] for k, a in enumerate(w.weights, start=1))
    rhs += sum(c * u[n - k] for k, c in w.residual.items())
    assert rhs == (n - 1) * u[n]


def load_oracle():
    """seqbench/oracle.py, loaded by path and only read."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "seqbench", "oracle.py")
    spec = importlib.util.spec_from_file_location("seqbench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = oracle  # its dataclasses look their module up there
    spec.loader.exec_module(oracle)
    return oracle


@pytest.fixture(scope="module")
def oracle():
    return load_oracle()


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "spec.seq"


@st.composite
def dsl_specs(draw):
    """Order 1-6; each coefficient 0, +-1 or |c| in 2..5, the trailing one
    nonzero; seeds in -3..3 from a start in -5..5."""
    coeff = st.sampled_from((0, 1, -1)) | st.integers(2, 5) | st.integers(-5, -2)
    order = draw(st.integers(1, 6))
    coeffs = [draw(coeff) for _ in range(order - 1)] + [draw(coeff.filter(bool))]
    seeds = [draw(small) for _ in range(order)]
    return SequenceSpec(draw(st.sampled_from(("U", "G2", "a_b"))), tuple(coeffs),
                        tuple(seeds), seed_start=draw(st.integers(-5, 5)))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


FORMATS = st.sampled_from(("plain", "json", "csv"))


@SETTINGS
@given(spec=dsl_specs(), depth=st.integers(1, 40), start=st.integers(-30, 60),
       width=st.integers(0, 40), n=st.integers(2, 40), hi=st.integers(2, 60),
       cut=st.integers(0, 58), inductive=st.booleans(), max_order=st.integers(1, 6),
       extra=st.integers(2, 6),
       formats=st.tuples(FORMATS, FORMATS, FORMATS, FORMATS, FORMATS))
def test_every_subcommand_passes_the_benchmark_oracle(oracle, spec_path, spec, depth, start,
                                                      width, n, hi, cut, inductive,
                                                      max_order, extra, formats):
    # format_spec writes the spec file and expand's plain line comes from the
    # same term renderer; the oracle judges every output with its own arithmetic.
    spec_path.write_text(format_spec(spec) + "\n", encoding="utf-8")
    want = oracle.Spec(spec.name, spec.coeffs, spec.seeds, spec.seed_start)
    lo = spec.seed_start + start
    if abs(spec.coeffs[-1]) != 1:  # eval prints integers: below these seeds it exits 2
        lo = max(lo, spec.seed_start)
    probe_n = 2 * max_order + extra
    # verify's window starts anywhere in 2..hi: at 3 its scan reads S(2) for
    # the replay's first m, and above 3 it reads S(lo-1).
    verify_lo = 2 + cut % (hi - 1)
    spec_argv = ["--spec", str(spec_path)]
    # (argv, expectation): conjecture evaluates U(min(1, 2-d)) and up, below
    # the seeds of some specs, as fractions where cd is not a unit.
    commands = [
        (["expand", f"--depth={depth}", *spec_argv],
         {"kind": "expand", "spec": want, "depth": depth}),
        (["eval", f"--range={lo}..{lo + width}", *spec_argv],
         {"kind": "eval", "spec": want, "lo": lo, "hi": lo + width}),
        (["collect", f"--n={n}", *spec_argv], {"kind": "collect", "spec": want, "n": n}),
        (["verify", f"--range={verify_lo}..{hi}", *(["--inductive"] if inductive else [])],
         {"kind": "verify", "lo": verify_lo, "hi": hi, "inductive": inductive}),
        (["conjecture", *spec_argv, "--probe-n", str(probe_n), "--verify-to", str(hi),
          "--max-order", str(max_order)],
         {"kind": "conjecture", "spec": want, "verify_to": hi}),
    ]
    for (argv, exp), fmt in zip(commands, formats):
        argv += ["--format", fmt]
        code, out, err = run_cli(argv)
        verdict = oracle.check(oracle.prepare({**exp, "fmt": fmt}), code, out, err)
        assert verdict.status == "pass", (argv, format_spec(spec), verdict.reason)
