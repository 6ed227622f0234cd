"""Tests for recurrence detection and conjectured-identity verification.

The closed descriptions asserted here (Lucas weight seeds, residual
coefficient sequences, residual constants) are confirmed by brute-force
summation inside the tests before being compared with the pipeline's
output, so nothing is assumed from the detection machinery itself.
"""

import importlib
from fractions import Fraction

import pytest

from seqident.conjecture import (
    UNDETERMINED,
    VERIFIED,
    ConjecturedIdentity,
    Recurrence,
    ResidualRule,
    collect_general,
    conjecture,
    detect_min_recurrence,
    verify_conjecture,
)
from seqident.dsl import parse
from seqident.expansion import sum_expansions
from seqident.sequences import (
    FIBONACCI,
    TRIBONACCI,
    SequenceSpec,
)

GENERAL = SequenceSpec("G", (1, 1), (2, 5), seed_start=1)


def iter_values(coeffs, seeds, count):
    vals = list(seeds)
    while len(vals) < count:
        vals.append(sum(c * vals[-1 - j] for j, c in enumerate(coeffs)))
    return vals


def iter_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def iter_lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_detect_fibonacci_order_two():
    values = [iter_fib(n) for n in range(1, 26)]
    rec = detect_min_recurrence(values, 8)
    assert rec == Recurrence(2, (1, 1))


def test_detect_geometric_order_one():
    rec = detect_min_recurrence([3 ** k for k in range(20)], 8)
    assert rec == Recurrence(1, (3,))


def test_detect_rational_coefficients():
    values = [Fraction(1, 2 ** k) for k in range(20)]
    rec = detect_min_recurrence(values, 8)
    assert rec == Recurrence(1, (Fraction(1, 2),))


def test_detect_minimality_never_overshoots():
    # Lucas numbers satisfy order 2; order 1 must be rejected first
    values = [iter_lucas(n) for n in range(1, 26)]
    assert detect_min_recurrence(values, 8).order == 2
    assert detect_min_recurrence(values, 1) is None


def test_detect_no_fit_returns_none():
    fact = [1]
    for k in range(1, 12):
        fact.append(fact[-1] * k)
    assert detect_min_recurrence(fact, 3) is None


def test_detect_insufficient_data():
    with pytest.raises(ValueError):
        detect_min_recurrence([1, 2, 3], 8)
    with pytest.raises(ValueError):
        detect_min_recurrence([1, 2, 3], 0)


def test_detect_constant_sequence():
    assert detect_min_recurrence([7] * 10, 4) == Recurrence(1, (1,))


def test_detect_all_zero_list():
    rec = detect_min_recurrence([0] * 9, 4)
    assert rec == Recurrence(1, (0,)) and type(rec.coeffs[0]) is int


def test_detect_leading_zeros_raise_the_order():
    # j zeros then a first nonzero value: no rule of order <= j makes it
    for j in range(8):
        values = [0] * j + [2 ** i for i in range(12 - j)]
        expected = Recurrence(j + 1, (2,) + (0,) * j) if j + 1 <= 5 else None
        assert detect_min_recurrence(values, 5) == expected, j


def test_detect_halving_integers_keep_a_fraction_coefficient():
    rec = detect_min_recurrence([2 ** (20 - k) for k in range(20)], 8)
    assert rec == Recurrence(1, (Fraction(1, 2),)) and type(rec.coeffs[0]) is Fraction


def test_detect_order_exactly_max_order_from_the_fewest_values():
    values = iter_values((1, 1, 1), (0, 0, 1), 7)
    assert detect_min_recurrence(values, 3) == Recurrence(3, (1, 1, 1))
    assert detect_min_recurrence(values, 2) is None


def test_detect_never_returns_a_rule_that_does_not_fit(monkeypatch):
    monkeypatch.setattr(importlib.import_module("seqident.conjecture"), "_berlekamp_massey",
                        lambda values: (1, [Fraction(2)]))
    with pytest.raises(ArithmeticError):
        detect_min_recurrence([1, 2, 4, 8, 17], 2)
    assert detect_min_recurrence([1, 2, 4, 8, 16], 2) == Recurrence(1, (2,))


def test_collect_general_matches_sum_expansions():
    for n in range(2, 25):
        assert collect_general(GENERAL, n) == sum_expansions(GENERAL, n)


def test_collect_general_noninvertible_residual():
    # The residual reads A(0) = 1, one step below the seeds by dividing by 2.
    spec = SequenceSpec("A", (1, 2), (1, 3), seed_start=1)
    assert collect_general(spec, 6) == sum_expansions(spec, 6)


def test_rational_values_above_index_one_scan_exactly():
    # U(1)..U(5) are non-integer fractions: the scan's exact-division check
    # must accept them where the identity holds
    spec = SequenceSpec("A", (1, 2), (1, 3), seed_start=6)
    for n in range(2, 12):
        assert collect_general(spec, n) == sum_expansions(spec, n)
    conj = conjecture(spec, 20, 40)
    assert conj.status == VERIFIED
    assert conj.first_failure is None


def test_conjecture_fibonacci():
    conj = conjecture(FIBONACCI, 40, 120)
    assert conj.status == VERIFIED
    assert conj.weight_recurrence == Recurrence(2, (1, 1))
    assert conj.weight_seeds == (1, 3)
    (rule,) = conj.residual_rules
    assert rule.offset == 0
    assert rule.constant == 0  # multiplies the value at index 0


def test_conjecture_generalized_seeds_bruteforce_first():
    # brute-force the residual before trusting any detected description:
    # r(n) := (n-1)*G(n) - sum L(k)*G(n-k) must equal F(n-1)*G(0)
    g = iter_values((1, 1), (2, 5), 201)  # g[i] = G(i+1)

    def G(i):
        return g[i - 1]

    g0 = G(2) - G(1)  # one backward step
    assert g0 == 3
    for n in range(2, 201):
        leftover = (n - 1) * G(n) - sum(
            iter_lucas(k) * G(n - k) for k in range(1, n)
        )
        assert leftover == iter_fib(n - 1) * g0

    conj = conjecture(GENERAL, 40, 200)
    assert conj.status == VERIFIED
    assert (conj.verified_lo, conj.verified_hi) == (2, 200)
    assert conj.weight_recurrence == Recurrence(2, (1, 1))
    assert conj.weight_seeds == (1, 3)
    (rule,) = conj.residual_rules
    assert rule.offset == 0
    assert rule.constant == g0
    # detected residual coefficients reproduce the brute-forced leftovers
    rho = list(rule.seeds) + rule.recurrence.extend(list(rule.seeds), 30)
    for n in range(2, 30):
        assert rho[n - rule.start_n] * g0 == iter_fib(n - 1) * g0


def test_conjecture_tribonacci():
    conj = conjecture(TRIBONACCI, 40, 200)
    assert conj.status == VERIFIED
    assert conj.weight_recurrence == Recurrence(3, (1, 1, 1))
    assert conj.weight_seeds == (1, 3, 7)
    offsets = {rule.offset: rule for rule in conj.residual_rules}
    assert sorted(offsets) == [0, 1]
    assert offsets[0].constant == 0   # T(0)
    assert offsets[1].constant == 1   # T(-1) by backward extension
    assert offsets[0].seeds == (1, 3, 4)
    assert offsets[1].seeds == (1, 1, 2)


def test_conjecture_weights_independent_of_seeds():
    specs = [
        SequenceSpec("A", (1, 1), (0, 7), seed_start=1),
        SequenceSpec("B", (1, 1), (-4, 9), seed_start=0),
        GENERAL,
    ]
    results = [conjecture(s, 30, 60) for s in specs]
    assert all(c.status == VERIFIED for c in results)
    assert len({c.weight_recurrence for c in results}) == 1
    assert len({c.weight_seeds for c in results}) == 1


def test_conjecture_residual_constant_is_linear_in_seeds():
    def constant_for(a, b):
        spec = SequenceSpec("A", (1, 1), (a, b), seed_start=1)
        conj = conjecture(spec, 30, 60)
        assert conj.status == VERIFIED
        (rule,) = conj.residual_rules
        return rule.constant

    assert constant_for(1, 9) + constant_for(2, 4) == constant_for(3, 13)


def test_conjecture_undetermined_when_order_cap_too_low():
    # U's weights are all 2, order 1, but its rho_0 = -x**2/(1-x)**2 needs
    # order 2; Fibonacci's weights already need order 2.
    linear = parse("seq U: U(n)=2*U(n-1)-U(n-2); U(0)=0; U(1)=1")
    for spec, probe_n, verify_hi in ((FIBONACCI, 40, 100), (linear, 10, 20)):
        conj = conjecture(spec, probe_n, verify_hi, max_order=1)
        assert conj.status == UNDETERMINED
        assert conj.weight_recurrence is None
        assert conj.residual_rules == ()


def test_conjecture_probe_too_small():
    with pytest.raises(ValueError):
        conjecture(FIBONACCI, 5, 50)


def test_conjecture_checks_its_arguments_before_collecting(monkeypatch):
    def unreachable(*args):
        raise AssertionError("_series ran before the arguments were checked")

    # The package binds `seqident.conjecture` to the function of that name.
    monkeypatch.setattr(importlib.import_module("seqident.conjecture"), "_series",
                        unreachable)
    cases = [((10_000, 1), {}, "invalid range 2..1"),
             ((10_000, 100), {"max_order": 0}, "max_order must be >= 1, got 0"),
             ((17, 100), {}, "probe_n=17 yields 16 weights; need at least 17 for max_order 8"),
             ((7, 100), {"max_order": 3}, "probe_n=7 yields 6 weights; need at least 7"),
             ((1, 100), {}, "probe_n=1 yields 0 weights; need at least 17")]
    for args, kwargs, message in cases:
        with pytest.raises(ValueError, match=message):
            conjecture(TRIBONACCI, *args, **kwargs)
    with pytest.raises(AssertionError):  # 18 yields enough: the derivation starts
        conjecture(TRIBONACCI, 18, 100)


def test_conjecture_when_the_least_shift_cancels():
    # c1 = 0: the weights are 0, 2, 0, 2, ... and rho_0(n) = [n even]
    spec = parse("seq Z: Z(n)=Z(n-2); Z(0)=1; Z(1)=0")
    z = iter_values((0, 1), (1, 0), 121)
    for n in range(2, 121):
        weighted = sum((1 + (-1) ** k) * z[n - k] for k in range(1, n))
        assert (n - 1) * z[n] == weighted + (n + 1) % 2 * z[0]
    conj = conjecture(spec, 40, 120)
    assert conj.status == VERIFIED and conj.first_failure is None
    assert conj.weight_recurrence == Recurrence(2, (0, 1))
    assert conj.weight_seeds == (0, 2)
    assert conj.residual_rules == (ResidualRule(0, Recurrence(2, (0, 1)), (1, 0), 2, 1),)


def test_verify_conjecture_validation():
    conj = conjecture(FIBONACCI, 40, 60)
    with pytest.raises(ValueError):
        verify_conjecture(conj, 1, 10)
    bad = ConjecturedIdentity(FIBONACCI, None, (), (), 2, 10, UNDETERMINED)
    with pytest.raises(ValueError):
        verify_conjecture(bad, 2, 10)


def test_verify_conjecture_refutes_tampered_weights():
    good = conjecture(FIBONACCI, 40, 60)
    bad = ConjecturedIdentity(
        FIBONACCI,
        good.weight_recurrence,
        (1, 4),  # wrong second weight
        good.residual_rules,
        2,
        60,
        good.status,
    )
    report = verify_conjecture(bad, 2, 60)
    assert not report.passed
    assert report.first_failure.n == 3


def test_verify_conjecture_refutes_tampered_residual():
    good = conjecture(GENERAL, 40, 60)
    (rule,) = good.residual_rules
    bad_rule = ResidualRule(rule.offset, rule.recurrence, (1, 2),
                            rule.start_n, rule.constant)
    bad = ConjecturedIdentity(GENERAL, good.weight_recurrence,
                              good.weight_seeds, (bad_rule,), 2, 60, good.status)
    report = verify_conjecture(bad, 2, 60)
    assert not report.passed
    assert report.first_failure.n == 3


def test_verify_conjecture_independent_of_expansion_path():
    # weights regenerated from the recurrence agree with fresh collection
    conj = conjecture(TRIBONACCI, 40, 120)
    w = list(conj.weight_seeds)
    w += conj.weight_recurrence.extend(w, 96)
    assert tuple(w[:99]) == sum_expansions(TRIBONACCI, 100).weights


def test_verify_conjecture_range_echo():
    conj = conjecture(GENERAL, 40, 80)
    report = verify_conjecture(conj, 5, 70)
    assert (report.lo, report.hi) == (5, 70)
    assert report.passed
