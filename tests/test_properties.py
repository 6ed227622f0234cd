"""Property tests over generated specs: sequence evaluation, the identity
scan, the conjecture pipeline and collection, each against plain loops
written here.

Specs have order 1-4, coefficients in -3..3, a unit trailing coefficient
(so every spec runs backward in integers), seeds in -3..3 and seed starts
in -3..3; the evaluation properties also take order 5, trailing
coefficients +-2 and +-3 and rational mode.  Examples are derandomized so
every run checks the same cases.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqident.cli import _value_bits_bound
from seqident.conjecture import (
    REFUTED,
    UNDETERMINED,
    VERIFIED,
    ConjecturedIdentity,
    Recurrence,
    ResidualRule,
    collect_general,
    conjecture,
    verify_conjecture,
)
from seqident.dsl import format_spec, parse
from seqident.expansion import sum_expansions
from seqident.sequences import NonInvertibleStepError, SequenceSpec, eval_range

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
    return SequenceSpec("U", tuple(coeffs), tuple(seeds), seed_start=draw(small),
                        rational=draw(st.booleans()))


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
    time; backward by solving U(m+d) = c1*U(m+d-1) + ... + cd*U(m) for U(m).
    None when that needs dividing by a non-unit cd in integer mode."""
    d, c = spec.order, spec.coeffs
    u = {spec.seed_start + i: v for i, v in enumerate(spec.seeds)}
    for n in range(spec.seed_start + d, hi + 1):
        u[n] = sum(c[i] * u[n - 1 - i] for i in range(d))
    for m in range(spec.seed_start - 1, lo - 1, -1):
        top = u[m + d] - sum(c[i] * u[m + d - 1 - i] for i in range(d - 1))
        if abs(c[-1]) == 1:
            u[m] = top * c[-1]
        elif spec.rational:
            q = Fraction(top, c[-1])
            u[m] = q.numerator if q.denominator == 1 else q
        else:
            return None
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


def as_tuple(failure):
    return None if failure is None else (failure.n, failure.lhs, failure.rhs)


@SETTINGS
@given(st.data())
def test_eval_range_matches_stepping_one_term_at_a_time(data):
    spec = data.draw(any_specs())
    lo, hi = data.draw(windows(spec))
    u = values(spec, lo, hi)
    if u is None:
        with pytest.raises(NonInvertibleStepError):
            eval_range(spec, lo, hi)
        return
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
    if u is None:
        return
    for n in range(lo, hi + 1):
        v = Fraction(u[n])
        assert (abs(v.numerator).bit_length() + v.denominator.bit_length()
                < _value_bits_bound(spec, n) + 2), n


@SETTINGS
@given(any_specs())
def test_format_then_parse_round_trips(spec):
    # The text format has no rational marker: parsed specs are integer-mode.
    assert parse(format_spec(spec)) == SequenceSpec(spec.name, spec.coeffs, spec.seeds,
                                                    spec.seed_start)


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
@given(specs(), st.integers(10, 40))
def test_conjecture_reports_a_status_and_the_first_failure(spec, hi):
    try:
        conj = conjecture(spec, 14, hi, max_order=4)
    except ValueError:
        return
    assert conj.status in (VERIFIED, REFUTED, UNDETERMINED)
    if conj.weight_recurrence is None:
        assert conj.status == UNDETERMINED and conj.first_failure is None
        return
    assert conj.first_failure == verify_conjecture(conj, 2, hi).first_failure
    assert as_tuple(conj.first_failure) == plain_first_failure(conj, 2, hi)
    assert (conj.status == REFUTED) == (conj.first_failure is not None)


@SETTINGS
@given(specs(), st.integers(2, 16))
def test_collect_general_reproduces_the_scaled_term(spec, n):
    w = collect_general(spec, n)
    assert w == sum_expansions(spec, n)
    u = values(spec, min([1] + [n - k for k in w.residual]), n)
    rhs = sum(a * u[n - k] for k, a in enumerate(w.weights, start=1))
    rhs += sum(c * u[n - k] for k, c in w.residual.items())
    assert rhs == (n - 1) * u[n]
