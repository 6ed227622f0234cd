"""Property tests over generated specs: the identity scan, the conjecture
pipeline and collection, each against plain loops written here.

Specs have order 1-4, coefficients in -3..3, a unit trailing coefficient
(so every spec runs backward in integers), seeds in -3..3 and seed starts
in -3..3.  Examples are derandomized so every run checks the same cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from seqident.expansion import sum_expansions
from seqident.sequences import SequenceSpec

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
small = st.integers(-3, 3)


@st.composite
def specs(draw):
    order = draw(st.integers(1, 4))
    coeffs = [draw(small) for _ in range(order - 1)] + [draw(st.sampled_from((-1, 1)))]
    seeds = [draw(small) for _ in range(order)]
    return SequenceSpec("U", tuple(coeffs), tuple(seeds), seed_start=draw(small))


@st.composite
def recurrences(draw):
    order = draw(st.integers(1, 3))
    coeffs = tuple(draw(st.integers(-2, 2)) for _ in range(order))
    seeds = tuple(draw(small) for _ in range(order))
    return Recurrence(order, coeffs), seeds


def values(spec, lo, hi):
    """{i: U(i)} for lo <= i <= hi, stepping out from the seeds one term at a time."""
    d, c = spec.order, spec.coeffs
    u = {spec.seed_start + i: v for i, v in enumerate(spec.seeds)}
    for n in range(spec.seed_start + d, hi + 1):
        u[n] = sum(c[i] * u[n - 1 - i] for i in range(d))
    for m in range(spec.seed_start - 1, lo - 1, -1):
        # U(m+d) = sum_i c[i]*U(m+d-1-i); solve for U(m), c[d-1] = +-1
        u[m] = (u[m + d] - sum(c[i] * u[m + d - 1 - i] for i in range(d - 1))) * c[d - 1]
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
