"""Tests for identity verification over single indices and ranges."""

import pytest

from seqident import verify
from seqident.expansion import sum_expansions
from seqident.sequences import FIBONACCI, LUCAS, SequenceSpec, eval_range
from seqident.verify import (
    Failure,
    IdentityReport,
    check_range,
    convolution_sum,
    inductive_step_check,
    reindex_equal,
)


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


def brute_sum(n):
    return sum(iter_lucas(k) * iter_fib(n - k) for k in range(1, n))


def test_convolution_sum_small():
    assert [convolution_sum(n) for n in range(2, 7)] == [1, 4, 9, 20, 40]


def test_convolution_sum_matches_bruteforce():
    for n in range(2, 120):
        assert convolution_sum(n) == brute_sum(n)


def test_convolution_sum_domain():
    with pytest.raises(ValueError):
        convolution_sum(1)


def test_check_identity_single_indices():
    for n in range(2, 60):
        report = check_range(n, n)
        assert report.passed and report.first_failure is None
        assert report.lo == report.hi == n


def test_check_range_passes():
    report = check_range(2, 500)
    assert report.passed
    assert report.first_failure is None
    assert (report.lo, report.hi) == (2, 500)
    assert report.elapsed >= 0.0


def test_check_range_validation():
    with pytest.raises(ValueError):
        check_range(1, 5)
    with pytest.raises(ValueError):
        check_range(10, 5)


def test_report_consistency_enforced():
    with pytest.raises(ValueError):
        IdentityReport(2, 5, True, Failure(3, 4, 5), 0.0)
    with pytest.raises(ValueError):
        IdentityReport(2, 5, False, None, 0.0)


def test_tampered_lucas_first_failure(monkeypatch):
    # forcing L(2) = 4 (instead of 3) leaves n=2 intact, breaks n=3
    monkeypatch.setattr(verify, "LUCAS", SequenceSpec("L", (1, 1), (1, 4), seed_start=1))
    report = check_range(2, 50)
    assert not report.passed
    f = report.first_failure
    assert f.n == 3
    assert f.lhs == 4  # (3-1)*F(3)
    assert f.rhs == 5  # 1*F(2) + 4*F(1)
    assert convolution_sum(3) == 5  # the direct sum reads the same tables


def test_tampered_fib_first_failure(monkeypatch):
    monkeypatch.setattr(verify, "FIBONACCI", SequenceSpec("F", (1, 1), (1, 2), seed_start=1))
    report = check_range(2, 50)
    assert not report.passed
    assert report.first_failure.n == 2


def test_tampered_single_point_still_passes_before_break(monkeypatch):
    monkeypatch.setattr(verify, "LUCAS", SequenceSpec("L", (1, 1), (1, 4), seed_start=1))
    assert check_range(2, 2).passed


def test_inductive_step_small_range():
    assert all(inductive_step_check(m) for m in range(3, 80))


def direct_inductive_rows(lo, hi):
    """fibonacci_checks' replay rows with every S value a direct summation
    (convolution_sum), and F and L read from the specs verify reads."""
    lucs, fibs = eval_range(verify.LUCAS, 0, hi + 1), eval_range(verify.FIBONACCI, 0, hi + 1)
    s = {n: convolution_sum(n) for n in range(max(2, lo - 1), hi + 2)}
    rows = []
    for m in range(max(3, lo), hi + 1):
        decomposed = fibs[m] + s[m] + lucs[0] * fibs[m - 1] + s[m - 1]
        rows.append((m, s[m + 1], decomposed,
                     s[m + 1] == decomposed and s[m + 1] == m * fibs[m + 1]))
    return rows


@pytest.mark.parametrize("tampered", [False, True])
def test_inductive_rows_match_direct_sums(monkeypatch, tampered):
    if tampered:  # L(2) = 4: the decomposition holds, S(m+1) = m*F(m+1) fails
        monkeypatch.setattr(verify, "LUCAS", SequenceSpec("L", (1, 1), (1, 4), seed_start=1))
    products = []
    product = verify._product

    def counted(*args):
        c = product(*args)
        products.append(c is not None)
        return c

    monkeypatch.setattr(verify, "_product", counted)
    # Windows the scan sums row by row, among them lo = 2, 3 and 4 and one
    # row, then two it takes from one product.
    for lo, hi in ((2, 40), (3, 40), (4, 40), (2, 2), (3, 3), (4, 4), (97, 103), (97, 97),
                   (3, 400), (250, 400)):
        products.clear()
        identity, replay = verify.fibonacci_checks(lo, hi, inductive=True)
        assert any(products) == (hi >= 400), (lo, hi, products)
        assert replay == direct_inductive_rows(lo, hi), (lo, hi)
        assert identity == list(verify.identity_rows(lo, hi, *verify._lucas_fib_tables(hi)))
        failing = [m for m, *_, ok in replay if not ok]
        assert failing == (list(range(max(3, lo), hi + 1)) if tampered else [])
        assert verify.fibonacci_checks(lo, hi) == (identity, [])


def test_inductive_step_domain():
    with pytest.raises(ValueError):
        inductive_step_check(2)


def test_reindex_small_range():
    assert all(reindex_equal(m) for m in range(3, 80))


def test_reindex_domain():
    with pytest.raises(ValueError):
        reindex_equal(2)


def test_weights_are_lucas():
    assert list(sum_expansions(FIBONACCI, 30).weights) == eval_range(LUCAS, 1, 29)
