"""Verification of the Lucas-weighted Fibonacci convolution identity.

Checks, with exact arithmetic, that sum_{k=1}^{n-1} L(k)*F(n-k) equals
(n-1)*F(n) -- in both the multiplied form and the exact-division form --
over single indices or whole ranges, and replays the inductive
decomposition and reindexing steps that prove it.

identity_rows is the one identity-scan engine: it checks the general form
(n-1)*U(n) = sum a(k)*U(n-k) + sum_j rho_j(n)*U(-j) row by row.  The
paper's check (fibonacci_rows, for check_range and the CLI), the
conjecture verifier and collect_general's cross-check all run on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from ._kernels_py import convolution_values, dot_product
from .expansion import CollectedWeights
from .sequences import FIBONACCI, LUCAS, SequenceSpec, eval_range, fib, lucas


@dataclass(frozen=True)
class Failure:
    """A single failing index with both sides of the identity."""

    n: int
    lhs: int  # (n-1)*F(n)
    rhs: int  # the convolution sum S(n)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of checking the identity over an index range."""

    lo: int
    hi: int
    passed: bool
    first_failure: Failure | None
    elapsed: float

    def __post_init__(self):
        if self.passed != (self.first_failure is None):
            raise ValueError("passed must agree with absence of first_failure")


def convolution_sum(n: int, *, lucas_spec: SequenceSpec = LUCAS,
                    fib_spec: SequenceSpec = FIBONACCI, _tables=None):
    """S(n) = sum_{k=1}^{n-1} L(k)*F(n-k), by direct summation."""
    # _tables, for inductive_rows only, is (lucs, fibs) with lucs[i] = L(i)
    # and fibs[i] = F(i) for every i up to at least n-1, read in place of
    # evaluating the default specs.
    if n < 2:
        raise ValueError(f"convolution sum needs n >= 2, got {n}")
    if _tables is None:
        _tables = ([0, *eval_range(lucas_spec, 1, n - 1)], [0, *eval_range(fib_spec, 1, n - 1)])
    lucs, fibs = _tables
    return dot_product(lucs[1:n], fibs[n - 1:0:-1])  # L(k) paired with F(n-k)


def identity_rows(lo: int, hi: int, weights, values, extra=()):
    """Yield (n, (n-1)*U(n), rhs, ok) for n in lo..hi (lo >= 2): the one
    scan of (n-1)*U(n) = sum_{k=1}^{n-1} a(k)*U(n-k) + sum_j rho_j(n)*U(-j).

    weights[k] = a(k) and values[n] = U(n) are indexed by absolute index
    (index 0 is never read); extra[n-lo], if given, is row n's residual sum.
    ok holds iff rhs = (n-1)*U(n) and, independently, n-1 divides rhs
    exactly with quotient U(n) (a Fraction, so rational values divide too).
    """
    sums = convolution_values(weights, values, lo, hi)
    if extra:
        sums = map(add, sums, extra)
    for n, rhs in zip(range(lo, hi + 1), sums):
        u = values[n]
        lhs = (n - 1) * u
        yield n, lhs, rhs, rhs == lhs and Fraction(rhs, n - 1) == u


def fibonacci_rows(lo: int, hi: int, *, fib_spec: SequenceSpec = FIBONACCI,
                   lucas_spec: SequenceSpec = LUCAS):
    """identity_rows for the paper's instance U = F, a = L, no residual."""
    fibs = eval_range(fib_spec, 0, hi)
    lucs = eval_range(lucas_spec, 0, hi)
    return identity_rows(lo, hi, lucs, fibs)


def scan_report(lo: int, hi: int, rows, t0: float) -> IdentityReport:
    """The report on identity_rows' rows for lo..hi, timed from perf_counter() t0."""
    failure = next((Failure(n, lhs, rhs) for n, lhs, rhs, ok in rows if not ok), None)
    return IdentityReport(lo, hi, failure is None, failure, time.perf_counter() - t0)


def check_identity(n: int) -> IdentityReport:
    """Check both forms of the identity at a single index (see identity_rows)."""
    return check_range(n, n)


def check_range(lo: int, hi: int, *, fib_spec: SequenceSpec = FIBONACCI,
                lucas_spec: SequenceSpec = LUCAS) -> IdentityReport:
    """Check the identity for every n in lo..hi; report the least failure.

    The spec arguments exist so tests can inject tampered sequences; the
    defaults are the real ones.
    """
    if lo < 2 or lo > hi:
        raise ValueError(f"invalid range {lo}..{hi} (need 2 <= lo <= hi)")
    t0 = time.perf_counter()
    rows = fibonacci_rows(lo, hi, fib_spec=fib_spec, lucas_spec=lucas_spec)
    return scan_report(lo, hi, rows, t0)


def inductive_rows(lo: int, hi: int):
    """Replay the inductive decomposition at each m in lo..hi (lo >= 3, so
    that S(m-1) is defined): yield (m, S(m+1), decomposition, ok), where ok
    holds iff S(m+1) equals F(m) + S(m) + L(0)*F(m-1) + S(m-1), and also
    m*F(m+1).

    Every S value is a direct summation over L and F tables evaluated once,
    up to index hi; the F and L terms of the decomposition come from fast
    doubling.
    """
    if lo < 3:
        raise ValueError(f"inductive step needs m >= 3, got {lo}")
    tables = (eval_range(LUCAS, 0, hi), eval_range(FIBONACCI, 0, hi))
    for m in range(lo, hi + 1):
        s_next = convolution_sum(m + 1, _tables=tables)
        decomposed = (fib(m) + convolution_sum(m, _tables=tables) + lucas(0) * fib(m - 1)
                      + convolution_sum(m - 1, _tables=tables))
        yield m, s_next, decomposed, s_next == decomposed and s_next == m * fib(m + 1)


def inductive_step_check(m: int) -> bool:
    """True iff the inductive decomposition holds at m (see inductive_rows)."""
    return next(inductive_rows(m, m))[3]


def reindex_equal(m: int) -> bool:
    """Check the j = k-1 reindexing used in the proof:
    sum_{k=2}^{m} L(k)*F(m+1-k) = sum_{j=1}^{m-1} L(j+1)*F(m-j),
    with both summations evaluated independently."""
    if m < 3:
        raise ValueError(f"reindex check needs m >= 3, got {m}")
    left = sum(lucas(k) * fib(m + 1 - k) for k in range(2, m + 1))
    right = sum(lucas(j + 1) * fib(m - j) for j in range(1, m))
    return left == right


def weights_are_lucas(w: CollectedWeights) -> bool:
    """True iff the collected weights equal L(1)..L(n-1)."""
    return all(a == lucas(k) for k, a in enumerate(w.weights, start=1))
