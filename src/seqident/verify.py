"""Verification of the Lucas-weighted Fibonacci convolution identity.

Checks, with exact arithmetic, that sum_{k=1}^{n-1} L(k)*F(n-k) equals
(n-1)*F(n) -- in both the multiplied form and the exact-division form --
over single indices or whole ranges, and replays the inductive
decomposition and reindexing steps that prove it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
                    fib_spec: SequenceSpec = FIBONACCI):
    """S(n) = sum_{k=1}^{n-1} L(k)*F(n-k), by direct summation."""
    if n < 2:
        raise ValueError(f"convolution sum needs n >= 2, got {n}")
    lucs = eval_range(lucas_spec, 1, n - 1)
    fibs = eval_range(fib_spec, 1, n - 1)
    fibs.reverse()  # fibs[j] is now F(n-1-j), pairing L(1+j) with F(n-(1+j))
    return dot_product(lucs, fibs)


def identity_rows(lo: int, hi: int, *, fib_spec: SequenceSpec = FIBONACCI,
                  lucas_spec: SequenceSpec = LUCAS):
    """Yield (n, (n-1)*F(n), S(n), ok) for every n in lo..hi.

    ok holds iff S(n) = (n-1)*F(n) and, independently, n-1 divides S(n)
    exactly with quotient F(n).  F and L values are computed once for the
    whole range and reused by the per-n convolution sums.
    """
    fibs = eval_range(fib_spec, 0, hi)
    lucs = eval_range(lucas_spec, 0, hi)
    sums = convolution_values(lucs, fibs, lo, hi)
    for n, s in zip(range(lo, hi + 1), sums):
        lhs = (n - 1) * fibs[n]
        q, r = divmod(s, n - 1)
        yield n, lhs, s, s == lhs and r == 0 and q == fibs[n]


def check_identity(n: int) -> IdentityReport:
    """Check both forms of the identity at a single index.

    Passes iff S(n) = (n-1)*F(n) and, independently, n-1 divides S(n)
    exactly with quotient F(n).
    """
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
    rows = identity_rows(lo, hi, fib_spec=fib_spec, lucas_spec=lucas_spec)
    failure = next((Failure(n, lhs, rhs) for n, lhs, rhs, ok in rows if not ok), None)
    elapsed = time.perf_counter() - t0
    return IdentityReport(lo, hi, failure is None, failure, elapsed)


def inductive_row(m: int) -> tuple[int, int, int, bool]:
    """Replay the inductive decomposition at m: (m, S(m+1), decomposition, ok),
    where ok holds iff S(m+1) equals F(m) + S(m) + L(0)*F(m-1) + S(m-1),
    and also m*F(m+1).

    All S values come from direct summation; needs m >= 3 so that S(m-1)
    is defined.
    """
    if m < 3:
        raise ValueError(f"inductive step needs m >= 3, got {m}")
    s_next = convolution_sum(m + 1)
    decomposed = fib(m) + convolution_sum(m) + lucas(0) * fib(m - 1) + convolution_sum(m - 1)
    return m, s_next, decomposed, s_next == decomposed and s_next == m * fib(m + 1)


def inductive_step_check(m: int) -> bool:
    """True iff the inductive decomposition holds at m (see inductive_row)."""
    return inductive_row(m)[3]


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
