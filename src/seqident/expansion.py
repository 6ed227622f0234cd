"""Linear-form expansion of a recurrence and per-shift coefficient collection.

A LinearForm expresses U(n) as an integer combination of shifted terms
U(n-k).  Substituting the recurrence for the least-shifted term gives the
next, deeper expansion, whose nonzero shifts all fit in one window of d
slots.  Summing the first n-1 expansions and collecting coefficients per
shift yields the weights a_1..a_{n-1} plus a residual of boundary terms at
shifts >= n (which multiply values at index <= 0).
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice

from .sequences import CheckedRecord, SequenceSpec


class LinearForm(CheckedRecord, namedtuple("LinearForm", "spec terms")):
    """U(n) = sum over shifts k of terms[k] * U(n-k), with k >= 1.

    Zero coefficients are never stored; terms is a new dict in shift order.
    Treat instances as immutable.
    """

    __slots__ = ()

    def __new__(cls, spec: SequenceSpec, terms: dict[int, int] | None = None):
        terms = {k: c for k, c in sorted((terms or {}).items()) if c != 0}
        return super().__new__(cls, spec, terms)


class CollectedWeights(namedtuple("CollectedWeights", "n weights residual")):
    """Per-shift coefficients of the summed expansions at a target index n.

    weights[k-1] is the coefficient of U(n-k) for k = 1..n-1; residual maps
    shifts k >= n to their coefficients (these multiply U(n-k) at index
    <= 0, reachable only by backward extension).  Satisfies

        sum_k weights[k-1]*U(n-k) + sum_k residual[k]*U(n-k) = (n-1)*U(n).
    """

    __slots__ = ()


def _forms(coeffs: tuple[int, ...]):
    """Yield the form of each depth 1, 2, ... as (k, w): sum w[i]*U(n-k-i), w[0] != 0.

    A substitution leaves top*c_d, never 0, in the last of the d slots, so no
    nonzero shift leaves the window; a leading slot that is 0 is passed over.
    """
    k, w = 1, list(coeffs)
    while True:
        while not w[0]:
            k, w = k + 1, w[1:] + [0]
        yield k, w
        top = w[0]
        k, w = k + 1, [a + top * c for a, c in zip(w[1:] + [0], coeffs)]


def expansion(spec: SequenceSpec, depth: int) -> LinearForm:
    """The form after depth-1 substitutions of the least-shifted term."""
    if depth < 1:
        raise ValueError(f"expansion depth must be >= 1, got {depth}")
    k, w = next(islice(_forms(spec.coeffs), depth - 1, None))
    return LinearForm(spec, dict(enumerate(w, start=k)))


def sum_expansions(spec: SequenceSpec, n: int) -> CollectedWeights:
    """Sum the expansions of depth 1..n-1 and collect coefficients per shift.

    Shifts 1..n-1 populate the weight vector (absent shifts are 0); shifts
    >= n are kept as the residual.  Each form is one window of d slots:
    O(n*d) coefficient operations in all.
    """
    if n < 2:
        raise ValueError(f"target index must be >= 2, got {n}")
    totals = {}
    for k, w in islice(_forms(spec.coeffs), n - 1):
        for shift, c in enumerate(w, start=k):
            totals[shift] = totals.get(shift, 0) + c
    weights = tuple(totals.get(k, 0) for k in range(1, n))
    residual = {k: c for k, c in sorted(totals.items()) if k >= n and c != 0}
    return CollectedWeights(n, weights, residual)
