"""Linear-form expansion of a recurrence and per-shift coefficient collection.

A LinearForm expresses U(n) as an integer combination of shifted terms
U(n-k).  Repeatedly substituting the recurrence for the least-shifted term
produces deeper expansions; summing the first n-1 of them and collecting
coefficients per shift yields the weights a_1..a_{n-1} plus a residual of
boundary terms at shifts >= n (which multiply values at index <= 0).
"""

from __future__ import annotations

from collections import namedtuple

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


def initial_form(spec: SequenceSpec) -> LinearForm:
    """The recurrence itself as a form: shift i carries coefficient ci."""
    return LinearForm(spec, {i + 1: c for i, c in enumerate(spec.coeffs)})


def _substitute(terms: dict[int, int], coeffs: tuple[int, ...]) -> dict[int, int]:
    """One substitution step on a raw shift->coefficient map."""
    k_min = min(terms)
    c = terms[k_min]
    out = dict(terms)
    del out[k_min]
    for i, ci in enumerate(coeffs, start=1):
        nc = out.get(k_min + i, 0) + c * ci
        if nc:
            out[k_min + i] = nc
        else:
            out.pop(k_min + i, None)
    return out


def expansion(spec: SequenceSpec, depth: int) -> LinearForm:
    """The form after depth-1 substitutions of the least-shifted term."""
    if depth < 1:
        raise ValueError(f"expansion depth must be >= 1, got {depth}")
    terms = initial_form(spec).terms
    for _ in range(depth - 1):
        terms = _substitute(terms, spec.coeffs)
    return LinearForm(spec, terms)


def sum_expansions(spec: SequenceSpec, n: int) -> CollectedWeights:
    """Sum the expansions of depth 1..n-1 and collect coefficients per shift.

    Shifts 1..n-1 populate the weight vector (absent shifts are 0); shifts
    >= n are kept as the residual.  Each expansion is the last after one
    substitution: O(n*d) coefficient operations, about n + d totals.
    """
    if n < 2:
        raise ValueError(f"target index must be >= 2, got {n}")
    cur = initial_form(spec).terms
    totals = dict(cur)
    for _ in range(n - 2):
        cur = _substitute(cur, spec.coeffs)
        for k, c in cur.items():
            totals[k] = totals.get(k, 0) + c
    weights = tuple(totals.get(k, 0) for k in range(1, n))
    residual = {k: c for k, c in sorted(totals.items()) if k >= n and c != 0}
    return CollectedWeights(n, weights, residual)
