"""Exact evaluation of integer linear recurrence sequences.

Provides the SequenceSpec value type (an order-d recurrence with seeds),
fast-doubling Fibonacci/Lucas evaluation, generic forward iteration and
backward extension below the seed range.  All arithmetic is exact: plain
Python ints, or Fractions when a spec opts into rational mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels_py import fib_pair, fill_forward


class NonInvertibleStepError(ValueError):
    """Backward extension needs |trailing coefficient| = 1 unless the spec
    opts into rational mode."""


@dataclass(frozen=True)
class SequenceSpec:
    """An order-d linear recurrence U(n) = c1*U(n-1) + ... + cd*U(n-d).

    `seeds` are the first d values, starting at index `seed_start`.
    `rational` permits backward extension with |cd| != 1 by switching the
    extended values to exact fractions; the default is integer-only.
    """

    name: str
    coeffs: tuple[int, ...]
    seeds: tuple[int, ...]
    seed_start: int = 0
    rational: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.name:
            raise ValueError("sequence name must be non-empty")
        if len(self.coeffs) < 1:
            raise ValueError("recurrence order must be at least 1")
        if len(self.seeds) != len(self.coeffs):
            raise ValueError(
                f"need exactly {len(self.coeffs)} seeds, got {len(self.seeds)}"
            )
        if self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (true order)")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def seed_end(self) -> int:
        """Index of the last seed."""
        return self.seed_start + self.order - 1

    def invertible(self) -> bool:
        """True when the recurrence can be run backward over this spec's
        value domain (|cd| = 1, or rational mode)."""
        return abs(self.coeffs[-1]) == 1 or self.rational


FIBONACCI = SequenceSpec("F", (1, 1), (1, 1), seed_start=1)
LUCAS = SequenceSpec("L", (1, 1), (2, 1), seed_start=0)
TRIBONACCI = SequenceSpec("T", (1, 1, 1), (0, 0, 1), seed_start=0)

BUILTIN_SPECS = {
    "fib": FIBONACCI,
    "fibonacci": FIBONACCI,
    "lucas": LUCAS,
    "tribonacci": TRIBONACCI,
    "trib": TRIBONACCI,
}


def fib(n: int) -> int:
    """F(n) under F(1) = F(2) = 1, F(0) = 0, in O(log n) multiplications."""
    if n < 0:
        raise ValueError(f"fib index must be >= 0, got {n}")
    return fib_pair(n)[0]


def lucas(n: int) -> int:
    """L(n) under L(0) = 2, L(1) = 1, via L(n) = 2*F(n+1) - F(n)."""
    if n < 0:
        raise ValueError(f"lucas index must be >= 0, got {n}")
    a, b = fib_pair(n)
    return 2 * b - a


def _as_int_if_integral(v):
    """A Fraction with denominator 1 as an int; anything else unchanged."""
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _extend_down(spec: SequenceSpec, count: int) -> list:
    """Values U(seed_start - count) .. U(seed_start - 1), oldest first.

    Solves the recurrence for its lowest term: with window holding
    U(m+1)..U(m+d), U(m) = (U(m+d) - sum_{i<d} ci*U(m+d-i)) / cd.
    """
    if count <= 0:
        return []
    if not spec.invertible():
        raise NonInvertibleStepError(
            f"cannot extend {spec.name!r} backward: trailing coefficient "
            f"{spec.coeffs[-1]} is not a unit (enable rational mode)"
        )
    d = spec.order
    cd = spec.coeffs[-1]
    window = list(spec.seeds)  # U(m+1)..U(m+d) as we walk m downward
    out = []
    for _ in range(count):
        rest = 0
        for i in range(d - 1):
            rest += spec.coeffs[i] * window[d - 2 - i]
        top = window[-1] - rest
        if abs(cd) == 1:
            v = top * cd  # cd in {1, -1}: exact division
        else:
            v = _as_int_if_integral(Fraction(top, cd))
        out.append(v)
        window = [v] + window[:-1]
    out.reverse()
    return out


def eval_range(spec: SequenceSpec, lo: int, hi: int) -> list:
    """Sequence values at indices lo..hi inclusive.

    Indices below the seed range are reached by backward extension and
    raise NonInvertibleStepError when the spec does not permit it.
    """
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    s = spec.seed_start
    e = spec.seed_end
    below = _extend_down(spec, s - lo) if lo < s else []
    vals = below + list(spec.seeds)
    if hi > e:
        vals += fill_forward(list(spec.coeffs), vals[-spec.order:], hi - e)
    # vals now covers min(lo, s) .. max(hi, e)
    start = min(lo, s)
    return vals[lo - start : hi - start + 1]


def eval_term(spec: SequenceSpec, n: int):
    """Value of the sequence at index n by exact iteration."""
    return eval_range(spec, n, n)[0]


def extend_backward(spec: SequenceSpec, n: int):
    """Value at an index below the seed range, by running the recurrence
    backward.  Raises NonInvertibleStepError if |cd| != 1 in integer mode."""
    if n >= spec.seed_start:
        raise ValueError(
            f"index {n} is not below the seed range (starts at {spec.seed_start})"
        )
    return eval_term(spec, n)
