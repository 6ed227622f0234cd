"""Exact evaluation of integer linear recurrence sequences.

Provides the SequenceSpec value type (an order-d recurrence with seeds) and
eval_range, the one path that evaluates every spec, F and L included, at any
indices, above or below its seeds.

eval_range jumps to the first requested index and streams only the span
asked for.  The jump is Fiduccia's ("An efficient formula for linear
recurrences", SIAM J. Comput. 14(1), 1985).  With the characteristic
polynomial chi(x) = x**d - c1*x**(d-1) - ... - cd and x**m = r(x) mod chi,
U(n+m) = sum_i r_i*U(n+i) for every n, so the d values from seed_start + m
on are r applied to the first 2d-1 terms.  r comes from repeated squaring
mod chi in O(d**2 log m) big-int products.  Below the seeds, x**-1 =
g(x)/cd mod chi, where x*g(x) = chi(x) + cd has integer coefficients, so
x**-m = g**m / cd**m: the powers stay in integers and the one division by
cd**m comes at the end.  Memory is the size of the values returned, not of
every term between them and the seeds.

All arithmetic is exact: plain Python ints, or Fractions when a spec opts
into rational mode and a value below the seeds is not an integer.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul


class NonInvertibleStepError(ValueError):
    """Backward extension needs |trailing coefficient| = 1 unless the spec
    opts into rational mode."""


class CheckedRecord:
    """Base of the namedtuple records whose __new__ checks their fields:
    _make, and with it _replace, builds through __new__ too."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class SequenceSpec(CheckedRecord,
                   namedtuple("SequenceSpec", "name coeffs seeds seed_start rational")):
    """An order-d linear recurrence U(n) = c1*U(n-1) + ... + cd*U(n-d).

    `seeds` are the first d values, starting at index `seed_start`.
    `rational` permits backward extension with |cd| != 1 by switching the
    extended values to exact fractions; the default is integer-only.

    An immutable namedtuple, like the package's other records; __new__
    normalises and checks the fields.
    """

    __slots__ = ()

    def __new__(cls, name: str, coeffs, seeds, seed_start: int = 0, rational: bool = False):
        coeffs, seeds = tuple(coeffs), tuple(seeds)
        if not name:
            raise ValueError("sequence name must be non-empty")
        if len(coeffs) < 1:
            raise ValueError("recurrence order must be at least 1")
        if len(seeds) != len(coeffs):
            raise ValueError(f"need exactly {len(coeffs)} seeds, got {len(seeds)}")
        if coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero (true order)")
        return super().__new__(cls, name, coeffs, seeds, seed_start, rational)

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


def format_terms(name: str, terms, sep: str) -> str:
    """The terms c*NAME(n-k) of the (k, c) pairs in `terms`, skipping c = 0
    and writing |c| = 1 as NAME(n-k).  `sep` joins the terms, and each sign
    after the first to its term: "" gives F(n-1)+F(n-2), " " F(n-1) + F(n-2)."""
    parts = []
    for k, c in terms:
        if c == 0:
            continue
        term = f"{name}(n-{k})"
        if abs(c) != 1:
            term = f"{abs(c)}*{term}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+" if c > 0 else "-") + sep + term)
    return sep.join(parts)


def fill_forward(coeffs: list, window: list, count: int) -> list:
    """Extend a linear recurrence forward by `count` steps.

    `window` holds the d most recent values U(s)..U(s+d-1); coeffs[i] is
    the coefficient of U(n-1-i).  Returns [U(s+d), ..., U(s+d+count-1)].
    """
    d = len(coeffs)
    vals = list(window)
    for _ in range(count):
        acc = coeffs[0] * vals[-1]
        for i in range(1, d):
            acc += coeffs[i] * vals[-1 - i]
        vals.append(acc)
    return vals[d:]


def _reduce(t: list, coeffs: list) -> list:
    """t mod chi, for polynomials as coefficient lists, lowest degree first:
    x**d = c1*x**(d-1) + ... + cd folds each term above degree d-1 down."""
    d = len(coeffs)
    for k in range(len(t) - 1, d - 1, -1):
        top = t[k]
        if top:
            for i, c in enumerate(coeffs, start=1):
                t[k - i] += c * top
    return t[:d]


def _power(base: list, m: int, coeffs: list) -> list:
    """base(x)**m mod chi, by squaring from the top bit of m down."""
    d = len(coeffs)
    r = [1] + [0] * (d - 1)
    for bit in bin(m)[2:]:
        t = [0] * (2 * d - 1)
        for i, a in enumerate(r):
            if a:
                t[2 * i] += a * a
                a2 = 2 * a
                for j in range(i + 1, d):
                    t[i + j] += a2 * r[j]
        r = _reduce(t, coeffs)
        if bit == "1":
            t = [0] * (d + len(base) - 1)
            for i, a in enumerate(r):
                for j, b in enumerate(base):
                    t[i + j] += a * b
            r = _reduce(t, coeffs)
    return r


def eval_range(spec: SequenceSpec, lo: int, hi: int) -> list:
    """Sequence values at indices lo..hi inclusive.

    Jumps to U(lo)..U(lo+d-1) in O(d**2 log |lo - seed_start|) big-int
    products (module docstring), then streams lo..hi from that window with
    the recurrence, so memory is the size of the d + (hi - lo + 1) values
    and a range starting at or next to the seeds costs what streaming it
    from the seeds costs.  Indices below the seeds need a unit trailing
    coefficient, or rational mode, and raise NonInvertibleStepError
    otherwise.  In rational mode the window there is an integer one over
    cd**(seed_start - lo), divided out at the end; each value is an int
    when integral and a Fraction otherwise.
    """
    if lo > hi:
        raise ValueError(f"empty range {lo}..{hi}")
    coeffs, seeds, s = list(spec.coeffs), list(spec.seeds), spec.seed_start
    if lo >= s:
        base, m, scale = [0, 1], lo - s, 1
    elif spec.invertible():
        # g(x) = x**(d-1) - c1*x**(d-2) - ... - c(d-1)
        base, m, scale = [-c for c in coeffs[-2::-1]] + [1], s - lo, coeffs[-1] ** (s - lo)
    else:
        raise NonInvertibleStepError(
            f"cannot extend {spec.name!r} backward: trailing coefficient "
            f"{coeffs[-1]} is not a unit (enable rational mode)"
        )
    d, count = spec.order, hi - lo + 1
    r = _power(base, m, coeffs)
    head = seeds + fill_forward(coeffs, seeds, d - 1)  # U(s)..U(s+2d-2)
    window = [sum(map(mul, r, head[j:j + d])) for j in range(d)]
    vals = window[:count] + fill_forward(coeffs, window, count - d)
    if scale == 1:
        return vals
    if scale == -1:
        return [-v for v in vals]
    # Imported here: integer specs, and every spec at or above its seeds,
    # never load fractions (nor decimal and numbers, which it imports).
    from fractions import Fraction

    vals = [Fraction(v, scale) for v in vals]
    return [v.numerator if v.denominator == 1 else v for v in vals]


def eval_term(spec: SequenceSpec, n: int):
    """Value of the sequence at index n, by the jump of eval_range."""
    return eval_range(spec, n, n)[0]


def fib(n: int) -> int:
    """F(n) under F(1) = F(2) = 1, F(0) = 0."""
    if n < 0:
        raise ValueError(f"fib index must be >= 0, got {n}")
    return eval_term(FIBONACCI, n)


def lucas(n: int) -> int:
    """L(n) under L(0) = 2, L(1) = 1."""
    if n < 0:
        raise ValueError(f"lucas index must be >= 0, got {n}")
    return eval_term(LUCAS, n)

