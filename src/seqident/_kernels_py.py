"""Pure-Python compute kernels.

Big-integer dot products and the convolution scan used by the range
verifier.  All arithmetic is exact: Python ints, Fractions, and integral
Decimals in a context that traps every rounding.

fib_pair and fill_forward live in sequences; they are re-exported here only
because the benchmark's tracer (seqbench/tracing.py) finds every kernel as
``seqident._backend.kernels.<name>``, until the library records its own
spans (ROADMAP item 1).

The convolution scan sums the pairs weights[k]*values[j] over the band
{k, j >= 1, lo <= k+j <= hi} by Kronecker substitution.  Each side is
packed into one integer whose base-10**D digits are its coefficients, the
two are multiplied once, and the product's digits, read back as balanced
digits with a carry, are the sums, negative ones too.  D bounds twice the
largest sum on the rows wanted, so no digit overflows into the next.  The
multiplication is the decimal module's (libmpdec), which multiplies large
operands by a number-theoretic transform in about n log n time, where
CPython's ints use Karatsuba.  Fractions are scaled by their common
denominator into the same integer product.

One product gives every row of 2..N at once (2..2400: 1.2M-digit operands,
where the scan reads 1.2M digits of weights and values).  A band lo..hi
takes the same product and keeps its top rows, which costs about as much as
2..hi.  Where fewer than _SPLIT_COST band pairs fall to each packed
coefficient (a band a few rows wide, such as one row, or a small scan) the
rows are summed directly instead (_rows).  No packed operand is longer than
twice the digits of the entries it packs, so the transient memory stays a
fixed multiple of the input tables.  A scan over that cap is summed row by
row as well.  Uneven inputs give it: a few entries far longer than the rest,
Fractions with a large common denominator, or entries of a digit or two,
whose slots must still hold sums of hundreds of pairs.
"""

from __future__ import annotations

import decimal
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul

from .sequences import fib_pair, fill_forward  # noqa: F401  (the tracer's names)

# A scan is one product when it has at least this many pairs in the band
# per coefficient packed; a product's cost grows with its packed length, the
# direct sums' with their pairs.  Timed on CPython 3.11 (2 cores), a product
# pays from 40 to 48 pairs a coefficient for bands at the top of 2..N
# (N = 300 to 4000), from 24 to 48 for 2..N itself on Lucas by Fibonacci,
# and from above 64 on a signed pair gaining 2 bits a step.
_SPLIT_COST = 48

# libmpdec's widest context: a product of integers is never rounded, and a
# signal that it was is an error, not a wrong sum.
_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow])


def dot_product(xs: list, ys: list) -> object:
    """Exact dot product of two equal-length value lists (int 0 if empty)."""
    return sum(map(mul, xs, ys))


def convolution_values(weights: list, values: list, lo: int, hi: int) -> list:
    """Convolution sums S(n) = sum_{k=1}^{n-1} weights[k] * values[n-k].

    Both input lists are indexed by absolute sequence index (entry i is the
    i-th term, entries 0..hi must be present).  Returns [S(lo), ..., S(hi)]
    for 0 <= lo, equal to the plain double loop's sums and, for all-int or
    all-Fraction inputs, of its types.

    One Kronecker product of weights[1:hi] and values[1:hi] gives every
    sum, as the module docstring describes.  A band too narrow for that to
    pay, such as one row, or a scan whose packed operand would pass the
    product's cap, is summed directly row by row.  The caller's decimal
    context and int/str digit limit are neither used nor changed.
    """
    first = max(lo, 2)  # rows below 2 have no pairs
    if first > hi:
        return [0] * (hi - lo + 1)
    a, b = weights[1:hi], values[1:hi]
    c = None
    if (first + hi - 2) * (hi - first + 1) // 2 >= _SPLIT_COST * (len(a) + len(b)):
        c = _product(a, b, first - 2, hi - 2)
    if c is None:
        c = _rows(a, b, first - 2, hi - 2)
    return [0] * (first - lo) + c


def _digits(xs: list) -> int:
    """At most the decimal digits of ints, or of Fractions' numerators and
    denominators: an n of b >= 1 bits is at least 2**(b-1), so it has at
    least floor((b-1)*log10(2)) + 1 digits."""
    if not all(isinstance(x, int) for x in xs):
        xs = [n for x in xs for n in (x.numerator, x.denominator)]
    return sum((n.bit_length() - 1) * 30102 // 100000 + 1 for n in xs)


def _product(a: list, b: list, t0: int, t1: int) -> list | None:
    """Coefficients t0..t1 of the polynomial product a*b from one Kronecker
    product, or None when a packed operand would be longer than twice the
    digits of a and b together."""
    # A digit slot need only hold coefficients up to t1, so its width is set
    # by the largest pair on those rows: wa[i] + wb[t1-i], with wa and wb the
    # running maxima of bit lengths.
    (na, da), (nb, db) = _integers(a), _integers(b)
    wa = list(accumulate((x.bit_length() for x in na), max))
    wb = list(accumulate((x.bit_length() for x in nb), max))
    bits = (max(wa[i] + wb[min(t1 - i, len(nb) - 1)] for i in range(len(na)))
            + min(len(na), len(nb)).bit_length() + 1)
    width = bits * 30103 // 100000 + 1  # 10**width > 2**bits > 2*|coefficient|
    if max(len(na), len(nb)) * width > 2 * (_digits(a) + _digits(b)):
        return None
    product = _CONTEXT.multiply(_pack(na, width), _pack(nb, width))
    # The product is sum(c[t] * 10**(width*t)), and |c[t]| < 10**width/2 for
    # t <= t1.  Its low digits, read as balanced digits, give those: slot t
    # is its plain digits, less 10**width when they start at 5 or above, plus
    # the carry that slot t-1 gives when its digits do.  Higher slots may
    # overflow; they only change higher digits.  For a negative product, the
    # slots of -product are -c.  Only slots t0..t1 and the lead digit of slot
    # t0-1 are turned into text: shift drops the digits above and below.
    top, skip = (t1 + 1) * width, max(t0 * width - 1, 0)
    product = _CONTEXT.subtract(product, _CONTEXT.shift(_CONTEXT.shift(product, -top), top))
    digits = str(_CONTEXT.shift(product, -skip))
    negative = digits[0] == "-"
    digits = digits.lstrip("-").zfill(top - skip)
    ends = range(top - t0 * width, 0, -width)  # slot t ends at top - t*width
    c = _ints([digits[e - width:e] for e in ends])
    base = 10 ** width
    for i, e in enumerate(ends):
        if digits[e - width] >= "5":
            c[i] -= base
        if digits[e:e + 1] >= "5":
            c[i] += 1
    if negative:
        c = [-x for x in c]
    if da is None and db is None:
        return c
    d = (da or 1) * (db or 1)
    return [Fraction(x, d) for x in c]


def _integers(xs: list) -> tuple[list, int | None]:
    """(ns, d): ns[i] = xs[i] * d for the least common denominator d of xs,
    with d None and ns = xs when every entry is an int."""
    if all(isinstance(x, int) for x in xs):
        return xs, None
    d = lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _pack(xs: list, width: int) -> decimal.Decimal:
    """sum(xs[i] * 10**(width*i)) as one Decimal; every |xs[i]| < 10**width."""
    texts = _texts(xs[::-1])
    if min(xs) >= 0:
        return _CONTEXT.create_decimal("".join([s.zfill(width) for s in texts]))
    zero = "0" * width
    return _CONTEXT.subtract(
        _CONTEXT.create_decimal("".join([zero if s[0] == "-" else s.zfill(width) for s in texts])),
        _CONTEXT.create_decimal("".join([s[1:].zfill(width) if s[0] == "-" else zero for s in texts])))


def _texts(xs) -> list:
    """The decimal digits of ints.  str() is the faster below the
    interpreter's int/str digit limit; Decimal has no such limit."""
    try:
        return list(map(str, xs))
    except ValueError:
        return [str(decimal.Decimal(x)) for x in xs]


def _ints(texts: list) -> list:
    """The ints that decimal digit strings spell (see _texts)."""
    try:
        return list(map(int, texts))
    except ValueError:
        return [int(decimal.Decimal(s)) for s in texts]


def _rows(a: list, b: list, t0: int, t1: int) -> list:
    """Coefficients t0..t1 of the polynomial product a*b, each summed
    directly: coefficient t is sum(a[i]*b[t-i])."""
    q = len(b)
    rb = b[::-1]
    return ([sum(map(mul, a[:t + 1], rb[q - 1 - t:])) for t in range(t0, min(t1 + 1, q))]
            + [sum(map(mul, a[t - q + 1:], rb)) for t in range(max(t0, q), t1 + 1)])
