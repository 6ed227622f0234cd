"""Verification of the Lucas-weighted Fibonacci convolution identity.

Checks, with exact arithmetic, that sum_{k=1}^{n-1} L(k)*F(n-k) equals
(n-1)*F(n) -- in both the multiplied form and the exact-division form --
over single indices or whole ranges, and replays the inductive
decomposition and reindexing steps that prove it.

identity_rows is the one identity-scan engine: it checks the general form
(n-1)*U(n) = sum a(k)*U(n-k) + sum_j rho_j(n)*U(-j) row by row.  The
paper's check (fibonacci_checks, for check_range and the CLI), the
conjecture verifier and collect_general's cross-check all run on it; the
paper's check takes its identity rows and its inductive replay from one
scan.

All arithmetic is exact: Python ints, Fractions, and integral Decimals in
a context that traps every rounding.

The convolution scan sums the pairs weights[k]*values[j] over the band
{k, j >= 1, lo <= k+j <= hi} by Kronecker substitution.  Each side is
turned into decimal text once (Fractions first scaled by their common
denominator to ints) and packed into one integer whose base-10**D digits
are its coefficients; the two are multiplied once, and the product's
digits, read back as balanced digits with a carry, are the sums, negative
ones too.  D comes from the texts: |x| < 10**len(str(x)), so a slot the
longest pair of texts on the rows wanted, plus the digits of the pair
count, plus one, is over twice the largest sum, and no digit overflows
into the next.  The multiplication is the decimal module's (libmpdec),
which multiplies large operands by a number-theoretic transform in about
n log n time, where CPython's ints use Karatsuba.  The transform has 2**k
or 3*2**(k-1) words of 19 digits, the least that holds the product, so its
time steps up by half or more where a product passes one of those lengths.

One product gives every row of 2..N at once (2..2400: 1.2M-digit operands,
where the scan reads 1.2M digits of weights and values).  A band lo..hi
takes the same product and keeps its top rows, which costs about as much as
2..hi.  Where fewer than _SPLIT_COST band pairs fall to each packed
coefficient (a band a few rows wide, such as one row, or a small scan) the
rows are summed directly instead (_rows).  No packed operand is longer than
twice the texts of the entries it packs, with each entry allowed the
digits of the pair count and a sign as well (a slot holds a sum of that
many pairs), so the transient memory stays a fixed multiple of those texts
plus a few digits an entry, and entries of a digit or two still take one
product.  A scan over that cap is summed row by row as well.  Uneven
inputs give it: a few entries far longer than the rest.
"""

from __future__ import annotations

import decimal
import time
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import add, mul

from .sequences import FIBONACCI, LUCAS, CheckedRecord, eval_range


class Failure(namedtuple("Failure", "n lhs rhs")):
    """A single failing index with both sides of the identity: lhs is
    (n-1)*F(n), rhs the convolution sum S(n)."""

    __slots__ = ()


class IdentityReport(CheckedRecord,
                     namedtuple("IdentityReport", "lo hi passed first_failure elapsed")):
    """Outcome of checking the identity over an index range."""

    __slots__ = ()

    def __new__(cls, lo: int, hi: int, passed: bool, first_failure: Failure | None,
                elapsed: float):
        if passed != (first_failure is None):
            raise ValueError("passed must agree with absence of first_failure")
        return super().__new__(cls, lo, hi, passed, first_failure, elapsed)


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


def _product(a: list, b: list, t0: int, t1: int) -> list | None:
    """Coefficients t0..t1 of the polynomial product a*b from one Kronecker
    product, or None when a packed operand would be longer than twice the
    texts of a and b together, counting for each entry the digits of the
    pair count and a sign as well."""
    (na, da), (nb, db) = _integers(a), _integers(b)
    sa, sb = _convert(str, na), _convert(str, nb)
    # |x| < 10**len(str(x)), so with la and lb the running maxima of the
    # texts' lengths, a pair on rows up to t1 is below 10**(la[i] + lb[t1-i]),
    # and a slot holds a sum of fewer than 10**count of them: 10**width is
    # over twice every coefficient a slot must hold.
    la, lb = list(accumulate(map(len, sa), max)), list(accumulate(map(len, sb), max))
    count = len(str(min(len(sa), len(sb))))  # digits of the most pairs on one row
    width = max(la[i] + lb[min(t1 - i, len(lb) - 1)] for i in range(len(la))) + count + 1
    # Each entry is allowed count digits and a sign's besides its own text,
    # so the operands, and the product of about their summed length, stay a
    # fixed multiple of the texts plus a few digits an entry (entries in
    # -2..2 at 2..2000: two 17,982-digit operands).
    allowed = sum(map(len, sa)) + sum(map(len, sb)) + (len(sa) + len(sb)) * (count + 1)
    if max(len(sa), len(sb)) * width > 2 * allowed:
        return None
    # The transform's steps (module docstring) fall at operands of 622,592,
    # 933,888 and 1,245,184 digits (products of 2**16, 3*2**15 and 2**17
    # words); a slot one digit wider lengthens an operand by its entry count.
    product = _CONTEXT.multiply(_pack(sa, width), _pack(sb, width))
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
    c = _convert(int, [digits[e - width:e] for e in ends])
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


def _pack(texts: list, width: int) -> decimal.Decimal:
    """sum(int(texts[i]) * 10**(width*i)) as one Decimal; no text is longer
    than width."""
    texts = texts[::-1]
    if min(texts)[0] != "-":  # "-" sorts before every digit
        return _CONTEXT.create_decimal("".join([s.zfill(width) for s in texts]))
    zero = "0" * width
    return _CONTEXT.subtract(
        _CONTEXT.create_decimal("".join([zero if s[0] == "-" else s.zfill(width) for s in texts])),
        _CONTEXT.create_decimal("".join([s[1:].zfill(width) if s[0] == "-" else zero for s in texts])))


def _convert(f, xs) -> list:
    """[f(x) for x in xs], for f str (ints to decimal digits) or int (back).
    f itself is the faster below the interpreter's int/str digit limit;
    Decimal has no such limit."""
    try:
        return list(map(f, xs))
    except ValueError:
        return [f(decimal.Decimal(x)) for x in xs]


def _rows(a: list, b: list, t0: int, t1: int) -> list:
    """Coefficients t0..t1 of the polynomial product a*b, each summed
    directly: coefficient t is sum(a[i]*b[t-i])."""
    q = len(b)
    rb = b[::-1]
    return ([sum(map(mul, a[:t + 1], rb[q - 1 - t:])) for t in range(t0, min(t1 + 1, q))]
            + [sum(map(mul, a[t - q + 1:], rb)) for t in range(max(t0, q), t1 + 1)])


def _lucas_fib_tables(hi: int) -> tuple[list, list]:
    """(lucs, fibs) with lucs[i] = L(i) and fibs[i] = F(i) for i = 0..hi.
    LUCAS and FIBONACCI are read from this module at each call, so a test
    can replace them."""
    return eval_range(LUCAS, 0, hi), eval_range(FIBONACCI, 0, hi)


def convolution_sum(n: int):
    """S(n) = sum_{k=1}^{n-1} L(k)*F(n-k), by direct summation: the
    reference the scan (convolution_values) is tested against."""
    if n < 2:
        raise ValueError(f"convolution sum needs n >= 2, got {n}")
    lucs, fibs = _lucas_fib_tables(n - 1)
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


def require_range(lo: int, hi: int) -> None:
    """Raise ValueError unless lo..hi is a range the identity scan checks."""
    if lo < 2 or lo > hi:
        raise ValueError(f"invalid range {lo}..{hi} (need 2 <= lo <= hi)")


def scan_report(lo: int, hi: int, rows, t0: float) -> IdentityReport:
    """The report on identity_rows' rows for lo..hi, timed from perf_counter() t0."""
    failure = next((Failure(n, lhs, rhs) for n, lhs, rhs, ok in rows if not ok), None)
    return IdentityReport(lo, hi, failure is None, failure, time.perf_counter() - t0)


def check_range(lo: int, hi: int) -> IdentityReport:
    """Check the identity for every n in lo..hi; report the least failure."""
    require_range(lo, hi)
    t0 = time.perf_counter()
    return scan_report(lo, hi, fibonacci_checks(lo, hi)[0], t0)


def fibonacci_checks(lo: int, hi: int, inductive: bool = False) -> tuple[list, list]:
    """(identity, replay) from one scan of the paper's instance U = F, a = L:
    identity_rows' rows for n in lo..hi (lo >= 2) and, with inductive, the
    inductive decomposition at each m in max(3, lo)..hi as (m, S(m+1),
    decomposition, ok), ok iff S(m+1) equals F(m) + S(m) + L(0)*F(m-1) +
    S(m-1), and also m*F(m+1).  With inductive, the scan runs over
    max(2, lo-1)..hi+1 on L and F tables evaluated once, to hi+1, and the
    replay reads its S values from the scan's rows, F and L from the tables.
    """
    first, last = (max(2, lo - 1), hi + 1) if inductive else (lo, hi)
    lucs, fibs = _lucas_fib_tables(last)
    rows = list(identity_rows(first, last, lucs, fibs))
    replay = []
    if inductive:
        s = [rhs for _, _, rhs, _ in rows]  # s[i] = S(first+i); first + 1 = max(3, lo)
        for m, s_prev, s_m, s_next in zip(range(first + 1, hi + 1), s, s[1:], s[2:]):
            decomposed = fibs[m] + s_m + lucs[0] * fibs[m - 1] + s_prev
            replay.append((m, s_next, decomposed,
                           s_next == decomposed and s_next == m * fibs[m + 1]))
    return rows[lo - first:hi - first + 1], replay


def inductive_step_check(m: int) -> bool:
    """True iff the inductive decomposition holds at m (see fibonacci_checks)."""
    if m < 3:
        raise ValueError(f"inductive step needs m >= 3, got {m}")
    return fibonacci_checks(m, m, inductive=True)[1][0][3]


def reindex_equal(m: int) -> bool:
    """Check the j = k-1 reindexing used in the proof:
    sum_{k=2}^{m} L(k)*F(m+1-k) = sum_{j=1}^{m-1} L(j+1)*F(m-j),
    with both summations evaluated independently."""
    if m < 3:
        raise ValueError(f"reindex check needs m >= 3, got {m}")
    lucs, fibs = _lucas_fib_tables(m)
    left = sum(lucs[k] * fibs[m + 1 - k] for k in range(2, m + 1))
    right = sum(lucs[j + 1] * fibs[m - j] for j in range(1, m))
    return left == right
