"""Pure-Python compute kernels.

Fast-doubling Fibonacci pairs, forward recurrence fills, big-integer dot
products and the convolution scan used by the range verifier.  All
arithmetic is exact: Python ints or Fractions, and only +, - and * are used.

The convolution scan sums the pairs weights[k]*values[j] over the band
{k, j >= 1, lo <= k+j <= hi}.  It splits the band recursively: a block of
k-indices by j-indices that lies wholly inside the band is one polynomial
product, done by Karatsuba (three half-size products instead of four); a
block that straddles an edge of the band is halved along its longer side.
Over 2..N the products grow as at most about N**1.6 instead of N**2/2: for
the Lucas and Fibonacci tables, 232,197 instead of 499,500 at N = 1000 and
678,963 instead of 2,878,800 at N = 2400.  Blocks too small, too narrow or
with operands too short for a split to pay (_pays and _split_pays) are
summed directly, one row at a time (_rows, also the base case of the
Karatsuba product).
"""

from __future__ import annotations

from operator import add, mul, sub

# A Karatsuba split of a side-s block whose operands are about bw and bv bits
# long saves s*s/4 products of cost ~bw*bv, and costs ~4s additions and a few
# calls.  Timed on CPython 3.11, one split starts to pay at s*bits ~ 8192 for
# equal operand sizes, so a split is made when s*s*bw*bv reaches this.
_SPLIT_COST = 8192 ** 2


def fib_pair(n: int) -> tuple[int, int]:
    """Return (F(n), F(n+1)) for n >= 0 by fast doubling.

    Uses F(2k) = F(k)*(2*F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2,
    walking the bits of n from the top.  O(log n) big-int multiplications.
    """
    a, b = 0, 1  # F(0), F(1)
    for i in range(n.bit_length() - 1, -1, -1):
        c = a * (2 * b - a)
        d = a * a + b * b
        if (n >> i) & 1:
            a, b = d, c + d
        else:
            a, b = c, d
    return a, b


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


def dot_product(xs: list, ys: list) -> object:
    """Exact dot product of two equal-length value lists (int 0 if empty)."""
    return sum(map(mul, xs, ys))


def convolution_values(weights: list, values: list, lo: int, hi: int) -> list:
    """Convolution sums S(n) = sum_{k=1}^{n-1} weights[k] * values[n-k].

    Both input lists are indexed by absolute sequence index (entry i is the
    i-th term, entries 0..hi must be present).  Returns [S(lo), ..., S(hi)]
    for 0 <= lo, equal to the plain double loop's sums and, for all-int or
    all-Fraction inputs, of its types.

    The pairs (k, n-k) are split into blocks as the module docstring
    describes: over 2..N at most about N**1.6 products, and over a band
    lo..hi of width W fewer than its N*W pairs once W is wide enough to
    hold squares worth a split (1906..2400: 563,051 of 1,065,240).  A scan
    none of whose blocks would pay for a split (small N, short operands, or
    a band a few rows wide, such as one row) is one block of direct row sums.
    """
    out = [0] * (hi - lo + 1)
    _scan_block(weights, values, lo, hi, 1, hi, 1, hi, out)
    return out


def _pays(side: int, w_bits: int, v_bits: int) -> bool:
    """True when a Karatsuba split of a side-`side` block whose operands are
    about w_bits and v_bits long pays."""
    return side * side * w_bits * v_bits >= _SPLIT_COST


def _bits(*xs) -> int:
    """The largest bit length of ints or Fractions' numerators; at least 1."""
    return max(x.numerator.bit_length() for x in xs) or 1


def _split_pays(w, v, lo, hi, k0, k1, j0, j1) -> bool:
    """True when halving the block k0 <= k < k1, j0 <= j < j1, which meets
    the band lo..hi but is not wholly inside it, leads to wholly-inside squares
    worth two Karatsuba splits; splitting for less costs more in shorter row
    sums than it saves.

    Such a square is at most half the block's longer side and half the rows
    it meets.  Its operands are taken where the band crosses the block: at
    the block's low corner when only the upper edge crosses, at its high
    corner when only the lower edge does, and at the middle of the band when
    both do.  The last two rules are needed by the bands that --jobs 2 gives
    its high chunk: with low-corner operands throughout, 2019..2400 makes
    843,647 products (all of its pairs); with the middle rule but low-corner
    operands where only the lower edge crosses, 519,689; as below, 467,256.
    """
    below, above = k0 + j0 < lo, k1 + j1 - 2 > hi
    rows = min(k1 + j1 - 2, hi) - max(k0 + j0, lo) + 1
    side = min(max(k1 - k0, j1 - j0), rows + 1) // 2
    if side < 4:
        return False
    if below and above:
        n = (lo + hi) // 2
        k = min(max(n // 2, n - j1 + 1, k0), n - j0, k1 - 1)
        return _pays(side // 4, _bits(w[k]), _bits(v[n - k]))
    if above:
        return _pays(side // 4, _bits(w[k0], w[k0 + side - 1]), _bits(v[j0], v[j0 + side - 1]))
    return _pays(side // 4, _bits(w[k1 - side], w[k1 - 1]), _bits(v[j1 - side], v[j1 - 1]))


def _scan_block(w, v, lo, hi, k0, k1, j0, j1, out) -> None:
    """Add w[k]*v[j] into out[k+j-lo] for k0 <= k < k1, j0 <= j < j1 and
    lo <= k+j <= hi."""
    first, last = max(k0 + j0, lo), min(k1 + j1 - 2, hi)
    if first > last:
        return
    p, q = k1 - k0, j1 - j0
    inside = first == k0 + j0 and last == k1 + j1 - 2
    if inside and -1 <= p - q <= 1:
        c = _product(w[k0:k1], v[j0:j1])
    elif not inside and not _split_pays(w, v, lo, hi, k0, k1, j0, j1):
        c = _rows(w[k0:k1], v[j0:j1], first - k0 - j0, last - k0 - j0)
    elif p >= q:
        h = k0 + p // 2
        _scan_block(w, v, lo, hi, k0, h, j0, j1, out)
        _scan_block(w, v, lo, hi, h, k1, j0, j1, out)
        return
    else:
        h = j0 + q // 2
        _scan_block(w, v, lo, hi, k0, k1, j0, h, out)
        _scan_block(w, v, lo, hi, k0, k1, h, j1, out)
        return
    out[first - lo:last - lo + 1] = map(add, out[first - lo:last - lo + 1], c)


def _product(a: list, b: list) -> list:
    """Coefficients of the polynomial product a*b, by Karatsuba while a
    split pays and by schoolbook sums below that."""
    p, q = len(a), len(b)
    m = min(p, q) // 2
    if not m or not _pays(2 * m, _bits(a[0], a[-1]), _bits(b[0], b[-1])):
        return _rows(a, b, 0, p + q - 2)
    a0, a1, b0, b1 = a[:m], a[m:], b[:m], b[m:]
    low, high = _product(a0, b0), _product(a1, b1)
    mid = _product(list(map(add, a0, a1)) + a1[m:], list(map(add, b0, b1)) + b1[m:])
    mid = list(map(sub, mid, high))
    mid[:len(low)] = map(sub, mid, low)
    c = low + [0] + high  # the 0 at index 2m-1 always receives a mid term
    c[m:m + len(mid)] = map(add, c[m:m + len(mid)], mid)
    return c


def _rows(a: list, b: list, t0: int, t1: int) -> list:
    """Coefficients t0..t1 of the polynomial product a*b, each summed
    directly: coefficient t is sum(a[i]*b[t-i])."""
    q = len(b)
    rb = b[::-1]
    return ([sum(map(mul, a[:t + 1], rb[q - 1 - t:])) for t in range(t0, min(t1 + 1, q))]
            + [sum(map(mul, a[t - q + 1:], rb)) for t in range(max(t0, q), t1 + 1)])
