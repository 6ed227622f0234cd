"""Pure-Python compute kernels.

Fast-doubling Fibonacci pairs, forward recurrence fills, big-integer dot
products and the convolution scan used by the range verifier.  All
arithmetic is exact (Python ints, or any objects supporting * and +, e.g.
Fraction).
"""

from __future__ import annotations

from operator import mul


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
    for 0 <= lo.
    """
    return [sum(map(mul, weights[1:n], values[n - 1:0:-1])) for n in range(lo, hi + 1)]
