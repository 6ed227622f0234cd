"""The scan kernels against plain-loop references."""

import random
from fractions import Fraction

from seqident._kernels_py import convolution_values, dot_product


def naive_dot(xs, ys):
    acc = 0
    for i in range(len(xs)):
        acc += xs[i] * ys[i]
    return acc


def naive_convolution(weights, values, lo, hi):
    out = []
    for n in range(lo, hi + 1):
        acc = 0
        for k in range(1, n):
            acc += weights[k] * values[n - k]
        out.append(acc)
    return out


def random_lists(rng, size):
    ints = [rng.randint(-2 ** 200, 2 ** 200) for _ in range(size)]
    fracs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(size)]
    return ints, fracs


def test_dot_product_matches_plain_loop():
    rng = random.Random(7)
    for size in (0, 1, 2, 5, 64):
        for xs, ys in zip(random_lists(rng, size), random_lists(rng, size)):
            got = dot_product(xs, ys)
            assert got == naive_dot(xs, ys)
            assert type(got) is type(naive_dot(xs, ys))


def test_dot_product_of_empty_lists_is_int_zero():
    got = dot_product([], [])
    assert got == 0 and type(got) is int


def test_convolution_values_matches_plain_loop():
    rng = random.Random(11)
    weights_int, weights_frac = random_lists(rng, 40)
    values_int, values_frac = random_lists(rng, 40)
    for weights, values in ((weights_int, values_int), (weights_frac, values_frac),
                            (weights_int, values_frac)):
        for lo, hi in ((0, 0), (0, 39), (1, 1), (2, 2), (2, 39), (17, 23), (39, 39)):
            got = convolution_values(weights, values, lo, hi)
            want = naive_convolution(weights, values, lo, hi)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
