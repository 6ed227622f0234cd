"""Tests for exact sequence evaluation, forward and backward."""

import random
from fractions import Fraction

import pytest

from seqident.sequences import (
    FIBONACCI,
    LUCAS,
    TRIBONACCI,
    SequenceSpec,
    eval_range,
    eval_term,
    fib,
    lucas,
)


def iter_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def iter_lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_fib_small_values():
    assert [fib(n) for n in range(11)] == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_lucas_small_values():
    assert [lucas(n) for n in range(11)] == [2, 1, 3, 4, 7, 11, 18, 29, 47, 76, 123]


def test_fib_matches_iterative_oracle():
    for n in range(301):
        assert fib(n) == iter_fib(n)
    rng = random.Random(1105)
    for _ in range(20):
        n = rng.randrange(1000, 5000)
        assert fib(n) == iter_fib(n)


def test_lucas_matches_iterative_oracle():
    for n in range(301):
        assert lucas(n) == iter_lucas(n)


def test_lucas_from_fib_neighbors():
    # L(n) = F(n-1) + F(n+1)
    for n in range(1, 200):
        assert lucas(n) == fib(n - 1) + fib(n + 1)


@pytest.mark.parametrize("func", [fib, lucas])
def test_negative_index_rejected(func):
    with pytest.raises(ValueError):
        func(-1)


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("A", (), ())
    with pytest.raises(ValueError):
        SequenceSpec("A", (1, 1), (1,))
    with pytest.raises(ValueError):
        SequenceSpec("A", (1, 0), (1, 2))
    with pytest.raises(ValueError):
        SequenceSpec("", (1, 1), (1, 2))


def test_spec_properties():
    assert FIBONACCI.order == 2
    assert FIBONACCI.seed_start == 1 and FIBONACCI.seed_end == 2
    assert TRIBONACCI.order == 3 and TRIBONACCI.seed_end == 2


def test_eval_range_matches_iteration():
    assert eval_range(FIBONACCI, 0, 30) == [iter_fib(n) for n in range(31)]
    assert eval_range(LUCAS, 0, 30) == [iter_lucas(n) for n in range(31)]


def test_eval_range_jumps_far_from_the_seeds():
    # F(2k) = F(k)*(2*F(k+1) - F(k)) and F(2k+1) = F(k)**2 + F(k+1)**2 tie the
    # jump to 10**6 to the jump to k = 5*10**5.
    k = 5 * 10**5
    a, b = eval_range(FIBONACCI, k, k + 1)
    assert eval_range(FIBONACCI, 2 * k, 2 * k + 1) == [a * (2 * b - a), a * a + b * b]
    assert eval_range(FIBONACCI, 5000, 5003) == [iter_fib(n) for n in range(5000, 5004)]
    # L(-n) = (-1)^n * L(n)
    assert eval_range(LUCAS, -100000, -99997) == [
        (-1) ** n * lucas(n) for n in range(100000, 99996, -1)]


def test_eval_range_below_seeds():
    # F(-n) = (-1)^(n+1) * F(n)
    assert eval_range(FIBONACCI, -5, 2) == [5, -3, 2, -1, 1, 0, 1, 1]
    # L(-n) = (-1)^n * L(n)
    assert eval_range(LUCAS, -4, 1) == [7, -4, 3, -1, 2, 1]


def test_eval_range_inside_seed_window():
    assert eval_range(TRIBONACCI, 1, 2) == [0, 1]
    assert eval_range(FIBONACCI, 2, 2) == [1]


def test_eval_range_rejects_empty():
    with pytest.raises(ValueError):
        eval_range(FIBONACCI, 5, 4)


def test_eval_term_generic_spec():
    spec = SequenceSpec("A", (2, -1), (3, 5), seed_start=0)
    # A(n) = 2*A(n-1) - A(n-2): arithmetic progression 3, 5, 7, ...
    assert [eval_term(spec, n) for n in range(8)] == [3, 5, 7, 9, 11, 13, 15, 17]
    assert eval_term(spec, -3) == -3


def test_tribonacci_values():
    assert eval_range(TRIBONACCI, 0, 10) == [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81]


def test_extend_backward_fibonacci():
    assert [eval_term(FIBONACCI, n) for n in (0, -1, -2)] == [0, 1, -1]


def test_backward_requires_unit_trailing_coefficient():
    # integer values below the seeds need a unit c_d; otherwise the
    # values come back as exact Fractions instead of raising
    unit = SequenceSpec("A", (1, -1), (1, 1), seed_start=0)
    assert all(type(v) is int for v in eval_range(unit, -12, 3))
    spec = SequenceSpec("A", (1, 2), (1, 1), seed_start=0)
    assert eval_term(spec, -1) == 0
    assert eval_term(spec, -2) == Fraction(1, 2)
    assert eval_range(spec, -2, 3) == [Fraction(1, 2), 0, 1, 1, 3, 5]


def test_backward_rational_mode():
    spec = SequenceSpec("A", (1, 2), (1, 1), seed_start=0)
    # A(-1) = (A(1) - A(0))/2 = 0, A(-2) = (A(0) - A(-1))/2 = 1/2,
    # A(-3) = (A(-1) - A(-2))/2 = -1/4
    vals = eval_range(spec, -3, 3)
    assert vals == [Fraction(-1, 4), Fraction(1, 2), 0, 1, 1, 3, 5]
    # integral results come back as plain ints
    assert [type(v) for v in vals] == [Fraction, Fraction] + [int] * 5
    assert [eval_term(spec, n) for n in range(-3, 4)] == vals


def test_backward_then_forward_roundtrip():
    rng = random.Random(7302)
    for _ in range(25):
        d = rng.randrange(1, 5)
        coeffs = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(d - 1))
        coeffs += (rng.choice([-1, 1]),)  # unit trailing: always invertible
        seeds = tuple(rng.randrange(-50, 50) for _ in range(d))
        start = rng.randrange(-5, 6)
        spec = SequenceSpec("A", coeffs, seeds, seed_start=start)
        lo = start - rng.randrange(1, 12)
        vals = eval_range(spec, lo, start + d - 1)
        # rebuilding forward from the extended prefix must restore the seeds
        rebuilt = vals[:d]
        for i in range(d, len(vals)):
            rebuilt.append(sum(c * rebuilt[-1 - j] for j, c in enumerate(coeffs)))
        assert rebuilt == vals
        assert tuple(vals[-d:]) == seeds


def test_eval_range_long_prefix_consistency():
    # one long range equals many single-point evaluations
    spec = SequenceSpec("B", (2, 0, 1), (1, 0, 1), seed_start=2)
    vals = eval_range(spec, -4, 12)
    assert vals == [eval_term(spec, n) for n in range(-4, 13)]
