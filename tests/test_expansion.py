"""Tests for linear-form expansion and per-shift collection.

oracle_expand below replays the substitution process with a deliberately
different mechanism (a flat list of (shift, coeff) pairs, re-normalized
from scratch each round) so the two implementations can disagree.
"""

import random

import pytest

from seqident.expansion import LinearForm, expansion, sum_expansions
from seqident.sequences import FIBONACCI, LUCAS, TRIBONACCI, SequenceSpec, eval_term


def iter_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def oracle_expand(coeffs, depth):
    """Direct-substitution oracle: depth-1 rewrites of the least shift.

    Only nonzero terms are ever held, so a zero coefficient is never
    substituted: a rewrite always removes a term that is there.
    """
    pairs = [(i, c) for i, c in enumerate(coeffs, start=1) if c != 0]
    for _ in range(depth - 1):
        k_min = min(k for k, _ in pairs)
        keep = [(k, c) for k, c in pairs if k != k_min]
        c_min = sum(c for k, c in pairs if k == k_min)
        pairs = keep + [(k_min + i, c_min * ci) for i, ci in enumerate(coeffs, start=1)]
        merged = {}
        for k, c in pairs:
            merged[k] = merged.get(k, 0) + c
        pairs = [(k, c) for k, c in merged.items() if c != 0]
    return dict(sorted(pairs))


def form_value_at(form, n):
    """sum_k terms[k] * U(n-k) at a concrete index n."""
    return sum(c * eval_term(form.spec, n - k) for k, c in form.terms.items())


def validate_form(form, indices):
    """True iff the form reproduces U(n) at every given index."""
    return all(form_value_at(form, n) == eval_term(form.spec, n) for n in indices)


def test_initial_form():
    # depth 1 is the recurrence itself: shift i carries coefficient ci
    assert expansion(FIBONACCI, 1).terms == {1: 1, 2: 1}
    assert expansion(TRIBONACCI, 1).terms == {1: 1, 2: 1, 3: 1}
    spec = SequenceSpec("A", (0, 2, 0, -1), (1, 2, 3, 4))
    assert list(expansion(spec, 1).terms.items()) == [(2, 2), (4, -1)]


def test_first_four_expansions():
    want = [
        {1: 1, 2: 1},
        {2: 2, 3: 1},
        {3: 3, 4: 2},
        {4: 5, 5: 3},
    ]
    assert [expansion(FIBONACCI, r).terms for r in range(1, 5)] == want


def test_expansion_closed_form():
    # depth r leaves exactly two terms: F(r+1) at shift r, F(r) at shift r+1
    for r in range(1, 65):
        assert expansion(FIBONACCI, r).terms == {r: iter_fib(r + 1), r + 1: iter_fib(r)}


def test_expansion_matches_substitution_oracle():
    # 0 is drawn too (never as the trailing coefficient), so the forms
    # pass over shifts whose coefficient cancels or starts at 0
    rng = random.Random(40917)
    for _ in range(30):
        d = rng.randrange(1, 5)
        coeffs = tuple(rng.choice([-2, -1, 0, 1, 2]) for _ in range(d - 1))
        coeffs += (rng.choice([-2, -1, 1, 2]),)
        spec = SequenceSpec("A", coeffs, tuple(range(1, d + 1)), seed_start=0)
        depth = rng.randrange(1, 12)
        assert expansion(spec, depth).terms == oracle_expand(coeffs, depth)


def test_expansion_depth_validation():
    with pytest.raises(ValueError):
        expansion(FIBONACCI, 0)


def test_substitute_preserves_value():
    for depth in range(1, 12):
        assert validate_form(expansion(FIBONACCI, depth), range(12, 30))


def test_substitute_preserves_value_generic():
    rng = random.Random(2218)
    for _ in range(15):
        d = rng.randrange(1, 4)
        coeffs = tuple(rng.choice([-2, -1, 2, 3]) for _ in range(d - 1))
        coeffs += (rng.choice([-1, 1]),)
        seeds = tuple(rng.randrange(-9, 10) for _ in range(d))
        spec = SequenceSpec("A", coeffs, seeds, seed_start=0)
        form = expansion(spec, rng.randrange(1, 9))
        n = rng.randrange(-5, 20)
        assert form_value_at(form, n) == eval_term(spec, n)


def test_linear_form_prunes_zeros_and_sorts():
    form = LinearForm(FIBONACCI, {5: 0, 2: 3, 9: 1})
    assert form.terms == {2: 3, 9: 1}
    assert list(form.terms) == [2, 9]


def test_collect_smallest_targets():
    w2 = sum_expansions(FIBONACCI, 2)
    assert w2.weights == (1,) and w2.residual == {2: 1}
    w3 = sum_expansions(FIBONACCI, 3)
    assert w3.weights == (1, 3) and w3.residual == {3: 1}


def test_collect_illustration_target():
    w = sum_expansions(FIBONACCI, 6)
    assert w.weights == (1, 3, 4, 7, 11)
    assert w.residual == {6: 5}


def test_collect_target_validation():
    with pytest.raises(ValueError):
        sum_expansions(FIBONACCI, 1)


def test_weights_start_one_three_and_recur():
    for n in range(4, 60):
        a = sum_expansions(FIBONACCI, n).weights
        assert a[0] == 1 and a[1] == 3
        assert all(a[k + 1] == a[k] + a[k - 1] for k in range(1, len(a) - 1))


def test_residual_is_previous_fibonacci():
    for n in range(2, 40):
        assert sum_expansions(FIBONACCI, n).residual == {n: iter_fib(n - 1)}


def test_collection_reconstructs_left_side():
    # sum of weights*F(n-k) plus residual*F(n-k) is (n-1)*F(n)
    for n in range(2, 40):
        w = sum_expansions(FIBONACCI, n)
        total = sum(a * iter_fib(n - k) for k, a in enumerate(w.weights, start=1))
        total += sum(c * iter_fib(n - k) for k, c in w.residual.items())
        assert total == (n - 1) * iter_fib(n)


def test_collect_equals_summed_oracle_forms():
    rng = random.Random(5150)
    for _ in range(10):
        d = rng.randrange(1, 4)
        coeffs = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(d))
        spec = SequenceSpec("A", coeffs, tuple(range(1, d + 1)), seed_start=0)
        n = rng.randrange(3, 15)
        totals = {}
        for depth in range(1, n):
            for k, c in oracle_expand(coeffs, depth).items():
                totals[k] = totals.get(k, 0) + c
        w = sum_expansions(spec, n)
        assert w.weights == tuple(totals.get(k, 0) for k in range(1, n))
        assert w.residual == {k: c for k, c in sorted(totals.items())
                              if k >= n and c != 0}


def test_collect_tribonacci_frozen():
    w = sum_expansions(TRIBONACCI, 6)
    assert w.weights == (1, 3, 7, 11, 21)
    assert w.residual == {6: 15, 7: 7}


def test_validate_form_detects_tampering():
    form = expansion(FIBONACCI, 5)
    assert validate_form(form, range(10, 20))
    tampered = dict(form.terms)
    tampered[5] = tampered[5] + 1
    bad = LinearForm(FIBONACCI, tampered)
    assert not validate_form(bad, range(10, 20))


def test_collection_depends_only_on_coefficients():
    # Lucas shares the Fibonacci recurrence, so the collected coefficients
    # are identical; only the sequence values they multiply differ
    for n in range(2, 20):
        wf = sum_expansions(FIBONACCI, n)
        wl = sum_expansions(LUCAS, n)
        assert wf.weights == wl.weights
        assert wf.residual == wl.residual
