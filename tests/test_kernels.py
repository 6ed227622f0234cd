"""verify's scan kernel against plain-loop references."""

import decimal
import random
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from seqident import verify
from seqident.conjecture import conjecture
from seqident.sequences import TRIBONACCI
from seqident.verify import check_range, convolution_values, dot_product


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


def test_convolution_values_matches_plain_loop(monkeypatch):
    rng = random.Random(11)
    weights_int, weights_frac = random_lists(rng, 40)
    values_int, values_frac = random_lists(rng, 40)
    cases = [(weights_int, values_int), (weights_frac, values_frac),
             (weights_int, values_frac)]
    # Digit-sized entries fit the product's cap, so at _SPLIT_COST 1 a
    # product negates a negative result and divides out a common denominator.
    for _ in range(4):
        cases.append(([rng.randint(-9, 9) for _ in range(8)],
                      [rng.randint(-9, 9) for _ in range(8)]))
        cases.append(([Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(8)],
                      [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(8)]))
    for split_cost in (1, verify._SPLIT_COST):
        monkeypatch.setattr(verify, "_SPLIT_COST", split_cost)
        for weights, values in cases:
            top = len(weights) - 1
            for lo, hi in ((0, 0), (0, top), (1, 1), (2, 2), (2, top), (17, 23), (top, top)):
                if hi > top:
                    continue
                got = convolution_values(weights, values, lo, hi)
                want = naive_convolution(weights, values, lo, hi)
                assert got == want
                assert [type(v) for v in got] == [type(v) for v in want]


@st.composite
def scans(draw):
    """(weights, values, lo, hi, homogeneous): lists for hi up to 200, any lo
    in 0..hi (often a band a few rows wide), ints up to +-2**200, Fractions,
    or a mix.  The entries come from a drawn Random, so large lists stay
    cheap for hypothesis."""
    hi = draw(st.integers(0, 200))
    lo = draw(st.one_of(st.integers(0, hi), st.integers(max(0, hi - 3), hi)))
    kind = draw(st.sampled_from(("int", "fraction", "mixed")))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            bound = 2 ** rng.randint(0, 200)
            return rng.randint(-bound, bound)
        return Fraction(rng.randint(-2 ** 64, 2 ** 64), rng.randint(1, 99))

    weights = [entry() for _ in range(hi + 1)]
    values = [entry() for _ in range(hi + 1)]
    return weights, values, lo, hi, kind != "mixed"


# 1 sends every scan with at least as many band pairs as packed coefficients
# (a band of three rows or more) to the Kronecker product, so products run at
# these small sizes; the real cost sends most of them to the direct row sums.
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(scans(), st.sampled_from((1, verify._SPLIT_COST)))
def test_convolution_values_matches_plain_loop_on_any_band(scan, split_cost):
    weights, values, lo, hi, homogeneous = scan
    saved = verify._SPLIT_COST
    verify._SPLIT_COST = split_cost
    try:
        got = convolution_values(weights, values, lo, hi)
    finally:
        verify._SPLIT_COST = saved
    want = naive_convolution(weights, values, lo, hi)
    assert got == want
    if homogeneous:
        assert [type(v) for v in got] == [type(v) for v in want]


def test_convolution_values_is_subquadratic():
    muls = 0

    class Counted(int):
        """An int that counts its multiplications and stays Counted."""

        def __mul__(self, other):
            nonlocal muls
            muls += 1
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

    # 2..512 over entries of 2049 bits has 130,816 pairs, far more than
    # _SPLIT_COST per packed coefficient, so the scan is the one Kronecker
    # product and multiplies no pair of entries; the quadratic scan
    # multiplies all of them.
    big = 2 ** 2048
    weights = [Counted(big + 3 * i) for i in range(513)]
    values = [Counted(big - 5 * i) for i in range(513)]
    got = convolution_values(weights, values, 2, 512)
    assert muls == 0
    assert got[-13:] == naive_convolution(weights, values, 500, 512)


def lucas_fibonacci(hi):
    lucs, fibs = [2, 1], [0, 1]
    while len(fibs) <= hi:
        lucs.append(lucs[-1] + lucs[-2])
        fibs.append(fibs[-1] + fibs[-2])
    return lucs, fibs


def power_sums_and_terms(hi):
    """p_k and U(k) for U(n) = -4U(n-1) + U(n-2): alternating signs, over 2
    bits gained a step."""
    p, u = [2, -4], [1, -2]
    while len(u) <= hi:
        p.append(-4 * p[-1] + p[-2])
        u.append(-4 * u[-1] + u[-2])
    return p, u


class RecordingContext:
    """The kernel's decimal context, recording the digits of every operand
    of every product."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.operands = []

    def multiply(self, x, y):
        self.operands += [x.adjusted() + 1, y.adjusted() + 1]
        return self.ctx.multiply(x, y)

    def __getattr__(self, name):
        return getattr(self.ctx, name)


def test_convolution_values_ignores_the_callers_decimal_context(monkeypatch):
    # Decimal arithmetic outside a context's methods rounds to the thread's
    # context; at precision 3 any such step would lose the 600-digit sums.
    rng = random.Random(3)
    weights = [rng.randint(-2 ** 2000, 2 ** 2000) for _ in range(301)]
    values = [rng.randint(-2 ** 2000, 2 ** 2000) for _ in range(301)]
    recorder = RecordingContext(verify._CONTEXT)
    monkeypatch.setattr(verify, "_CONTEXT", recorder)
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.clear_traps()
        before = repr(ctx)
        got = convolution_values(weights, values, 2, 300)
        assert decimal.getcontext() is ctx and repr(ctx) == before
    assert recorder.operands
    assert got == naive_convolution(weights, values, 2, 300)


def test_convolution_values_ignores_the_int_str_digit_limit(monkeypatch):
    # Sums of 2**16000-sized pairs fill slots of about 9,640 digits, over the
    # default limit of 4,300 on str(int) and int(str).  Only cli.main lifts it.
    monkeypatch.setattr(verify, "_SPLIT_COST", 1)
    recorder = RecordingContext(verify._CONTEXT)
    monkeypatch.setattr(verify, "_CONTEXT", recorder)
    rng = random.Random(4)
    weights = [rng.randint(-2 ** 16000, 2 ** 16000) for _ in range(41)]
    values = [rng.randint(2 ** 15999, 2 ** 16000) for _ in range(41)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        got = convolution_values(weights, values, 2, 40)
    finally:
        sys.set_int_max_str_digits(limit)
    assert recorder.operands
    assert got == naive_convolution(weights, values, 2, 40)


def test_convolution_values_packs_no_operand_over_twice_its_input(monkeypatch):
    def digits(xs):
        return sum(len(str(abs(x))) for x in xs)

    # The input counts each entry's digits and, for each entry, the digits of
    # the pair count (a slot must hold a sum of that many pairs) and a sign.
    # Lucas by Fibonacci, a fast-growing signed pair and entries in -2..2, as
    # the bounded-value specs of conjecture give, pack into one product each,
    # under the cap.  In the uneven scan one weight of 3001 digits outweighs
    # all the other entries (1 to 3 digits) together, so every slot would take
    # 3004 digits: even with every scan worth a product (_SPLIT_COST 1), the
    # cap sends it to the row sums.
    uneven = ([0, 10 ** 3000] + list(range(2, 301)), list(range(301)))
    rng = random.Random(5)
    bounded = ([rng.randint(-2, 2) for _ in range(601)], [rng.randint(-2, 2) for _ in range(601)])
    cases = [(*lucas_fibonacci(2400), 2400, verify._SPLIT_COST, 1),
             (*power_sums_and_terms(600), 600, verify._SPLIT_COST, 1),
             (*uneven, 300, 1, 0),
             (*bounded, 600, verify._SPLIT_COST, 1)]
    for weights, values, hi, split_cost, products in cases:
        recorder = RecordingContext(verify._CONTEXT)
        monkeypatch.setattr(verify, "_CONTEXT", recorder)
        monkeypatch.setattr(verify, "_SPLIT_COST", split_cost)
        got = convolution_values(weights, values, 2, hi)
        monkeypatch.undo()
        slack = 2 * (hi - 1) * (len(str(hi - 1)) + 1)
        cap = 2 * (digits(weights[1:hi]) + digits(values[1:hi]) + slack)
        assert len(recorder.operands) == 2 * products, (hi, recorder.operands)
        assert max(recorder.operands, default=0) <= cap, (hi, recorder.operands, cap)
        lo = hi - 4 if products else 2  # every row of the row sums
        assert got[lo - 2:] == naive_convolution(weights, values, lo, hi)


def test_the_benchmarks_largest_scans_stay_under_a_transform_step(monkeypatch):
    # libmpdec multiplies by a transform of 2**k or 3*2**(k-1) words of 19
    # digits, the least that holds the product, and takes half as long again
    # or more past a step: operands of 1,245,184 digits make a product of
    # over 2**17 words, of 622,592 over 2**16.  The benchmark's largest
    # verify scan (2..2400, 1,218,686-digit operands) and conjecture scan
    # (trib to 1500, 604,091) sit 2.1% and 3.0% under these, so slots a few
    # percent wider would make their products half as slow again.
    cases = [(lambda: check_range(2, 2400).passed, 1_245_184),
             (lambda: conjecture(TRIBONACCI, 39, 1500, max_order=16).status == "verified",
              622_592)]
    for run, step in cases:
        recorder = RecordingContext(verify._CONTEXT)
        monkeypatch.setattr(verify, "_CONTEXT", recorder)
        ok = run()
        monkeypatch.undo()
        assert ok
        assert len(recorder.operands) == 2 and max(recorder.operands) < step, recorder.operands
