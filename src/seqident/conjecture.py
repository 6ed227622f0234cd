"""Derivation and brute-force verification of generalized weight identities.

For U(n) = c1*U(n-1) + ... + cd*U(n-d) and Q(x) = 1 - c1*x - ... - cd*x**d,

    (n-1)*U(n) = sum_{k=1}^{n-1} a(k)*U(n-k) + sum_{j=0}^{d-2} rho_j(n)*U(-j)

for n >= 2, with a(k) = [x**k] (sum_m m*cm*x**m)/Q, the power sums of the
characteristic roots (Newton's identities), and rho_j(n) =
[x**n] (sum_{i=1}^{d-j-1} i*c(i+j+1)*x**(i+1))/Q.  For Fibonacci, a(k) = L(k)
and rho_0(n) = F(n-1) multiplies F(0) = 0.  Proof (Stanley, Enumerative
Combinatorics 1, ch. 4): sum_{n>=1} U(n)*x**n = N/Q with N = sum_{n=1}^{d}
x**n * sum_{i=n}^{d} ci*U(n-i), and the weights' series is -x*Q'/Q, so
sum_n [(n-1)*U(n) - sum_k a(k)*U(n-k)]*x**n = (x*N' - N)/Q.  There U(-j) has
the factor sum_{n=1}^{d-j} (n-1)*c(n+j)*x**n, which is 0 for j = d-1.

The brute-force check runs on verify.identity_rows, the one identity-scan
engine, which never uses the derivation; so does collect_general's check of
the paper's expand-and-collect method.  An identity is reported only with
its status and, when refuted, the least failing index.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .sequences import SequenceSpec, eval_range, fill_forward
from .verify import IdentityReport, identity_rows, require_range, scan_report

DEFAULT_MAX_ORDER = 8

VERIFIED = "verified"
REFUTED = "refuted"
UNDETERMINED = "undetermined"


class Recurrence(namedtuple("Recurrence", "order coeffs")):
    """A constant-coefficient rule v(i) = sum_{j=1}^{order} coeffs[j-1]*v(i-j)."""

    __slots__ = ()

    def extend(self, seeds, count: int) -> list:
        """The `count` values following `seeds` under this recurrence."""
        return fill_forward(list(self.coeffs), list(seeds[-self.order:]), count)


class ResidualRule(namedtuple("ResidualRule", "offset recurrence seeds start_n constant")):
    """Generator for the residual coefficient at shift n + offset.

    The coefficient sequence rho(n), n >= start_n, is given by `seeds` and
    `recurrence`; in the identity it multiplies the constant U(-offset)
    (computed by backward extension where necessary).
    """

    __slots__ = ()


class ConjecturedIdentity(namedtuple("ConjecturedIdentity", (
        "spec", "weight_recurrence", "weight_seeds", "residual_rules",
        "verified_lo", "verified_hi", "status", "first_failure"), defaults=(None,))):
    """A detected weight identity for one sequence spec.

    verified_lo/hi give the range the brute-force check ran over; the
    identity is only claimed where status == "verified".  first_failure is
    that check's least failing index, set exactly when status == "refuted".
    """

    __slots__ = ()


def _berlekamp_massey(values: list) -> tuple[int, list]:
    """Linear complexity L of `values` and rationals c_1..c_L with
    values[i] = sum_j c_j*values[i-j] at every i >= L, in one O(len*L) pass
    (Massey, IEEE Trans. IT 1969).  c and b hold the connection polynomials
    1 - sum c_j x^j now and before the last length change, bd that change's
    discrepancy and m the steps since; len(c) <= L + 1 throughout."""
    c, b = [1], [1]
    L, m, bd = 0, 1, Fraction(1)
    for i, v in enumerate(values):
        d = v + sum(map(mul, c[1:], reversed(values[i - L:i])))
        if d == 0:
            m += 1
            continue
        f, prev = d / bd, c
        c = c + [0] * (m + len(b) - len(c))
        for j, y in enumerate(b, start=m):
            c[j] -= f * y
        if 2 * L <= i:
            L, b, bd, m = i + 1 - L, prev, Fraction(d), 1
        else:
            m += 1
    return L, [-x for x in c[1:]] + [0] * (L + 1 - len(c))


# seqbench/tracing.py wraps this old name, and with it every call of the same
# object, until ROADMAP item 1 moves the benchmark onto a library recorder.
_solve_exact = _berlekamp_massey


def detect_min_recurrence(values: list, max_order: int) -> Recurrence | None:
    """Least-order exact linear recurrence fitting `values` everywhere.

    Berlekamp-Massey gives the least order L (1 with coefficient 0 for an
    all-zero list); None when L > max_order.  The rule is checked exactly
    at every applicable position, and integral coefficients are ints.
    With the 2*max_order + 1 >= 2L + 1 values required, the least rule is
    unique (Massey 1969), so elimination order by order finds the same one.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if len(values) < 2 * max_order + 1:
        raise ValueError(
            f"insufficient data: need at least {2 * max_order + 1} values "
            f"for max_order {max_order}, got {len(values)}"
        )
    r, sol = _berlekamp_massey(values)
    if r > max_order:
        return None
    if r == 0:
        r, sol = 1, [0]
    coeffs = tuple(c.numerator if c.denominator == 1 else c for c in sol)
    if list(values[r:]) != fill_forward(coeffs, values[:r], len(values) - r):
        raise ArithmeticError(f"Berlekamp-Massey rule {coeffs} does not fit the values")
    return Recurrence(r, coeffs)


def _identity_rows(spec: SequenceSpec, lo: int, hi: int, weights, residual):
    """identity_rows over lo..hi for the identity of `spec` with
    weights[k-1] = a(k) and, for each (j, coeffs) in `residual`, the terms
    coeffs[n-lo]*U(-j).  U is evaluated from index min(1, -j) up, no lower.
    """
    base = min([1] + [-j for j, _ in residual])
    vals = eval_range(spec, base, hi)
    constants = [vals[-j - base] for j, _ in residual]
    rhos = zip(*(coeffs for _, coeffs in residual))  # (rho_j(n) for each j), n = lo..hi
    extra = [sum(c * u for c, u in zip(rho, constants)) for rho in rhos]
    return identity_rows(lo, hi, [0, *weights], [0, *vals[1 - base:]], extra)


def collect_general(spec: SequenceSpec, n: int):
    """sum_expansions plus a concrete cross-check of the collected identity.

    The residual terms are evaluated against exact sequence values, extended
    backward past the seeds where needed: Fractions where not integral.
    """
    from .expansion import sum_expansions  # here: conjecture never loads it

    w = sum_expansions(spec, n)
    residual = [(k - n, [c]) for k, c in w.residual.items()]
    _, lhs, rhs, ok = next(_identity_rows(spec, n, n, w.weights, residual))
    if not ok:
        raise ArithmeticError(
            f"collected weights for {spec.name!r} at n={n} do not reproduce "
            f"(n-1)*U(n): {lhs} != {rhs}"
        )
    return w


def verify_conjecture(conj: ConjecturedIdentity, lo: int, hi: int) -> IdentityReport:
    """Brute-force check of the conjectured identity at every n in lo..hi.

    Weights and residual coefficients are regenerated from the detected
    recurrences; sequence values come from plain forward/backward
    evaluation.  The expansion engine is never consulted.
    """
    require_range(lo, hi)
    if conj.weight_recurrence is None:
        raise ValueError("conjecture carries no detected weight recurrence")
    t0 = time.perf_counter()

    weights = list(conj.weight_seeds)
    weights += conj.weight_recurrence.extend(weights, (hi - 1) - len(weights))
    residual = []
    for rule in conj.residual_rules:
        rho = list(rule.seeds)
        rho += rule.recurrence.extend(rho, (hi - rule.start_n + 1) - len(rho))
        residual.append((rule.offset, rho[lo - rule.start_n:]))

    return scan_report(lo, hi, _identity_rows(conj.spec, lo, hi, weights, residual), t0)


def _series(num, coeffs, count: int) -> list:
    """Coefficients 0..count-1 of num(x)/Q(x), num[m] being that of x**m."""
    s = []
    for n in range(count):
        s.append((num[n] if n < len(num) else 0) + sum(map(mul, coeffs, reversed(s))))
    return s


def conjecture(spec: SequenceSpec, probe_n: int, verify_hi: int, *,
               max_order: int = DEFAULT_MAX_ORDER) -> ConjecturedIdentity:
    """Derive and verify the weight identity for `spec`.

    The weights a(1..probe_n-1) and, for each offset j = 0..d-2, the
    residual coefficients rho_j(2..2K+2), K = max_order, come from Q(x)
    (module docstring).  Their least recurrences are detected, the constants
    U(-j) evaluated exactly (Fractions where not integral), and the whole
    identity verified for 2 <= n <= verify_hi by brute force.  Detection
    failure (a least order above max_order) yields status "undetermined"; a
    fabricated identity is never returned.  The arguments are checked before
    any of this work.
    """
    require_range(2, verify_hi)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    need = 2 * max_order + 1
    if probe_n <= need:
        raise ValueError(
            f"probe_n={probe_n} yields {probe_n - 1} weights; "
            f"need at least {need} for max_order {max_order}"
        )
    c = spec.coeffs
    undetermined = ConjecturedIdentity(spec, None, (), (), 2, verify_hi, UNDETERMINED)

    weights = _series([0, *(m * cm for m, cm in enumerate(c, start=1))], c, probe_n)[1:]
    wrec = detect_min_recurrence(weights, max_order)
    if wrec is None:
        return undetermined

    rules = []
    for j in range(spec.order - 1):
        num = [0, 0, *(i * c[i + j] for i in range(1, spec.order - j))]
        rho = _series(num, c, need + 2)[2:]  # rho_j(n), n = 2..need+1
        rrec = detect_min_recurrence(rho, max_order)
        if rrec is None:
            return undetermined
        constant = eval_range(spec, -j, -j)[0]
        rules.append(ResidualRule(j, rrec, tuple(rho[:rrec.order]), 2, constant))

    candidate = undetermined._replace(
        weight_recurrence=wrec,
        weight_seeds=tuple(weights[:wrec.order]),
        residual_rules=tuple(rules),
    )
    report = verify_conjecture(candidate, 2, verify_hi)
    return candidate._replace(status=VERIFIED if report.passed else REFUTED,
                              first_failure=report.first_failure)
