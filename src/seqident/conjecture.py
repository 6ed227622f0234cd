"""Discovery and brute-force verification of generalized weight identities.

Runs the expand-collect-sum procedure on arbitrary integer recurrences
(different seeds, order 3 and up), detects by Berlekamp-Massey the minimal
linear recurrence satisfied by the collected weights and by the residual
coefficients (read from one running pass), and verifies the identity

    (n-1)*U(n) = sum_{k=1}^{n-1} a(k)*U(n-k) + residual terms

over a finite range against an oracle that never touches the expansion
engine.  That check, and collect_general's cross-check of one collected
identity, run on verify.identity_rows, the one identity-scan engine.
Conjectures are only ever reported together with their verification
status and, when refuted, the least failing index.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from operator import mul

from .expansion import CollectedWeights, expansion_totals, sum_expansions
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
    if not all(values[i] == sum(c * values[i - j] for j, c in enumerate(coeffs, start=1))
               for i in range(r, len(values))):
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


def collect_general(spec: SequenceSpec, n: int) -> CollectedWeights:
    """sum_expansions plus a concrete cross-check of the collected identity.

    The residual terms are evaluated against backward-extended sequence
    values, so a spec that cannot be extended backward raises
    NonInvertibleStepError here when its residual is nonzero.
    """
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


def conjecture(spec: SequenceSpec, probe_n: int, verify_hi: int, *,
               max_order: int = DEFAULT_MAX_ORDER) -> ConjecturedIdentity:
    """Detect and verify the weight identity for `spec`.

    Collects weights at probe_n, detects their minimal recurrence, fits
    each residual coefficient sequence (aligned by its offset from n)
    across a window of consecutive collections, then verifies the whole
    identity for 2 <= n <= verify_hi by brute force.  Detection failure
    yields status "undetermined"; a fabricated identity is never returned.
    The arguments are checked before any of this work.
    """
    require_range(2, verify_hi)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    need = 2 * max_order + 1
    if 2 <= probe_n <= need:  # below 2, collect_general raises at once
        raise ValueError(
            f"probe_n={probe_n} yields {probe_n - 1} weights; "
            f"need at least {need} for max_order {max_order}"
        )
    probe = collect_general(spec, probe_n)
    undetermined = ConjecturedIdentity(
        spec, None, (), (), 2, verify_hi, UNDETERMINED
    )

    wrec = detect_min_recurrence(list(probe.weights), max_order)
    if wrec is None:
        return undetermined
    weight_seeds = tuple(probe.weights[: wrec.order])

    # Residual coefficients by offset from n, for n = 2..need+1 (the
    # smallest valid n up), from one running pass over the expansions.
    window = [[totals.get(m + offset, 0) for offset in range(spec.order - 1)]
              for m, totals in zip(range(2, 2 + need), expansion_totals(spec))]
    rules = []
    for offset, rho in enumerate(zip(*window)):
        rrec = detect_min_recurrence(rho, max_order)
        if rrec is None:
            return undetermined
        try:
            constant = eval_range(spec, -offset, -offset)[0]
        except ValueError:
            return undetermined  # residual constant not computable
        rules.append(ResidualRule(offset, rrec, rho[:rrec.order], 2, constant))

    candidate = undetermined._replace(
        weight_recurrence=wrec,
        weight_seeds=weight_seeds,
        residual_rules=tuple(rules),
    )
    report = verify_conjecture(candidate, 2, verify_hi)
    return candidate._replace(status=VERIFIED if report.passed else REFUTED,
                              first_failure=report.first_failure)
