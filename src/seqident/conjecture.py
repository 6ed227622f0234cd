"""Discovery and brute-force verification of generalized weight identities.

Runs the expand-collect-sum procedure on arbitrary integer recurrences
(different seeds, order 3 and up), detects the minimal linear recurrence
satisfied by the collected weights and by the residual coefficients, and
verifies the resulting identity

    (n-1)*U(n) = sum_{k=1}^{n-1} a(k)*U(n-k) + residual terms

over a finite range against an oracle that never touches the expansion
engine.  That check, and collect_general's cross-check of one collected
identity, run on verify.identity_rows, the one identity-scan engine.
Conjectures are only ever reported together with their verification
status and, when refuted, the least failing index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction

from ._kernels_py import fill_forward
from .expansion import CollectedWeights, sum_expansions
from .sequences import SequenceSpec, _as_int_if_integral, eval_range
from .verify import Failure, IdentityReport, identity_rows, scan_report

DEFAULT_MAX_ORDER = 8

VERIFIED = "verified"
REFUTED = "refuted"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Recurrence:
    """A constant-coefficient rule v(i) = sum_{j=1}^{order} coeffs[j-1]*v(i-j)."""

    order: int
    coeffs: tuple

    def extend(self, seeds, count: int) -> list:
        """The `count` values following `seeds` under this recurrence."""
        return fill_forward(list(self.coeffs), list(seeds[-self.order:]), count)


@dataclass(frozen=True)
class ResidualRule:
    """Generator for the residual coefficient at shift n + offset.

    The coefficient sequence rho(n), n >= start_n, is given by `seeds` and
    `recurrence`; in the identity it multiplies the constant U(-offset)
    (computed by backward extension where necessary).
    """

    offset: int
    recurrence: Recurrence
    seeds: tuple
    start_n: int
    constant: object


@dataclass(frozen=True)
class ConjecturedIdentity:
    """A detected weight identity for one sequence spec.

    verified_lo/hi give the range the brute-force check ran over; the
    identity is only claimed where status == "verified".  first_failure is
    that check's least failing index, set exactly when status == "refuted".
    """

    spec: SequenceSpec
    weight_recurrence: Recurrence | None
    weight_seeds: tuple
    residual_rules: tuple[ResidualRule, ...]
    verified_lo: int
    verified_hi: int
    status: str
    first_failure: Failure | None = None


def _solve_exact(rows: list[list], rhs: list) -> list | None:
    """Solve rows * x = rhs over exact rationals.

    Returns one solution (free variables set to 0), or None when the
    system is inconsistent.
    """
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][ncols] != 0:
            return None  # 0 = nonzero: inconsistent
    sol = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        sol[c] = aug[i][ncols]
    return sol


def detect_min_recurrence(values: list, max_order: int) -> Recurrence | None:
    """Least-order exact linear recurrence fitting `values` everywhere.

    Tries orders 1..max_order, solving for rational coefficients by
    elimination and accepting only a rule that holds at every applicable
    position.  No tolerances: equality is exact.  Returns None when no
    order <= max_order fits.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if len(values) < 2 * max_order + 1:
        raise ValueError(
            f"insufficient data: need at least {2 * max_order + 1} values "
            f"for max_order {max_order}, got {len(values)}"
        )
    for r in range(1, max_order + 1):
        rows = [[values[i - j] for j in range(1, r + 1)] for i in range(r, len(values))]
        rhs = [values[i] for i in range(r, len(values))]
        sol = _solve_exact(rows, rhs)
        if sol is None:
            continue
        coeffs = tuple(_as_int_if_integral(c) for c in sol)
        fits = all(
            values[i] == sum(c * values[i - j] for j, c in enumerate(coeffs, start=1))
            for i in range(r, len(values))
        )
        if fits:
            return Recurrence(r, coeffs)
    return None


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
    if lo < 2 or lo > hi:
        raise ValueError(f"invalid range {lo}..{hi} (need 2 <= lo <= hi)")
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
    """
    need = 2 * max_order + 1
    probe = collect_general(spec, probe_n)
    if len(probe.weights) < need:
        raise ValueError(
            f"probe_n={probe_n} yields {len(probe.weights)} weights; "
            f"need at least {need} for max_order {max_order}"
        )
    undetermined = ConjecturedIdentity(
        spec, None, (), (), 2, verify_hi, UNDETERMINED
    )

    wrec = detect_min_recurrence(list(probe.weights), max_order)
    if wrec is None:
        return undetermined
    weight_seeds = tuple(probe.weights[: wrec.order])

    # Residual coefficients, aligned by offset from n over a window of
    # consecutive target indices starting at the smallest valid n.
    window = [sum_expansions(spec, m) for m in range(2, 2 + need)]
    rules = []
    for offset in range(spec.order - 1):
        rho = [w.residual.get(w.n + offset, 0) for w in window]
        rrec = detect_min_recurrence(rho, max_order)
        if rrec is None:
            return undetermined
        try:
            constant = eval_range(spec, -offset, -offset)[0]
        except ValueError:
            return undetermined  # residual constant not computable
        rules.append(
            ResidualRule(offset, rrec, tuple(rho[: rrec.order]), 2, constant)
        )

    candidate = replace(
        undetermined,
        weight_recurrence=wrec,
        weight_seeds=weight_seeds,
        residual_rules=tuple(rules),
    )
    report = verify_conjecture(candidate, 2, verify_hi)
    return replace(candidate, status=VERIFIED if report.passed else REFUTED,
                   first_failure=report.first_failure)
