"""Command-line front end.

Subcommands: eval (sequence values), expand (the depth-r linear form),
collect (summed-expansion weights plus residual), verify (the
Lucas-weighted identity over a range, optionally also the inductive
decomposition), conjecture (detect and brute-force-verify the weight
identity of an arbitrary spec).

Global flags: --format plain|json|csv, --jobs K (verify only: the range
is split into contiguous chunks checked in parallel; K must be at least
1, no more than os.cpu_count() workers are started whatever K is, and
output bytes never change), --quiet.  Structured formats render big
integers as decimal strings, never floats, and contain no timestamps, so
identical inputs produce identical bytes.

Exit codes: 0 all checks passed, 1 a check failed (the least failing
index is printed), 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

from .conjecture import VERIFIED, conjecture, verify_conjecture
from .dsl import SpecSyntaxError, parse_all
from .expansion import expansion, sum_expansions
from .sequences import BUILTIN_SPECS, SequenceSpec, eval_range
from .verify import identity_rows, inductive_row

_RANGE_RE = re.compile(r"(-?\d+)\.\.(-?\d+)\Z")


class CliError(Exception):
    """Usage-level failure; rendered on stderr with exit code 2."""


def _load_spec(arg: str, name: str | None) -> SequenceSpec:
    """Resolve --spec: either builtin:<name> or a DSL file path."""
    if arg.startswith("builtin:"):
        key = arg[len("builtin:"):].lower()
        if key not in BUILTIN_SPECS:
            known = ", ".join(sorted(BUILTIN_SPECS))
            raise CliError(f"unknown builtin {key!r} (known: {known})")
        return BUILTIN_SPECS[key]
    try:
        with open(arg, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read spec file {arg!r}: {exc}") from exc
    try:
        specs = parse_all(source)
    except SpecSyntaxError as exc:
        raise CliError(f"{arg}:{exc}") from exc
    if name is not None:
        for spec in specs:
            if spec.name == name:
                return spec
        names = ", ".join(s.name for s in specs)
        raise CliError(f"no sequence named {name!r} in {arg} (found: {names})")
    if len(specs) > 1:
        names = ", ".join(s.name for s in specs)
        raise CliError(f"{arg} declares several sequences ({names}); use --name")
    return specs[0]


def _parse_range(text: str) -> tuple[int, int]:
    m = _RANGE_RE.match(text)
    if m is None:
        raise CliError(f"invalid range {text!r}; expected lo..hi")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise CliError(f"empty range {text!r}")
    return lo, hi


def _emit(args, plain_lines: list[str], record: dict,
          csv_header: list[str], csv_rows: list[list]) -> None:
    if args.quiet:
        return
    if args.format == "plain":
        for line in plain_lines:
            print(line)
    elif args.format == "json":
        print(json.dumps(record, indent=2))
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(csv_header)
        writer.writerows(csv_rows)


def _worker_count(jobs: int) -> int:
    """Workers to run for --jobs: a pool starts every worker at once, so
    never more than there are CPUs."""
    return min(jobs, os.cpu_count() or 1)


def _chunks(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    count = hi - lo + 1
    step = -(-count // max(1, min(jobs, count)))
    return [(a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step)]


def _map_chunks(worker, bounds: list[tuple[int, int]], jobs: int) -> list:
    """Apply worker to each chunk, in parallel when possible; results are
    concatenated in chunk order, so the merge is deterministic."""
    if jobs > 1 and len(bounds) > 1:
        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                parts = list(pool.map(worker, bounds))
        except OSError:
            parts = [worker(b) for b in bounds]
    else:
        parts = [worker(b) for b in bounds]
    return [row for part in parts for row in part]


def _identity_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int, bool]]:
    """(n, lhs, rhs, ok) rows for the identity over one chunk."""
    return list(identity_rows(*bounds))


def _inductive_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int, bool]]:
    """(m, S(m+1), decomposition, ok) rows over one chunk."""
    lo, hi = bounds
    return [inductive_row(m) for m in range(lo, hi + 1)]


def cmd_eval(args) -> int:
    spec = _load_spec(args.spec, args.name)
    if args.n is not None:
        lo = hi = args.n
    else:
        lo, hi = _parse_range(args.range)
    try:
        values = eval_range(spec, lo, hi)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if lo == hi:
        plain = [str(values[0])]
    else:
        plain = [f"n={i}: {v}" for i, v in zip(range(lo, hi + 1), values)]
    record = {
        "command": "eval",
        "params": {"spec": args.spec, "name": spec.name, "lo": lo, "hi": hi},
        "results": {"values": [
            {"n": i, "value": str(v)} for i, v in zip(range(lo, hi + 1), values)
        ]},
        "status": 0,
    }
    rows = [[i, str(v)] for i, v in zip(range(lo, hi + 1), values)]
    _emit(args, plain, record, ["n", "value"], rows)
    return 0


def cmd_expand(args) -> int:
    spec = _load_spec(args.spec, args.name)
    try:
        form = expansion(spec, args.depth)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    parts = []
    for k, c in form.terms.items():
        term = f"{spec.name}(n-{k})"
        if abs(c) != 1:
            term = f"{abs(c)}*{term}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    plain = [f"{spec.name}(n) = {' '.join(parts)}"]
    record = {
        "command": "expand",
        "params": {"spec": args.spec, "name": spec.name, "depth": args.depth},
        "results": {"terms": [
            {"shift": k, "coefficient": str(c)} for k, c in form.terms.items()
        ]},
        "status": 0,
    }
    rows = [[k, str(c)] for k, c in form.terms.items()]
    _emit(args, plain, record, ["shift", "coefficient"], rows)
    return 0


def cmd_collect(args) -> int:
    spec = _load_spec(args.spec, args.name)
    try:
        w = sum_expansions(spec, args.n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    plain = ["weights: " + " ".join(str(a) for a in w.weights)]
    plain += [f"residual shift {k}: {c}" for k, c in w.residual.items()]
    record = {
        "command": "collect",
        "params": {"spec": args.spec, "name": spec.name, "n": args.n},
        "results": {
            "weights": [str(a) for a in w.weights],
            "residual": [
                {"shift": k, "coefficient": str(c)} for k, c in w.residual.items()
            ],
        },
        "status": 0,
    }
    rows = [["weight", k, str(a)] for k, a in enumerate(w.weights, start=1)]
    rows += [["residual", k, str(c)] for k, c in w.residual.items()]
    _emit(args, plain, record, ["kind", "index", "value"], rows)
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range)
    if lo < 2:
        raise CliError(f"verify range must start at 2 or above, got {lo}")
    jobs = _worker_count(args.jobs)
    rows = _map_chunks(_identity_chunk, _chunks(lo, hi, jobs), jobs)
    checks = [("identity", n, lhs, rhs, ok) for n, lhs, rhs, ok in rows]
    if args.inductive:
        m_lo = max(3, lo)
        if m_lo <= hi:
            ind = _map_chunks(_inductive_chunk, _chunks(m_lo, hi, jobs), jobs)
            checks += [("inductive", m, lhs, rhs, ok) for m, lhs, rhs, ok in ind]

    failed = [c for c in checks if not c[4]]
    status = 1 if failed else 0
    plain = []
    for kind, i, lhs, rhs, ok in checks:
        verdict = "PASS" if ok else "FAIL"
        if kind == "identity":
            plain.append(f"n={i}: S={rhs} (n-1)F={lhs} {verdict}")
        else:
            plain.append(f"m={i}: S(m+1)={lhs} decomposition={rhs} {verdict}")
    if failed:
        kind, i, lhs, rhs, _ = failed[0]
        label = "n" if kind == "identity" else "m"
        plain.append(f"first failure: {label}={i} lhs={lhs} rhs={rhs} "
                     f"difference={rhs - lhs}")
    record = {
        "command": "verify",
        "params": {"lo": lo, "hi": hi, "inductive": bool(args.inductive)},
        "results": {"checks": [
            {"kind": kind, "index": i, "lhs": str(lhs), "rhs": str(rhs), "pass": ok}
            for kind, i, lhs, rhs, ok in checks
        ]},
        "status": status,
    }
    csv_rows = [[kind, i, str(lhs), str(rhs), "PASS" if ok else "FAIL"]
                for kind, i, lhs, rhs, ok in checks]
    _emit(args, plain, record, ["kind", "index", "lhs", "rhs", "status"], csv_rows)
    return status


def cmd_conjecture(args) -> int:
    spec = _load_spec(args.spec, args.name)
    try:
        conj = conjecture(spec, args.probe_n, args.verify_to,
                          max_order=args.max_order)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    status = 0 if conj.status == VERIFIED else 1

    plain = [f"status: {conj.status}"]
    weights_json = None
    residuals_json = []
    failure_json = None
    if conj.weight_recurrence is not None:
        plain.append(f"range: {conj.verified_lo}..{conj.verified_hi}")
        wr = conj.weight_recurrence
        coeffs = " ".join(str(c) for c in wr.coeffs)
        seeds = " ".join(str(s) for s in conj.weight_seeds)
        plain.append(f"weights: order {wr.order}, coefficients {coeffs}, "
                     f"seeds {seeds}")
        weights_json = {
            "order": wr.order,
            "coeffs": [str(c) for c in wr.coeffs],
            "seeds": [str(s) for s in conj.weight_seeds],
        }
        for rule in conj.residual_rules:
            rc = " ".join(str(c) for c in rule.recurrence.coeffs)
            rs = " ".join(str(s) for s in rule.seeds)
            plain.append(
                f"residual offset {rule.offset}: order {rule.recurrence.order}, "
                f"coefficients {rc}, seeds {rs}, start n={rule.start_n}, "
                f"constant {rule.constant}"
            )
            residuals_json.append({
                "offset": rule.offset,
                "order": rule.recurrence.order,
                "coeffs": [str(c) for c in rule.recurrence.coeffs],
                "seeds": [str(s) for s in rule.seeds],
                "start_n": rule.start_n,
                "constant": str(rule.constant),
            })
        if conj.status != VERIFIED:
            report = verify_conjecture(conj, conj.verified_lo, conj.verified_hi)
            if report.first_failure is not None:
                f = report.first_failure
                plain.append(f"first failure: n={f.n} lhs={f.lhs} rhs={f.rhs} "
                             f"difference={f.rhs - f.lhs}")
                failure_json = {"n": f.n, "lhs": str(f.lhs), "rhs": str(f.rhs)}
    else:
        plain.append("no recurrence fit the collected weights; nothing verified")

    record = {
        "command": "conjecture",
        "params": {
            "spec": args.spec, "name": spec.name, "probe_n": args.probe_n,
            "verify_to": args.verify_to, "max_order": args.max_order,
        },
        "results": {
            "status": conj.status,
            "weights": weights_json,
            "residuals": residuals_json,
            "range": {"lo": conj.verified_lo, "hi": conj.verified_hi},
            "first_failure": failure_json,
        },
        "status": status,
    }
    csv_rows = [["status", conj.status]]
    if weights_json is not None:
        csv_rows.append(["weights.order", weights_json["order"]])
        csv_rows.append(["weights.coeffs", " ".join(weights_json["coeffs"])])
        csv_rows.append(["weights.seeds", " ".join(weights_json["seeds"])])
        for rj in residuals_json:
            key = f"residual.{rj['offset']}"
            csv_rows.append([f"{key}.order", rj["order"]])
            csv_rows.append([f"{key}.coeffs", " ".join(rj["coeffs"])])
            csv_rows.append([f"{key}.seeds", " ".join(rj["seeds"])])
            csv_rows.append([f"{key}.constant", rj["constant"]])
    _emit(args, plain, record, ["key", "value"], csv_rows)
    return status


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"],
                        default="plain", help="output format (default plain)")
    common.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="parallel workers for range verification")
    common.add_argument("--quiet", action="store_true",
                        help="suppress stdout; exit code only")

    parser = argparse.ArgumentParser(
        prog="seqident",
        description="Exact linear-recurrence identity toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p):
        p.add_argument("--spec", required=True,
                       help="builtin:<fib|lucas|tribonacci> or a DSL file")
        p.add_argument("--name", help="sequence name inside a multi-spec file")

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a sequence at an index or range")
    add_spec(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--n", type=int, help="single index (use --n=-3 if negative)")
    g.add_argument("--range", help="lo..hi inclusive (use --range=-5..5)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", parents=[common],
                       help="print the depth-r expansion as a linear form")
    add_spec(p)
    p.add_argument("--depth", type=int, required=True, help="expansion depth r >= 1")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("collect", parents=[common],
                       help="weights and residual of the summed expansions")
    add_spec(p)
    p.add_argument("--n", type=int, required=True, help="target index n >= 2")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("verify", parents=[common],
                       help="check (n-1)F(n) = sum L(k)F(n-k) over a range")
    p.add_argument("--range", required=True, help="lo..hi with lo >= 2")
    p.add_argument("--inductive", action="store_true",
                   help="also replay the inductive decomposition at each m >= 3")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", parents=[common],
                       help="detect and verify the weight identity for a spec")
    add_spec(p)
    p.add_argument("--probe-n", type=int, required=True,
                   help="index whose collected weights seed detection")
    p.add_argument("--verify-to", type=int, required=True,
                   help="brute-force check the identity for 2 <= n <= this")
    p.add_argument("--max-order", type=int, default=8,
                   help="largest recurrence order to try (default 8)")
    p.set_defaults(func=cmd_conjecture)
    return parser


def main(argv=None) -> int:
    # Values are exact integers of any size; Python refuses to convert ones
    # over 4300 decimal digits unless the limit is lifted.  It is restored on
    # return, so in-process callers keep their own setting.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.jobs < 1:
            raise CliError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except CliError as exc:
        print(f"seqident: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
