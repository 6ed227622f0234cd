"""Command-line front end.

Subcommands: eval (sequence values), expand (the depth-r linear form),
collect (summed-expansion weights plus residual), verify (the
Lucas-weighted identity over a range, optionally also the inductive
decomposition), conjecture (derive and brute-force-verify the weight
identity of an arbitrary spec).

Global flags: --format plain|json|csv, --jobs K (at least 1; it starts
nothing: every command runs in one process whatever K is), --quiet.
Structured formats render big integers as decimal strings, never floats,
and contain no timestamps, so identical inputs produce identical bytes.

verify's range end, collect's --n, expand's --depth and conjecture's
--probe-n and --verify-to are at most MAX_INDEX; eval's --n and both ends
of its --range are within -MAX_EVAL_INDEX..MAX_EVAL_INDEX, and so is the
distance from conjecture's seeds to min(1, 2-d)..--verify-to.  eval prints at
most MAX_EVAL_BITS bits: before evaluating, the width of its range (1 for
--n) times a bound on the bits of the farther end's value, from the spec
alone, is checked against it.

Each subcommand loads only the modules it runs: every one loads
sequences; expand and collect add expansion; verify adds verify, which
holds the scan and loads fractions and decimal, and conjecture adds
verify and conjecture, not expansion.  A --spec file adds dsl, and json
loads only for --format json.  No command loads csv, concurrent.futures or
dataclasses, and eval, expand and collect never load fractions: the specs
the CLI reads are integer-mode.

Exit codes: 0 all checks passed, 1 a check failed (the least failing
index is printed), 2 usage or parse errors, an argument the library
rejects (such as NonInvertibleStepError), a spec file that cannot be read
or decoded or is over MAX_SPEC_BYTES, or stdout was closed.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

# Every command evaluates sequences.  Each other module is imported by the
# function that runs it (dsl, expansion, verify, conjecture and json),
# so a process loads only what its subcommand runs; without a bytecode
# cache, every module loaded is compiled on every start.
from .sequences import BUILTIN_SPECS, SequenceSpec, eval_range, format_terms

_RANGE_RE = re.compile(r"(-?\d+)\.\.(-?\d+)\Z")

# The largest index for verify's --range, collect's --n, expand's --depth
# and conjecture's --probe-n and --verify-to.  The F and L tables up to H
# take about 0.087*H**2 bytes together: 8.7 MB at 10,000.  The scan packs them into two
# operands of about as many decimal digits (21M at 10,000), and multiplying
# those takes a transient of about 15 times the tables: `verify --range
# 2..10000 --format json` peaks at 176 MB RSS in 4.8 s, the scan's peak (--quiet
# peaks the same); --inductive adds the replay's scan, 224 MB in 9.9 s.  At 10,000
# (trib; 2 cores, Python 3.11), `collect --n` takes 0.8 s and 55 MB, and `conjecture
# --probe-n` 0.3 s and 21 MB at the default --max-order, 0.8 s and 33 MB at 4999.
MAX_INDEX = 10_000

# The largest |n| for eval's --n and either end of its --range.  eval jumps
# to n in O(log n) products and keeps only the values it prints: `eval
# --spec builtin:fib --n=1000000` peaks at 17 MB RSS (a bare interpreter:
# 14 MB) and takes about 0.25 s with --quiet, 0.95 s in plain, where turning
# the 208,988-digit value into text takes 0.75 s (2 cores, Python 3.11).
MAX_EVAL_INDEX = 1_000_000

# The most bits eval prints: before evaluating, the width of the range (1
# for --n) times a bound on the bits of its farther end's value
# (_value_bits_bound) must not exceed it.  Memory follows the output, json's
# the most (each value is held as an int, as text, quoted, joined and
# encoded): a window holding 75% of the budget, G(n) = 15*G(n-1) at
# 4000..7384, peaks at 93 MB RSS in json and 49 MB in plain or csv, in 3-4 s
# (2 cores, Python 3.11).  The benchmark's widest eval window, 200 values of
# about 6000 bits, is bounded at 7% of the budget.  Time is another matter:
# int-to-text is quadratic in Python 3.11, so one value of 1.9M bits takes
# 6 s to print, and one of the whole budget would take hours.
MAX_EVAL_BITS = 100_000_000

# The most bytes read from a --spec file; a larger one exits 2 unparsed.
# A spec is a few lines; 1 MiB leaves room for long comments.  A higher cap
# lets one huge coefficient cost seconds: int() of a 1,000,000-digit literal
# takes 6-9 s (2 cores, Python 3.11).
MAX_SPEC_BYTES = 1 << 20


class CliError(ValueError):
    """Usage-level failure; rendered on stderr with exit code 2, as is any
    ValueError the library raises for an argument it rejects."""


def _load_spec(arg: str, name: str | None) -> SequenceSpec:
    """Resolve --spec: either builtin:<name> or a DSL file path."""
    if arg.startswith("builtin:"):
        key = arg[len("builtin:"):].lower()
        if key not in BUILTIN_SPECS:
            known = ", ".join(sorted(BUILTIN_SPECS))
            raise CliError(f"unknown builtin {key!r} (known: {known})")
        return BUILTIN_SPECS[key]
    try:
        with open(arg, "rb") as fh:
            data = fh.read(MAX_SPEC_BYTES + 1)
        if len(data) > MAX_SPEC_BYTES:
            raise CliError(f"spec file {arg!r} is larger than {MAX_SPEC_BYTES} bytes")
        # Newlines as a text-mode read gives them: \r\n and a lone \r end a line.
        source = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read spec file {arg!r}: {exc}") from exc
    from .dsl import SpecSyntaxError, parse_all

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


def _check_index(what: str, n: int) -> None:
    if n > MAX_INDEX:
        raise CliError(f"{what} {n} is above the largest supported index {MAX_INDEX}")


def _value_bits_bound(spec: SequenceSpec, n: int) -> float:
    """An upper bound (up to rounding) on the bits of U(n), numerator and
    denominator together, from the spec alone.  Each step away from the
    seeds, either way, multiplies the largest |value| of a window of d terms
    by at most 1 + sum|c_i|; below the seeds in rational mode it can also
    multiply the denominator by |c_d|."""
    step = math.log2(1 + sum(map(abs, spec.coeffs)))
    if n < spec.seed_start:
        distance = spec.seed_start - n
        if spec.rational:
            step += math.log2(abs(spec.coeffs[-1]))
    else:
        distance = max(0, n - spec.seed_end)
    return max(abs(v) for v in spec.seeds).bit_length() + distance * step


def _check_output_budget(what: str, spec: SequenceSpec, lo: int, hi: int) -> None:
    try:
        bits = (hi - lo + 1) * max(_value_bits_bound(spec, lo), _value_bits_bound(spec, hi))
    except OverflowError:  # beyond the float range: far over the budget
        bits = math.inf
    if bits > MAX_EVAL_BITS:
        raise CliError(f"eval {what} could print more than {MAX_EVAL_BITS} bits, "
                       f"the output budget")


def _emit(args, params: dict, status: int, plain_lines, results,
          csv_header: list[str], csv_rows) -> None:
    """Print the output in --format, nothing under --quiet.  plain_lines,
    results and csv_rows are functions building the plain lines, the JSON
    record's results and the CSV rows; only the one --format names is
    called, so each value is turned into text once (a 200,000-digit int
    takes about 0.75 s).  The JSON record is {"command", "params",
    "results", "status"}, in that order."""
    if args.quiet:
        return
    if args.format == "json":
        import json

        record = {"command": args.command, "params": params, "results": results(),
                  "status": status}
        print(json.dumps(record, indent=2))
        return
    # Every CSV field is an int, a number's text, a fixed word or numbers
    # joined by spaces: none needs csv.writer's quoting.
    lines = (plain_lines() if args.format == "plain"
             else (",".join(map(str, row)) for row in [csv_header, *csv_rows()]))
    for line in lines:
        print(line)


# `jobs` is unused; the benchmark's tracer wraps this name, which goes with ROADMAP item 1.
def _map_chunks(worker, bounds: list[tuple[int, int]], jobs: int) -> list:
    return [row for b in bounds for row in worker(b)]


def _identity_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int, bool]]:
    """(n, lhs, rhs, ok) rows for the identity over one chunk."""
    from .verify import fibonacci_rows

    return list(fibonacci_rows(*bounds))


def _inductive_chunk(bounds: tuple[int, int]) -> list[tuple[int, int, int, bool]]:
    """(m, S(m+1), decomposition, ok) rows over one chunk."""
    from .verify import inductive_rows

    return list(inductive_rows(*bounds))


def cmd_eval(args) -> int:
    if args.n is not None:
        lo = hi = args.n
        what = f"--n {args.n}"
    else:
        lo, hi = _parse_range(args.range)
        what = f"--range {args.range}"
    if max(abs(lo), abs(hi)) > MAX_EVAL_INDEX:
        raise CliError(f"eval {what} is outside the supported indices "
                       f"-{MAX_EVAL_INDEX}..{MAX_EVAL_INDEX}")
    spec = _load_spec(args.spec, args.name)
    _check_output_budget(what, spec, lo, hi)
    values = eval_range(spec, lo, hi)

    def plain():
        if lo == hi:
            return [str(values[0])]
        return [f"n={i}: {v}" for i, v in zip(range(lo, hi + 1), values)]

    def results():
        return {"values": [{"n": i, "value": str(v)} for i, v in zip(range(lo, hi + 1), values)]}

    def rows():
        return [[i, str(v)] for i, v in zip(range(lo, hi + 1), values)]

    _emit(args, {"spec": args.spec, "name": spec.name, "lo": lo, "hi": hi}, 0,
          plain, results, ["n", "value"], rows)
    return 0


def cmd_expand(args) -> int:
    from .expansion import expansion

    _check_index("expand --depth", args.depth)
    spec = _load_spec(args.spec, args.name)
    terms = expansion(spec, args.depth).terms

    _emit(args, {"spec": args.spec, "name": spec.name, "depth": args.depth}, 0,
          lambda: [f"{spec.name}(n) = {format_terms(spec.name, terms.items(), ' ')}"],
          lambda: {"terms": [{"shift": k, "coefficient": str(c)} for k, c in terms.items()]},
          ["shift", "coefficient"], lambda: [[k, str(c)] for k, c in terms.items()])
    return 0


def cmd_collect(args) -> int:
    from .expansion import sum_expansions

    _check_index("collect --n", args.n)
    spec = _load_spec(args.spec, args.name)
    w = sum_expansions(spec, args.n)

    def plain():
        return (["weights: " + " ".join(map(str, w.weights))]
                + [f"residual shift {k}: {c}" for k, c in w.residual.items()])

    def results():
        return {"weights": list(map(str, w.weights)),
                "residual": [{"shift": k, "coefficient": str(c)} for k, c in w.residual.items()]}

    def rows():
        return ([["weight", k, str(a)] for k, a in enumerate(w.weights, start=1)]
                + [["residual", k, str(c)] for k, c in w.residual.items()])

    _emit(args, {"spec": args.spec, "name": spec.name, "n": args.n}, 0,
          plain, results, ["kind", "index", "value"], rows)
    return 0


def cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range)
    if lo < 2:
        raise CliError(f"verify range must start at 2 or above, got {lo}")
    _check_index("verify range end", hi)
    # One chunk each, in this process: no benchmark workload gains from a
    # second process (README, --jobs).
    rows = _map_chunks(_identity_chunk, [(lo, hi)], args.jobs)
    checks = [("identity", n, lhs, rhs, ok) for n, lhs, rhs, ok in rows]
    if args.inductive:
        m_lo = max(3, lo)
        if m_lo <= hi:
            ind = _map_chunks(_inductive_chunk, [(m_lo, hi)], args.jobs)
            checks += [("inductive", m, lhs, rhs, ok) for m, lhs, rhs, ok in ind]

    failed = [c for c in checks if not c[4]]
    status = 1 if failed else 0

    def plain():
        lines = []
        for kind, i, lhs, rhs, ok in checks:
            verdict = "PASS" if ok else "FAIL"
            if kind == "identity":
                lines.append(f"n={i}: S={rhs} (n-1)F={lhs} {verdict}")
            else:
                lines.append(f"m={i}: S(m+1)={lhs} decomposition={rhs} {verdict}")
        if failed:
            kind, i, lhs, rhs, _ = failed[0]
            label = "n" if kind == "identity" else "m"
            lines.append(f"first failure: {label}={i} lhs={lhs} rhs={rhs} "
                         f"difference={rhs - lhs}")
        return lines

    def results():
        return {"checks": [
            {"kind": kind, "index": i, "lhs": str(lhs), "rhs": str(rhs), "pass": ok}
            for kind, i, lhs, rhs, ok in checks
        ]}

    def rows():
        return [[kind, i, str(lhs), str(rhs), "PASS" if ok else "FAIL"]
                for kind, i, lhs, rhs, ok in checks]

    _emit(args, {"lo": lo, "hi": hi, "inductive": bool(args.inductive)}, status,
          plain, results, ["kind", "index", "lhs", "rhs", "status"], rows)
    return status


def cmd_conjecture(args) -> int:
    from .conjecture import VERIFIED, conjecture

    _check_index("--verify-to", args.verify_to)
    _check_index("--probe-n", args.probe_n)
    spec = _load_spec(args.spec, args.name)
    lo = min(1, 2 - spec.order)  # the identity reads U(lo..verify_to)
    distance = max(0, spec.seed_start - args.verify_to, lo - spec.seed_end)
    if distance > MAX_EVAL_INDEX:
        raise CliError(f"conjecture: the seeds of {spec.name} are {distance} indices from "
                       f"{lo}..{args.verify_to}; at most {MAX_EVAL_INDEX} are supported")
    conj = conjecture(spec, args.probe_n, args.verify_to, max_order=args.max_order)
    status = 0 if conj.status == VERIFIED else 1

    plain = [f"status: {conj.status}"]
    csv_rows = [["status", conj.status]]
    weights_json = failure_json = None
    residuals_json = []
    if conj.weight_recurrence is None:
        plain.append(f"no recurrence of order <= {args.max_order} fit the weights "
                     "or a residual coefficient; nothing verified")
    else:
        wr = conj.weight_recurrence
        weights_json = {"order": wr.order, "coeffs": [str(c) for c in wr.coeffs],
                        "seeds": [str(s) for s in conj.weight_seeds]}
        coeffs, seeds = " ".join(weights_json["coeffs"]), " ".join(weights_json["seeds"])
        plain.append(f"range: {conj.verified_lo}..{conj.verified_hi}")
        plain.append(f"weights: order {wr.order}, coefficients {coeffs}, seeds {seeds}")
        csv_rows += [["weights.order", wr.order], ["weights.coeffs", coeffs],
                     ["weights.seeds", seeds]]
        for rule in conj.residual_rules:
            rj = {"offset": rule.offset, "order": rule.recurrence.order,
                  "coeffs": [str(c) for c in rule.recurrence.coeffs],
                  "seeds": [str(s) for s in rule.seeds],
                  "start_n": rule.start_n, "constant": str(rule.constant)}
            residuals_json.append(rj)
            rc, rs, key = " ".join(rj["coeffs"]), " ".join(rj["seeds"]), f"residual.{rule.offset}"
            plain.append(f"residual offset {rule.offset}: order {rj['order']}, "
                         f"coefficients {rc}, seeds {rs}, start n={rule.start_n}, "
                         f"constant {rj['constant']}")
            csv_rows += [[f"{key}.order", rj["order"]], [f"{key}.coeffs", rc],
                         [f"{key}.seeds", rs], [f"{key}.constant", rj["constant"]]]
        f = conj.first_failure
        if f is not None:
            plain.append(f"first failure: n={f.n} lhs={f.lhs} rhs={f.rhs} "
                         f"difference={f.rhs - f.lhs}")
            failure_json = {"n": f.n, "lhs": str(f.lhs), "rhs": str(f.rhs)}

    params = {"spec": args.spec, "name": spec.name, "probe_n": args.probe_n,
              "verify_to": args.verify_to, "max_order": args.max_order}
    results = {"status": conj.status, "weights": weights_json, "residuals": residuals_json,
               "range": {"lo": conj.verified_lo, "hi": conj.verified_hi},
               "first_failure": failure_json}
    # The renderings share their few short texts, so all three are built.
    _emit(args, params, status, lambda: plain, lambda: results, ["key", "value"],
          lambda: csv_rows)
    return status


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["plain", "json", "csv"],
                        default="plain", help="output format (default plain)")
    common.add_argument("--jobs", type=int, default=1, metavar="K",
                        help="at least 1; starts nothing: every command runs in one process")
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
                       help="derive and verify the weight identity for a spec")
    add_spec(p)
    p.add_argument("--probe-n", type=int, required=True,
                   help="detection reads the weights a(1)..a(PROBE_N-1)")
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
        status = _run(argv)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        import os  # loaded by every interpreter at start-up

        # The interpreter flushes stdout again at exit: point fd 1 at devnull
        # so that flush cannot raise too (Python docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("seqident: error: stdout was closed before all output was written",
              file=sys.stderr)
        return 2
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
    except ValueError as exc:  # CliError, or an argument the library rejects
        print(f"seqident: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
