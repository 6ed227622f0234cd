#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the seqident CLI.

    python3 seqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the CLI under test is that tree's
``src/`` (``python -m seqident.cli`` with PYTHONPATH=<tree>/src), never an
installed copy.  Workloads: verify_serial, verify_parallel, conjecture_mix,
eval_deep (see workloads.py and README.md).

--trace 0 runs each command as its own process, one at a time (a closed
loop with one client), in passes over the workload's command list until
--seconds is used up, and reports the end-to-end metrics.  --trace 1 runs
the same commands in this process through seqident.cli.main, alternating
an untraced and a traced pass, and reports the per-layer metrics.  Every
command's output is checked against the reference in oracle.py.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import oracle
import proc
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".seqbench_work"

SETUP_REPEATS = 9
MIN_PASSES = 3
STARTUP_REPEATS = 5
RUN_LIMIT_S = 150.0  # the whole run, set-up included, stays under this
COMMAND_TIMEOUT_S = 60.0
WARMUP = ("eval", "--spec", "builtin:fib", "--n", "2")

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cmd_p50_s", "s"), ("cmd_max_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
)

PER_LAYER = (
    ("cli.self_s", "s"), ("cli.startup_s", "s"), ("cli.chunks", "count"),
    ("cli.chunk_imbalance", "ratio"), ("cli.pool_s", "s"), ("cli.fallback_serial", "count"),
    ("cli.compare_s", "s"), ("cli.emit_s", "s"),
    ("dsl.self_s", "s"), ("dsl.parse_s", "s"),
    ("sequences.self_s", "s"), ("sequences.eval_range_s", "s"),
    ("sequences.fill_forward_s", "s"), ("sequences.fib_pair_s", "s"),
    ("sequences.terms", "count"), ("sequences.max_bits", "bits"),
    ("sequences.terms_useful_ratio", "ratio"),
    ("expansion.self_s", "s"), ("expansion.sum_expansions_s", "s"),
    ("expansion.substitutions", "count"),
    ("verify.self_s", "s"), ("verify.convolution_sum_s", "s"),
    ("verify.convolution_sum_calls", "count"), ("verify.convolution_sum_useful_ratio", "ratio"),
    ("conjecture.self_s", "s"), ("conjecture.detect_s", "s"),
    ("conjecture.detect_orders_tried", "count"), ("conjecture.detect_hit_ratio", "ratio"),
    ("conjecture.verify_s", "s"), ("conjecture.verify_products", "count"),
    ("conjecture.verify_calls_per_cmd", "ratio"),
    ("conjecture.status_verified", "count"), ("conjecture.status_refuted", "count"),
    ("conjecture.status_undetermined", "count"), ("conjecture.status_error", "count"),
    ("kernels_py.self_s", "s"), ("kernels_py.convolution_values_s", "s"),
    ("kernels_py.conv_products", "count"), ("kernels_py.scan_alpha", "exponent"),
    ("kernels_py.dot_product_s", "s"),
    ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)


def log(*parts) -> None:
    print(*parts, flush=True)


def environment() -> dict:
    """Python version, cores, the source tree's commit and seqident.BACKEND."""
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            packed = ROOT / ".git" / "packed-refs"
            if path.is_file():
                commit = path.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        commit = line.split()[0]
        else:
            commit = ref
    import seqident

    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "backend": getattr(seqident, "BACKEND", None),
        "seqident": seqident.__file__,
        "int_max_str_digits": oracle.STR_DIGIT_LIMIT,
    }


def cli_argv(argv) -> list:
    return [sys.executable, "-m", "seqident.cli", *argv]


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Run:
    """One benchmark run: its inputs, deadline and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.start = time.perf_counter()
        self.name, self.seed, self.seconds = workload, seed, seconds
        self.jobs = min(2, os.cpu_count() or 1)
        self.spec_dir = WORK / "specs"
        self.out_path = str(WORK / "stdout")
        self.env = cli_env()
        self.attempted = self.failed = self.unexpected = 0
        self.reasons: list = []
        self._accepted: dict = {}
        self.wl = None

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def run_cli(self, argv) -> proc.Outcome:
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, self.remaining()))
        return proc.run(cli_argv(argv), cwd=str(ROOT), env=self.env, timeout=timeout,
                        out_path=self.out_path)

    def setup_once(self) -> float:
        """Generate and write the inputs, then one untimed warm-up invocation."""
        t0 = time.perf_counter()
        wl = workloads.generate(self.name, self.seed, str(self.spec_dir), self.jobs)
        self.spec_dir.mkdir(parents=True, exist_ok=True)
        for fname, text in wl.files.items():
            (self.spec_dir / fname).write_text(text)
        warm = self.run_cli(WARMUP)
        elapsed = time.perf_counter() - t0
        if warm.code != 0 or warm.stdout != b"1\n":
            raise SystemExit(f"warm-up command failed (exit {warm.code}): "
                             f"{warm.stderr.decode(errors='replace')[-500:]}")
        if self.wl is None:
            self.wl = wl
        elif wl != self.wl:
            raise SystemExit("the generator gave different inputs for the same seed")
        return elapsed

    def judge(self, i: int, code: int, stdout: bytes, stderr: bytes,
              timed_out: bool = False) -> oracle.Verdict:
        """Check one command's result; identical bytes are judged once."""
        self.attempted += 1
        if timed_out:
            verdict = oracle.Verdict("fail", "timeout")
        else:
            key = (i, code, hashlib.sha256(stdout).digest(), hashlib.sha256(stderr).digest())
            verdict = self._accepted.get(key)
            if verdict is None:
                exp = self.wl.commands[i].expect
                if "prepared" not in exp:
                    oracle.prepare(exp)
                    exp["prepared"] = True
                verdict = oracle.check(exp, code, stdout, stderr)
                if verdict.status != "fail":
                    self._accepted[key] = verdict
        if verdict.status != "pass":
            self.failed += 1
        if verdict.status == "fail":
            self.unexpected += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{' '.join(self.wl.commands[i].argv)}: {verdict.reason}")
        return verdict


def pass_order(cmds) -> list:
    """One pass: every command once, and each command marked `twice` again
    half a pass later, so that its median rests on two samples a pass."""
    n = len(cmds)
    order = []
    for pos in range(n):
        order.append(pos)
        order += [i for i in range(n) if cmds[i].twice and (i + n // 2) % n == pos]
    return order


def end_to_end(run: Run) -> dict:
    setups = [run.setup_once() for _ in range(SETUP_REPEATS)]
    cmds = run.wl.commands
    order = pass_order(cmds)
    log(f"# {len(cmds)} commands, {len(order)} timed per pass; closed loop, one client; "
        f"--jobs {run.jobs} on verify_parallel")
    # samples[i] holds (wall, cpu, rss, passed) of command i, one per timing.
    samples: list = [[] for _ in cmds]
    passes = 0
    loop_start = time.perf_counter()
    while run.remaining() > 5:
        for i in order:
            if run.remaining() < 5:
                break
            out = run.run_cli(cmds[i].argv)
            verdict = run.judge(i, out.code, out.stdout, out.stderr, out.timed_out)
            samples[i].append((out.wall_s, out.cpu_s, out.maxrss_mb, verdict.status == "pass"))
        passes += 1
        used = time.perf_counter() - loop_start
        # Take at least MIN_PASSES passes, so that every per-command median
        # has a middle sample and the pass count does not change with the
        # host's speed; then stop when another pass would overrun --seconds.
        if passes >= MIN_PASSES and used + used / passes > run.seconds:
            break
    # Per-command medians over the passes, so one disturbed pass moves nothing.
    med = [[statistics.median(col) for col in zip(*s)] for s in samples if s]
    wall = sum(m[0] for m in med)
    log(f"# passes: {passes}; set-ups: {len(setups)}; commands: {len(cmds)}; "
        f"error_rate: {run.failed}/{run.attempted} = {run.failed / run.attempted:.4f}")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "cmd_p50_s": statistics.median(m[0] for m in med),
        "cmd_max_s": max(m[0] for m in med),
        "cpu_s": sum(m[1] for m in med),
        "peak_rss_mb": max(m[2] for m in med),
        "ops_per_s": sum(m[3] for m in med) / wall,
    }


def _in_process(main, argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
    except Exception:  # a crash, as the process would report it
        code = 1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return code, wall, out.getvalue().encode(), err.getvalue().encode()


class OutOfTime(BaseException):
    """Raised by SIGALRM when an in-process command runs past the run limit;
    a BaseException so that the crash handler in _in_process lets it pass."""


def _out_of_time(signum, frame):
    raise OutOfTime


def per_layer(run: Run) -> dict:
    import tracing

    # In-process commands cannot be killed like child processes; an alarm
    # ends the run instead of letting a hung command hold it forever.
    signal.signal(signal.SIGALRM, _out_of_time)
    signal.alarm(max(1, int(run.remaining())))
    try:
        return _per_layer(run, tracing)
    except OutOfTime:
        raise SystemExit(f"seqbench: the traced run passed {RUN_LIMIT_S:.0f} s") from None
    finally:
        signal.alarm(0)


def _per_layer(run: Run, tracing) -> dict:
    run.setup_once()
    startup = [run.run_cli(WARMUP).wall_s for _ in range(STARTUP_REPEATS)]
    from seqident import cli

    cmds = run.wl.commands
    samples: list = []
    all_spans: list = []
    loop_start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        tracer = tracing.Tracer()
        statuses: dict = {}
        untraced = traced = 0.0
        for i, cmd in enumerate(cmds):
            # Each command runs untraced and traced back to back, in an order
            # that alternates, so drift and warm-up fall on both sides alike.
            for with_trace in ((False, True) if (i + len(samples)) % 2 == 0 else (True, False)):
                if not with_trace:
                    code, wall, out, err = _in_process(cli.main, cmd.argv)
                    run.judge(i, code, out, err)
                    untraced += wall
                    continue
                tracer.cmd = i
                tracer.install()
                try:
                    code, wall, out, err = _in_process(cli.main, cmd.argv)
                    tracer.replay_chunks()
                finally:
                    tracer.uninstall()
                traced += wall
                status = run.judge(i, code, out, err).info.get("status")
                if status:
                    statuses[status] = statuses.get(status, 0) + 1
        m = tracing.layer_metrics(tracer.spans, statuses)
        m.update({"cli.startup_s": statistics.median(startup),
                  "trace.untraced_wall_s": untraced, "trace.traced_wall_s": traced,
                  "trace.overhead_s": traced - untraced, "trace.spans": len(tracer.spans)})
        samples.append(m)
        all_spans.append(tracer.spans)
        used = time.perf_counter() - loop_start
        pair = time.perf_counter() - t_pair
        if used + pair > run.seconds or run.remaining() < 2 * pair:
            break
    log(f"# traced passes: {len(samples)}; error_rate: {run.failed}/{run.attempted} = "
        f"{run.failed / run.attempted:.4f}")
    write_spans(run, all_spans)
    return {name: statistics.median(s[name] for s in samples) for name, _ in PER_LAYER}


def write_spans(run: Run, passes: list) -> None:
    """All spans of the traced passes, one JSON object a line."""
    path = WORK / f"spans-{run.name}-{run.seed}.jsonl"
    with open(path, "w") as fh:
        for p, spans in enumerate(passes):
            for s in spans:
                name, layer, t0, t1, parent, cmd, replay, info = s
                if info is None:
                    pass
                elif name == "eval_range":
                    info = [info[0].name, *info[1:]]
                elif name == "_map_chunks":
                    info = [info[1], info[2]]
                fh.write(json.dumps({"pass": p, "name": f"{layer}.{name}", "start": t0,
                                     "end": t1, "parent": parent, "cmd": cmd,
                                     "replay_of": replay, "info": info}) + "\n")
    log(f"# spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind normally so that a running command's group is killed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "seqident" / "cli.py").is_file():
        print(f"seqbench: no seqident source tree at {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))  # the traced run imports this tree's seqident
    run = Run(args.workload, args.seed, args.seconds)
    env = environment()
    log(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    log("# environment " + json.dumps(env))
    if args.trace:
        values, units = per_layer(run), dict(PER_LAYER)
    else:
        values, units = end_to_end(run), dict(END_TO_END)
    for name, value in values.items():
        log(f"{name:40s} {value:.6g} {units[name]}")
    for reason in run.reasons:
        log(f"# FAILED {reason}")
    result = {
        "correct": run.unexpected == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
