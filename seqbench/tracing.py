"""Per-layer spans for the traced run.

The traced run calls ``seqident.cli.main(argv)`` in this process on the
workload's commands.  A Tracer replaces the functions listed in WRAPPED
with wrappers that record a span (name, start, end, parent, command id)
and, for some, a count taken from the arguments or the result.  Nothing
under src/ changes: the wrappers are installed by rebinding module
attributes, at the defining module and at every ``from .x import y`` site,
and removed again afterwards.

Pool workers are not traced.  After a traced command whose chunks ran in
a pool, each chunk is run again serially here, marked as a replay, so the
chunk times and the work inside them are still measured.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import time
from functools import wraps

LAYERS = ("cli", "dsl", "sequences", "expansion", "verify", "conjecture", "_kernels_py")

# Functions wrapped per layer.  `_kernels_py` means whichever kernel module
# seqident._backend selected.
WRAPPED = {
    "cli": ("main", "_map_chunks", "_identity_chunk", "_inductive_chunk", "_emit",
            "cmd_eval", "cmd_expand", "cmd_collect", "cmd_verify", "cmd_conjecture"),
    "dsl": ("parse_all",),
    "sequences": ("eval_range", "fib", "lucas"),
    "expansion": ("sum_expansions", "expansion"),
    "verify": ("convolution_sum",),
    "conjecture": ("conjecture", "verify_conjecture", "detect_min_recurrence", "_solve_exact"),
    "_kernels_py": ("fib_pair", "fill_forward", "dot_product", "convolution_values"),
}

CHUNK_WORKERS = ("_identity_chunk", "_inductive_chunk")


def _max_bits(vals) -> int:
    """Bit length of the larger end value; values grow away from the seeds,
    so one end of a range holds the largest."""
    best = 0
    for v in (vals[0], vals[-1]) if vals else ():
        v = getattr(v, "numerator", v)
        best = max(best, abs(v).bit_length())
    return best


def _info(name, args, result):
    """Counts recorded with a span, from the call's arguments and result."""
    if name == "eval_range":
        spec, lo, hi = args[:3]
        first, last = min(lo, spec.seed_start), max(hi, spec.seed_end)
        return (spec, first, last, _max_bits(result))
    if name == "convolution_values":
        return (args[2], args[3])
    if name == "convolution_sum":
        return args[0]
    if name == "sum_expansions":
        return max(0, args[1] - 2)
    if name == "expansion":
        return max(0, args[1] - 1)
    if name == "detect_min_recurrence":
        return result is not None
    if name == "verify_conjecture":
        conj, lo, hi = args[:3]
        end = result.first_failure.n if result.first_failure is not None else hi
        count = end - lo + 1
        return (lo + end - 2) * count // 2 + count * len(conj.residual_rules)
    if name == "_map_chunks":
        worker, bounds, jobs = args[:3]
        return (worker, list(bounds), jobs)
    return None


class Tracer:
    """Installs span-recording wrappers; spans are lists
    [name, layer, start, end, parent, cmd, replay, info]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.cmd = -1
        self.replay = None  # index of the _map_chunks span being replayed
        self.pid = os.getpid()
        self._restore: list = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack, pid = self.spans, self.stack, self.pid
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:  # a forked pool worker: not traced
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, tracer.cmd,
                    tracer.replay, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            span[7] = _info(name, args, result)
            return result

        return wrapper

    def install(self, package: str = "seqident") -> None:
        mods = {layer: importlib.import_module(f"{package}.{layer}")
                for layer in LAYERS if layer != "_kernels_py"}
        mods["_kernels_py"] = importlib.import_module(f"{package}._backend").kernels
        originals = {}
        for layer, names in WRAPPED.items():
            for name in names:
                fn = getattr(mods[layer], name)
                originals[id(fn)] = self._wrap(layer, name, fn)
        # Rebind at every site that holds one of the originals.
        sites = list(mods.values()) + [importlib.import_module(package)]
        for mod in sites:
            for attr, val in list(vars(mod).items()):
                wrapper = originals.get(id(val))
                if wrapper is not None and callable(val):
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    def replay_chunks(self) -> None:
        """Run serially every chunk of the current command that ran in a pool."""
        ran_here = {s[4] for s in self.spans if s[0] in CHUNK_WORKERS}
        pooled = [i for i, s in enumerate(self.spans) if s[0] == "_map_chunks"
                  and s[5] == self.cmd and s[6] is None and s[7] and _pooled(s[7])
                  and i not in ran_here]
        try:
            for i in pooled:
                self.replay = i
                worker, bounds, _ = self.spans[i][7]
                for b in bounds:
                    worker(b)
        finally:
            self.replay = None


def _pooled(info) -> bool:
    _, bounds, jobs = info
    return jobs > 1 and len(bounds) > 1


def _union_len(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a + 1
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def scan_alpha(points) -> float:
    """Least-squares slope of log(time) against log(N); 0 with < 2 sizes."""
    pts = [(math.log(n), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list, statuses: dict) -> dict:
    """Per-layer numbers from one traced pass (names without the trace.* ones)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]
    dur = [s[3] - s[2] for s in spans]
    self_t = [d - c for d, c in zip(dur, child)]

    def total(name, selfish=False, where=None):
        return sum((self_t if selfish else dur)[i] for i, s in enumerate(spans)
                   if s[0] == name and (where is None or where(s)))

    m = {}
    for layer in LAYERS:
        key = layer.lstrip("_")
        m[f"{key}.self_s"] = sum(t for t, s in zip(self_t, spans) if s[1] == layer)

    # cli: chunking, pool, comparison and rendering.  Chunk times come from
    # the chunk spans under a serial call, or from the replay of a pooled one.
    serial: dict = {}
    replayed: dict = {}
    for j, c in enumerate(spans):
        if c[0] in CHUNK_WORKERS:
            if c[6] is not None:
                replayed.setdefault(c[6], []).append(dur[j])
            elif c[4] >= 0:
                serial.setdefault(c[4], []).append(dur[j])
    chunks = imbalance_w = weight = pool_s = 0.0
    fallback = 0
    for i, s in enumerate(spans):
        if s[0] != "_map_chunks" or s[6] is not None or s[7] is None:
            continue
        chunks += len(s[7][1])
        times = serial.get(i, [])
        if _pooled(s[7]):
            if times:
                fallback += 1  # the pool could not start; chunks ran here
            else:
                times = replayed.get(i, [])
                pool_s += dur[i] - max(times, default=0.0)
                # The call only waited on the pool; the chunk work is counted
                # once, in the replayed spans, and the wait is cli.pool_s.
                m["cli.self_s"] -= self_t[i]
        if times and statistics.fmean(times) > 0:
            imbalance_w += max(times) / statistics.fmean(times) * dur[i]
            weight += dur[i]
    m["cli.chunks"] = chunks
    m["cli.chunk_imbalance"] = imbalance_w / weight if weight else 0.0
    m["cli.pool_s"] = pool_s
    m["cli.fallback_serial"] = fallback
    m["cli.compare_s"] = sum(total(w, True) for w in CHUNK_WORKERS)
    m["cli.emit_s"] = total("_emit", True) + sum(
        total(c, True) for c in ("cmd_eval", "cmd_expand", "cmd_collect", "cmd_verify",
                                 "cmd_conjecture"))

    m["dsl.parse_s"] = total("parse_all")

    # sequences: evaluation time, terms, operand size, recomputation.
    m["sequences.eval_range_s"] = total("eval_range")
    m["sequences.fill_forward_s"] = total(
        "fill_forward", where=lambda s: s[4] >= 0 and spans[s[4]][0] == "eval_range")
    m["sequences.fib_pair_s"] = total("fib_pair")
    computed = 0
    per_cmd: dict = {}
    max_bits = 0
    for s in spans:
        if s[0] == "eval_range" and s[7] is not None:  # None: the call raised
            spec, first, last, bits = s[7]
            computed += last - first + 1
            per_cmd.setdefault((s[5], spec), []).append((first, last))
            max_bits = max(max_bits, bits)
    distinct = sum(_union_len(iv) for iv in per_cmd.values())
    m["sequences.terms"] = computed
    m["sequences.max_bits"] = max_bits
    m["sequences.terms_useful_ratio"] = distinct / computed if computed else 0.0

    m["expansion.sum_expansions_s"] = total("sum_expansions")
    m["expansion.substitutions"] = sum(
        s[7] or 0 for s in spans if s[0] in ("sum_expansions", "expansion"))

    calls = [(s[5], s[7]) for s in spans if s[0] == "convolution_sum" and s[7] is not None]
    m["verify.convolution_sum_s"] = total("convolution_sum")
    m["verify.convolution_sum_calls"] = len(calls)
    m["verify.convolution_sum_useful_ratio"] = len(set(calls)) / len(calls) if calls else 0.0

    detects = [bool(s[7]) for s in spans if s[0] == "detect_min_recurrence"]
    tried = sum(1 for s in spans if s[0] == "_solve_exact")
    m["conjecture.detect_s"] = total("detect_min_recurrence")
    m["conjecture.detect_orders_tried"] = tried
    m["conjecture.detect_hit_ratio"] = sum(detects) / tried if tried else 0.0
    vc = [s for s in spans if s[0] == "verify_conjecture"]
    m["conjecture.verify_s"] = total("verify_conjecture")
    m["conjecture.verify_products"] = sum(s[7] or 0 for s in vc)
    cmds = {s[5] for s in vc}
    m["conjecture.verify_calls_per_cmd"] = len(vc) / len(cmds) if cmds else 0.0
    for status in ("verified", "refuted", "undetermined", "error"):
        m[f"conjecture.status_{status}"] = statuses.get(status, 0)

    scans = [s for s in spans if s[0] == "convolution_values"]
    m["kernels_py.convolution_values_s"] = total("convolution_values")
    m["kernels_py.conv_products"] = sum(
        (lo + hi - 2) * (hi - lo + 1) // 2 for lo, hi in (s[7] for s in scans if s[7]))
    m["kernels_py.scan_alpha"] = scan_alpha(
        [(s[7][1], s[3] - s[2]) for s in scans if s[7] and s[7][0] == 2 and s[3] - s[2] >= 0.05])
    m["kernels_py.dot_product_s"] = total("dot_product")
    return m

