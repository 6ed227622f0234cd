"""Seeded inputs for the four benchmark workloads.

``generate(name, seed, spec_dir)`` returns the spec files (DSL text written
here, not through seqident.format_spec, so the inputs do not depend on the
code under test) and the list of CLI commands with what the reference
expects of each.  The same (name, seed, spec_dir) always gives the same
files and argv.

Every draw is stratified: each command has a slot with a narrow range
(an index, a target value size, a spec class), so that different seeds
vary the inputs without varying the total work by more than a few per
cent.  That keeps run-to-run spread across seeds inside the bounds in
BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import BUILTINS, Spec, values

WORKLOADS = ("verify_serial", "verify_parallel", "conjecture_mix", "eval_deep")
FORMATS = ("plain", "json", "csv")


@dataclass(frozen=True)
class Command:
    argv: tuple  # arguments after `python -m seqident.cli`
    expect: dict  # what the reference needs to judge the output
    twice: bool = False  # timed twice a pass: the slowest command of a workload


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    files: dict  # file name -> DSL text
    commands: tuple


def dsl_text(spec: Spec) -> str:
    """One `seq` statement in the seqident DSL."""
    parts = []
    for lag, c in enumerate(spec.coeffs, start=1):
        if c == 0:
            continue
        term = f"{spec.name}(n-{lag})"
        if abs(c) != 1:
            term = f"{abs(c)}*{term}"
        if parts:
            parts.append(("- " if c < 0 else "+ ") + term)
        else:
            parts.append(("-" if c < 0 else "") + term)
    seeds = "; ".join(f"{spec.name}({spec.start + i})={v}" for i, v in enumerate(spec.seeds))
    return f"seq {spec.name}: {spec.name}(n) = {' '.join(parts)};\n    {seeds}\n"


def growth_bits(spec: Spec, backward: bool = False) -> float:
    """Bits gained per index step away from the seeds, over 1000 steps."""
    lo, hi = (spec.start - 1000, spec.start) if backward else (spec.start, spec.start + 1000)
    vals = values(spec, lo, hi)
    if backward:
        vals.reverse()
    d = spec.order

    def bits(i):
        return max(abs(int(v)).bit_length() for v in vals[i:i + d])

    return (bits(len(vals) - d) - bits(300)) / (len(vals) - d - 300)


def _fmt_cycle(rng: random.Random, count: int) -> list:
    fmts = list(FORMATS) * (count // len(FORMATS) + 1)
    rng.shuffle(fmts)
    return fmts[:count]


def _random_spec(rng: random.Random, name: str, order: int, *, c1_zero=False,
                 trailing=(-1, 1), start_range=(-3, 3), cmax=3) -> Spec:
    coeffs = [rng.randint(-cmax, cmax) for _ in range(order)]
    if order > 1:
        coeffs[0] = 0 if c1_zero else rng.choice([c for c in range(-cmax, cmax + 1) if c])
    coeffs[-1] = rng.choice(trailing)
    seeds = [rng.randint(-3, 3) for _ in range(order)]
    if not any(seeds):
        seeds[-1] = 1
    return Spec(name, tuple(coeffs), tuple(seeds), rng.randint(*start_range))


def _verify_commands(rng: random.Random, jobs: int) -> list:
    # One slot per size.  Five slots sit 50 apart around 1250, so that the
    # median command has close neighbours on both sides: cmd_p50_s then
    # rests on several commands' samples, not on two.  The 2400 range is
    # the slowest command and sets cmd_max_s; it is timed twice a pass, and
    # always prints json, the format that holds the most in memory, so that
    # the peak RSS does not depend on the seed.
    sizes = (1000, 1150, 1200, 1250, 1300, 1350, 1700)
    ranges = [(h + rng.randint(-10, 10), False) for h in sizes]
    ranges += [(300 + rng.randint(-20, 20), True), (400 + rng.randint(-20, 20), True)]
    fmts = _fmt_cycle(rng, len(ranges))
    ranges.append((2400 - rng.randint(0, 20), False))
    fmts.append("json")
    order = list(range(len(ranges)))
    rng.shuffle(order)
    cmds = []
    for j in order:
        (hi, inductive), fmt = ranges[j], fmts[j]
        argv = ["verify", f"--range=2..{hi}", "--format", fmt, "--jobs", str(jobs)]
        if inductive:
            argv.append("--inductive")
        cmds.append(Command(tuple(argv), {"kind": "verify", "lo": 2, "hi": hi,
                                          "inductive": inductive, "fmt": fmt},
                            twice=j == len(ranges) - 1))
    return cmds


def _conjecture_specs(rng: random.Random) -> list:
    """Spec slots: twenty unit-trailing specs with c1 != 0 (orders 1-5, then
    fifteen of order 2-4), two with c1 = 0, and two with trailing coefficient
    +-2 seeded above index 1, which cannot be extended backward.  The many
    c1 != 0 slots put the median command in the middle of their costs, so
    that cmd_p50_s depends little on the seed."""
    slots = [("plain", d) for d in (1, 2, 3, 4, 5)]
    slots += [("plain", rng.randint(2, 4)) for _ in range(15)]
    slots += [("c1_zero", rng.randint(2, 4)) for _ in range(2)]
    slots += [("trailing2", rng.randint(1, 3)) for _ in range(2)]
    specs = []
    for i, (cls, d) in enumerate(slots):
        name = f"C{i}"
        if cls == "trailing2":
            spec = _random_spec(rng, name, d, trailing=(-2, 2), start_range=(2, 4))
        else:
            spec = _random_spec(rng, name, d, c1_zero=(cls == "c1_zero"))
        specs.append(spec)
    return specs


def scan_bound(spec: Spec, seconds: float = 0.1) -> int:
    """--verify-to giving the brute-force scan about the same work for any
    spec: its cost is roughly 5e-8*H^2 + 1.7e-10*g*H^3 seconds on one core
    of the reference machine, g being the bits gained per index."""
    g = growth_bits(spec) if abs(spec.coeffs[-1]) == 1 else 1.0
    lo, hi = 300, 600
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 5e-8 * mid ** 2 + 1.7e-10 * g * mid ** 3 <= seconds:
            lo = mid
        else:
            hi = mid
    return lo


def _conjecture_commands(rng: random.Random, spec_dir: str, files: dict) -> list:
    specs = _conjecture_specs(rng)
    # --max-order is stratified too: the same spread of K over 8..24 for
    # every seed.  Detection slows steeply with the order it finds, which
    # for some specs of order 3 and up is near 20 (taking 1.5-2 s at K >= 20),
    # so the highest K go to the lowest-order specs, ties in a seeded order.
    ks = [8 + (16 * i) // (len(specs) - 1) for i in range(len(specs))]
    by_order = sorted(specs, key=lambda sp: (-sp.order, rng.random()))
    k_of = {sp.name: k for sp, k in zip(by_order, ks)}
    entries = []
    for spec in specs:
        k = k_of[spec.name]
        fname = f"{spec.name}.seq"
        files[fname] = f"# conjecture_mix spec {spec.name}\n" + dsl_text(spec)
        # c1 = 0 specs are refuted by the residual-offset defect; where they
        # fail varies, so a short range keeps their cost from varying much.
        hi = 400 if spec.coeffs[0] == 0 and spec.order > 1 else scan_bound(spec)
        entries.append((spec, f"{spec_dir}/{fname}", hi - rng.randint(0, 20), k))
    # trib is the slowest command and sets cmd_max_s: H <= 600 keeps even a
    # refuted spec, which scans twice, well below it.  A fixed K keeps its
    # cost the same for every seed, and it is timed twice a pass.
    entries.append((BUILTINS["trib"], "builtin:trib", 1500 - rng.randint(0, 10), 16))
    rng.shuffle(entries)
    cmds = []
    for (spec, arg, hi, k), fmt in zip(entries, _fmt_cycle(rng, len(entries))):
        probe = 2 * k + 2 + rng.randint(0, 8)
        argv = ("conjecture", "--spec", arg, "--probe-n", str(probe), "--verify-to",
                str(hi), "--max-order", str(k), "--format", fmt)
        cmds.append(Command(argv, {"kind": "conjecture", "spec": spec, "verify_to": hi,
                                   "fmt": fmt}, twice=spec is BUILTINS["trib"]))
    return cmds


def _growing_spec(rng: random.Random, name: str) -> tuple:
    """A unit-trailing spec with coefficients in -1..1, gaining 0.35..0.55
    bits per step forward (so its values near index 20000 stay under the
    digit limit) and 0.25..2.5 backward."""
    while True:
        spec = _random_spec(rng, name, rng.randint(2, 4), cmax=1)
        fwd = growth_bits(spec)
        if 0.35 <= fwd <= 0.55:
            back = growth_bits(spec, backward=True)
            if 0.25 <= back <= 2.5:
                return spec, fwd, back


def _eval_commands(rng: random.Random, spec_dir: str, files: dict) -> list:
    fib, lucas, trib = BUILTINS["fib"], BUILTINS["lucas"], BUILTINS["trib"]
    grown = [_growing_spec(rng, f"E{i}") for i in range(3)]
    fname = "eval_specs.seq"
    files[fname] = "# eval_deep specs\n" + "".join(dsl_text(s) for s, _, _ in grown)
    path = f"{spec_dir}/{fname}"

    def spec_args(spec):
        for key, b in BUILTINS.items():
            if b is spec:
                return ("--spec", f"builtin:{key}")
        return ("--spec", path, "--name", spec.name)

    def near(x):
        return x + rng.randint(-x // 100, x // 100)

    # (kind, spec, index).  Two commands print values beyond the CLI's
    # int->str digit limit on purpose (the known defect): F(40000) and
    # T(30000) have about 8000 digits.  Every other value stays below 3900
    # digits, so the count of affected commands is the same for every seed.
    plan = [
        ("eval", fib, near(18000)),
        ("eval", lucas, near(17000)),
        ("eval", trib, near(14000)),
        ("eval", fib, near(40000)),
        ("eval", trib, near(30000)),
    ]
    plan += [("eval", s, near(20000)) for s, _, _ in grown]
    plan.append(("range", fib, -near(6000)))
    plan += [("range", s, s.start - round(near(6000) / b)) for s, _, b in grown[:2]]
    plan += [("collect", fib, near(4000)),
             ("collect", grown[2][0], near(3000)),
             ("expand", trib, near(4000)),
             ("expand", grown[1][0], near(4000))]
    rng.shuffle(plan)
    cmds = []
    for (sub, spec, x), fmt in zip(plan, _fmt_cycle(rng, len(plan))):
        tail = ("--format", fmt)
        if sub == "eval":
            argv = ("eval", *spec_args(spec), f"--n={x}") + tail
            exp = {"kind": "eval", "spec": spec, "lo": x, "hi": x}
        elif sub == "range":
            hi = x + near(200)
            argv = ("eval", *spec_args(spec), f"--range={x}..{hi}") + tail
            exp = {"kind": "eval", "spec": spec, "lo": x, "hi": hi}
        elif sub == "collect":
            argv = ("collect", *spec_args(spec), f"--n={x}") + tail
            exp = {"kind": "collect", "spec": spec, "n": x}
        else:
            argv = ("expand", *spec_args(spec), f"--depth={x}") + tail
            exp = {"kind": "expand", "spec": spec, "depth": x}
        exp["fmt"] = fmt
        cmds.append(Command(argv, exp))
    return cmds


def generate(name: str, seed: int, spec_dir: str, jobs: int = 2) -> Workload:
    """The seeded inputs of one workload; spec files go under `spec_dir`."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    files: dict = {}
    if name.startswith("verify"):
        # Both verify workloads share one command list; only --jobs differs.
        rng = random.Random(f"seqbench:verify:{seed}")
        cmds = _verify_commands(rng, 1 if name == "verify_serial" else jobs)
    elif name == "conjecture_mix":
        cmds = _conjecture_commands(random.Random(f"seqbench:{name}:{seed}"), spec_dir, files)
    else:
        cmds = _eval_commands(random.Random(f"seqbench:{name}:{seed}"), spec_dir, files)
    return Workload(name, seed, files, tuple(cmds))
