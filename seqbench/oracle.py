"""Reference arithmetic and output checkers for the seqident CLI.

Nothing here imports seqident: every expected value comes from the
benchmark's own iteration of the recurrence, so a defect in the program
cannot hide itself by also appearing in the reference.

A checker takes a command's expectation, its exit code and its stdout and
stderr bytes, and returns a Verdict:

* ``pass``     -- the output is correct;
* ``defect``   -- the command crashed in the known way (an integer of more
                  than sys.get_int_max_str_digits() digits cannot be
                  printed), on a command the reference predicts is affected;
* ``fail``     -- anything else: a traceback, a wrong exit code, a wrong
                  value, a missing row, a timeout.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

# The limit the CLI processes inherit from this environment.
STR_DIGIT_LIMIT = sys.get_int_max_str_digits()


@dataclass(frozen=True)
class Spec:
    """U(n) = coeffs[0]*U(n-1) + ... + coeffs[d-1]*U(n-d); seeds start at `start`."""

    name: str
    coeffs: tuple
    seeds: tuple
    start: int

    @property
    def order(self) -> int:
        return len(self.coeffs)


BUILTINS = {
    "fib": Spec("F", (1, 1), (1, 1), 1),
    "lucas": Spec("L", (1, 1), (2, 1), 0),
    "trib": Spec("T", (1, 1, 1), (0, 0, 1), 0),
}


@dataclass
class Verdict:
    status: str  # "pass", "defect" or "fail"
    reason: str = ""
    info: dict = field(default_factory=dict)


@contextmanager
def unlimited_int_str():
    """Lift the int<->str digit limit for the reference's own conversions."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


# --------------------------------------------------------------------------
# Reference arithmetic


def values(spec: Spec, lo: int, hi: int) -> list:
    """U(lo)..U(hi) by plain forward and backward iteration.

    Backward steps divide by the trailing coefficient; a non-unit one gives
    exact Fractions.
    """
    d = spec.order
    c = spec.coeffs
    first = min(lo, spec.start)
    below = []
    window = list(spec.seeds)  # U(m+1)..U(m+d)
    for _ in range(spec.start - first):
        top = window[-1] - sum(c[i] * window[d - 2 - i] for i in range(d - 1))
        v = Fraction(top, c[-1]) if abs(c[-1]) != 1 else top * c[-1]
        if isinstance(v, Fraction) and v.denominator == 1:
            v = int(v)
        below.append(v)
        window = [v] + window[:-1]
    below.reverse()
    out = below + list(spec.seeds)
    while first + len(out) - 1 < hi:
        out.append(sum(c[i] * out[-1 - i] for i in range(d)))
    return out[lo - first: hi - first + 1]


def value_at(spec: Spec, n: int):
    """U(n) keeping only a window of d terms when n is above the seeds."""
    if n < spec.start + spec.order:
        return values(spec, n, n)[0]
    c = spec.coeffs
    d = spec.order
    window = list(spec.seeds)
    for _ in range(n - spec.start - d + 1):
        nxt = c[0] * window[-1]
        for i in range(1, d):
            nxt += c[i] * window[-1 - i]
        window.append(nxt)
        del window[0]
    return window[-1]


def expansion_forms(coeffs: tuple, count: int) -> list:
    """The first `count` expansions of U(n) as {shift: coefficient} maps.

    E_r, the form after substituting shifts 1..r-1, has coefficient
    sum_{i=j-r+1}^{d} c_i*G(j-i) at shift j in r..r+d-1, and G(r) at shift
    r.  Substituting a term whose coefficient is zero changes nothing, so the
    t-th expansion that substitutes the least *nonzero* shift is E_m with m
    advancing past every r where G(r) = 0.
    """
    d = len(coeffs)
    g = [1]

    def G(j):
        while len(g) <= j:
            m = len(g)
            g.append(sum(coeffs[i - 1] * g[m - i] for i in range(1, min(d, m) + 1)))
        return g[j]

    def form(r):
        out = {}
        for j in range(r, r + d):
            v = sum(coeffs[i - 1] * G(j - i) for i in range(j - r + 1, d + 1) if j >= i)
            if v:
                out[j] = v
        return out

    forms = []
    m = 1
    for _ in range(count):
        forms.append(form(m))
        j = m
        while G(j) == 0:
            j += 1
        m = j + 1
    return forms


def collected(coeffs: tuple, n: int) -> tuple[list, dict]:
    """Weights a(1..n-1) and the residual {shift >= n: coefficient} of the
    summed expansions of depths 1..n-1."""
    totals: dict = {}
    for f in expansion_forms(coeffs, n - 1):
        for k, v in f.items():
            totals[k] = totals.get(k, 0) + v
    weights = [totals.get(k, 0) for k in range(1, n)]
    residual = {k: v for k, v in sorted(totals.items()) if k >= n and v}
    return weights, residual


def fibs(hi: int) -> list:
    """F(0..hi)."""
    out = [0, 1]
    while len(out) <= hi:
        out.append(out[-1] + out[-2])
    return out[: hi + 1]


def over_limit(nums) -> bool:
    """True when some integer has more decimal digits than the CLI can print."""
    if STR_DIGIT_LIMIT == 0:
        return False
    bound = 10 ** STR_DIGIT_LIMIT
    return any(isinstance(v, int) and abs(v) >= bound for v in nums)


# --------------------------------------------------------------------------
# Expected verify output.  The identity (n-1)F(n) = sum L(k)F(n-k) is a
# theorem, so every row is known without computing the convolution; the
# rendering is exact, which also makes --jobs 2 output equal --jobs 1 output.


def verify_output(lo: int, hi: int, inductive: bool, fmt: str) -> bytes:
    f = fibs(hi + 1)
    checks = [("identity", n, (n - 1) * f[n], (n - 1) * f[n]) for n in range(lo, hi + 1)]
    if inductive:
        checks += [("inductive", m, m * f[m + 1], m * f[m + 1])
                   for m in range(max(3, lo), hi + 1)]
    if fmt == "plain":
        lines = []
        for kind, i, lhs, rhs in checks:
            if kind == "identity":
                lines.append(f"n={i}: S={rhs} (n-1)F={lhs} PASS")
            else:
                lines.append(f"m={i}: S(m+1)={lhs} decomposition={rhs} PASS")
        text = "".join(line + "\n" for line in lines)
    elif fmt == "json":
        record = {
            "command": "verify",
            "params": {"lo": lo, "hi": hi, "inductive": inductive},
            "results": {"checks": [
                {"kind": kind, "index": i, "lhs": str(lhs), "rhs": str(rhs), "pass": True}
                for kind, i, lhs, rhs in checks
            ]},
            "status": 0,
        }
        text = json.dumps(record, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kind", "index", "lhs", "rhs", "status"])
        w.writerows([kind, i, str(lhs), str(rhs), "PASS"] for kind, i, lhs, rhs in checks)
        text = buf.getvalue()
    return text.encode()


# --------------------------------------------------------------------------
# Checking


def _crash_verdict(code: int, stderr: bytes, predicted_over: bool) -> Verdict | None:
    """Classify a crash; None when the command did not crash."""
    err = stderr.decode(errors="replace")
    if "Traceback" not in err:
        return None
    if predicted_over and "Exceeds the limit" in err and code == 1:
        return Verdict("defect", "integer too long to print (known defect)")
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return Verdict("fail", f"crash (exit {code}): {last}")


def _rows(fmt: str, out: str):
    if fmt == "json":
        return json.loads(out)
    if fmt == "csv":
        return list(csv.reader(io.StringIO(out)))
    return out.splitlines()


def _check_eval(exp: dict, out: str) -> str | None:
    spec, lo, hi, fmt = exp["spec"], exp["lo"], exp["hi"], exp["fmt"]
    want = values(spec, lo, hi) if lo != hi else [value_at(spec, lo)]
    idx = list(range(lo, hi + 1))
    rows = _rows(fmt, out)
    if fmt == "json":
        got = [(int(v["n"]), int(v["value"])) for v in rows["results"]["values"]]
    elif fmt == "csv":
        if rows[0] != ["n", "value"]:
            return f"bad csv header {rows[0]}"
        got = [(int(a), int(b)) for a, b in rows[1:]]
    elif lo == hi:
        got = [(lo, int(line)) for line in rows]
    else:
        got = []
        for line in rows:
            m = re.fullmatch(r"n=(-?\d+): (-?\d+)", line)
            if m is None:
                return f"unparsable line {line[:60]!r}"
            got.append((int(m.group(1)), int(m.group(2))))
    if [i for i, _ in got] != idx:
        return "wrong set of indices"
    for (i, v), w in zip(got, want):
        if v != w:
            return f"wrong value at n={i}"
    return None


def _form_from_output(exp: dict, out: str) -> dict:
    rows = _rows(exp["fmt"], out)
    if exp["fmt"] == "json":
        return {int(t["shift"]): int(t["coefficient"]) for t in rows["results"]["terms"]}
    if exp["fmt"] == "csv":
        if rows[0] != ["shift", "coefficient"]:
            raise ValueError(f"bad csv header {rows[0]}")
        return {int(a): int(b) for a, b in rows[1:]}
    name = exp["spec"].name
    (line,) = rows
    prefix = f"{name}(n) = "
    if not line.startswith(prefix):
        raise ValueError(f"unparsable expansion {line[:60]!r}")
    body = line[len(prefix):]
    term = re.compile(r"(-|\+ |- )?(?:(\d+)\*)?" + re.escape(name) + r"\(n-(\d+)\)( |$)")
    form, pos = {}, 0
    while pos < len(body):
        m = term.match(body, pos)
        if m is None:
            raise ValueError(f"unparsable term at {body[pos:pos + 40]!r}")
        sign = -1 if (m.group(1) or "").startswith("-") else 1
        form[int(m.group(3))] = sign * int(m.group(2) or 1)
        pos = m.end()
    return form


def _check_expand(exp: dict, out: str) -> str | None:
    want = expansion_forms(exp["spec"].coeffs, exp["depth"])[-1]
    got = _form_from_output(exp, out)
    if got != want:
        return "expansion differs from the reference"
    return None


def _check_collect(exp: dict, out: str) -> str | None:
    weights, residual = collected(exp["spec"].coeffs, exp["n"])
    rows = _rows(exp["fmt"], out)
    if exp["fmt"] == "json":
        res = rows["results"]
        got_w = [int(v) for v in res["weights"]]
        got_r = {int(r["shift"]): int(r["coefficient"]) for r in res["residual"]}
    elif exp["fmt"] == "csv":
        if rows[0] != ["kind", "index", "value"]:
            return f"bad csv header {rows[0]}"
        got_w = [int(v) for kind, _, v in rows[1:] if kind == "weight"]
        got_r = {int(k): int(v) for kind, k, v in rows[1:] if kind == "residual"}
    else:
        if not rows or not rows[0].startswith("weights:"):
            return "missing weights line"
        got_w = [int(v) for v in rows[0].split()[1:]]
        got_r = {}
        for line in rows[1:]:
            m = re.fullmatch(r"residual shift (\d+): (-?\d+)", line)
            if m is None:
                return f"unparsable line {line[:60]!r}"
            got_r[int(m.group(1))] = int(m.group(2))
    if got_w != weights:
        return "weights differ from the reference"
    if got_r != residual:
        return "residual differs from the reference"
    return None


def parse_conjecture(fmt: str, out: str) -> dict:
    """Normalise a conjecture report to {status, weights, residuals, failure}."""
    num = Fraction
    rows = _rows(fmt, out)
    if fmt == "json":
        r = rows["results"]
        w = r["weights"]
        return {
            "status": r["status"],
            "weights": None if w is None else (
                int(w["order"]), [num(c) for c in w["coeffs"]], [num(s) for s in w["seeds"]]),
            "residuals": [(int(x["offset"]), [num(c) for c in x["coeffs"]],
                           [num(s) for s in x["seeds"]], int(x["start_n"]), num(x["constant"]))
                          for x in r["residuals"]],
            "failure": None if r["first_failure"] is None else (
                int(r["first_failure"]["n"]), num(r["first_failure"]["lhs"]),
                num(r["first_failure"]["rhs"])),
        }
    if fmt == "csv":
        kv = dict(rows[1:])
        res = {"status": kv["status"], "weights": None, "residuals": [], "failure": None}
        if "weights.order" in kv:
            res["weights"] = (int(kv["weights.order"]),
                              [num(c) for c in kv["weights.coeffs"].split()],
                              [num(s) for s in kv["weights.seeds"].split()])
            offsets = sorted({int(k.split(".")[1]) for k in kv if k.startswith("residual.")})
            # csv carries no start index; the identity's residual rules start at n=2.
            res["residuals"] = [
                (j, [num(c) for c in kv[f"residual.{j}.coeffs"].split()],
                 [num(s) for s in kv[f"residual.{j}.seeds"].split()], 2,
                 num(kv[f"residual.{j}.constant"]))
                for j in offsets]
        return res
    res = {"status": None, "weights": None, "residuals": [], "failure": None}
    for line in rows:
        if line.startswith("status: "):
            res["status"] = line[len("status: "):]
        elif line.startswith("weights: "):
            m = re.fullmatch(r"weights: order (\d+), coefficients (.*), seeds (.*)", line)
            res["weights"] = (int(m.group(1)), [num(c) for c in m.group(2).split()],
                              [num(s) for s in m.group(3).split()])
        elif line.startswith("residual offset "):
            m = re.fullmatch(r"residual offset (\d+): order \d+, coefficients (.*), "
                             r"seeds (.*), start n=(-?\d+), constant (\S+)", line)
            res["residuals"].append((int(m.group(1)), [num(c) for c in m.group(2).split()],
                                     [num(s) for s in m.group(3).split()], int(m.group(4)),
                                     num(m.group(5))))
        elif line.startswith("first failure: "):
            m = re.fullmatch(r"first failure: n=(\d+) lhs=(\S+) rhs=(\S+) .*", line)
            res["failure"] = (int(m.group(1)), num(m.group(2)), num(m.group(3)))
    return res


def _extend(coeffs: list, seeds: list, count: int) -> list:
    out = list(seeds)
    while len(out) < count:
        out.append(sum(c * out[-1 - j] for j, c in enumerate(coeffs)))
    return out[:count]


def identity_holds(spec: Spec, rep: dict, hi: int, samples) -> str | None:
    """Check a reported identity at the sampled n with the reference values."""
    order, wc, ws = rep["weights"]
    if len(wc) != order or len(ws) != order:
        return "weight recurrence has the wrong number of terms"
    base = min([1] + [-j for j, *_ in rep["residuals"]])
    vals = values(spec, base, hi)
    u = lambda i: vals[i - base]  # noqa: E731
    a = _extend(wc, ws, hi - 1)
    rho = [(j, _extend(rc, rs, hi - start + 1), start, const)
           for j, rc, rs, start, const in rep["residuals"]]
    for j, _, _, const in rho:
        if const != u(-j):
            return f"residual constant for offset {j} is not U({-j})"
    for n in samples:
        rhs = sum(a[k - 1] * u(n - k) for k in range(1, n))
        rhs += sum(seq[n - start] * const for _, seq, start, const in rho)
        if rhs != (n - 1) * u(n):
            return f"reported identity fails at n={n}"
    return None


def _check_conjecture(exp: dict, code: int, out: str, info: dict) -> str | None:
    rep = parse_conjecture(exp["fmt"], out)
    status = rep["status"]
    info["status"] = status
    if status not in ("verified", "refuted", "undetermined"):
        return f"unknown status {status!r}"
    if code != (0 if status == "verified" else 1):
        return f"exit {code} with status {status}"
    spec, hi = exp["spec"], exp["verify_to"]
    if status == "verified":
        if rep["weights"] is None:
            return "verified without a weight recurrence"
        rng = random.Random(f"{spec}:{hi}")
        samples = sorted({*range(2, min(hi, 8) + 1), hi,
                          *(rng.randint(2, hi) for _ in range(3))})
        return identity_holds(spec, rep, hi, samples)
    if rep["failure"] is not None:
        n, lhs, _ = rep["failure"]
        if lhs != (n - 1) * value_at(spec, n):
            return f"first failure reports a wrong lhs at n={n}"
    return None


def predicted_over_limit(exp: dict) -> bool:
    """Whether the command must print an integer longer than the limit."""
    kind = exp["kind"]
    if kind == "eval":
        spec, lo, hi = exp["spec"], exp["lo"], exp["hi"]
        return over_limit(values(spec, lo, hi) if lo != hi else [value_at(spec, lo)])
    if kind == "collect":
        w, r = collected(exp["spec"].coeffs, exp["n"])
        return over_limit(w) or over_limit(r.values())
    if kind == "expand":
        return over_limit(expansion_forms(exp["spec"].coeffs, exp["depth"])[-1].values())
    return False


def check(exp: dict, code: int, stdout: bytes, stderr: bytes) -> Verdict:
    """Judge one command's result against the reference."""
    kind = exp["kind"]
    with unlimited_int_str():
        if kind == "verify":
            crash = _crash_verdict(code, stderr, False)
            if crash:
                return crash
            if code != 0:
                return Verdict("fail", f"exit {code}")
            digest = hashlib.sha256(stdout).hexdigest()
            if digest != exp["digest"]:
                return Verdict("fail", "output differs from the reference rendering")
            return Verdict("pass")
        crash = _crash_verdict(code, stderr, kind != "conjecture" and exp["over_limit"])
        if crash:
            return crash
        info: dict = {}
        out = stdout.decode()
        if kind == "conjecture" and code == 2:
            err = stderr.decode(errors="replace")
            if out or not err.startswith("seqident: error:"):
                return Verdict("fail", "exit 2 without a usage error message")
            return Verdict("pass", info={"status": "error"})
        if kind != "conjecture" and code != 0:
            return Verdict("fail", f"exit {code}")
        try:
            if kind == "eval":
                why = _check_eval(exp, out)
            elif kind == "expand":
                why = _check_expand(exp, out)
            elif kind == "collect":
                why = _check_collect(exp, out)
            else:
                why = _check_conjecture(exp, code, out, info)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            why = f"malformed output: {type(exc).__name__}: {exc}"
        return Verdict("fail" if why else "pass", why or "", info)


def prepare(exp: dict) -> dict:
    """Fill in what the checker needs once per command (digests, limits)."""
    with unlimited_int_str():
        if exp["kind"] == "verify":
            exp["digest"] = hashlib.sha256(
                verify_output(exp["lo"], exp["hi"], exp["inductive"], exp["fmt"])).hexdigest()
        elif exp["kind"] != "conjecture":
            exp["over_limit"] = predicted_over_limit(exp)
    return exp
