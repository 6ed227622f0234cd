"""Tests of the benchmark itself: generator, reference checker, tracer, runner.

    python3 -m pytest seqbench -q
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import proc  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from seqident import cli  # noqa: E402


def in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except ValueError as exc:
        code = 1
        err.write(f"Traceback (most recent call last):\nValueError: {exc}\n")
    return code, out.getvalue().encode(), err.getvalue().encode()


def judge(expect, argv):
    oracle.prepare(expect)
    return oracle.check(expect, *in_process(argv))


FIB = oracle.BUILTINS["fib"]
TRIB = oracle.BUILTINS["trib"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    a = workloads.generate(name, 7, "specs")
    b = workloads.generate(name, 7, "specs")
    c = workloads.generate(name, 8, "specs")
    assert [x.argv for x in a.commands] == [x.argv for x in b.commands]
    assert a.files == b.files
    assert [x.argv for x in a.commands] != [x.argv for x in c.commands]


def test_generated_dsl_parses_to_the_same_recurrence():
    from seqident import parse_all

    wl = workloads.generate("conjecture_mix", 3, "specs")
    for text in wl.files.values():
        (spec,) = parse_all(text)
        ref = next(c.expect["spec"] for c in wl.commands if c.expect["spec"].name == spec.name)
        assert (spec.coeffs, spec.seeds, spec.seed_start) == (ref.coeffs, ref.seeds, ref.start)


def test_verify_workloads_differ_only_in_jobs():
    serial = workloads.generate("verify_serial", 5, "specs").commands
    parallel = workloads.generate("verify_parallel", 5, "specs").commands
    strip = lambda argv: [a for i, a in enumerate(argv)  # noqa: E731
                          if a != "--jobs" and (i == 0 or argv[i - 1] != "--jobs")]
    assert [strip(c.argv) for c in serial] == [strip(c.argv) for c in parallel]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_pass_times_each_command_and_the_slowest_twice(name):
    cmds = workloads.generate(name, 4, "specs").commands
    order = run.pass_order(cmds)
    twice = [i for i, c in enumerate(cmds) if c.twice]
    assert len(twice) == (0 if name == "eval_deep" else 1)
    assert sorted(order) == sorted(list(range(len(cmds))) + twice)
    for i in twice:
        first, second = [p for p, j in enumerate(order) if j == i]
        assert second - first >= len(cmds) // 2


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_accepts_real_output(fmt):
    cases = [
        (["verify", "--range=2..40", "--inductive"],
         {"kind": "verify", "lo": 2, "hi": 40, "inductive": True}),
        (["eval", "--spec", "builtin:fib", "--range=-20..5"],
         {"kind": "eval", "spec": FIB, "lo": -20, "hi": 5}),
        (["eval", "--spec", "builtin:trib", "--n=300"],
         {"kind": "eval", "spec": TRIB, "lo": 300, "hi": 300}),
        (["collect", "--spec", "builtin:trib", "--n=60"],
         {"kind": "collect", "spec": TRIB, "n": 60}),
        (["expand", "--spec", "builtin:fib", "--depth=30"],
         {"kind": "expand", "spec": FIB, "depth": 30}),
        (["conjecture", "--spec", "builtin:trib", "--probe-n", "30", "--verify-to", "60"],
         {"kind": "conjecture", "spec": TRIB, "verify_to": 60}),
    ]
    for argv, expect in cases:
        verdict = judge(dict(expect, fmt=fmt), argv + ["--format", fmt])
        assert verdict.status == "pass", (argv, verdict.reason)


def test_checker_accepts_cancelling_spec(tmp_path):
    # c1 = 0: the expansion skips shifts whose coefficient cancels.
    spec = oracle.Spec("Z", (0, 1, 1), (1, 0, 2), -1)
    path = tmp_path / "z.seq"
    path.write_text(workloads.dsl_text(spec))
    for argv, expect in (
        (["collect", "--n=25"], {"kind": "collect", "n": 25}),
        (["expand", "--depth=12"], {"kind": "expand", "depth": 12}),
        (["conjecture", "--probe-n", "20", "--verify-to", "40"],
         {"kind": "conjecture", "verify_to": 40}),
    ):
        verdict = judge(dict(expect, spec=spec, fmt="plain"),
                        [argv[0], "--spec", str(path), *argv[1:]])
        assert verdict.status == "pass", (argv, verdict.reason)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_rejects_tampered_verify_row(fmt):
    expect = oracle.prepare({"kind": "verify", "lo": 2, "hi": 30, "inductive": False,
                             "fmt": fmt})
    code, out, err = in_process(["verify", "--range=2..30", "--format", fmt])
    assert oracle.check(expect, code, out, err).status == "pass"
    value = str(29 * 832040).encode()  # (n-1)F(n) at n = 30, the last row
    at = out.rindex(value)
    tampered = out[:at] + b"3" + out[at + 1:]  # 24129160 -> 34129160
    assert oracle.check(expect, code, tampered, err).status == "fail"


def test_checker_rejects_wrong_eval_value():
    expect = oracle.prepare({"kind": "eval", "spec": FIB, "lo": 100, "hi": 100,
                             "fmt": "plain"})
    code, out, err = in_process(["eval", "--spec", "builtin:fib", "--n=100"])
    assert oracle.check(expect, code, out, err).status == "pass"
    wrong = str(int(out) + 1).encode() + b"\n"
    assert oracle.check(expect, code, wrong, err).status == "fail"
    assert oracle.check(expect, 1, out, err).status == "fail"


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_checker_rejects_verified_claim_with_wrong_recurrence(fmt):
    expect = {"kind": "conjecture", "spec": TRIB, "verify_to": 80, "fmt": fmt}
    code, out, err = in_process(["conjecture", "--spec", "builtin:trib", "--probe-n", "30",
                                 "--verify-to", "80", "--format", fmt])
    assert oracle.check(expect, code, out, err).status == "pass"
    rep = oracle.parse_conjecture(fmt, out.decode())
    coeffs = rep["weights"][1]
    text = out.decode()
    if fmt == "plain":
        old = "coefficients " + " ".join(map(str, coeffs))
        new = "coefficients " + " ".join(map(str, coeffs[:-1] + [coeffs[-1] + 1]))
    elif fmt == "csv":
        old = "weights.coeffs," + " ".join(map(str, coeffs))
        new = "weights.coeffs," + " ".join(map(str, coeffs[:-1] + [coeffs[-1] + 1]))
    else:
        record = json.loads(text)
        record["results"]["weights"]["coeffs"][-1] = str(coeffs[-1] + 1)
        old, new = text, json.dumps(record, indent=2) + "\n"
    assert old in text
    verdict = oracle.check(expect, code, text.replace(old, new).encode(), err)
    assert verdict.status == "fail"
    assert "fails at n=" in verdict.reason


def test_checker_rejects_verified_status_with_nonzero_exit():
    expect = {"kind": "conjecture", "spec": TRIB, "verify_to": 60, "fmt": "plain"}
    code, out, err = in_process(["conjecture", "--spec", "builtin:trib", "--probe-n", "30",
                                 "--verify-to", "60"])
    assert code == 0
    assert oracle.check(expect, 1, out, err).status == "fail"


def test_known_int_str_limit_crash_is_a_defect_not_a_pass():
    n = 25000  # F(25000) has 5225 digits
    expect = oracle.prepare({"kind": "eval", "spec": FIB, "lo": n, "hi": n, "fmt": "plain"})
    assert expect["over_limit"]
    code, out, err = in_process(["eval", "--spec", "builtin:fib", f"--n={n}"])
    assert oracle.check(expect, code, out, err).status == "defect"
    # The same crash on a command that prints short values is a failure.
    small = oracle.prepare({"kind": "eval", "spec": FIB, "lo": 10, "hi": 10, "fmt": "plain"})
    assert oracle.check(small, code, out, err).status == "fail"


def test_reference_collect_matches_closed_form_for_fibonacci():
    weights, residual = oracle.collected((1, 1), 12)
    lucas = oracle.values(oracle.BUILTINS["lucas"], 1, 11)
    assert weights == lucas
    assert residual == {12: 89}  # F(11) multiplies F(0) = 0


def test_tracer_counts_and_restores():
    import seqident._backend as backend

    original = cli._identity_chunk
    tracer = tracing.Tracer()
    tracer.cmd = 0
    tracer.install()
    try:
        assert cli._identity_chunk is not original
        with redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--range=2..50", "--inductive"]) == 0
    finally:
        tracer.uninstall()
    assert cli._identity_chunk is original
    assert not hasattr(backend.kernels.convolution_values, "__wrapped__")
    m = tracing.layer_metrics(tracer.spans, {})
    assert m["kernels_py.conv_products"] == sum(n - 1 for n in range(2, 51))
    assert m["cli.chunks"] == 2
    assert m["cli.chunk_imbalance"] == 1.0
    assert m["verify.convolution_sum_calls"] == 3 * 48
    assert 0.3 < m["verify.convolution_sum_useful_ratio"] < 0.4
    total = sum(m[f"{layer.lstrip('_')}.self_s"] for layer in tracing.LAYERS)
    root = sum(s[3] - s[2] for s in tracer.spans if s[0] == "main")
    assert total == pytest.approx(root)


def test_scan_alpha_recovers_exponent():
    pts = [(n, 1e-9 * n ** 3.4) for n in (500, 1000, 2000, 4000)]
    assert tracing.scan_alpha(pts) == pytest.approx(3.4)
    assert tracing.scan_alpha([(1000, 1.0)]) == 0.0


def test_runner_kills_a_command_on_timeout(tmp_path):
    out = proc.run([sys.executable, "-c", "import time; time.sleep(30)"], cwd=str(tmp_path),
                   env=None, timeout=0.5, out_path=str(tmp_path / "out"))
    assert out.timed_out
    assert out.wall_s < 10


def test_runner_accounts_cpu_and_output(tmp_path):
    out = proc.run([sys.executable, "-c", "print(sum(i*i for i in range(10**6)))"],
                   cwd=str(tmp_path), env=None, timeout=30, out_path=str(tmp_path / "out"))
    assert out.code == 0 and not out.timed_out
    assert out.stdout == b"333332833333500000\n"
    assert out.cpu_s > 0 and out.maxrss_mb > 1


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_traced_run_stops_a_hung_command(tmp_path, monkeypatch):
    import time as _time

    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "RUN_LIMIT_S", 4.0)
    monkeypatch.setattr(cli, "main", lambda argv: _time.sleep(60))
    r = run.Run("conjecture_mix", 1, 1.0)
    t0 = _time.perf_counter()
    with pytest.raises(SystemExit):
        run.per_layer(r)
    assert _time.perf_counter() - t0 < 10
