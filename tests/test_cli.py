"""Tests for the command-line front end, run in-process."""

import csv
import importlib
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import seqident
from seqident import cli
from seqident.cli import main


def iter_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def child_env():
    """The environment of a child process that imports this source tree."""
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqident.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_single_value(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:lucas", "--n", "0")
    assert code == 0
    assert out == "2\n"


def test_eval_range_plain(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:fib", "--range", "1..5")
    assert code == 0
    assert out.splitlines() == ["n=1: 1", "n=2: 1", "n=3: 2", "n=4: 3", "n=5: 5"]


def test_eval_backward_range(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:fib", "--range=-3..1")
    assert code == 0
    assert out.splitlines() == ["n=-3: 2", "n=-2: -1", "n=-1: 1", "n=0: 0", "n=1: 1"]


def test_expand_plain(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "builtin:fib", "--depth", "4")
    assert code == 0
    assert out == "F(n) = 5*F(n-4) + 3*F(n-5)\n"


def test_collect_plain_pinned(capsys):
    code, out, _ = run(capsys, "collect", "--spec", "builtin:fib", "--n", "6")
    assert code == 0
    assert out.splitlines() == ["weights: 1 3 4 7 11", "residual shift 6: 5"]


def test_verify_plain_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--range", "2..6")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "n=6: S=40 (n-1)F=40 PASS"
    assert len(lines) == 5
    assert all(line.endswith("PASS") for line in lines)


def test_verify_inductive_rows(capsys):
    code, out, _ = run(capsys, "verify", "--range", "3..8", "--inductive")
    assert code == 0
    lines = out.splitlines()
    assert lines[6].startswith("m=3: S(m+1)=")
    assert sum(1 for line in lines if line.startswith("m=")) == 6
    assert all(line.endswith("PASS") for line in lines)


def test_eval_json_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:fib", "--n", "300",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "eval"
    assert record["status"] == 0
    (entry,) = record["results"]["values"]
    assert entry["n"] == 300
    assert isinstance(entry["value"], str)
    assert int(entry["value"]) == iter_fib(300)


def test_collect_json_roundtrip(capsys):
    code, out, _ = run(capsys, "collect", "--spec", "builtin:fib", "--n", "6",
                       "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert [int(w) for w in record["results"]["weights"]] == [1, 3, 4, 7, 11]
    assert record["results"]["residual"] == [{"shift": 6, "coefficient": "5"}]


def test_verify_json_statuses(capsys):
    code, out, _ = run(capsys, "verify", "--range", "2..10", "--format", "json")
    assert code == 0
    record = json.loads(out)
    checks = record["results"]["checks"]
    assert len(checks) == 9
    assert all(c["pass"] for c in checks)
    assert all(int(c["lhs"]) == int(c["rhs"]) for c in checks)


def test_eval_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:fib", "--range",
                       "290..300", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "value"]
    for n_text, value_text in rows[1:]:
        assert int(value_text) == iter_fib(int(n_text))


def test_expand_csv(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "builtin:fib", "--depth", "4",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["shift", "coefficient"], ["4", "5"], ["5", "3"]]
    code, out, _ = run(capsys, "collect", "--spec", "builtin:fib", "--n", "6",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["kind", "index", "value"], ["weight", "1", "1"], ["weight", "2", "3"],
                    ["weight", "3", "4"], ["weight", "4", "7"], ["weight", "5", "11"],
                    ["residual", "6", "5"]]
    # Every subcommand's CSV is what csv.writer writes for the rows it reads:
    # no field needs quoting, negative values and space-joined lists included.
    for argv in (["eval", "--spec", "builtin:fib", "--range=-30..30"],
                 ["expand", "--spec", "builtin:trib", "--depth", "40"],
                 ["collect", "--spec", "builtin:trib", "--n", "30"],
                 ["verify", "--range", "2..40", "--inductive"],
                 ["conjecture", "--spec", "builtin:trib", "--probe-n", "40", "--verify-to", "50"]):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0, argv
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
        assert rewritten.getvalue() == out, argv


def test_verify_failure_in_every_format(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_identity_chunk", lambda bounds: [(2, 1, 1, True),
                                                                 (3, 2, 3, False)])
    outs = {}
    for fmt in ("plain", "json", "csv"):
        code, outs[fmt], _ = run(capsys, "verify", "--range", "2..3", "--format", fmt)
        assert code == 1, fmt
    assert outs["plain"].splitlines() == ["n=2: S=1 (n-1)F=1 PASS", "n=3: S=3 (n-1)F=2 FAIL",
                                          "first failure: n=3 lhs=2 rhs=3 difference=1"]
    record = json.loads(outs["json"])
    assert list(record) == ["command", "params", "results", "status"]
    assert record["status"] == 1
    assert [c["pass"] for c in record["results"]["checks"]] == [True, False]
    assert outs["csv"].splitlines()[-1] == "identity,3,2,3,FAIL"


def test_jobs_do_not_change_output_bytes(capsys):
    results = {}
    # 2..700 is one Kronecker product, and 650..700 a band narrow enough to
    # be summed row by row.
    cases = [(rng, inductive) for rng in ("2..60", "50..61", "2..3")
             for inductive in ((), ("--inductive",))]
    cases += [("2..700", ()), ("650..700", ())]
    for rng, inductive in cases:
        for jobs in ("1", "2", "3", "4", "1000000000000000000"):
            for fmt in ("plain", "json", "csv"):
                code, out, _ = run(capsys, "verify", "--range", rng,
                                   "--jobs", jobs, "--format", fmt, *inductive)
                assert code == 0
                results.setdefault((rng, fmt, inductive), []).append(out)
    for key, outputs in results.items():
        assert len(set(outputs)) == 1, f"--jobs changed {key} bytes"


def test_import_does_not_load_the_process_pool():
    probe = "import sys, seqident.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out == "False\n"


def modules_loaded_by(*argv):
    """The modules a `python -m seqident.cli` process imports, read from
    -X importtime; -S keeps the start-up hooks of site-packages out."""
    proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "seqident.cli",
                           *argv], env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_each_subcommand_loads_only_the_modules_it_runs():
    # cli runs as __main__.  No subcommand loads dataclasses (which brings in
    # inspect, ast, dis and tokenize); on builtin specs eval, expand and
    # collect load neither the scan, which lives in verify, nor fractions and
    # decimal; conjecture derives its identity without the expansion engine.
    base = {"seqident.sequences"}
    scan = base | {"seqident.verify"}
    exact = {"fractions", "decimal"}
    cases = [
        (("eval", "--spec", "builtin:fib", "--n=18000"), base, set()),
        (("eval", "--spec", "builtin:trib", "--range=-40..40", "--format", "json"),
         base, {"json"}),
        (("expand", "--spec", "builtin:trib", "--depth=400", "--format", "csv"),
         base | {"seqident.expansion"}, set()),
        (("collect", "--spec", "builtin:fib", "--n=400"), base | {"seqident.expansion"}, set()),
        (("verify", "--range=2..300", "--format", "csv", "--jobs", "1"), scan, exact),
        (("verify", "--range=2..60", "--inductive", "--jobs", "4"), scan, exact),
        (("conjecture", "--spec", "builtin:trib", "--probe-n", "20", "--verify-to", "100"),
         scan | {"seqident.conjecture"}, exact),
    ]
    watched = exact | {"json", "csv", "concurrent.futures", "dataclasses", "inspect"}
    for argv, submodules, stdlib in cases:
        loaded = modules_loaded_by(*argv)
        assert {m for m in loaded if m.startswith("seqident.")} == submodules, argv
        assert loaded & watched == stdlib, argv


def test_nonpositive_jobs_exit_two(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--range", "2..6", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("seqident: error: --jobs")


def test_closed_stdout_exits_two_without_a_traceback():
    # Exit 1 means a check failed; a reader that stops early is not one.
    proc = subprocess.Popen([sys.executable, "-m", "seqident.cli", "verify", "--range=2..3000"],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2, err
    finally:
        proc.kill()
        proc.wait(timeout=60)
        proc.stderr.close()
    assert err.startswith("seqident: error: stdout was closed")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_eval_prints_values_over_the_int_str_digit_limit(capsys):
    code, out, _ = run(capsys, "eval", "--spec", "builtin:fib", "--n=25000")
    assert code == 0
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        assert out == f"{iter_fib(25000)}\n"  # 5225 digits
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_repeated_runs_identical_bytes(capsys):
    outs = [run(capsys, "conjecture", "--spec", "builtin:trib", "--probe-n", "40",
                "--verify-to", "60", "--format", "json")[1] for _ in range(2)]
    assert outs[0] == outs[1]


def test_quiet_suppresses_output(capsys):
    code, out, _ = run(capsys, "verify", "--range", "2..6", "--quiet")
    assert code == 0
    assert out == ""


class Rendered:
    """A value that counts how often it is turned into text."""

    def __init__(self, count):
        self.count = count

    def __str__(self):
        self.count[0] += 1
        return "7"


def test_each_value_is_rendered_once_in_the_chosen_format_only(capsys, monkeypatch):
    count = [0]
    monkeypatch.setattr(cli, "eval_range", lambda spec, lo, hi: [Rendered(count)] * (hi - lo + 1))
    monkeypatch.setattr(cli, "_map_chunks", lambda worker, bounds, jobs: [
        (n, Rendered(count), Rendered(count), True) for lo, hi in bounds for n in range(lo, hi + 1)])
    commands = [(("eval", "--spec", "builtin:fib", "--n", "5"), 1),
                (("eval", "--spec", "builtin:fib", "--range", "1..3"), 3),
                (("verify", "--range", "2..4"), 6)]  # lhs and rhs of 3 rows
    for argv, values in commands:
        for fmt in ("plain", "json", "csv"):
            count[0] = 0
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0 and out
            assert count[0] == values, (argv, fmt)
        count[0] = 0
        code, out, _ = run(capsys, *argv, "--quiet")
        assert (code, out, count[0]) == (0, "", 0), argv


def test_conjecture_plain_verified(capsys):
    code, out, _ = run(capsys, "conjecture", "--spec", "builtin:tribonacci",
                       "--probe-n", "40", "--verify-to", "100")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "status: verified"
    assert lines[1] == "range: 2..100"
    assert lines[2] == "weights: order 3, coefficients 1 1 1, seeds 1 3 7"
    assert lines[3].startswith("residual offset 0: order 3,")
    assert lines[4].startswith("residual offset 1: order 3,")


def test_conjecture_undetermined_exits_one(capsys):
    code, out, _ = run(capsys, "conjecture", "--spec", "builtin:fib",
                       "--probe-n", "40", "--verify-to", "60", "--max-order", "1")
    assert code == 1
    assert out.splitlines()[0] == "status: undetermined"
    assert out.splitlines()[1] == ("no recurrence of order <= 1 fit the weights or a "
                                   "residual coefficient; nothing verified")


def test_unknown_flag_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--range", "2..6", "--frobnicate")
    assert code == 2
    assert "usage" in err


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--spec", "builtin:nope", "--n", "1")
    assert code == 2
    assert "unknown builtin" in err


def test_bad_range_exits_two(capsys):
    # The last two are rejected by the library, not by the CLI's own checks.
    for argv in (("verify", "--range", "six..ten"), ("verify", "--range", "9..2"),
                 ("verify", "--range", "1..5"),
                 ("expand", "--spec", "builtin:fib", "--depth", "0"),
                 ("collect", "--spec", "builtin:fib", "--n", "1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("seqident: error:") and err.count("\n") == 1, argv


def test_missing_subcommand_exits_two(capsys):
    assert run(capsys)[0] == 2


def test_spec_file_loading(tmp_path, capsys):
    path = tmp_path / "pair.seq"
    path.write_text(
        "seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1\n"
        "seq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "eval", "--spec", str(path), "--name", "L", "--n", "4")
    assert code == 0 and out == "7\n"
    # ambiguous without --name
    code, _, err = run(capsys, "eval", "--spec", str(path), "--n", "4")
    assert code == 2 and "--name" in err
    # unknown name
    code, _, err = run(capsys, "eval", "--spec", str(path), "--name", "X", "--n", "4")
    assert code == 2 and "no sequence named" in err
    # Lines end as a text-mode read ends them: a comment stops at \r\n or a lone \r.
    path.write_bytes(b"# pair\r\nseq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1 # F\r"
                     b"seq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1\r")
    code, out, _ = run(capsys, "eval", "--spec", str(path), "--name", "L", "--n", "4")
    assert code == 0 and out == "7\n"


def test_malformed_spec_file_exits_two_with_position(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_text("seq F: F(n)=F(n-1)+F(n-1); F(1)=1; F(2)=1\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--spec", str(path), "--n", "3")
    assert code == 2
    assert "1:24" in err and "duplicate lag" in err


def test_spec_with_a_huge_lag_exits_two_in_bounded_memory(tmp_path):
    # Building the lag's 10**9 coefficients before counting the seeds ends
    # here in MemoryError, a traceback and exit 1.
    pytest.importorskip("resource")
    path = tmp_path / "huge.seq"
    path.write_text("seq A: A(n)=A(n-1000000000); A(0)=1\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "seqident.cli", "eval", "--spec", str(path), "--n=3"],
        env=child_env(), preexec_fn=_limit_address_space, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"seqident: error: {path}:1:35: expected 1000000000 seeds "
                           "for an order-1000000000 recurrence, got 1\n")


def test_missing_spec_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_bytes(b"seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1 # caf\xff\n")
    for spec in ("/nonexistent.seq", str(path)):
        code, _, err = run(capsys, "eval", "--spec", spec, "--n", "3")
        assert code == 2
        assert "cannot read spec file" in err
    assert err.endswith("'utf-8' codec can't decode byte 0xff in position 47: "
                        "invalid start byte\n")


def test_spec_file_over_the_size_cap_exits_two(tmp_path, capsys):
    text = b"seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1\n#"
    path = tmp_path / "padded.seq"
    path.write_bytes(text.ljust(cli.MAX_SPEC_BYTES, b"x"))
    assert run(capsys, "eval", "--spec", str(path), "--n", "10")[:2] == (0, "55\n")
    path.write_bytes(text.ljust(cli.MAX_SPEC_BYTES + 1, b"x"))
    code, out, err = run(capsys, "eval", "--spec", str(path), "--n", "10")
    assert (code, out) == (2, "")
    assert err == (f"seqident: error: spec file {str(path)!r} is larger than "
                   f"{cli.MAX_SPEC_BYTES} bytes\n")
    if os.path.exists("/dev/zero"):
        # Read whole, this file fills any memory; under the limit that ends
        # in a MemoryError traceback and exit 1.
        proc = subprocess.run(
            [sys.executable, "-m", "seqident.cli", "eval", "--spec", "/dev/zero", "--n=3"],
            env=child_env(), preexec_fn=_limit_address_space, capture_output=True,
            text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"seqident: error: spec file '/dev/zero' is larger than "
                               f"{cli.MAX_SPEC_BYTES} bytes\n")


def test_spec_with_a_huge_literal_exits_two_before_converting_it(tmp_path, capsys):
    # Under the size cap, but int() of its 10**6 digits takes about 6 s.
    path = tmp_path / "literal.seq"
    path.write_text(f"seq B: B(n)={'7' * 10 ** 6}*B(n-1); B(0)=1\n", encoding="utf-8")
    assert path.stat().st_size == 1_000_028
    t0 = time.perf_counter()
    code, out, err = run(capsys, "eval", "--spec", str(path), "--n", "0", "--quiet")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "")
    assert err == f"seqident: error: {path}:1:13: coefficient has more than 4300 digits\n"


def test_eval_custom_spec_matches_library(tmp_path, capsys):
    path = tmp_path / "padovan.seq"
    path.write_text("seq P: P(n)=P(n-2)+P(n-3); P(0)=1; P(1)=1; P(2)=1\n",
                    encoding="utf-8")
    code, out, _ = run(capsys, "eval", "--spec", str(path), "--range", "0..10")
    assert code == 0
    values = [int(line.split()[-1]) for line in out.splitlines()]
    assert values == [1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 12]


def test_noninvertible_backward_eval_exits_two(tmp_path, capsys):
    path = tmp_path / "jacobsthal.seq"
    path.write_text("seq J: J(n)=J(n-1)+2*J(n-2); J(0)=0; J(1)=1\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--spec", str(path), "--range=-2..4")
    assert code == 2
    assert "backward" in err
    # From J(1), the identity's constant J(0) needs a step backward.
    path.write_text("seq J: J(n)=J(n-1)+2*J(n-2); J(1)=0; J(2)=1\n", encoding="utf-8")
    code, out, err = run(capsys, "conjecture", "--spec", str(path), "--probe-n", "40",
                         "--verify-to", "60")
    assert (code, out) == (2, "")
    assert err.startswith("seqident: error: cannot extend 'J' backward") and err.count("\n") == 1


def test_indices_above_the_maximum_exit_two(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluated an index above cli.MAX_INDEX")

    # cli imports these where it runs them, so they are stubbed where defined.
    conjecture = importlib.import_module("seqident.conjecture")
    expansion = importlib.import_module("seqident.expansion")
    monkeypatch.setattr(cli, "_map_chunks", must_not_run)
    monkeypatch.setattr(conjecture, "conjecture", must_not_run)
    monkeypatch.setattr(expansion, "sum_expansions", must_not_run)
    monkeypatch.setattr(expansion, "expansion", must_not_run)
    commands = [
        ("collect", "--spec", "builtin:fib", "--n", str(10 ** 9)),
        ("collect", "--spec", "builtin:fib", "--n", str(cli.MAX_INDEX + 1)),
        ("conjecture", "--spec", "builtin:trib", "--probe-n", str(10 ** 9),
         "--verify-to", "100"),
        ("conjecture", "--spec", "builtin:trib", "--probe-n", str(cli.MAX_INDEX + 1),
         "--verify-to", "100"),
        ("verify", f"--range=2..{10 ** 103}"),
        ("verify", f"--range=2..{10 ** 103}", "--jobs", "2"),
        ("verify", f"--range=2..{10 ** 9}", "--jobs", "2"),
        ("conjecture", "--spec", "builtin:trib", "--probe-n", "40",
         "--verify-to", str(10 ** 9)),
        ("verify", f"--range=2..{cli.MAX_INDEX + 1}"),
        ("conjecture", "--spec", "builtin:trib", "--probe-n", "40",
         "--verify-to", str(cli.MAX_INDEX + 1)),
        ("expand", "--spec", "builtin:fib", f"--depth={10 ** 9}"),
        ("expand", "--spec", "builtin:fib", f"--depth={cli.MAX_INDEX + 1}"),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("seqident: error:") and str(cli.MAX_INDEX) in err
    # conjecture evaluates U over min(1, 2-d)..--verify-to, 0..50 here; seeds
    # farther than MAX_EVAL_INDEX from that window exit 2 before any work.
    top = cli.MAX_EVAL_INDEX + 50
    for seed, rejected in ((10 ** 9, True), (top + 1, True), (-cli.MAX_EVAL_INDEX - 2, True),
                           (top, False), (-cli.MAX_EVAL_INDEX - 1, False)):
        spec = tmp_path / "far.seq"
        spec.write_text(f"seq G: G(n)=G(n-1)+G(n-2); G({seed})=1; G({seed + 1})=1\n")
        argv = ["conjecture", "--spec", str(spec), "--probe-n", "40", "--verify-to", "50"]
        if not rejected:
            with pytest.raises(AssertionError):
                main(argv)
            continue
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), seed
        assert err.startswith("seqident: error: conjecture: the seeds of G are ")
        assert err.count("\n") == 1 and str(cli.MAX_EVAL_INDEX) in err


def test_eval_indices_beyond_the_maximum_exit_two(capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluated an index beyond cli.MAX_EVAL_INDEX")

    monkeypatch.setattr(cli, "eval_range", must_not_run)
    for n in (cli.MAX_EVAL_INDEX + 1, -cli.MAX_EVAL_INDEX - 1, 10 ** 30):
        code, out, err = run(capsys, "eval", "--spec", "builtin:fib", f"--n={n}")
        assert code == 2
        assert out == ""
        assert err.startswith(f"seqident: error: eval --n {n} ")
        assert str(cli.MAX_EVAL_INDEX) in err
    top = cli.MAX_EVAL_INDEX + 1
    for text in (f"{top}..{top}", f"{-top}..{-top}", f"{top - 2}..{top}"):
        code, out, err = run(capsys, "eval", "--spec", "builtin:fib", f"--range={text}")
        assert code == 2
        assert out == ""
        assert err == (f"seqident: error: eval --range {text} is outside the supported "
                       f"indices -{cli.MAX_EVAL_INDEX}..{cli.MAX_EVAL_INDEX}\n")
    # The index is checked first: before the spec file is read (this one
    # does not exist) and before the output budget, which these exceed too.
    far = 10 ** 400  # beyond the float range
    for text in ("0..100000000", f"0..{far}", f"{far}..{far}"):
        for spec in ("builtin:fib", "/nonexistent.seq"):
            code, out, err = run(capsys, "eval", "--spec", spec, f"--range={text}")
            assert (code, out) == (2, "")
            assert err == (f"seqident: error: eval --range {text} is outside the supported "
                           f"indices -{cli.MAX_EVAL_INDEX}..{cli.MAX_EVAL_INDEX}\n")


def _limit_address_space(megabytes=256):
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))


def test_eval_at_the_maximum_index_runs_in_bounded_memory():
    # Storing every term from the seeds fails under this limit at n = 200,000.
    for n in (cli.MAX_EVAL_INDEX, -cli.MAX_EVAL_INDEX):
        proc = subprocess.run(
            [sys.executable, "-m", "seqident.cli", "eval", "--spec", "builtin:fib",
             f"--n={n}", "--quiet"],
            env=child_env(), preexec_fn=_limit_address_space, capture_output=True, text=True,
            timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_conjecture_at_the_largest_order_runs_in_bounded_memory():
    # Fitting each residual over 2K+1 stored collections, each solved by
    # elimination order by order, ends here in MemoryError.
    pytest.importorskip("resource")
    proc = subprocess.run(
        [sys.executable, "-m", "seqident.cli", "conjecture", "--spec", "builtin:trib",
         f"--probe-n={cli.MAX_INDEX}", "--verify-to=20",
         f"--max-order={(cli.MAX_INDEX - 2) // 2}"],
        env=child_env(), preexec_fn=lambda: _limit_address_space(512), capture_output=True,
        text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "status: verified" in proc.stdout


def test_eval_output_over_the_budget_exits_two(tmp_path, capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("evaluated an output over cli.MAX_EVAL_BITS")

    monkeypatch.setattr(cli, "eval_range", must_not_run)
    path = tmp_path / "b.seq"
    path.write_text(f"seq B: B(n) = {2 ** 200}*B(n-1); B(0)=1\n", encoding="utf-8")
    far = tmp_path / "far.seq"  # n = 0 lies a distance beyond the float range below the seed
    far.write_text(f"seq A: A(n)=A(n-1); A({10 ** 400})=1\n", encoding="utf-8")
    for argv in [("--spec", "builtin:fib", "--range=0..40000"),
                 ("--spec", "builtin:trib", "--range=-60000..-59000"),
                 ("--spec", str(path), "--n=1000000"),
                 ("--spec", str(far), "--n=0")]:
        code, out, err = run(capsys, "eval", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("seqident: error: eval --") and err.endswith(
            f" could print more than {cli.MAX_EVAL_BITS} bits, the output budget\n")


def test_eval_output_at_the_budget_runs_in_bounded_memory(tmp_path):
    # G gains log2(15) = 3.91 bits a step, against 4 in the bound, so the
    # widest window from 4000 up that the budget admits, 4000..7384, holds
    # 75% of MAX_EVAL_BITS in its values.
    path = tmp_path / "g.seq"
    path.write_text("seq G: G(n) = 15*G(n-1); G(0)=1\n", encoding="utf-8")
    argv = [sys.executable, "-m", "seqident.cli", "eval", "--spec", str(path)]
    over = subprocess.run(argv + ["--range=4000..7385"], env=child_env(),
                          capture_output=True, text=True, timeout=60)
    assert over.returncode == 2 and "output budget" in over.stderr
    procs = []
    for fmt in ("plain", "json", "csv"):
        with open(tmp_path / fmt, "wb") as out:
            procs.append((fmt, subprocess.Popen(
                argv + ["--range=4000..7384", "--format", fmt], env=child_env(),
                preexec_fn=lambda: _limit_address_space(512), stdout=out,
                stderr=subprocess.PIPE)))
    for fmt, proc in procs:
        err = proc.communicate(timeout=300)[1]
        assert (proc.returncode, err) == (0, b""), fmt
        assert (tmp_path / fmt).stat().st_size * math.log2(10) > 0.7 * cli.MAX_EVAL_BITS


REFUTED_CSV = (
    "key,value\n"
    "status,refuted\n"
    "weights.order,4\n"
    "weights.coeffs,0 1 0 0\n"
    "weights.seeds,0 1 0 2\n"
    "residual.0.order,2\n"
    "residual.0.coeffs,0 1\n"
    "residual.0.seeds,1 0\n"
    "residual.0.constant,1\n"
)


def test_refuted_conjecture_reports_its_first_failure_from_one_scan(
        tmp_path, capsys, monkeypatch):
    # The weights of Z are 0, 2, 0, 2, ...; with a(2) made 1 here, the
    # identity fails at n=3.
    path = tmp_path / "z.seq"
    path.write_text("seq Z: Z(n)=Z(n-2); Z(0)=1; Z(1)=2\n", encoding="utf-8")
    calls = []
    module = importlib.import_module("seqident.conjecture")
    original, series = module.verify_conjecture, module._series

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return original(*args, **kwargs)

    def wrong_weight(num, coeffs, count):
        s = series(num, coeffs, count)
        if count == 20:  # the weights' series, to --probe-n
            s[2] -= 1
        return s

    monkeypatch.setattr(module, "verify_conjecture", counted)
    monkeypatch.setattr(module, "_series", wrong_weight)
    monkeypatch.setattr(cli, "verify_conjecture", counted, raising=False)
    outs = {}
    for fmt in ("plain", "json", "csv"):
        calls.clear()
        code, outs[fmt], _ = run(capsys, "conjecture", "--spec", str(path), "--probe-n",
                                 "20", "--verify-to", "30", "--format", fmt)
        assert code == 1
        assert calls == [(2, 30)], fmt
    lines = outs["plain"].splitlines()
    assert lines[0] == "status: refuted"
    assert lines[-1] == "first failure: n=3 lhs=4 rhs=2 difference=-2"
    record = json.loads(outs["json"])
    assert record["status"] == 1
    assert record["results"]["first_failure"] == {"n": 3, "lhs": "4", "rhs": "2"}
    assert outs["csv"] == REFUTED_CSV
