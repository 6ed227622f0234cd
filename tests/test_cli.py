"""Tests for the command-line front end, run in-process."""

import csv
import io
import json
import os
import sys

from seqident import cli
from seqident.cli import main


def iter_fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


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


def test_jobs_do_not_change_output_bytes(capsys):
    results = {}
    for jobs in ("1", "2", "3", "4"):
        for inductive in ((), ("--inductive",)):
            for fmt in ("plain", "json", "csv"):
                code, out, _ = run(capsys, "verify", "--range", "2..60",
                                   "--jobs", jobs, "--format", fmt, *inductive)
                assert code == 0
                results.setdefault((fmt, inductive), []).append(out)
    for key, outputs in results.items():
        assert len(set(outputs)) == 1, f"--jobs changed {key} bytes"


def test_nonpositive_jobs_exit_two(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--range", "2..6", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err.startswith("seqident: error: --jobs")


def test_worker_count_never_exceeds_cpus(monkeypatch):
    cpus = os.cpu_count() or 1
    for jobs in (1, 2, cpus, cpus + 1, 100_000, 10 ** 18):
        assert cli._worker_count(jobs) == min(jobs, cpus)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._worker_count(10 ** 18) == 1


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


def test_unknown_flag_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--range", "2..6", "--frobnicate")
    assert code == 2
    assert "usage" in err


def test_unknown_builtin_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--spec", "builtin:nope", "--n", "1")
    assert code == 2
    assert "unknown builtin" in err


def test_bad_range_exits_two(capsys):
    assert run(capsys, "verify", "--range", "six..ten")[0] == 2
    assert run(capsys, "verify", "--range", "9..2")[0] == 2
    assert run(capsys, "verify", "--range", "1..5")[0] == 2


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


def test_malformed_spec_file_exits_two_with_position(tmp_path, capsys):
    path = tmp_path / "bad.seq"
    path.write_text("seq F: F(n)=F(n-1)+F(n-1); F(1)=1; F(2)=1\n", encoding="utf-8")
    code, _, err = run(capsys, "eval", "--spec", str(path), "--n", "3")
    assert code == 2
    assert "1:24" in err and "duplicate lag" in err


def test_missing_spec_file_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--spec", "/nonexistent.seq", "--n", "3")
    assert code == 2
    assert "cannot read spec file" in err


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
