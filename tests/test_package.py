"""Tests for the package's public names, which load on first use."""

import contextlib
import doctest
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys

import pytest

import seqident


def in_child(code: str) -> str:
    """Stdout of `code` run in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(seqident.__file__)))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60).stdout


def test_every_public_name_is_the_object_its_submodule_defines():
    for name in seqident.__all__:
        module = importlib.import_module(f"seqident.{seqident._EXPORTS[name]}")
        assert getattr(seqident, name) is getattr(module, name), name


def test_a_submodule_import_does_not_hide_the_function_of_its_name():
    # `expansion` and `conjecture` name both a submodule and its function.
    out = in_child("import seqident.expansion, seqident.conjecture, seqident; "
                   "print(type(seqident.expansion).__name__, "
                   "type(seqident.conjecture).__name__)")
    assert out == "function function\n"


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from seqident import *", namespace)
    for name in seqident.__all__:
        assert namespace[name] is getattr(seqident, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        seqident.no_such_name
    assert not hasattr(seqident, "cli_main")


def test_dir_lists_every_public_name():
    assert set(seqident.__all__) <= set(dir(seqident))


def test_a_bare_import_loads_no_submodule():
    out = in_child("import sys, seqident; "
                   "print(sorted(m for m in sys.modules if m.startswith('seqident.')))")
    assert out == "[]\n"


def read_readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        return fh.read()


def test_the_readme_quick_start_runs():
    # `python -m doctest README.md` would read each closing fence as
    # expected output, so only the ```python blocks are run.
    blocks = re.findall(r"^```python\n(.*?)^```$", read_readme(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest("".join(blocks), {}, "README.md", None, 0)
    out = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=out.write)
    assert result.attempted > 0 and result.failed == 0, out.getvalue()


def test_the_readme_cli_examples_print_what_it_shows(capsys):
    # Each `$ seqident ...` line is followed by its output, up to a blank
    # line or the closing fence; an output with a "..." line shows only its
    # first and last lines.
    from seqident.cli import main

    examples = re.findall(r"^\$ seqident (.*)\n((?:(?!```).+\n)*)", read_readme(), re.M)
    assert [command.split()[0] for command, _ in examples] == ["verify", "collect",
                                                               "conjecture"]
    for command, shown in examples:
        assert main(command.split()) == 0, command
        out = capsys.readouterr().out
        if "...\n" in shown:
            lines = out.splitlines()
            out = f"{lines[0]}\n...\n{lines[-1]}\n"
        assert out == shown, command


def load_tracing():
    """seqbench/tracing.py, loaded by path and only read."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "seqbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("seqbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_function_the_benchmark_tracer_wraps_exists():
    # seqbench/tracing.py rebinds these by name until ROADMAP item 1 moves
    # the benchmark onto a library recorder; a missing one breaks its
    # traced run.
    tracing = load_tracing()
    kernels = importlib.import_module("seqident._backend").kernels
    for layer, names in tracing.WRAPPED.items():
        # The kernel layer is no module of the package; the tracer reads its
        # functions from seqident._backend.kernels.
        spec = importlib.util.find_spec(f"seqident.{layer}")
        module = importlib.import_module(spec.name) if spec else kernels
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"


def test_the_benchmark_tracer_runs_an_inductive_verify():
    # The name guard above does not see a change to the arguments the tracer
    # unpacks from _map_chunks; a traced run does.
    from seqident import cli

    tracing = load_tracing()
    tracer = tracing.Tracer()
    original = cli._identity_chunk
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["verify", "--range=2..40", "--inductive", "--jobs", "2"])
        tracer.replay_chunks()
    finally:
        tracer.uninstall()
    assert code == 0
    assert cli._identity_chunk is original
    metrics = tracing.layer_metrics(tracer.spans, {})
    # One chunk for the identity scan and one for the replay.
    assert metrics["cli.chunks"] == 2
    # The kernel layer is timed only if _backend.kernels holds the functions
    # verify calls; each chunk is one scan, and no S value is summed directly.
    assert metrics["kernels_py.convolution_values_s"] > 0
    assert sum(s[0] == "convolution_values" for s in tracer.spans) == 2
    assert metrics["verify.convolution_sum_calls"] == 0
