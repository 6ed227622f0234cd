"""Tests for the package's public names, which load on first use."""

import contextlib
import importlib
import importlib.util
import io
import os
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
    # verify calls; the replay makes three convolution_sum calls per m.
    assert metrics["kernels_py.convolution_values_s"] > 0
    assert metrics["kernels_py.dot_product_s"] > 0
    assert metrics["verify.convolution_sum_calls"] == 3 * 38
