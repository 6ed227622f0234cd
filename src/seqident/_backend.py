"""Where the benchmark's tracer (seqbench/tracing.py) finds the kernel
module, as ``seqident._backend.kernels``; the package itself never imports
this module."""

from . import _kernels_py as kernels  # noqa: F401
