"""Where the benchmark's tracer (seqbench/tracing.py) finds the kernel
module, as ``seqident._backend.kernels``; the package itself never imports
this module.  The kernel module re-exports sequences' fib_pair and
fill_forward for the same reader; both aliases go with ROADMAP item 1."""

from . import _kernels_py as kernels  # noqa: F401
