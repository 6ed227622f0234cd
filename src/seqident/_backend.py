"""Where the benchmark's tracer (seqbench/tracing.py) finds the kernel
layer's four functions, as ``seqident._backend.kernels.<name>``.  Three are
defined in sequences and verify, where the tracer rebinds them; fib_pair,
which only the tracer reads, is defined here, over eval_range.  The package
itself never imports this module.  It goes with ROADMAP item 1."""

from types import SimpleNamespace

from .sequences import FIBONACCI, eval_range, fill_forward
from .verify import convolution_values, dot_product

kernels = SimpleNamespace(fib_pair=lambda n: tuple(eval_range(FIBONACCI, n, n + 1)),
                          fill_forward=fill_forward, dot_product=dot_product,
                          convolution_values=convolution_values)
