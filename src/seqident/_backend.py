"""Where the benchmark's tracer (seqbench/tracing.py) finds the kernel
layer's four functions, as ``seqident._backend.kernels.<name>``.  They are
defined in sequences and verify, where the tracer rebinds them; the package
itself never imports this module.  It goes with ROADMAP item 1."""

from types import SimpleNamespace

from .sequences import fib_pair, fill_forward
from .verify import convolution_values, dot_product

kernels = SimpleNamespace(fib_pair=fib_pair, fill_forward=fill_forward,
                          dot_product=dot_product, convolution_values=convolution_values)
