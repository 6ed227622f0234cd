"""Exact evaluation of integer linear recurrences and verification and
discovery of Lucas-weighted convolution identities.

The core fact handled here: for Fibonacci numbers,

    (n-1)*F(n) = sum_{k=1}^{n-1} L(k)*F(n-k)    for n >= 2,

obtained by summing the n-1 successive expansions of F(n) and collecting
coefficients per shift.  The package evaluates the sequences exactly,
reproduces the expansion and collection steps, verifies the identity over
ranges, replays the inductive proof, and runs the same pipeline on other
integer recurrences to discover and brute-force-verify their analogues.

The public names are loaded on first use (PEP 562), so importing the
package, or running one CLI subcommand, loads only the submodules used.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "SequenceSpec": "sequences",
    "NonInvertibleStepError": "sequences",
    "FIBONACCI": "sequences",
    "LUCAS": "sequences",
    "TRIBONACCI": "sequences",
    "fib": "sequences",
    "lucas": "sequences",
    "eval_term": "sequences",
    "eval_range": "sequences",
    "LinearForm": "expansion",
    "CollectedWeights": "expansion",
    "expansion": "expansion",
    "sum_expansions": "expansion",
    "Failure": "verify",
    "IdentityReport": "verify",
    "convolution_sum": "verify",
    "check_range": "verify",
    "inductive_step_check": "verify",
    "reindex_equal": "verify",
    "Recurrence": "conjecture",
    "ResidualRule": "conjecture",
    "ConjecturedIdentity": "conjecture",
    "collect_general": "conjecture",
    "detect_min_recurrence": "conjecture",
    "conjecture": "conjecture",
    "verify_conjecture": "conjecture",
    "SpecSyntaxError": "dsl",
    "parse": "dsl",
    "parse_all": "dsl",
    "format_spec": "dsl",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # Importing the submodule `expansion` or `conjecture` binds it here
        # under the name of the function it exports; the function stays.
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
