"""Exact evaluation of integer linear recurrences and verification and
discovery of Lucas-weighted convolution identities.

The core fact handled here: for Fibonacci numbers,

    (n-1)*F(n) = sum_{k=1}^{n-1} L(k)*F(n-k)    for n >= 2,

obtained by summing the n-1 successive expansions of F(n) and collecting
coefficients per shift.  The package evaluates the sequences exactly,
reproduces the expansion and collection steps, verifies the identity over
ranges, replays the inductive proof, and runs the same pipeline on other
integer recurrences to discover and brute-force-verify their analogues.
"""

from .conjecture import (
    ConjecturedIdentity,
    Recurrence,
    ResidualRule,
    collect_general,
    conjecture,
    detect_min_recurrence,
    verify_conjecture,
)
from .dsl import SpecSyntaxError, format_spec, parse, parse_all
from .expansion import (
    CollectedWeights,
    LinearForm,
    expansion,
    form_value_at,
    initial_form,
    substitute_min_shift,
    sum_expansions,
    validate_form,
)
from .sequences import (
    FIBONACCI,
    LUCAS,
    TRIBONACCI,
    NonInvertibleStepError,
    SequenceSpec,
    eval_range,
    eval_term,
    extend_backward,
    fib,
    lucas,
)
from .verify import (
    Failure,
    IdentityReport,
    check_identity,
    check_range,
    convolution_sum,
    inductive_step_check,
    reindex_equal,
    weights_are_lucas,
)

__version__ = "0.1.0"

__all__ = [
    "SequenceSpec",
    "NonInvertibleStepError",
    "FIBONACCI",
    "LUCAS",
    "TRIBONACCI",
    "fib",
    "lucas",
    "eval_term",
    "eval_range",
    "extend_backward",
    "LinearForm",
    "CollectedWeights",
    "initial_form",
    "substitute_min_shift",
    "expansion",
    "sum_expansions",
    "form_value_at",
    "validate_form",
    "Failure",
    "IdentityReport",
    "convolution_sum",
    "check_identity",
    "check_range",
    "inductive_step_check",
    "reindex_equal",
    "weights_are_lucas",
    "Recurrence",
    "ResidualRule",
    "ConjecturedIdentity",
    "collect_general",
    "detect_min_recurrence",
    "conjecture",
    "verify_conjecture",
    "SpecSyntaxError",
    "parse",
    "parse_all",
    "format_spec",
]
