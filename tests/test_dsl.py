"""Tests for the sequence declaration text format."""

import random
import string

import pytest

from seqident.dsl import SpecSyntaxError, format_spec, parse, parse_all
from seqident.sequences import FIBONACCI, LUCAS, TRIBONACCI, SequenceSpec

FIB_TEXT = "seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1"


def test_parse_fibonacci():
    assert parse(FIB_TEXT) == FIBONACCI


def test_parse_lucas():
    assert parse("seq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1") == LUCAS


def test_parse_tribonacci():
    text = "seq T: T(n)=T(n-1)+T(n-2)+T(n-3); T(0)=0; T(1)=0; T(2)=1"
    assert parse(text) == TRIBONACCI


def test_format_builtins():
    assert format_spec(FIBONACCI) == FIB_TEXT
    assert format_spec(LUCAS) == "seq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1"
    assert format_spec(TRIBONACCI) == (
        "seq T: T(n)=T(n-1)+T(n-2)+T(n-3); T(0)=0; T(1)=0; T(2)=1"
    )


def test_negative_coefficient_rendering():
    spec = SequenceSpec("A", (3, -1), (0, 1), seed_start=0)
    text = format_spec(spec)
    assert "-A(n-2)" in text
    assert parse(text) == spec


def test_leading_negative_coefficient():
    spec = SequenceSpec("A", (-2, 5), (1, 1), seed_start=0)
    text = format_spec(spec)
    assert "A(n)=-2*A(n-1)" in text
    assert parse(text) == spec


def test_interior_zero_coefficient_roundtrip():
    spec = SequenceSpec("A", (1, 0, -1), (4, 5, 6), seed_start=2)
    text = format_spec(spec)
    assert "A(n-2)" not in text
    assert parse(text) == spec


def test_explicit_unit_coefficient_accepted():
    assert parse("seq F: F(n)=1*F(n-1)+1*F(n-2); F(1)=1; F(2)=1") == FIBONACCI


def test_whitespace_and_comments():
    text = """
    # the classic one
    seq F :
        F( n ) = F(n - 1) + F(n - 2) ;   # recurrence
        F(1) = 1 ;
        F(2) = 1   # seeds
    """
    assert parse(text) == FIBONACCI


def test_seed_order_is_free():
    text = "seq F: F(n)=F(n-1)+F(n-2); F(2)=1; F(1)=1"
    assert parse(text) == FIBONACCI


def test_negative_seed_indices_and_values():
    spec = parse("seq A: A(n)=2*A(n-1)-A(n-2); A(-3)=-7; A(-2)=0")
    assert spec == SequenceSpec("A", (2, -1), (-7, 0), seed_start=-3)


def test_parse_all_multiple_statements():
    text = (
        "seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1\n"
        "seq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1\n"
    )
    assert parse_all(text) == [FIBONACCI, LUCAS]


def test_parse_rejects_multiple_statements():
    text = FIB_TEXT + "\nseq L: L(n)=L(n-1)+L(n-2); L(0)=2; L(1)=1"
    with pytest.raises(SpecSyntaxError, match="single declaration"):
        parse(text)


def test_parse_all_rejects_empty():
    with pytest.raises(SpecSyntaxError):
        parse_all("# nothing here\n")


BAD_CASES = [
    ("F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1", 1, 1, "expected 'seq'"),
    ("seq n: n(n)=n(n-1); n(1)=1", 1, 5, "reserved"),
    ("seq seq: seq(n)=seq(n-1); seq(1)=1", 1, 5, "reserved"),
    ("seq F F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1", 1, 7, "expected ':'"),
    ("seq F: F(n)=F(n-0); F(1)=1", 1, 17, "lag must be at least 1"),
    ("seq F: F(n)=F(n-1)+F(n-1); F(1)=1; F(2)=1", 1, 24, "duplicate lag"),
    ("seq F: F(n)=F(n-1)+0*F(n-2); F(1)=1; F(2)=1", 1, 26, "largest lag"),
    ("seq F: F(n)=2F(n-1)+F(n-2); F(1)=1; F(2)=1", 1, 14, "'*'"),
    ("seq F: F(n)=F(n-1)+F(n-2) F(1)=1; F(2)=1", 1, 27, "';'"),
    ("seq F: F(n)=F(n-1)+F(n-2); F(1)=1", 1, 33, "expected 2 seeds"),
    ("seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1; F(3)=2", 1, 49, "expected 2 seeds"),
    ("seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(3)=2", 1, 38, "consecutive"),
    # A huge lag is rejected by the seed count before any coefficient tuple.
    ("seq A: A(n)=A(n-1000000000); A(0)=1", 1, 35, "expected 1000000000 seeds"),
    ("seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(1)=2", 1, 38, "duplicate seed"),
    ("seq F: F(n)=G(n-1)+F(n-2); F(1)=1; F(2)=1", 1, 13, "expected sequence name 'F'"),
    ("seq F: F(x)=F(n-1)+F(n-2); F(1)=1; F(2)=1", 1, 10, "'n'"),
    ("seq F: F(n)=F(n+1); F(1)=1; F(2)=1", 1, 16, "expected '-'"),
    ("seq F: F(n)=+F(n-1); F(1)=1", 1, 13, "unexpected '+'"),
    ("seq F: F(n)=F(m-1); F(1)=1", 1, 15, "term index must be"),
    ("seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1 %", 1, 43, "unexpected character"),
    ("", 1, 1, "end of input"),
    # A literal is bounded before int() turns its text into a number.
    pytest.param("seq B: B(n)=" + "7" * 5000 + "*B(n-1); B(0)=1", 1, 13,
                 "coefficient has more than 4300 digits", id="5000-digit coefficient"),
]


@pytest.mark.parametrize("source,line,col,fragment", BAD_CASES)
def test_malformed_inputs_report_positions(source, line, col, fragment):
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse(source)
    err = exc_info.value
    assert (err.line, err.col) == (line, col)
    assert fragment in err.message
    assert str(err).startswith(f"{line}:{col}:")


def test_multiline_positions():
    text = "# header\nseq F: F(n)=F(n-1)+F(n-2);\n  F(1)=1; F(4)=1"
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse(text)
    assert exc_info.value.line == 3
    assert exc_info.value.col == 13


def random_spec(rng):
    name = rng.choice(string.ascii_uppercase) + "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randrange(0, 4))
    )
    order = rng.randrange(1, 7)
    coeffs = [rng.randrange(-9, 10) for _ in range(order - 1)]
    trailing = rng.choice([c for c in range(-9, 10) if c != 0])
    coeffs.append(trailing)
    seed_start = rng.randrange(-10, 11)
    seeds = tuple(rng.randrange(-99, 100) for _ in range(order))
    return SequenceSpec(name, tuple(coeffs), seeds, seed_start=seed_start)


def test_roundtrip_100_random_specs():
    rng = random.Random(61803)
    for _ in range(100):
        spec = random_spec(rng)
        assert parse(format_spec(spec)) == spec


def test_format_rejects_reserved_or_invalid_names():
    with pytest.raises(ValueError):
        format_spec(SequenceSpec("n", (1, 1), (1, 1)))
    with pytest.raises(ValueError):
        format_spec(SequenceSpec("two words", (1, 1), (1, 1)))


def test_megabyte_comment_input():
    filler = "# padding line\n" * 70000  # roughly 1 MB
    spec = parse(filler + FIB_TEXT + "\n" + filler)
    assert spec == FIBONACCI


def test_megabyte_garbage_is_an_error_not_a_crash():
    garbage = ("x " * 500000) + "!"
    with pytest.raises(SpecSyntaxError):
        parse(garbage)
