"""Tiny text format for declaring integer linear recurrences.

One statement per sequence:

    seq F: F(n)=F(n-1)+F(n-2); F(1)=1; F(2)=1

Coefficients are signed integers (written `3*F(n-2)`, with `*`), lags are
positive and distinct, and the seeds must cover consecutive indices, one
per order of the recurrence.  `#` starts a comment running to end of
line; whitespace is otherwise insignificant.  parse/format round-trip:
formatting a parsed spec reproduces a canonical statement that parses to
an equal spec.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .sequences import SequenceSpec, format_terms

RESERVED_NAMES = frozenset({"seq", "n"})

_TOKEN_RE = re.compile(
    r"""(?P<skip>[ \t\r]+|\#[^\n]*)
      | (?P<nl>\n)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>\d+)
      | (?P<punct>[():;=+\-*])
    """,
    re.VERBOSE,
)

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

# The most digits an integer literal may have: CPython's default int/str
# limit.  int() of text is quadratic on CPython 3.11 (10**6 digits: about
# 6 s); 4300 digits take about 0.1 ms, so a spec file at the CLI's 1 MiB cap
# holds at most about 240 such literals and 30 ms of conversion.
MAX_LITERAL_DIGITS = 4300


class SpecSyntaxError(ValueError):
    """Parse or validation failure, carrying the 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos, line, col = 0, 1, 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise SpecSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind == "skip":
            col += len(text)
        else:
            if kind == "punct":
                kind = text
            tokens.append(_Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise SpecSyntaxError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            if tok.kind == "eof":
                self.fail(f"expected {what}, got end of input")
            self.fail(f"expected {what}, got {tok.text!r}")
        return self.next()

    def expect_int(self, what: str) -> int:
        tok = self.expect("int", what)
        if len(tok.text) > MAX_LITERAL_DIGITS:
            self.fail(f"{what} has more than {MAX_LITERAL_DIGITS} digits", tok)
        return int(tok.text)

    def signed_int(self, what: str) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        return sign * self.expect_int(what)

    def sequence_name(self, declared: str) -> _Token:
        tok = self.expect("name", "sequence name")
        if tok.text != declared:
            self.fail(f"expected sequence name {declared!r}, got {tok.text!r}", tok)
        return tok

    def statement(self) -> SequenceSpec:
        kw = self.expect("name", "'seq'")
        if kw.text != "seq":
            self.fail(f"expected 'seq', got {kw.text!r}", kw)
        name_tok = self.expect("name", "sequence name")
        name = name_tok.text
        if name in RESERVED_NAMES:
            self.fail(f"{name!r} is reserved and cannot name a sequence", name_tok)
        self.expect(":", "':'")

        self.sequence_name(name)
        self.expect("(", "'('")
        var = self.expect("name", "'n'")
        if var.text != "n":
            self.fail(f"recurrence must be written in 'n', got {var.text!r}", var)
        self.expect(")", "')'")
        self.expect("=", "'='")

        lag_coeffs: dict[int, int] = {}
        lag_toks: dict[int, _Token] = {}
        first = True
        while True:
            sign = 1
            if self.peek().kind == "-":
                self.next()
                sign = -1
            elif self.peek().kind == "+":
                if first:
                    self.fail("unexpected '+' before first term")
                self.next()
            elif not first:
                break
            coeff = 1
            if self.peek().kind == "int":
                coeff = self.expect_int("coefficient")
                self.expect("*", "'*' between coefficient and term")
            self.sequence_name(name)
            self.expect("(", "'('")
            var = self.expect("name", "'n'")
            if var.text != "n":
                self.fail(f"term index must be 'n - <lag>', got {var.text!r}", var)
            self.expect("-", "'-'")
            lag_tok = self.peek()
            lag = self.expect_int("lag")
            self.expect(")", "')'")
            if lag < 1:
                self.fail("lag must be at least 1", lag_tok)
            if lag in lag_coeffs:
                self.fail(f"duplicate lag {lag}", lag_tok)
            lag_coeffs[lag] = sign * coeff
            lag_toks[lag] = lag_tok
            first = False
        self.expect(";", "';' after the recurrence")

        order = max(lag_coeffs)
        if lag_coeffs[order] == 0:
            self.fail(f"coefficient of the largest lag {order} is zero",
                      lag_toks[order])

        seeds: dict[int, int] = {}
        seed_toks: dict[int, _Token] = {}
        while self.peek().kind == "name" and self.peek().text == name:
            self.next()
            self.expect("(", "'('")
            idx_tok = self.peek()
            idx = self.signed_int("seed index")
            self.expect(")", "')'")
            self.expect("=", "'='")
            value = self.signed_int("seed value")
            if idx in seeds:
                self.fail(f"duplicate seed index {idx}", idx_tok)
            seeds[idx] = value
            seed_toks[idx] = idx_tok
            if self.peek().kind == ";":
                self.next()
            else:
                break

        end = self.tokens[self.pos - 1]
        if len(seeds) != order:
            self.fail(f"expected {order} seeds for an order-{order} recurrence, "
                      f"got {len(seeds)}", end)
        indices = sorted(seeds)
        for a, b in zip(indices, indices[1:]):
            if b != a + 1:
                self.fail(f"seed indices must be consecutive; {a} is followed by {b}",
                          seed_toks[b])
        return SequenceSpec(
            name,
            tuple(lag_coeffs.get(i, 0) for i in range(1, order + 1)),
            tuple(seeds[i] for i in indices),
            seed_start=indices[0],
        )

    def all_statements(self) -> list[SequenceSpec]:
        specs = []
        while self.peek().kind != "eof":
            specs.append(self.statement())
        if not specs:
            self.fail("no sequence declarations found")
        return specs


def parse_all(source: str) -> list[SequenceSpec]:
    """All sequence declarations in `source`, in order."""
    return _Parser(_tokenize(source)).all_statements()


def parse(source: str) -> SequenceSpec:
    """The single sequence declaration in `source`."""
    parser = _Parser(_tokenize(source))
    spec = parser.statement()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail("expected a single declaration, found more input", tok)
    return spec


def format_spec(spec: SequenceSpec) -> str:
    """Canonical one-line statement for `spec`; parse(format_spec(s)) == s."""
    if not _IDENT_RE.match(spec.name) or spec.name in RESERVED_NAMES:
        raise ValueError(f"{spec.name!r} is not a formattable sequence name")
    body = format_terms(spec.name, enumerate(spec.coeffs, start=1), "")
    seeds = "; ".join(
        f"{spec.name}({spec.seed_start + i})={v}" for i, v in enumerate(spec.seeds)
    )
    return f"seq {spec.name}: {spec.name}(n)={body}; {seeds}"
