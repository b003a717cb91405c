"""Line-oriented litmus-test format.

    name: IDENT
    init: (LOC = NUM)*            assignments may continue on following lines
    thread IDENT:
        REG = load LOC order?
        store LOC (NUM|REG) order?
        REG = na_load LOC
        na_store LOC (NUM|REG)
        REG = exchange LOC (NUM|REG) order?
        REG = fetch_add LOC (NUM|REG) order?      (also _sub/_and/_or/_xor)
        REG = cas_strong LOC NUM NUM order? order?
        REG = cas_weak   LOC NUM NUM order? order?
        fence order
    (exists|forall): bexpr

Orders: relaxed consume acquire release acq_rel seq_cst; omitted means
seq_cst.  A CAS with one order derives its failure order (release->relaxed,
acq_rel->acquire, else the same).  bexpr atoms are THREAD:REG = NUM or
LOC = NUM, combined with /\\ \\/ ! and parentheses.  '#' starts a comment;
keywords are reserved and cannot name threads, locations, or registers.

parse_litmus collects every diagnosable error (with source spans) before
raising ParseError; print_litmus emits a canonical form with explicit
orders, and parse(print(p)) == p for any grammar-representable program.
A line lexes to the strings its tokens matched; a span, and the byte offset
of its line in the input, are worked out only for a diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional, Union

from .model import (
    And,
    Assertion,
    BoolExpr,
    Instruction,
    Kind,
    MAX_VALUE,
    MemAtom,
    MemoryOrder,
    Not,
    Or,
    Program,
    RegAtom,
    derive_failure_order,
)

ORDER_TOKENS = {o.value: o for o in MemoryOrder}
KIND_TOKENS = {k.value: k for k in Kind}

RESERVED = frozenset(
    {"name", "init", "thread", "exists", "forall"}
    | set(KIND_TOKENS)
    | set(ORDER_TOKENS)
)


@dataclass(frozen=True)
class SourceSpan:
    line: int  # 1-based
    column: int  # 1-based
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("span start after end")


@dataclass(frozen=True)
class ParseDiagnostic:
    message: str
    span: SourceSpan

    def __str__(self) -> str:
        return f"line {self.span.line}, col {self.span.column}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics) or "parse error")
        self.diagnostics = diagnostics


# A token is the text it matched.  The last alternative takes any other
# character, so findall skips only blanks, and a bad token is one character
# long.  On a line with no bad token every token is ASCII: str.isidentifier
# and str.isdigit tell its kind, and any other is one of the seven symbols.
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|/\\|\\/|[^ \t\r]")
_ONE_CHARACTER_TOKENS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_=:()!")


def _char_end(data: bytes, start: int, char: str) -> int:
    """End of char at data[start], or of the bytes there that decoded as U+FFFD."""
    try:
        data[start:start + 4].decode("utf-8")
    except UnicodeDecodeError as exc:
        if exc.start == 0:
            return start + exc.end
    return start + len(char.encode("utf-8"))


def _decode(text: Union[str, bytes]) -> tuple[str, bytes, list[ParseDiagnostic]]:
    """The text, its UTF-8 bytes, and an invalid byte's diagnostic.  A str
    holding a lone surrogate is not UTF-8 either: surrogatepass keeps it as
    bytes that fail to decode."""
    if isinstance(text, str):
        text = text.encode("utf-8", "surrogatepass")
    try:
        return text.decode("utf-8"), text, []
    except UnicodeDecodeError as exc:
        column = exc.start - text.rfind(b"\n", 0, exc.start)
        span = SourceSpan(text.count(b"\n", 0, exc.start) + 1, column, exc.start, exc.end)
        return text.decode("utf-8", errors="replace"), text, [ParseDiagnostic("input is not valid UTF-8", span)]


class _Parser:
    def __init__(self, text: str, data: bytes, diagnostics: list[ParseDiagnostic]):
        self.data = data  # the bytes of text
        self.diagnostics = diagnostics
        self.lines = text.split("\n")
        self.line_no = 0  # 1-based number of the line being parsed
        self._starts: Optional[list[int]] = None  # byte offset of each line, once a span needs them

    def error(self, message: str, span: SourceSpan) -> None:
        self.diagnostics.append(ParseDiagnostic(message, span))

    def _bounds(self, line_no: int) -> tuple[int, int]:
        """Byte offsets of the start and the end of a line."""
        if self._starts is None:
            # decoding keeps every newline byte, so data has the same lines
            self._starts = list(accumulate((len(line) + 1 for line in self.data.split(b"\n")), initial=0))
        return self._starts[line_no - 1], self._starts[line_no] - 1

    def span(self, tokens: list[str], i: int) -> SourceSpan:
        """Span of token i of the line being parsed, or of its last token when
        i is past the end.  Every character before a token on its line is
        ASCII: one byte each."""
        start, _ = self._bounds(self.line_no)
        m = next(islice(_TOKEN_RE.finditer(self.lines[self.line_no - 1]), min(i, len(tokens) - 1), None))
        return SourceSpan(self.line_no, m.start() + 1, start + m.start(), start + m.end())

    def _line_span(self) -> SourceSpan:
        start, end = self._bounds(self.line_no)
        return SourceSpan(self.line_no, 1, start, end)

    def _eof_span(self) -> SourceSpan:
        start, end = self._bounds(len(self.lines))
        return SourceSpan(len(self.lines), end - start + 1, end, end)

    def tokenize(self, raw: str) -> list[str]:
        """The tokens of a line before its comment; none when one is bad."""
        tokens = _TOKEN_RE.findall(raw.split("#", 1)[0])
        for tok in tokens:
            if len(tok) == 1 and tok not in _ONE_CHARACTER_TOKENS:
                # the first bad token ends the line
                span = self.span(tokens, tokens.index(tok))
                end = _char_end(self.data, span.start, tok)
                self.error(f"unexpected character {tok!r}", SourceSpan(span.line, span.column, span.start, end))
                return []
        return tokens

    # -- small token-list helpers ------------------------------------------

    def _take_value(self, tokens: list[str], i: int, what: str) -> tuple[Optional[int], int]:
        """Parse NUM in 0..MAX_VALUE; returns (value, next index)."""
        if i >= len(tokens) or not tokens[i].isdigit():
            self.error(f"expected {what}", self.span(tokens, i))
            return None, i
        value = int(tokens[i])
        if value > MAX_VALUE:
            self.error(f"value {value} out of range (0..{MAX_VALUE})", self.span(tokens, i))
            return None, i + 1
        return value, i + 1

    def _take_ident(self, tokens: list[str], i: int, what: str) -> tuple[Optional[str], int]:
        if i >= len(tokens) or not tokens[i].isidentifier():
            self.error(f"expected {what}", self.span(tokens, i))
            return None, i
        name = tokens[i]
        if name in RESERVED:
            self.error(f"{name!r} is a reserved word and cannot be a {what}", self.span(tokens, i))
            return None, i + 1
        return name, i + 1

    def _take_operand(self, tokens: list[str], i: int) -> tuple[Union[int, str, None], int]:
        if i < len(tokens) and tokens[i].isdigit():
            return self._take_value(tokens, i, "operand")
        return self._take_ident(tokens, i, "operand register")

    def _take_order(self, tokens: list[str], i: int) -> tuple[Optional[MemoryOrder], int]:
        """Optional trailing memory order; None means omitted."""
        if i < len(tokens) and tokens[i] in ORDER_TOKENS:
            return ORDER_TOKENS[tokens[i]], i + 1
        return None, i

    def _expect_end(self, tokens: list[str], i: int) -> bool:
        if i < len(tokens):
            self.error(f"unexpected trailing input {tokens[i]!r}", self.span(tokens, i))
            return False
        return True

    def _expect_sym(self, tokens: list[str], i: int, sym: str) -> tuple[bool, int]:
        if i < len(tokens) and tokens[i] == sym:
            return True, i + 1
        self.error(f"expected {sym!r}", self.span(tokens, i))
        return False, i

    # -- instructions -------------------------------------------------------

    def parse_instruction(self, tokens: list[str]) -> Optional[Instruction]:
        head = tokens[0]
        if not head.isidentifier():
            self.error("expected an instruction", self.span(tokens, 0))
            return None

        kind = KIND_TOKENS.get(head)
        fields: dict[str, object] = {}
        i = 1
        if kind is None or kind.fields[0] == "dest":  # REG = op ...
            dest, i = self._take_ident(tokens, 0, "destination register")
            ok, i = self._expect_sym(tokens, i, "=")
            if dest is None or not ok:
                return None
            if i >= len(tokens) or not tokens[i].isidentifier():
                self.error("expected an operation name", self.span(tokens, i))
                return None
            kind = KIND_TOKENS.get(tokens[i])
            if kind is None or kind.fields[0] != "dest":
                self.error(f"unknown operation {tokens[i]!r}", self.span(tokens, i))
                return None
            fields["dest"] = dest
            i += 1
        for name in kind.fields[len(fields):]:
            fields[name], i = _TAKE[name](self, tokens, i)
        if kind is Kind.FENCE and fields["order"] is None:
            self.error("fence requires a memory order", self.span(tokens, i))
            return None
        missing = any(value is None for name, value in fields.items() if name not in ("order", "failure_order"))
        if not self._expect_end(tokens, i) or missing:
            return None
        if "order" in fields:
            fields["order"] = fields["order"] or MemoryOrder.SEQ_CST
        if "failure_order" in fields:
            fields["failure_order"] = fields["failure_order"] or derive_failure_order(fields["order"])
        return Instruction(kind, **fields)

    # -- boolean conditions ---------------------------------------------------

    def _parse_or(self, tokens: list[str], i: int) -> tuple[Optional[BoolExpr], int]:
        left, i = self._parse_and(tokens, i)
        while left is not None and i < len(tokens) and tokens[i] == "\\/":
            right, i = self._parse_and(tokens, i + 1)
            if right is None:
                return None, i
            left = Or(left, right)
        return left, i

    def _parse_and(self, tokens: list[str], i: int) -> tuple[Optional[BoolExpr], int]:
        left, i = self._parse_unary(tokens, i)
        while left is not None and i < len(tokens) and tokens[i] == "/\\":
            right, i = self._parse_unary(tokens, i + 1)
            if right is None:
                return None, i
            left = And(left, right)
        return left, i

    def _parse_unary(self, tokens: list[str], i: int) -> tuple[Optional[BoolExpr], int]:
        if i >= len(tokens):
            self.error("expected a condition", self.span(tokens, i))
            return None, i
        tok = tokens[i]
        if tok == "!":
            inner, i = self._parse_unary(tokens, i + 1)
            return (Not(inner) if inner is not None else None), i
        if tok == "(":
            inner, i = self._parse_or(tokens, i + 1)
            ok, i = self._expect_sym(tokens, i, ")")
            return (inner if ok else None), i
        # atom: IDENT (":" IDENT)? "=" NUM
        first, i = self._take_ident(tokens, i, "thread, register, or location name")
        if first is None:
            return None, i
        if i < len(tokens) and tokens[i] == ":":
            reg, i = self._take_ident(tokens, i + 1, "register")
            ok, i = self._expect_sym(tokens, i, "=")
            value, i = self._take_value(tokens, i, "value")
            if reg is None or not ok or value is None:
                return None, i
            return RegAtom(first, reg, value), i
        ok, i = self._expect_sym(tokens, i, "=")
        value, i = self._take_value(tokens, i, "value")
        if not ok or value is None:
            return None, i
        return MemAtom(first, value), i

    # -- whole file -----------------------------------------------------------

    def _take_init_pair(self, tokens: list[str], i: int, init: dict[str, int]) -> tuple[bool, int]:
        """LOC = NUM into init; returns (parsed, next index)."""
        loc, i = self._take_ident(tokens, i, "location")
        ok, i = self._expect_sym(tokens, i, "=")
        value, i = self._take_value(tokens, i, "value")
        if loc is None or not ok or value is None:
            return False, i
        if loc in init:
            self.error(f"duplicate init location {loc!r}", self._line_span())
        init[loc] = value
        return True, i

    def parse(self) -> Optional[Program]:
        name: Optional[str] = None
        init: dict[str, int] = {}
        init_seen = False
        thread_names: list[str] = []
        threads: list[list[Instruction]] = []
        assertion: Optional[Assertion] = None
        condition_seen = False  # a condition line, parsed or not

        for line_no, raw in enumerate(self.lines, start=1):
            self.line_no = line_no
            tokens = self.tokenize(raw)
            if not tokens:
                continue
            head = tokens[0]

            if condition_seen:
                self.error("content after the condition line", self._line_span())
                continue

            if head == "name":
                ok, i = self._expect_sym(tokens, 1, ":")
                ident, i = self._take_ident(tokens, i, "test name")
                self._expect_end(tokens, i)
                if name is not None:
                    self.error("duplicate name header", self.span(tokens, 0))
                elif ok and ident is not None:
                    name = ident
                continue

            if head == "init":
                ok, i = self._expect_sym(tokens, 1, ":")
                if init_seen:
                    self.error("duplicate init section", self.span(tokens, 0))
                init_seen = True
                while ok and i < len(tokens):
                    ok, i = self._take_init_pair(tokens, i, init)
                continue

            if head == "thread":
                ident, i = self._take_ident(tokens, 1, "thread name")
                ok, i = self._expect_sym(tokens, i, ":")
                self._expect_end(tokens, i)
                if ident is not None and ok:
                    if ident in thread_names:
                        self.error(f"duplicate thread name {ident!r}", self.span(tokens, 1))
                    thread_names.append(ident)
                    threads.append([])
                continue

            if head in ("exists", "forall"):
                condition_seen = True
                ok, i = self._expect_sym(tokens, 1, ":")
                if not ok:
                    continue
                expr, i = self._parse_or(tokens, i)
                self._expect_end(tokens, i)
                if expr is not None:
                    assertion = Assertion(head, expr)
                continue

            if not threads:
                # before the first thread: only init continuation lines.
                if init_seen and len(tokens) == 3 and tokens[1] == "=":
                    self._take_init_pair(tokens, 0, init)
                    continue
                self.error("expected a thread or section header", self._line_span())
                continue

            instr = self.parse_instruction(tokens)
            if instr is not None:
                threads[-1].append(instr)

        if name is None:
            self.error("expected name header", self._eof_span())
        if not init_seen:
            self.error("expected init section", self._eof_span())
        if not threads:
            self.error("expected at least one thread", self._eof_span())
        if not condition_seen:
            self.error("expected an exists or forall condition", self._eof_span())

        if self.diagnostics:
            return None
        assert name is not None and assertion is not None
        return Program(
            name=name,
            init=init,
            thread_names=tuple(thread_names),
            threads=tuple(tuple(body) for body in threads),
            assertion=assertion,
        )


# How parse_instruction takes each of a kind's fields other than "dest".
_TAKE = {
    "location": lambda p, tokens, i: p._take_ident(tokens, i, "location"),
    "operand": lambda p, tokens, i: p._take_operand(tokens, i),
    "expected": lambda p, tokens, i: p._take_value(tokens, i, "expected value"),
    "desired": lambda p, tokens, i: p._take_value(tokens, i, "desired value"),
    "order": lambda p, tokens, i: p._take_order(tokens, i),
    "failure_order": lambda p, tokens, i: p._take_order(tokens, i),
}


def parse_litmus(text: Union[str, bytes]) -> Program:
    """Parse a litmus test; raises ParseError carrying every diagnostic."""
    parser = _Parser(*_decode(text))
    program = parser.parse()
    if program is None or parser.diagnostics:
        raise ParseError(parser.diagnostics)
    return program


# ---------------------------------------------------------------------------
# printing


def format_instruction(instr: Instruction) -> str:
    fields = instr.kind.fields
    text = " ".join([instr.kind.value, *(str(getattr(instr, name)) for name in fields if name != "dest")])
    return f"{instr.dest} = {text}" if fields[0] == "dest" else text


_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_ATOM = 4


def format_expr(expr: BoolExpr, min_prec: int = 0) -> str:
    if isinstance(expr, RegAtom):
        text, prec = f"{expr.thread}:{expr.register} = {expr.value}", _PREC_ATOM
    elif isinstance(expr, MemAtom):
        text, prec = f"{expr.location} = {expr.value}", _PREC_ATOM
    elif isinstance(expr, Not):
        text, prec = "!" + format_expr(expr.operand, _PREC_ATOM), _PREC_NOT
    elif isinstance(expr, And):
        text = f"{format_expr(expr.left, _PREC_AND)} /\\ {format_expr(expr.right, _PREC_AND + 1)}"
        prec = _PREC_AND
    elif isinstance(expr, Or):
        text = f"{format_expr(expr.left, _PREC_OR)} \\/ {format_expr(expr.right, _PREC_OR + 1)}"
        prec = _PREC_OR
    else:
        raise TypeError(f"not a boolean expression: {expr!r}")
    return f"({text})" if prec < min_prec else text


def print_litmus(program: Program) -> str:
    """Canonical text for a program; parse_litmus inverts it exactly."""
    lines = [f"name: {program.name}"]
    pairs = " ".join(f"{loc} = {val}" for loc, val in sorted(program.init.items()))
    lines.append(f"init: {pairs}".rstrip())
    for name, body in zip(program.thread_names, program.threads):
        lines.append(f"thread {name}:")
        for instr in body:
            lines.append(f"    {format_instruction(instr)}")
    lines.append(f"{program.assertion.quantifier}: {format_expr(program.assertion.formula)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# expectation annotations (comments, not grammar)

# Blanks here never match a newline, and a match runs to the end of its line,
# so one pass over the text finds the first annotation of each line.
_EXPECT_RE = re.compile(r"#[^\S\n]*expected:[^\S\n]*(\S+)[^\S\n]+(\S+)[^\n]*")


def parse_expectations(text: Union[str, bytes]) -> tuple[tuple[str, str], ...]:
    """Extract (model, verdict) pairs from '# expected: MODEL VERDICT' comments."""
    decoded = text if isinstance(text, str) else text.decode("utf-8", errors="replace")
    return tuple(_EXPECT_RE.findall(decoded))
