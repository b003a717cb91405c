from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from memlit.dsl import (
    ParseError,
    format_expr,
    format_instruction,
    parse_expectations,
    parse_litmus,
    print_litmus,
)
from memlit.model import (
    And,
    Instruction,
    Kind,
    MemAtom,
    MemoryOrder,
    Not,
    Or,
    RegAtom,
)

from support import mutated_corpus, programs, span_problems

DEKKER = """name: dekker
init: x = 0 y = 0
thread P0:
  store x 1 seq_cst
  r1 = load y seq_cst
thread P1:
  store y 1 seq_cst
  r1 = load x seq_cst
exists: P0:r1 = 0 /\\ P1:r1 = 0
"""


def errors_of(text):
    with pytest.raises(ParseError) as exc:
        parse_litmus(text)
    return [d.message for d in exc.value.diagnostics]


class TestParsing:
    def test_dekker_shape(self):
        p = parse_litmus(DEKKER)
        assert p.name == "dekker"
        assert p.init == {"x": 0, "y": 0}
        assert p.thread_names == ("P0", "P1")
        assert [i.kind for i in p.threads[0]] == [Kind.STORE, Kind.LOAD]
        assert p.threads[0][0].order is MemoryOrder.SEQ_CST
        assert p.assertion.quantifier == "exists"
        assert p.assertion.formula == And(RegAtom("P0", "r1", 0), RegAtom("P1", "r1", 0))

    def test_omitted_order_defaults_to_seq_cst(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\n  r1 = load x\nexists: x = 1\n"
        )
        assert all(i.order is MemoryOrder.SEQ_CST for i in p.threads[0])

    def test_na_accesses_take_no_order(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  na_store x 1\n  r1 = na_load x\nexists: x = 1\n"
        )
        assert all(i.order is None for i in p.threads[0])
        assert any(
            "trailing input" in m
            for m in errors_of("name: t\ninit: x = 0\nthread P0:\n  na_store x 1 relaxed\nexists: x = 1\n")
        )

    def test_cas_single_order_derives_failure(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = cas_strong x 0 1 release\nexists: x = 1\n"
        )
        cas = p.threads[0][0]
        assert cas.order is MemoryOrder.RELEASE
        assert cas.failure_order is MemoryOrder.RELAXED

    def test_cas_two_orders_explicit(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = cas_weak x 0 1 acq_rel relaxed\nexists: x = 1\n"
        )
        cas = p.threads[0][0]
        assert cas.kind is Kind.CAS_WEAK
        assert cas.order is MemoryOrder.ACQ_REL
        assert cas.failure_order is MemoryOrder.RELAXED

    def test_register_operand(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = load x\n  store x r1\nexists: x = 0\n"
        )
        assert p.threads[0][1].operand == "r1"

    def test_init_continuation_lines(self):
        p = parse_litmus("name: t\ninit: x = 1\n  y = 2\nthread P0:\n  r1 = load x\nexists: x = 1\n")
        assert p.init == {"x": 1, "y": 2}

    def test_comments_and_blank_lines_ignored(self):
        text = "# top\n\nname: t  # trailing\ninit: x = 0\nthread P0:\n  # inside\n  r1 = load x\nexists: x = 0\n"
        p = parse_litmus(text)
        assert len(p.threads[0]) == 1

    def test_or_not_parens(self):
        p = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = load x\nforall: !(x = 1 \\/ P0:r1 = 2)\n"
        )
        assert p.assertion.quantifier == "forall"
        assert p.assertion.formula == Not(Or(MemAtom("x", 1), RegAtom("P0", "r1", 2)))

    def test_precedence_and_binds_tighter_than_or(self):
        p = parse_litmus(
            "name: t\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x\nexists: x = 1 \\/ y = 1 /\\ x = 0\n"
        )
        assert p.assertion.formula == Or(MemAtom("x", 1), And(MemAtom("y", 1), MemAtom("x", 0)))


class TestParseErrors:
    def test_missing_name(self):
        assert any("name header" in m for m in errors_of("init: x = 0\n"))

    def test_missing_condition(self):
        msgs = errors_of("name: t\ninit: x = 0\nthread P0:\n  r1 = load x\n")
        assert any("exists or forall" in m for m in msgs)

    def test_reserved_word_as_location(self):
        msgs = errors_of("name: t\ninit: x = 0\nthread P0:\n  store thread 1\nexists: x = 0\n")
        assert any("reserved" in m for m in msgs)

    def test_value_too_large(self):
        msgs = errors_of("name: t\ninit: x = 999\nthread P0:\n  r1 = load x\nexists: x = 0\n")
        assert any("0..255" in m for m in msgs)

    def test_unknown_order_token(self):
        msgs = errors_of("name: t\ninit: x = 0\nthread P0:\n  store x 1 sequential\nexists: x = 0\n")
        assert msgs

    def test_duplicate_thread(self):
        msgs = errors_of(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = load x\nthread P0:\n  r1 = load x\nexists: x = 0\n"
        )
        assert any("duplicate" in m for m in msgs)

    def test_content_after_condition(self):
        msgs = errors_of(
            "name: t\ninit: x = 0\nthread P0:\n  r1 = load x\nexists: x = 0\nthread P1:\n  r1 = load x\n"
        )
        assert any("after the condition" in m for m in msgs)

    def test_all_errors_collected(self):
        text = "name: t\ninit: x = 300\nthread P0:\n  r1 = load q order\n  bogus\nexists: x = 0\n"
        with pytest.raises(ParseError) as exc:
            parse_litmus(text)
        assert len(exc.value.diagnostics) >= 2

    def test_spans_inside_input(self):
        text = "name: t\ninit: x = 0\nthread P0:\n  ???\nexists: x = 0\n"
        with pytest.raises(ParseError) as exc:
            parse_litmus(text)
        data = text.encode()
        for d in exc.value.diagnostics:
            assert 0 <= d.span.start <= d.span.end <= len(data)
            assert d.span.line >= 1 and d.span.column >= 1


def _one_instruction(line):
    return f"name: t\ninit: x = 0\nthread P0:\n  {line}\nexists: x = 0\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        (_one_instruction("r1 = load"), [("expected location", 4, 8, 38, 42)]),
        (
            _one_instruction("seq_cst = load x"),
            [("'seq_cst' is a reserved word and cannot be a destination register", 4, 3, 33, 40)],
        ),
        (_one_instruction("store x"), [("expected operand register", 4, 9, 39, 40)]),
        (_one_instruction("store x 256"), [("value 256 out of range (0..255)", 4, 11, 41, 44)]),
        (_one_instruction("r1 = cas_strong x 0"), [("expected desired value", 4, 21, 51, 52)]),
        (_one_instruction("fence"), [("fence requires a memory order", 4, 3, 33, 38)]),
        (_one_instruction("fence 1 seq_cst"), [("fence requires a memory order", 4, 9, 39, 40)]),
        (_one_instruction("r1 = store x 1"), [("unknown operation 'store'", 4, 8, 38, 43)]),
        (_one_instruction("na_store x 1 relaxed"), [("unexpected trailing input 'relaxed'", 4, 16, 46, 53)]),
        (_one_instruction("r1 = blargh x"), [("unknown operation 'blargh'", 4, 8, 38, 44)]),
        (_one_instruction("store x 1 ?"), [("unexpected character '?'", 4, 13, 43, 44)]),
        # a lone slash is a bad character, not a token
        (_one_instruction("store x 1 /"), [("unexpected character '/'", 4, 13, 43, 44)]),
        (_one_instruction("store x 1 \\"), [("unexpected character '\\\\'", 4, 13, 43, 44)]),
        (
            "name: t\ninit: x = 0 y = 256\n  x = 1\nthread P0:\n  store x 1\nexists: x = 0\n",
            [("value 256 out of range (0..255)", 2, 17, 24, 27), ("duplicate init location 'x'", 3, 1, 28, 35)],
        ),
        # byte offsets count the multi-byte characters of an earlier comment line
        (
            "# café ✓\n" + _one_instruction("store x 256"),
            [("value 256 out of range (0..255)", 5, 11, 53, 56)],
        ),
        # a non-ASCII bad character spans its whole UTF-8 encoding
        (_one_instruction("store x é"), [("unexpected character 'é'", 4, 11, 41, 43)]),
        (_one_instruction("1 = load x"), [("expected an instruction", 4, 3, 33, 34)]),
        (_one_instruction("r1 = 5"), [("expected an operation name", 4, 8, 38, 39)]),
        (
            "name: t\nname: u\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 0\n",
            [("duplicate name header", 2, 1, 8, 12)],
        ),
        (
            "name: t\ninit: x = 0\ninit: y = 0\nthread P0:\n  store x 1\nexists: x = 0\n",
            [("duplicate init section", 3, 1, 20, 24)],
        ),
        # a condition line that fails to parse is reported once, on that line:
        # an empty condition, a missing operand after either connective, a
        # missing ':' and an unclosed '('
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists:\n",
            [("expected a condition", 5, 7, 49, 50)],
        ),
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 0 /\\\n",
            [("expected a condition", 5, 15, 57, 59)],
        ),
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x = 0 \\/\n",
            [("expected a condition", 5, 15, 57, 59)],
        ),
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists x = 0\n",
            [("expected ':'", 5, 8, 50, 51)],
        ),
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: (x = 0\n",
            [("expected ')'", 5, 14, 56, 57)],
        ),
        # a line after a condition line is reported whether or not the
        # condition parsed: it is not one more instruction of the last thread
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\nexists: x =\n  store y 2\n",
            [("expected value", 5, 11, 53, 54), ("content after the condition line", 6, 1, 55, 66)],
        ),
        # a file without a condition line is told so at its end
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\n",
            [("expected an exists or forall condition", 5, 1, 43, 43)],
        ),
        # without a final newline, the end is past the last line's last byte
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1",
            [("expected an exists or forall condition", 4, 12, 42, 42)],
        ),
    ],
)
def test_diagnostics_pinned(text, expected):
    for source in (text, text.encode()):
        assert _diagnostics(source) == expected


def _diagnostics(source):
    with pytest.raises(ParseError) as exc:
        parse_litmus(source)
    return [(d.message, d.span.line, d.span.column, d.span.start, d.span.end) for d in exc.value.diagnostics]


# Input that is not UTF-8 is bytes, or a str holding a lone surrogate, whose
# bytes are its surrogatepass encoding.  Spans count those bytes: a byte that
# decodes to U+FFFD is that one byte, not the three of U+FFFD.
@pytest.mark.parametrize(
    "data, expected",
    [
        (
            b"# caf\xe9\n" + _one_instruction("store x 1 @").encode(),
            [("input is not valid UTF-8", 1, 6, 5, 6), ("unexpected character '@'", 5, 13, 50, 51)],
        ),
        (
            b"name: t\ninit: x = 0\nthread P0:\n  store x 1 # \xff\nexists: x = 0\n",
            [("input is not valid UTF-8", 4, 15, 45, 46)],
        ),
        # a truncated three-byte character is one bad character of two bytes
        (
            b"name: t\ninit: x = 0\nthread P0:\n  store x 1 \xe2\x9c\nexists: x = 0\n",
            [("input is not valid UTF-8", 4, 13, 43, 45), ("unexpected character '\ufffd'", 4, 13, 43, 45)],
        ),
        # a lone surrogate in a str, as surrogateescape decoding leaves one
        (
            "name: t\n# \udcff\n",
            [
                ("input is not valid UTF-8", 2, 3, 10, 11),
                ("expected init section", 3, 1, 14, 14),
                ("expected at least one thread", 3, 1, 14, 14),
                ("expected an exists or forall condition", 3, 1, 14, 14),
            ],
        ),
        (
            "name: t\ninit: x = 0\nthread P0:\n  store x 1 # \ud800\nexists: x = 0\n",
            [("input is not valid UTF-8", 4, 15, 45, 46)],
        ),
    ],
)
def test_diagnostics_pinned_bytes(data, expected):
    assert _diagnostics(data) == expected


def test_spans_land_on_their_bytes_in_mutated_corpus():
    """Every diagnostic of 2,000 mutated corpus files, some of them not
    UTF-8, has a span inside the input that starts at its line and column
    and covers the token its message quotes."""
    checked, problems = 0, []
    for data in mutated_corpus(seed=1, count=2_000):
        diagnostics, found = span_problems(data)
        checked += diagnostics
        problems += found
    assert problems == []
    assert checked > 2_000


class TestPrinting:
    def test_instruction_formats(self):
        assert (
            format_instruction(Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.SEQ_CST))
            == "store x 1 seq_cst"
        )
        assert (
            format_instruction(
                Instruction(
                    Kind.CAS_STRONG, location="x", dest="r1", expected=1, desired=2,
                    order=MemoryOrder.RELEASE, failure_order=MemoryOrder.RELAXED,
                )
            )
            == "r1 = cas_strong x 1 2 release relaxed"
        )
        assert format_instruction(Instruction(Kind.FENCE, order=MemoryOrder.SEQ_CST)) == "fence seq_cst"
        assert format_instruction(Instruction(Kind.NA_LOAD, location="x", dest="r1")) == "r1 = na_load x"

    def test_expr_minimal_parens(self):
        e = Or(MemAtom("x", 1), And(MemAtom("y", 1), Not(MemAtom("x", 0))))
        assert format_expr(e) == "x = 1 \\/ y = 1 /\\ !x = 0"
        f = And(Or(MemAtom("x", 1), MemAtom("y", 1)), MemAtom("x", 0))
        assert format_expr(f) == "(x = 1 \\/ y = 1) /\\ x = 0"

    def test_round_trip_dekker(self):
        p = parse_litmus(DEKKER)
        assert parse_litmus(print_litmus(p)) == p

    def test_print_contains_store_lines_in_order(self):
        text = print_litmus(parse_litmus(DEKKER))
        assert text.index("store x 1 seq_cst") < text.index("r1 = load y seq_cst")


class TestExpectations:
    def test_extraction(self):
        text = "# expected: sc forbidden\nname: t\n# expected:  tso   allowed\n"
        assert parse_expectations(text) == (("sc", "forbidden"), ("tso", "allowed"))

    def test_bytes_input(self):
        assert parse_expectations(b"# expected: cxx11 racy\n") == (("cxx11", "racy"),)

    def test_no_annotations(self):
        assert parse_expectations("name: t\n") == ()


@given(programs(max_threads=3, max_total=6))
@settings(max_examples=120)
def test_round_trip_identity(p):
    assert parse_litmus(print_litmus(p)) == p


@given(st.binary(max_size=200))
@settings(max_examples=300)
def test_fuzz_never_crashes(data):
    assert span_problems(data)[1] == []
    assert span_problems(data.decode("utf-8", "surrogateescape"))[1] == []
