"""Graph export: stable text, labeled edges, graceful degenerate cases."""

from __future__ import annotations

from memlit.axiomatic import enumerate_cxx11
from memlit.dot import execution_dot, trace_dot
from memlit.dsl import parse_litmus
from memlit.operational import enumerate_sc, enumerate_tso

MP_REL_ACQ = """\
name: mp
init: x = 0 y = 0
thread P0:
  store x 1 relaxed
  store y 1 release
thread P1:
  r1 = load y acquire
  r2 = load x relaxed
exists: P1:r1 = 1 /\\ P1:r2 = 0
"""

DEKKER = """\
name: dekker
init: x = 0 y = 0
thread P0:
  store x 1
  r1 = load y
thread P1:
  store y 1
  r2 = load x
exists: P0:r1 = 0 /\\ P1:r2 = 0
"""


def witness_for(result, regs):
    return next(
        cand
        for outcome, cand in result.witnesses.items()
        if all(outcome.register(t, r) == v for (t, r), v in regs.items())
    )


class TestExecutionDot:
    def test_handoff_witness_shows_sync_on_the_flag(self):
        program = parse_litmus(MP_REL_ACQ)
        result = enumerate_cxx11(program)
        cand = witness_for(result, {("P1", "r1"): 1, ("P1", "r2"): 1})
        text = execution_dot(program, cand, title="mp")
        assert 'e3 [label="T0: W y=1 rel"]' in text
        assert 'e4 [label="T1: R y=1 acq"]' in text
        assert 'e3 -> e4 [label="sw"' in text
        assert 'label="rf"' in text and 'label="mo"' in text and 'label="sb"' in text

    def test_same_witness_same_bytes(self):
        program = parse_litmus(MP_REL_ACQ)
        result = enumerate_cxx11(program)
        cand = witness_for(result, {("P1", "r1"): 1, ("P1", "r2"): 1})
        assert execution_dot(program, cand, title="t") == execution_dot(program, cand, title="t")

    def test_instruction_free_program_is_header_only(self):
        program = parse_litmus("name: empty\ninit: x = 0\nthread P0:\nexists: x = 0\n")
        result = enumerate_cxx11(program)
        (outcome,) = result.outcomes
        text = execution_dot(program, result.witnesses[outcome], title="empty")
        assert "->" not in text
        assert text.startswith('digraph "empty" {')


class TestTraceDot:
    def test_dekker_witness_dequeues_after_both_loads(self):
        program = parse_litmus(DEKKER)
        result = enumerate_tso(program)
        cand = witness_for(result, {("P0", "r1"): 0, ("P1", "r2"): 0})
        text = trace_dot(program, cand, title="dekker")
        load_steps = [
            int(line.split(". ")[0].split('"')[1])
            for line in text.splitlines()
            if "load" in line and "label=" in line
        ]
        dequeue_steps = [
            int(line.split(". ")[0].split('"')[1])
            for line in text.splitlines()
            if "dequeue" in line and "label=" in line
        ]
        assert len(load_steps) == 2 and len(dequeue_steps) == 2
        assert max(load_steps) < min(dequeue_steps)

    def test_empty_trace_is_header_only(self):
        program = parse_litmus("name: empty\ninit: x = 0\nthread P0:\nexists: x = 0\n")
        result = enumerate_sc(program)
        (outcome,) = result.outcomes
        text = trace_dot(program, result.witnesses[outcome], title="empty")
        assert "->" not in text and "label=" not in text.replace("node [", "")
