"""Sequentially consistent enumeration against the reference interleaver.

Expected outcome sets for the named programs below were derived with the
independent oracle in support.py and frozen here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from memlit.dsl import parse_litmus
from memlit.model import Assertion, Kind, MemAtom, ResourceLimitError, eval_assertion
from memlit.operational import enumerate_sc, enumerate_tso

from support import programs, sc_outcomes, with_cas_kind

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

MESSAGE_PASSING = """\
name: mp
init: x = 0 y = 0
thread P0:
  store x 1
  store y 1
thread P1:
  r1 = load y
  r2 = load x
exists: P1:r1 = 1 /\\ P1:r2 = 0
"""


def reg_pairs(outcomes, a=("P0", "r1"), b=("P1", "r2")):
    return {(o.register(*a), o.register(*b)) for o in outcomes.outcomes}


class TestFrozenPrograms:
    def test_dekker_never_both_zero(self):
        program = parse_litmus(DEKKER)
        result = enumerate_sc(program)
        assert reg_pairs(result) == {(0, 1), (1, 0), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    def test_message_passing_ordered(self):
        program = parse_litmus(MESSAGE_PASSING)
        result = enumerate_sc(program)
        pairs = {(o.register("P1", "r1"), o.register("P1", "r2")) for o in result.outcomes}
        assert pairs == {(0, 0), (0, 1), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    def test_never_reports_races(self):
        program = parse_litmus(DEKKER)
        assert enumerate_sc(program).racy is False


class TestWeakCas:
    PROGRAM = """\
name: weak
init: x = 0
thread P0:
  r1 = cas_weak x 0 1
exists: x = 1
"""

    def test_spurious_failure_branches(self):
        program = parse_litmus(self.PROGRAM)
        result = enumerate_sc(program)
        assert {o.location("x") for o in result.outcomes} == {0, 1}
        assert all(o.register("P0", "r1") == 0 for o in result.outcomes)

    def test_spurious_failures_suppressed(self):
        result = enumerate_sc(with_cas_kind(parse_litmus(self.PROGRAM), Kind.CAS_STRONG))
        assert {o.location("x") for o in result.outcomes} == {1}


class TestSingleThread:
    PROGRAM = """\
name: chain
init: x = 10
thread P0:
  r1 = fetch_add x 5
  r2 = fetch_sub x 1
  r3 = load x
exists: P0:r3 = 14
"""

    def test_deterministic(self):
        program = parse_litmus(self.PROGRAM)
        result = enumerate_sc(program)
        assert len(result.outcomes) == 1
        (outcome,) = result.outcomes
        assert outcome.register("P0", "r1") == 10
        assert outcome.register("P0", "r2") == 15
        assert outcome.register("P0", "r3") == 14
        assert outcome.location("x") == 14
        assert result.stats.complete_runs == 1

    def test_register_operands_read_their_own_registers(self):
        # Each operand names a different slot, and P1 reuses P0's register names.
        program = parse_litmus(
            "name: operands\ninit: x = 1 y = 2 w = 5\nthread P0:\n  r1 = load x\n  r2 = load y\n  store z r2\n"
            "  r3 = fetch_add z r1\n  r4 = exchange x r3\nthread P1:\n  r1 = load w\n  na_store v r1\nexists: z = 3\n"
        )
        for result in (enumerate_sc(program), enumerate_tso(program)):
            (outcome,) = result.outcomes
            assert outcome.format() == "P0:r1=1 P0:r2=2 P0:r3=2 P0:r4=1 P1:r1=5 | v=5 w=5 x=2 y=2 z=3"


class TestLimits:
    def test_state_budget(self):
        program = parse_litmus(DEKKER)
        with pytest.raises(ResourceLimitError) as exc:
            enumerate_sc(program, max_states=3)
        assert exc.value.limit_name == "state"
        assert exc.value.limit == 3

    def test_stats_populated(self):
        result = enumerate_sc(parse_litmus(DEKKER))
        assert result.stats.explored > 0
        assert result.stats.complete_runs > 0


class TestSymmetry:
    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_outcomes_invariant_under_thread_renaming(self, program):
        renamed = replace(program, thread_names=tuple(f"T{n}" for n in program.thread_names))
        back = dict(zip(renamed.thread_names, program.thread_names))
        mapped = {
            (tuple((back[t], r, v) for t, r, v in o.registers), o.memory)
            for o in enumerate_sc(renamed).outcomes
        }
        assert mapped == {(o.registers, o.memory) for o in enumerate_sc(program).outcomes}

    def test_outcomes_invariant_under_thread_swap(self):
        program = parse_litmus(DEKKER)
        swapped = replace(
            program,
            threads=program.threads[::-1],
            assertion=Assertion("exists", MemAtom("x", 1)),
        )

        def canon(result):
            shapes = set()
            for o in result.outcomes:
                groups: dict[str, list[tuple[str, int]]] = {}
                for t, r, v in o.registers:
                    groups.setdefault(t, []).append((r, v))
                shapes.add((tuple(sorted(tuple(sorted(g)) for g in groups.values())), o.memory))
            return shapes

        assert canon(enumerate_sc(swapped)) == canon(enumerate_sc(program))


class TestInterleavingCount:
    @given(programs(max_threads=1, with_cas=False))
    @settings(max_examples=40, deadline=None)
    def test_single_thread_has_one_outcome(self, program):
        assert len(enumerate_sc(program).outcomes) == 1


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_matches_reference_interleaver(self, program):
        result = enumerate_sc(program)
        assert result.outcomes == sc_outcomes(program)

    @given(programs())
    @settings(max_examples=25, deadline=None)
    def test_repeat_runs_agree(self, program):
        assert enumerate_sc(program).outcomes == enumerate_sc(program).outcomes
