"""The SC/TSO machine, under both of its models: SC is the machine whose
stores commit at once, TSO the one whose stores wait in a FIFO buffer.

Frozen outcome sets below come from support.py's two oracles: sc_outcomes,
which runs every interleaving on one shared memory, and tso_search, which
searches the store-buffer machine on plain tuples.  The machine is reached
only through enumerate_sc and enumerate_tso, so buffer mechanics are pinned
by outcome sets, witness traces and explored counts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings

from memlit import operational
from memlit.dsl import parse_litmus
from memlit.model import (
    Assertion,
    Kind,
    MemAtom,
    Outcome,
    ResourceLimitError,
    eval_assertion,
    with_fences_after_stores,
)
from memlit.operational import enumerate_sc, enumerate_tso

from support import CORPUS_DIR, ladder, programs, reg_pairs, sc_outcomes, tso_search, with_cas_kind

RUN = {"sc": enumerate_sc, "tso": enumerate_tso}
MODELS = pytest.mark.parametrize("model", list(RUN))

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

DEKKER_FENCED = """\
name: dekker_fenced
init: x = 0 y = 0
thread P0:
  store x 1
  fence seq_cst
  r1 = load y
thread P1:
  store y 1
  fence seq_cst
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


class TestFrozenPrograms:
    @pytest.mark.parametrize(
        "model, pairs, verdict",
        [("sc", {(0, 1), (1, 0), (1, 1)}, "forbidden"), ("tso", {(0, 0), (0, 1), (1, 0), (1, 1)}, "allowed")],
        ids=list(RUN),
    )
    def test_dekker_both_zero_only_under_tso(self, model, pairs, verdict):
        program = parse_litmus(DEKKER)
        result = RUN[model](program)
        assert reg_pairs(result) == pairs
        assert eval_assertion(program.assertion, result).kind == verdict

    def test_mfence_restores_dekker(self):
        program = parse_litmus(DEKKER_FENCED)
        result = enumerate_tso(program)
        assert reg_pairs(result) == {(0, 1), (1, 0), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    @pytest.mark.parametrize("order", ["acquire", "release", "acq_rel"])
    def test_weaker_fences_do_not_wait(self, order):
        # Only fence seq_cst is an mfence (test_mfence_restores_dekker): a
        # weaker fence lets the load run while the thread's store is buffered.
        program = parse_litmus(DEKKER_FENCED.replace("fence seq_cst", f"fence {order}"))
        result = enumerate_tso(program)
        assert reg_pairs(result) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "allowed"

    @MODELS
    def test_message_passing_stays_ordered(self, model):
        # Stores leave the buffer in order and loads are never reordered,
        # so TSO adds nothing to message passing.
        program = parse_litmus(MESSAGE_PASSING)
        result = RUN[model](program)
        assert reg_pairs(result, ("P1", "r1"), ("P1", "r2")) == {(0, 0), (0, 1), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    def test_forwarding_sees_own_newest_store(self):
        program = parse_litmus(
            "name: fwd\ninit: x = 0\nthread P0:\n"
            "  store x 1\n  store x 2\n  r1 = load x\nforall: P0:r1 = 2\n"
        )
        result = enumerate_tso(program)
        assert {o.register("P0", "r1") for o in result.outcomes} == {2}
        assert eval_assertion(program.assertion, result).kind == "holds"

    def test_forwarding_hides_other_threads_write(self):
        # Once P0 has buffered x=1 its loads cannot see x=0 again, but a
        # dequeue followed by P1's write can still surface x=2.
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\n  r1 = load x\n"
            "thread P1:\n  store x 2\nexists: P0:r1 = 1\n"
        )
        result = enumerate_tso(program)
        assert {o.register("P0", "r1") for o in result.outcomes} == {1, 2}

    def test_locked_rmw_publishes_earlier_stores(self):
        # The exchange drains x = 1 to memory before it writes y, so a reader
        # that sees y = 1 sees x = 1 too.
        program = parse_litmus(
            "name: t\ninit: x = 0 y = 0\nthread P0:\n  store x 1\n  r1 = exchange y 1\n"
            "thread P1:\n  r2 = load y\n  r3 = load x\nexists: P1:r2 = 1 /\\ P1:r3 = 0\n"
        )
        result = enumerate_tso(program)
        assert reg_pairs(result, ("P1", "r2"), ("P1", "r3")) == {(0, 0), (0, 1), (1, 1)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"

    def test_memory_updates_are_fifo(self):
        program = parse_litmus(
            "name: t\ninit: x = 0\nthread P0:\n  store x 1\n  store x 2\n"
            "thread P1:\n  r1 = load x\n  r2 = load x\nexists: P1:r1 = 2 /\\ P1:r2 = 1\n"
        )
        result = enumerate_tso(program)
        pairs = reg_pairs(result, ("P1", "r1"), ("P1", "r2"))
        assert pairs == {(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}
        assert eval_assertion(program.assertion, result).kind == "forbidden"


class TestWeakCas:
    PROGRAM = """\
name: weak
init: x = 0
thread P0:
  r1 = cas_weak x 0 1
exists: x = 1
"""

    @MODELS
    def test_spurious_failure_branches(self, model):
        result = RUN[model](parse_litmus(self.PROGRAM))
        assert {o.location("x") for o in result.outcomes} == {0, 1}
        assert all(o.register("P0", "r1") == 0 for o in result.outcomes)

    @MODELS
    def test_spurious_failures_suppressed(self, model):
        result = RUN[model](with_cas_kind(parse_litmus(self.PROGRAM), Kind.CAS_STRONG))
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

    @MODELS
    def test_deterministic(self, model):
        result = RUN[model](parse_litmus(self.PROGRAM))
        (outcome,) = result.outcomes
        assert outcome.format() == "P0:r1=10 P0:r2=15 P0:r3=14 | x=14"
        assert result.stats.complete_runs == 1

    @MODELS
    def test_register_operands_read_their_own_registers(self, model):
        # Each operand names a different slot, and P1 reuses P0's register names.
        program = parse_litmus(
            "name: operands\ninit: x = 1 y = 2 w = 5\nthread P0:\n  r1 = load x\n  r2 = load y\n  store z r2\n"
            "  r3 = fetch_add z r1\n  r4 = exchange x r3\nthread P1:\n  r1 = load w\n  na_store v r1\nexists: z = 3\n"
        )
        (outcome,) = RUN[model](program).outcomes
        assert outcome.format() == "P0:r1=1 P0:r2=2 P0:r3=2 P0:r4=1 P1:r1=5 | v=5 w=5 x=2 y=2 z=3"

    @MODELS
    @given(programs(max_threads=1, with_cas=False))
    @settings(max_examples=40, deadline=None)
    def test_single_thread_has_one_outcome(self, model, program):
        assert len(RUN[model](program).outcomes) == 1


class TestLimits:
    @pytest.mark.parametrize("model, budget", [("sc", 3), ("tso", 5)])
    def test_state_budget(self, model, budget):
        with pytest.raises(ResourceLimitError) as exc:
            RUN[model](parse_litmus(DEKKER), max_states=budget)
        assert (exc.value.limit_name, exc.value.limit) == ("state", budget)

    @MODELS
    def test_never_reports_races(self, model):
        assert RUN[model](parse_litmus(DEKKER)).racy is False

    @MODELS
    def test_stats_populated(self, model):
        result = RUN[model](parse_litmus(DEKKER))
        assert result.stats.explored > 0
        assert result.stats.complete_runs > 0


class TestSymmetry:
    @MODELS
    @given(programs())
    @settings(max_examples=60, deadline=None)
    def test_outcomes_invariant_under_thread_renaming(self, model, program):
        run = RUN[model]
        renamed = replace(program, thread_names=tuple(f"T{n}" for n in program.thread_names))
        back = dict(zip(renamed.thread_names, program.thread_names))
        mapped = {(tuple((back[t], r, v) for t, r, v in o.registers), o.memory) for o in run(renamed).outcomes}
        assert mapped == {(o.registers, o.memory) for o in run(program).outcomes}

    @MODELS
    def test_outcomes_invariant_under_thread_swap(self, model):
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

        assert canon(RUN[model](swapped)) == canon(RUN[model](program))


class TestWitnessTraces:
    def test_dekker_witness_dequeues_after_loads(self):
        program = parse_litmus(DEKKER)
        result = enumerate_tso(program)
        target = next(
            o
            for o in result.outcomes
            if o.register("P0", "r1") == 0 and o.register("P1", "r2") == 0
        )
        trace = result.witnesses[target]
        loads = [i for i, s in enumerate(trace) if s.kind == "exec" and "load" in s.text]
        dequeues = [i for i, s in enumerate(trace) if s.kind == "dequeue"]
        assert len(loads) == 2 and len(dequeues) == 2
        assert max(loads) < min(dequeues)


class TestCorpusDiscipline:
    def test_fencing_every_store_collapses_to_sc(self, corpus):
        for entry in corpus.values():
            fenced = with_fences_after_stores(entry.program)
            assert enumerate_tso(fenced).outcomes == entry.results["sc"].outcomes, entry.program.name

    def test_extra_outcomes_only_on_store_buffering_shapes(self, corpus):
        gains = {
            name
            for name, entry in corpus.items()
            if entry.results["sc"].outcomes < entry.results["tso"].outcomes
        }
        assert gains == {"dekker", "dekker_relaxed", "forall_mutex", "sb_fence_one", "sb_rel_acq"}


class TestStateSpace:
    """Explored counts on the synthetic ladder: a change to deduplication shows here."""

    @pytest.mark.parametrize(
        "model, lengths, explored",
        [("sc", (6, 6), 365), ("tso", (6, 6), 2_154), ("sc", (4, 4, 4), 3_489), ("tso", (4, 4, 4), 24_467)],
        ids=["sc-2x6", "tso-2x6", "sc-3x4", "tso-3x4"],
    )
    def test_ladder_explored_counts(self, model, lengths, explored):
        assert RUN[model](parse_litmus(ladder(lengths))).stats.explored == explored

    @MODELS
    def test_budget_of_exactly_the_explored_count_decides(self, model):
        run = RUN[model]
        program = parse_litmus(ladder((4, 4)))
        result = run(program)
        explored = result.stats.explored
        at_budget = run(program, max_states=explored)
        assert at_budget.outcomes == result.outcomes and at_budget.stats.explored == explored
        with pytest.raises(ResourceLimitError):
            run(program, max_states=explored - 1)

    @settings(max_examples=60, deadline=None)
    @given(programs())
    def test_sc_witnesses_never_dequeue(self, program):
        # SC is the machine whose stores commit at once: no store is ever
        # buffered, so no witness holds a dequeue step.
        for trace in enumerate_sc(program).witnesses.values():
            assert all(step.kind == "exec" for step in trace)


# One corpus file and one ladder rung, each under sc and tso.
TRACED = {"dekker": (CORPUS_DIR / "dekker.lit").read_text(), "ladder-2x3": ladder((2, 3))}
TRACED_CASES = pytest.mark.parametrize("model, name", [(m, n) for m in RUN for n in TRACED])


class TestTracesBuiltOnRead:
    """sc and tso witnesses are a read-only mapping: the search keeps each
    outcome's path, and a trace is built from it on its first read."""

    @staticmethod
    def run(model, name):
        return RUN[model](parse_litmus(TRACED[name]))

    @TRACED_CASES
    def test_keys_len_and_membership_are_the_outcomes(self, model, name):
        result = self.run(model, name)
        witnesses = result.witnesses
        assert set(witnesses) == set(witnesses.keys()) == result.outcomes
        assert len(witnesses) == len(result.outcomes) > 1
        assert all(o in witnesses for o in result.outcomes)
        stranger = Outcome((("P0", "r1", 9),), (("x", 9),))
        assert stranger not in witnesses and witnesses.get(stranger) is None
        with pytest.raises(KeyError):
            witnesses[stranger]
        built = dict(witnesses)
        assert built.keys() == result.outcomes and all(built[o] is witnesses[o] for o in built)
        with pytest.raises(TypeError):
            witnesses[stranger] = ()

    @TRACED_CASES
    def test_each_trace_runs_every_instruction_once(self, model, name):
        result = self.run(model, name)
        program = parse_litmus(TRACED[name])
        for trace in result.witnesses.values():
            ran = [step.thread for step in trace if step.kind == "exec"]
            assert sorted(ran) == [t for t, body in enumerate(program.threads) for _ in body]

    @TRACED_CASES
    def test_a_trace_is_built_once_on_its_first_read(self, model, name, monkeypatch):
        calls = []
        trace_step = operational._trace_step
        monkeypatch.setattr(operational, "_trace_step", lambda *args: calls.append(args) or trace_step(*args))
        result = self.run(model, name)
        assert calls == []
        outcome = result.sorted_outcomes()[0]
        trace = result.witnesses[outcome]
        assert trace and len(calls) == len({id(s) for s in trace})
        assert result.witnesses[outcome] is trace
        assert len(calls) == len({id(s) for s in trace})

    @TRACED_CASES
    def test_read_order_changes_neither_text_nor_sharing(self, model, name):
        order = self.run(model, name).sorted_outcomes()
        forward = self.run(model, name).witnesses
        backward = self.run(model, name).witnesses
        read_forward = [forward[o] for o in order]
        read_backward = [backward[o] for o in reversed(order)][::-1]
        assert read_forward == read_backward

        def sharing(traces):
            """Where each step object first appears, as (trace, step) positions."""
            first: dict[int, tuple[int, int]] = {}
            return [[first.setdefault(id(s), (i, j)) for j, s in enumerate(trace)] for i, trace in enumerate(traces)]

        assert sharing(read_forward) == sharing(read_backward)
        assert len({id(s) for trace in read_forward for s in trace}) < sum(map(len, read_forward))


class TestPackedState:
    """A state is one int of 8-bit value fields, pcs, buffer counts and
    buffer entries: these programs fill fields to their ends, and each run
    must agree with the oracles, which keep no such layout, on its outcomes
    and, under TSO, on how many states it reaches."""

    @staticmethod
    def agree(text):
        program = parse_litmus(text)
        sc, tso = enumerate_sc(program), enumerate_tso(program)
        assert sc.outcomes == sc_outcomes(program)
        assert (tso.outcomes, tso.stats.explored) == tso_search(program)
        return sc, tso

    def test_eight_stores_fill_the_buffer(self):
        # P0's buffer holds all 8 stores at once and its pc reaches 8; each
        # dequeue must publish the oldest entry and move the rest down.
        stores = "".join(f"  store {'xyz'[i % 3]} {[1, 2, 3, 255, 4, 5, 6, 7][i]}\n" for i in range(8))
        text = (
            "name: t\ninit: x = 0 y = 0 z = 0\nthread P0:\n" + stores
            + "thread P1:\n  r1 = load z\n  r2 = load x\nexists: x = 0\n"
        )
        sc, tso = self.agree(text)
        assert {o.memory for o in tso.outcomes} == {(("x", 6), ("y", 7), ("z", 5))}
        # The search runs P0 first, so its first witness buffers all 8 stores
        # before anything dequeues.
        first = next(iter(tso.witnesses.values()))
        kinds = ["buffer" if step.text.endswith(" -> buffer") else step.kind for step in first]
        assert kinds.index("dequeue") == 8 and kinds[:8] == ["buffer"] * 8

    def test_255_beside_another_location(self):
        sc, tso = self.agree(
            "name: t\ninit: x = 0 y = 0\nthread P0:\n  store x 255\n  store y 255\n  r1 = load x\n"
            "thread P1:\n  r2 = load y\n  store x 1\n  r3 = load x\nexists: x = 255\n"
        )
        assert {(o.location("x"), o.location("y")) for o in tso.outcomes} == {(1, 255), (255, 255)}

    def test_fetch_add_and_fetch_sub_wrap(self):
        # 255 + 1 and 0 - 1 stay in their own fields: the neighbour is untouched.
        sc, tso = self.agree(
            "name: t\ninit: x = 255 y = 0 z = 7\nthread P0:\n  r1 = fetch_add x 1\n  r2 = fetch_sub y 1\n"
            "thread P1:\n  r3 = load y\n  r4 = load x\nexists: x = 0\n"
        )
        for result in (sc, tso):
            assert {o.memory for o in result.outcomes} == {(("x", 0), ("y", 255), ("z", 7))}
            assert reg_pairs(result, ("P0", "r1"), ("P0", "r2")) == {(255, 0)}

    def test_cas_weak_after_a_drain(self):
        # The locked cas_weak drains x = 1 first, so it may succeed on it.
        sc, tso = self.agree(
            "name: t\ninit: x = 0 y = 0\nthread P0:\n  store y 3\n  store x 1\n  r1 = cas_weak x 1 2\n"
            "thread P1:\n  r2 = load x\n  r3 = load y\nexists: x = 2\n"
        )
        assert {o.location("x") for o in tso.outcomes} == {1, 2}
        assert {o.register("P0", "r1") for o in tso.outcomes} == {1}


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(programs())
    def test_matches_reference_interleaver(self, program):
        result = enumerate_sc(program)
        assert result.outcomes == sc_outcomes(program)

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_matches_reference_search(self, program):
        # The oracle keeps each state as plain tuples and counts the distinct
        # ones, so equal counts mean the packed layout neither merges two
        # states nor splits one.
        result = enumerate_tso(program)
        assert (result.outcomes, result.stats.explored) == tso_search(program)

    def test_matches_reference_search_on_the_corpus(self, corpus):
        for entry in corpus.values():
            result = entry.results["tso"]
            assert (result.outcomes, result.stats.explored) == tso_search(entry.program), entry.path

    @settings(max_examples=100, deadline=None)
    @given(programs())
    def test_contains_every_sc_outcome(self, program):
        assert enumerate_sc(program).outcomes <= enumerate_tso(program).outcomes

    @MODELS
    @given(programs())
    @settings(max_examples=25, deadline=None)
    def test_repeat_runs_agree(self, model, program):
        assert RUN[model](program).outcomes == RUN[model](program).outcomes
