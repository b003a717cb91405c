"""Mutation checks: small faults in src/ that the named tests must catch.

    python tests/mutants.py

Each mutant replaces one exact piece of text in one file under src/memlit.
For each mutant, in turn, a fresh copy of src/ is made in a temporary
directory, the mutant is applied to it, and the mutant's tests run against
that copy with pytest.  A mutant is killed when some of its tests fail.  The
named tests first run once against an unmutated copy, and must pass there.

Exits 0 when every mutant is killed, and 1 when a mutant survives, when its
old text is not found exactly once, or when its tests fail unmutated.
pytest does not collect this file.

When a change deletes the code a mutant targets, retire the mutant and say
why; a mutant that survives is a gap in the tests, not an entry to drop.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

AXIOMATIC = "tests/test_axiomatic.py"
SINGLE = f"{AXIOMATIC}::TestSingleAxiom"
ENUMERATION = f"{AXIOMATIC}::TestEnumeration"
VALIDATION = f"{AXIOMATIC}::TestCandidateValidation"
ORACLE = f"{AXIOMATIC}::TestAgainstEnumeratingOracle"
REFERENCE = f"{AXIOMATIC}::TestAgainstReference"
OPERATIONAL = "tests/test_operational.py"
FROZEN = f"{OPERATIONAL}::TestFrozenPrograms"
STATE_SPACE = f"{OPERATIONAL}::TestStateSpace"
PACKED = f"{OPERATIONAL}::TestPackedState"
TRACES_ON_READ = f"{OPERATIONAL}::TestTracesBuiltOnRead"
MESSAGE_PASSING = f"{AXIOMATIC}::TestSynchronizesWith::test_message_passing_needs_a_releasing_and_an_acquiring_order"
WITNESS_DOT = "tests/test_dot.py::TestEnumeratorWitnessesDrawnWithoutRecheck"
HB_PER_SW_INPUT = f"{AXIOMATIC}::TestHbPerSwInput"
SW_INPUT_ORACLE = f"{ORACLE}::test_on_sw_input_programs"
CANDIDATE_SPACE = f"{AXIOMATIC}::TestCandidateSpace"
COHERENT_SOURCES = f"{AXIOMATIC}::TestCoherentSources"
EVERY_READER = "tests/test_model.py::test_every_reader_rejects_what_validate_reports_first"
PACKED_OUTCOMES = "tests/test_model.py::TestPackedOutcomes"

# (file under src/memlit, exact old text, new text, tests that must kill it)
MUTANTS: list[tuple[str, str, str, tuple[str, ...]]] = [
    (
        # An exchange with a literal operand writes it at once, before its
        # read is grounded.
        "axiomatic.py",
        "                    if event.reads_memory or source is not None:",
        "                    if (event.reads_memory and instr.kind is not Kind.EXCHANGE) or source is not None:",
        (f"{ENUMERATION}::test_exchange_writes_only_once_its_read_is_grounded",),
    ),
    (
        # A successful CAS is not checked against expected.
        "axiomatic.py",
        "for c, expected, succeeded in plan.cas):",
        "for c, expected, succeeded in plan.cas if not succeeded):",
        (f"{SINGLE}::test_a_cas_takes_the_branch_its_read_selects",),
    ),
    (
        # A failed cas_strong may read expected, as a cas_weak may.
        "axiomatic.py",
        "                    elif instr.kind is Kind.CAS_STRONG:",
        "                    elif False:",
        (f"{SINGLE}::test_a_cas_takes_the_branch_its_read_selects",),
    ),
    (
        # A failed cas_weak may not read expected: the plan checks every failed CAS.
        "axiomatic.py",
        "                    elif instr.kind is Kind.CAS_STRONG:",
        "                    else:",
        (f"{SINGLE}::test_a_cas_takes_the_branch_its_read_selects", f"{ENUMERATION}::test_weak_cas_spurious_toggle"),
    ),
    (
        # A register operand takes its first definition, not its latest.
        "axiomatic.py",
        "                    last_def[name, instr.dest] = e",
        "                    last_def.setdefault((name, instr.dest), e)",
        (f"{ENUMERATION}::test_store_uses_the_latest_definition_of_its_register",),
    ),
    (
        # check_axioms judges NO-THIN-AIR without comparing the candidate's
        # values with the grounded ones.
        "axiomatic.py",
        "        (e.value_read, e.value_written) != (grounded[0].get(e.id), grounded[1].get(e.id)) for e in candidate.events",
        "        False for e in candidate.events",
        (f"{SINGLE}::test_a_value_the_program_does_not_write_is_thin_air",),
    ),
    (
        # A release sequence is not extended by another thread's RMW.
        "axiomatic.py",
        "(frame.rmw >> z & 1 or frame.thread[z] == frame.thread[x])",
        "frame.thread[z] == frame.thread[x]",
        (f"{AXIOMATIC}::TestSynchronizesWith::test_read_of_another_threads_rmw_syncs_with_head",),
    ),
    (
        # An sw edge that closes an hb cycle is not flagged.
        "axiomatic.py",
        "            cyclic = True",
        "            cyclic = False",
        (f"{SINGLE}::test_exactly_the_named_axiom_fails",),
    ),
    (
        # A candidate whose rf pair disagrees on the value is judged.
        "axiomatic.py",
        '            raise ValueError(f"rf pair ({w} -> {r}) disagrees on the value")',
        "            pass",
        (f"{AXIOMATIC}::TestCandidateValidation::test_rf_value_must_agree",),
    ),
    (
        # A fence event carrying a value is judged.
        "axiomatic.py",
        "        if e.value_read is not None and not e.reads_memory:",
        "        if e.value_read is not None and e.kind is EventKind.WRITE:",
        (f"{AXIOMATIC}::TestCandidateValidation::test_fence_carries_no_value",),
    ),
    (
        # A load forwards the oldest buffered store to its location, not the newest.
        "operational.py",
        "                for k in range(n):  # forward the newest own store",
        "                for k in reversed(range(n)):",
        (f"{FROZEN}::test_forwarding_sees_own_newest_store",),
    ),
    (
        # A locked RMW leaves its thread's buffer undrained.
        "operational.py",
        "                if n:  # each entry, oldest first, reaches memory; then the buffer fields clear",
        "                if False:",
        (f"{FROZEN}::test_locked_rmw_publishes_earlier_stores",),
    ),
    (
        # mfence runs while its thread's buffer holds stores.
        "operational.py",
        "if not (n and op == _MFENCE):",
        "if not (False and op == _MFENCE):",
        (f"{FROZEN}::test_mfence_restores_dekker",),
    ),
    (
        # Every fence is an mfence: acquire, release and acq_rel fences wait
        # for their thread's buffer too.
        "operational.py",
        "            if op == _FENCE and instr.order is MemoryOrder.SEQ_CST:",
        "            if op == _FENCE:",
        (f"{FROZEN}::test_weaker_fences_do_not_wait",),
    ),
    (
        # A dequeue publishes the newest buffered store instead of the oldest.
        "operational.py",
        "            entry = buffer & entry_mask\n            rest = buffer >> entry_bits\n",
        "            entry = buffer >> (n - 1) * entry_bits\n            rest = buffer - (entry << (n - 1) * entry_bits)\n",
        (f"{FROZEN}::test_memory_updates_are_fifo",),
    ),
    (
        # A dequeue clears the oldest entry but leaves the rest in their slots,
        # so the next dequeue publishes the empty slot.
        "operational.py",
        "            rest = buffer >> entry_bits\n",
        "            rest = buffer - entry\n",
        (f"{PACKED}::test_eight_stores_fill_the_buffer",),
    ),
    (
        # A register operand reads the slot before its own.
        "operational.py",
        "            operand = literal if source is None else state >> source & _BYTE",
        "            operand = literal if source is None else state >> source - 8 & _BYTE",
        (f"{OPERATIONAL}::TestSingleThread::test_register_operands_read_their_own_registers",),
    ),
    (
        # The search visits a successor again although it is already in seen.
        "operational.py",
        "            if succ not in seen:",
        "            if True:",
        (f"{STATE_SPACE}::test_ladder_explored_counts",),
    ),
    (
        # A buffered thread is read as unbuffered: no load forwards, no
        # mfence waits and no store ever leaves its buffer.
        "operational.py",
        "state >> count_shift & count_mask if count_mask else 0",
        "0",
        (f"{FROZEN}::test_dekker_both_zero_only_under_tso",),
    ),
    (
        # A witness keeps the search's live path, not a copy of the path that
        # first reached its outcome: read after the search, each trace is
        # built from the last path the search held.
        "operational.py",
        "            paths[state & outcome_mask] = tuple(path)",
        "            paths[state & outcome_mask] = path",
        (f"{TRACES_ON_READ}::test_each_trace_runs_every_instruction_once",),
    ),
    (
        # cas_weak never fails spuriously.
        "operational.py",
        "if op == _CAS_WEAK:",
        "if False:",
        (f"{OPERATIONAL}::TestWeakCas::test_spurious_failure_branches",),
    ),
    (
        # A witness trace marks stores as buffered under SC.
        "operational.py",
        '(" -> buffer" if buffered else "")',
        '" -> buffer"',
        ("tests/test_witnesses.py::test_witnesses_match_the_table",),
    ),
    (
        # SC-FENCE-3 counts a fence's own earlier writes against its own later
        # reads: its edge orders the fence before itself.
        "axiomatic.py",
        "                if x != e and before & later & ~(1 << b):",
        "                if before & later & ~(1 << b):",
        (f"{ORACLE}::test_on_corpus_and_s_edge_programs",),
    ),
    (
        # A read may observe a write that happens after it.
        "axiomatic.py",
        "        if hb[r] >> w & 1:\n            return True",
        "        if False:\n            return True",
        (f"{REFERENCE}::test_every_axiom_seen_on_corpus_and_single_axiom_programs",),
    ),
    (
        # A read may observe a write that another write to its location
        # happens between, in check_axioms, on the enumerator's sw path and
        # in the filter of rf options alike.
        "axiomatic.py",
        "            if hb[c] >> r & 1:\n                return True",
        "            if False:\n                return True",
        (f"{REFERENCE}::test_every_axiom_seen_on_corpus_and_single_axiom_programs", f"{CANDIDATE_SPACE}::test_ladder_counts"),
    ),
    (
        # SC-READ lets a seq_cst read observe a non-seq_cst write that happens before the last seq_cst one.
        "axiomatic.py",
        "            forced = hb[w] & others",
        "            forced = 0",
        (f"{SINGLE}::test_exactly_the_named_axiom_fails",),
    ),
    (
        # check_axioms never checks the SC-READs that no S edge states.
        "axiomatic.py",
        '            if _sc_read_broken(frame, s, disjunctions):\n                violated.add("SC-READ")',
        '            if False:\n                violated.add("SC-READ")',
        (f"{REFERENCE}::test_every_axiom_seen_on_corpus_and_single_axiom_programs",),
    ),
    (
        # enumerate_cxx11 keeps every S it tries, unchecked against the SC-READs no S edge states.
        "axiomatic.py",
        "                    if disjunctions and _sc_read_broken(frame, s_order, disjunctions):",
        "                    if False:",
        (f"{AXIOMATIC}::TestCandidateSpace::test_disjunctive_sc_read_is_judged_on_every_s",),
    ),
    (
        # enumerate_cxx11 tries only the first S, even where a disjunctive SC-READ can reject it.
        "axiomatic.py",
        "s_orders = ordered_extensions(preds) if disjunctions else (first,)",
        "s_orders = (first,)",
        (f"{AXIOMATIC}::TestCandidateSpace::test_disjunctive_sc_read_is_judged_on_every_s",),
    ),
    (
        # check_axioms never reports S-EMBED.
        "axiomatic.py",
        '            violated.add("S-EMBED")',
        "            pass",
        (f"{SINGLE}::test_exactly_the_named_axiom_fails", f"{ENUMERATION}::test_s_embed_forbids_dekker"),
    ),
    (
        # S-EMBED leaves hb out: S need not keep sb between seq_cst events.
        "axiomatic.py",
        "        for b in _bits(hb[a] & frame.sc_mask):",
        "        for b in _bits(0):",
        (f"{ENUMERATION}::test_s_embed_forbids_dekker", f"{ORACLE}::test_on_corpus_and_s_edge_programs"),
    ),
    (
        # S-EMBED leaves mo out: S may order two seq_cst writes against mo.
        "axiomatic.py",
        "        preds[e] |= mo[li].before[e] & frame.sc_mask",
        "        pass",
        (f"{ORACLE}::test_on_corpus_and_s_edge_programs",),
    ),
    (
        # The first S takes the largest ready event, not the smallest: a
        # witness no longer carries the first consistent S.
        "relation.py",
        "        for e in left:",
        "        for e in reversed(left):",
        (
            "tests/test_relation.py::test_first_extension_is_the_first_ordered_extension",
            f"{AXIOMATIC}::TestCandidateSpace::test_witness_s_is_the_first_consistent_order",
        ),
    ),
    (
        # SC-FENCE-2 is never reported.
        "axiomatic.py",
        '                add(("SC-FENCE-2", e, x))',
        "                pass",
        (f"{SINGLE}::test_exactly_the_named_axiom_fails",),
    ),
    (
        # An acq_rel fence synchronizes with itself through a release sequence it heads.
        "axiomatic.py",
        "sources = heads & ~(1 << fb)",
        "sources = heads",
        (f"{REFERENCE}::test_every_axiom_seen_on_corpus_and_single_axiom_programs",),
    ),
    (
        # enumerate_cxx11 shares its hb judgments across the rf maps of a
        # branching, although COHERENT-READ depends on rf.
        "axiomatic.py",
        "                by_heads: dict[tuple[int, ...], tuple[bool, list[int], bool, bool, dict[int, int]]] = {}",
        '                by_heads = shared.setdefault("by_heads", {})',
        (f"{HB_PER_SW_INPUT}::test_a_release_sequence_broken_in_mo_is_judged_per_mo", SW_INPUT_ORACLE),
    ),
    (
        # enumerate_cxx11 reuses an hb judgment for sw inputs that differ only
        # at the first sync read.
        "axiomatic.py",
        "                    judged = by_heads.get(heads)\n",
        "                    judged = by_heads.get(heads) or next((v for k, v in by_heads.items() if k[1:] == heads[1:]), None)\n",
        (f"{HB_PER_SW_INPUT}::test_a_release_sequence_broken_in_mo_is_judged_per_mo", SW_INPUT_ORACLE),
    ),
    (
        # A thread's second atomic write to a location counts as heading a
        # release sequence of its own: relseq.lit's relaxed overwrite of y
        # no longer carries the release store's head to P1's acquire load.
        "axiomatic.py",
        "        return len(writers) == len(self.atomic_writes)",
        "        return True",
        (f"{HB_PER_SW_INPUT}::test_heads_fixed_by_rf_on_the_corpus_and_release_acquire_ladders",
         "tests/test_acceptance.py::test_03_release_sequences"),
    ),
    (
        # The one-pass ground reads a rule's write, one it does not fix, as 0.
        "axiomatic.py",
        "        value = fixed.get(rf[r])\n",
        "        value = fixed.get(rf[r], 0)\n",
        (f"{ORACLE}::test_on_corpus_and_s_edge_programs",),
    ),
    (
        # enumerate_cxx11 skips HB-MO when sw has an edge.
        "axiomatic.py",
        "                if not ok or synced and _hb_mo_violated(mo, hb):",
        "                if not ok:",
        (f"{HB_PER_SW_INPUT}::test_hb_mo_is_judged_when_sw_has_an_edge", SW_INPUT_ORACLE),
    ),
    (
        # A location's final value comes from its highest-id write, not its mo-last one.
        "axiomatic.py",
        "key |= value_written[t.order[-1]] << shift",
        "key |= value_written[max(t.order)] << shift",
        (
            f"{ENUMERATION}::test_exchange_writes_only_once_its_read_is_grounded",
            f"{ORACLE}::test_on_corpus_and_s_edge_programs",
        ),
    ),
    (
        # execution_dot trusts an enumerator witness drawn for any program.
        "axiomatic.py",
        "    if known is None or known[0].program is not program:",
        "    if known is None:",
        (f"{WITNESS_DOT}::test_witness_drawn_for_another_program_is_checked",),
    ),
    (
        # execution_dot draws every candidate without the check.
        "axiomatic.py",
        "        frame = _checked_frame(program, candidate)\n        known = frame,",
        "        frame = _Frame(program, candidate.events)\n        known = frame,",
        (f"{WITNESS_DOT}::test_caller_built_bad_candidate_raises", f"{WITNESS_DOT}::test_replaced_witness_is_checked"),
    ),
    (
        # A witness's rf can be changed in place under its kernel frame.
        "axiomatic.py",
        "made = record[4] = events, MappingProxyType(rf)",
        "made = record[4] = events, rf",
        (f"{WITNESS_DOT}::test_witness_rf_and_mo_are_read_only",),
    ),
    (
        # A witness's mo can be changed in place under its kernel mo orders.
        "axiomatic.py",
        "mo_map = MappingProxyType({loc: t.order for loc, t in zip(frame.locations, mo)})",
        "mo_map = {loc: t.order for loc, t in zip(frame.locations, mo)}",
        (f"{WITNESS_DOT}::test_witness_rf_and_mo_are_read_only",),
    ),
    (
        # Witnesses carry nothing from the kernel, so each is checked again.
        "axiomatic.py",
        '    object.__setattr__(witness, "_kernel", (frame, mo))',
        "    pass",
        (f"{WITNESS_DOT}::test_witness_is_drawn_without_the_check",),
    ),
    (
        # A frame with an RMW counts as sync-free: RMW-IMMEDIATE may reject
        # the first mo with given last writes and accept a later one.
        "axiomatic.py",
        "        if not frame.rmw and not frame.sc_ids and not syncs:",
        "        if not frame.sc_ids and not syncs:",
        (f"{CANDIDATE_SPACE}::test_witness_is_the_first_consistent_candidate",),
    ),
    (
        # A frame with a seq_cst event counts as sync-free.
        "axiomatic.py",
        "        if not frame.rmw and not frame.sc_ids and not syncs:",
        "        if not frame.rmw and not syncs:",
        (f"{CANDIDATE_SPACE}::test_ladder_counts",),
    ),
    (
        # A frame with a possible sw edge counts as sync-free.
        "axiomatic.py",
        "        if not frame.rmw and not frame.sc_ids and not syncs:",
        "        if not frame.rmw and not frame.sc_ids:",
        (f"{CANDIDATE_SPACE}::test_ladder_counts", f"{HB_PER_SW_INPUT}::test_a_release_sequence_broken_in_mo_is_judged_per_mo"),
    ),
    (
        # A sync-free frame counts each skipped pair once, as if hb failed.
        "axiomatic.py",
        "bump(2 * skipped)",
        "bump(skipped)",
        (f"{CANDIDATE_SPACE}::test_ladder_counts",),
    ),
    (
        # The rf maps that take a dropped option add nothing to explored.
        "axiomatic.py",
        "        bump(doomed * pairs)",
        "        pass",
        (f"{CANDIDATE_SPACE}::test_ladder_counts", f"{COHERENT_SOURCES}::test_budget_edge_counts_the_doomed_maps"),
    ),
    (
        # Every rf map with a dropped option is counted as grounded, even
        # where register stores or a CAS can leave it ungrounded.
        "axiomatic.py",
        "        if plan.rules or plan.cas:",
        "        if False:",
        (f"{COHERENT_SOURCES}::test_doomed_maps_with_register_stores_are_ground_only_to_be_counted",),
    ),
    (
        # A sync-free frame visits the last mo with each last write, not the first.
        "axiomatic.py",
        "if all(p[-1] != o[-1] for p in orders[:i])]",
        "if all(p[-1] != o[-1] for p in orders[i + 1 :])]",
        (f"{CANDIDATE_SPACE}::test_witness_is_the_first_consistent_candidate",),
    ),
    (
        # A witness recipe reuses the record of the rf map before: its events and rf are that map's.
        "axiomatic.py",
        "            record: Optional[list] = None  # this rf map's part of its witnesses' recipes",
        "            record = next(reversed(recipes.values()))[0] if recipes else None",
        (f"{CANDIDATE_SPACE}::test_witness_is_the_first_consistent_candidate",),
    ),
    (
        # acq_rel does not release.
        "model.py",
        '    ACQ_REL = "acq_rel", "acq_rel", True, True',
        '    ACQ_REL = "acq_rel", "acq_rel", True, False',
        (f"{REFERENCE}::test_check_axioms_matches_pair_set_judge", MESSAGE_PASSING),
    ),
    (
        # acq_rel does not acquire.
        "model.py",
        '    ACQ_REL = "acq_rel", "acq_rel", True, True',
        '    ACQ_REL = "acq_rel", "acq_rel", False, True',
        (f"{REFERENCE}::test_check_axioms_matches_pair_set_judge", MESSAGE_PASSING),
    ),
    (
        # seq_cst does not acquire.
        "model.py",
        '    SEQ_CST = "seq_cst", "sc", True, True',
        '    SEQ_CST = "seq_cst", "sc", False, True',
        (f"{REFERENCE}::test_check_axioms_matches_pair_set_judge", MESSAGE_PASSING),
    ),
    (
        # na_store is atomic.
        "model.py",
        '    NA_STORE = "na_store", ("location", "operand"), EventKind.WRITE, False, None',
        '    NA_STORE = "na_store", ("location", "operand"), EventKind.WRITE, True, None',
        (f"{AXIOMATIC}::TestRaces::test_unsynchronized_non_atomics_race", f"{ENUMERATION}::test_racy_flag"),
    ),
    (
        # fetch_add does not wrap at 256: the packed machine carries the 9th
        # bit into the next field.
        "model.py",
        "lambda old, operand: (old + operand) & MAX_VALUE",
        "lambda old, operand: old + operand",
        (f"{PACKED}::test_fetch_add_and_fetch_sub_wrap",),
    ),
    (
        # The backends hold a literal outside a byte.
        "model.py",
        "    return value.__class__ is int and 0 <= value <= MAX_VALUE",
        "    return value.__class__ is int",
        (EVERY_READER,),
    ),
    (
        # An instruction without exactly its kind's fields reaches the backends.
        "model.py",
        "                if shape is not None:",
        "                if False:",
        (EVERY_READER,),
    ),
    (
        # An init location that is not a str reaches the backends.
        "model.py",
        "        if loc.__class__ is not str:",
        "        if False:",
        (EVERY_READER,),
    ),
    (
        # An instruction's location or dest that is not a str reaches the backends.
        "model.py",
        "                if name is not None and name.__class__ is not str:",
        "                if False:",
        (EVERY_READER,),
    ),
    (
        # A non-atomic access may carry a memory order, which cxx11 alone reads.
        "model.py",
        "                elif not kind.atomic:",
        "                elif False:",
        (EVERY_READER,),
    ),
    (
        # A register operand need not be assigned before it is read.
        "model.py",
        "                if operand not in assigned:",
        "                if False:",
        (EVERY_READER,),
    ),
    (
        # A packed outcome's register is read from the slot above its own.
        "model.py",
        "tuple((t, r, key >> s & MAX_VALUE) for (t, r), s in self._registers)",
        "tuple((t, r, key >> s + 8 & MAX_VALUE) for (t, r), s in self._registers)",
        (f"{PACKED_OUTCOMES}::test_on_random_programs", f"{FROZEN}::test_dekker_both_zero_only_under_tso"),
    ),
    (
        # The outcome layout puts the registers first.  Every backend packs
        # and decodes alike and stays right, but outcomes no longer have
        # the documented layout.
        "model.py",
        "        return tuple(range(0, registers_base, 8)), tuple(range(registers_base, width, 8)), width",
        "        return tuple(range(width - registers_base, width, 8)), tuple(range(0, width - registers_base, 8)), width",
        (f"{PACKED_OUTCOMES}::test_on_the_corpus", f"{PACKED_OUTCOMES}::test_on_random_programs"),
    ),
    (
        # A compiled Not keeps its operand's value.
        "model.py",
        "        return lambda key: not operand(key)",
        "        return lambda key: operand(key)",
        (
            "tests/test_model.py::TestOutcomesAndAssertions::test_satisfies_connectives",
            f"{PACKED_OUTCOMES}::test_eval_assertion_matches_the_oracle",
        ),
    ),
    (
        # A conjunction drops an atom that contradicts another on its field.
        "model.py",
        " or wanted.setdefault(shift, value) != value:",
        ":",
        (f"{PACKED_OUTCOMES}::test_eval_assertion_matches_the_oracle_on_conjunctions",),
    ),
    (
        # A line after a condition that fails to parse is one more instruction.
        "dsl.py",
        "            if condition_seen:",
        "            if assertion is not None:",
        ("tests/test_dsl.py::test_diagnostics_pinned",),
    ),
    (
        # A line's byte offset counts the characters before it, not their bytes.
        "dsl.py",
        'len(line) + 1 for line in self.data.split(b"\\n")',
        "len(line) + 1 for line in self.lines",
        ("tests/test_dsl.py::test_diagnostics_pinned", "tests/test_dsl.py::test_spans_land_on_their_bytes_in_mutated_corpus"),
    ),
    (
        # A lone slash or backslash is a token, not a bad character.
        "dsl.py",
        '0123456789_=:()!")',
        '0123456789_=:()!/\\\\")',
        ("tests/test_dsl.py::test_diagnostics_pinned",),
    ),
    (
        # fetch_sub does not wrap below 0.
        "model.py",
        "lambda old, operand: (old - operand) & MAX_VALUE",
        "lambda old, operand: old - operand",
        (
            f"{REFERENCE}::test_value_mutants_match_pair_set_judge",
            "tests/test_model.py::TestRmwArithmetic::test_sub_wraps_below_zero",
        ),
    ),
    (
        # check_axioms and execution_dot give each sw edge backwards.
        "axiomatic.py",
        "return frozenset((a, b) for b, sources in sw.items() for a in _bits(sources))",
        "return frozenset((b, a) for b, sources in sw.items() for a in _bits(sources))",
        (
            f"{AXIOMATIC}::TestSynchronizesWith::test_release_write_to_acquire_read",
            "tests/test_witnesses.py::test_witnesses_match_the_table",
        ),
    ),
    (
        # A locked RMW leaves its thread's buffered stores queued in trace_dot,
        # so a later dequeue's prop edge starts at a drained store.
        "dot.py",
        "            pending.pop(step.thread, None)",
        "            pass",
        ("tests/test_dot.py::TestTraceDot::test_locked_rmw_drains_the_stores_before_it",),
    ),
]

# Each of _checked_frame's other raises made a no-op: (its raise statement, the test that must see it).
MUTANTS += [
    ("axiomatic.py", raise_statement, "pass", (f"{VALIDATION}::{test}",))
    for raise_statement, test in (
        (
            'raise ValueError("candidate does not match the program\'s event layout")',
            "test_every_function_that_reads_a_candidate_checks_it",
        ),
        (
            'raise ValueError("events must be ordered by id")',
            "test_events_must_be_id_ordered",
        ),
        (
            'raise ValueError(f"{e.kind.name.lower()} events carry no written value")',
            "test_fence_carries_no_value",
        ),
        (
            'raise ValueError(f"rf pair ({w} -> {r}) is not write-to-read")',
            "test_rf_must_point_at_a_write",
        ),
        (
            'raise ValueError("an event cannot read from itself")',
            "test_rmw_cannot_read_itself",
        ),
        (
            'raise ValueError(f"rf pair ({w} -> {r}) mixes locations")',
            "test_rf_must_stay_at_one_location",
        ),
        (
            'raise ValueError("rf must give every read exactly one source")',
            "test_every_read_needs_a_source",
        ),
        (
            'raise ValueError("mo must cover exactly the written locations")',
            "test_mo_must_cover_every_written_location",
        ),
        (
            'raise ValueError(f"mo for {loc} is not a permutation of its writes")',
            "test_mo_must_order_every_write",
        ),
        (
            'raise ValueError(f"mo for {loc} must start at the initialization write")',
            "test_mo_must_start_at_init",
        ),
        (
            'raise ValueError("sc_order must be a permutation of the seq_cst events")',
            "test_sc_order_must_cover_sc_events",
        ),
    )
]


def tests_fail(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether some of `tests` fail with `src` as memlit's source."""
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src} tests", *tests],
        cwd=ROOT,
        # No bytecode cache: a mutant and the next one may share a source
        # file's size and modification second.
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
    )
    if run.returncode not in (0, 1):  # 0: all passed, 1: some failed; else pytest could not run them
        raise RuntimeError(f"pytest exited {run.returncode} on {' '.join(tests)}:\n{run.stdout}{run.stderr}")
    return run.returncode == 1


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = tuple(dict.fromkeys(test for *_, tests in MUTANTS for test in tests))
        if tests_fail(src, named):
            print("the mutants' tests fail without a mutant")
            return 1
        for number, (name, old, new, tests) in enumerate(MUTANTS, 1):
            path = src / "memlit" / name
            original = path.read_text()
            found = original.count(old)
            if found != 1:
                problems.append(f"mutant {number}: its old text occurs {found} times in {name}")
                continue
            path.write_text(original.replace(old, new))
            try:
                killed = tests_fail(src, tests)
            finally:
                path.write_text(original)
            change = f"{old.strip().splitlines()[0]} -> {new.strip().splitlines()[0]}"
            print(f"mutant {number}: {'killed' if killed else 'SURVIVES'} ({name}: {change})")
            if not killed:
                problems.append(f"mutant {number} survives its tests: {' '.join(tests)}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
