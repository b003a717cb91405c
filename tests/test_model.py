from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from memlit.axiomatic import CandidateExecution, check_axioms, enumerate_cxx11
from memlit.model import (
    And,
    Assertion,
    Diagnostic,
    Event,
    EventKind,
    Instruction,
    Kind,
    MemAtom,
    MemoryOrder,
    Not,
    Or,
    Program,
    RegAtom,
    derive_failure_order,
    eval_assertion,
    force_seq_cst,
    satisfies,
    validate,
    with_fences_after_stores,
)
from memlit.operational import enumerate_sc, enumerate_tso

from support import make_outcome, programs, value_universe


def prog(threads, assertion=None, init=None, names=None):
    return Program(
        name="t",
        init=init or {"x": 0},
        thread_names=names or tuple(f"P{i}" for i in range(len(threads))),
        threads=tuple(tuple(t) for t in threads),
        assertion=assertion or Assertion("exists", MemAtom("x", 0)),
    )


class TestFailureOrderDerivation:
    def test_release_drops_to_relaxed(self):
        assert derive_failure_order(MemoryOrder.RELEASE) is MemoryOrder.RELAXED

    def test_acq_rel_drops_to_acquire(self):
        assert derive_failure_order(MemoryOrder.ACQ_REL) is MemoryOrder.ACQUIRE

    @pytest.mark.parametrize(
        "order", [MemoryOrder.RELAXED, MemoryOrder.ACQUIRE, MemoryOrder.SEQ_CST]
    )
    def test_others_unchanged(self, order):
        assert derive_failure_order(order) is order

    @pytest.mark.parametrize("order", list(MemoryOrder))
    def test_idempotent(self, order):
        once = derive_failure_order(order)
        assert derive_failure_order(once) is once


class TestRmwArithmetic:
    def test_add_wraps_at_256(self):
        assert Kind.FETCH_ADD.update(255, 1) == 0

    def test_sub_wraps_below_zero(self):
        assert Kind.FETCH_SUB.update(0, 1) == 255

    def test_bitwise(self):
        cases = [
            (Kind.FETCH_AND, 12, 10, 8),
            (Kind.FETCH_OR, 8, 3, 11),
            (Kind.FETCH_XOR, 5, 255, 250),
        ]
        for kind, old, arg, expected in cases:
            assert kind.update(old, arg) == expected

    def test_exchange_returns_operand(self):
        assert Kind.EXCHANGE.update(3, 7) == 7

    def test_every_rmw_kind_but_cas_has_an_update(self):
        # A CAS writes its desired value, which both backends read off the
        # instruction; every other RMW kind computes what it writes.
        rmw = {kind for kind in Kind if kind.event is EventKind.RMW}
        assert {kind for kind in rmw if kind.update is None} == {Kind.CAS_STRONG, Kind.CAS_WEAK}


_RANGE = "value out of range"
_NA_LOAD = Instruction(Kind.NA_LOAD, location="x", dest="r1")
_CAS_256 = Instruction(
    Kind.CAS_WEAK, location="x", dest="r1", expected=256, desired=1,
    order=MemoryOrder.RELAXED, failure_order=MemoryOrder.RELAXED,
)


def _rules(program):
    return {d.rule for d in validate(program)}


class TestValidation:
    def test_clean_program_passes(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.SEQ_CST)]])
        assert validate(p) == []

    def test_consume_rejected(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.CONSUME)]])
        assert "consume rejected" in _rules(p)

    def test_release_load_rejected(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELEASE)]])
        assert "release on read operation" in _rules(p)

    def test_acquire_store_rejected(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.ACQUIRE)]])
        assert "acquire on write operation" in _rules(p)

    def test_acq_rel_plain_access_rejected(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.ACQ_REL)]])
        assert "acq_rel on non-RMW" in _rules(p)

    def test_acq_rel_fence_and_rmw_fine(self):
        p = prog(
            [[
                Instruction(Kind.FENCE, order=MemoryOrder.ACQ_REL),
                Instruction(Kind.FETCH_ADD, location="x", dest="r1", operand=1, order=MemoryOrder.ACQ_REL),
            ]]
        )
        assert validate(p) == []

    def test_order_on_non_atomic_rejected(self):
        p = prog([[Instruction(Kind.NA_LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED)]])
        assert "order on non-atomic access" in _rules(p)

    def test_missing_order_rejected(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1")]])
        assert "missing memory order" in _rules(p)

    @pytest.mark.parametrize(
        "field, value",
        [("location", ""), ("dest", ""), ("expected", 0), ("desired", 1), ("failure_order", MemoryOrder.RELAXED)],
    )
    def test_fence_with_any_field_but_order_is_malformed(self, field, value):
        fence = Instruction(Kind.FENCE, order=MemoryOrder.SEQ_CST, **{field: value})
        assert _rules(prog([[fence]])) == {"malformed instruction"}

    def test_operand_register_must_be_written(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand="r9", order=MemoryOrder.SEQ_CST)]])
        assert "unwritten register" in _rules(p)

    def test_operand_register_after_definition_ok(self):
        p = prog(
            [[
                Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST),
                Instruction(Kind.STORE, location="x", operand="r1", order=MemoryOrder.SEQ_CST),
            ]]
        )
        assert validate(p) == []

    def test_value_range(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=256, order=MemoryOrder.SEQ_CST)]])
        assert "value out of range" in _rules(p)

    def test_thread_limit(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)]
        p = prog([body] * 5)
        assert "thread limit exceeded" in _rules(p)

    def test_instruction_limit(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)] * 9
        p = prog([body])
        assert "instruction limit exceeded" in _rules(p)

    def test_duplicate_thread_names(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)]
        p = prog([body, body], names=("P0", "P0"))
        assert "duplicate thread name" in _rules(p)

    def test_assertion_unknown_thread(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", RegAtom("P7", "r1", 0)),
        )
        assert "unknown assertion thread" in _rules(p)

    def test_assertion_unwritten_register(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", RegAtom("P0", "r1", 0)),
        )
        assert "unwritten assertion register" in _rules(p)

    def test_assertion_unknown_location(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", MemAtom("z", 0)),
        )
        assert "unknown assertion location" in _rules(p)

    def test_missing_field(self):
        p = prog([[Instruction(Kind.STORE, location="x", order=MemoryOrder.RELAXED)]])
        assert validate(p) == [Diagnostic("malformed instruction", "missing operand", 0, 0)]

    def test_cas_without_failure_order(self):
        cas = Instruction(Kind.CAS_STRONG, location="x", dest="r1", expected=0, desired=1, order=MemoryOrder.RELAXED)
        assert validate(prog([[cas]])) == [Diagnostic("missing memory order", "cas requires a failure order", 0, 0)]

    @pytest.mark.parametrize(
        "instr, message",
        [
            (Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.ACQ_REL), "order acq_rel"),
            (
                Instruction(
                    Kind.CAS_STRONG, location="x", dest="r1", expected=0, desired=1,
                    order=MemoryOrder.ACQ_REL, failure_order=MemoryOrder.ACQ_REL,
                ),
                "failure order acq_rel",
            ),
        ],
        ids=["load", "cas-failure-order"],
    )
    def test_acq_rel_read_rejected(self, instr, message):
        want = Diagnostic("acq_rel on non-RMW", f"{message} requires a read-modify-write", 0, 0)
        assert validate(prog([[instr]])) == [want]

    def test_thread_name_count_must_match(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)]
        p = prog([body, body], names=("P0",))
        assert validate(p) == [Diagnostic("malformed program", "thread name count does not match thread count")]

    def test_assertion_on_a_name_without_a_thread(self):
        p = prog(
            [[Instruction(Kind.NA_LOAD, location="x", dest="r1")]],
            assertion=Assertion("exists", RegAtom("P1", "r1", 0)),
            names=("P0", "P1"),
        )
        assert validate(p) == [
            Diagnostic("malformed program", "thread name count does not match thread count"),
            Diagnostic("unknown assertion thread", "no thread named P1"),
        ]

    @pytest.mark.parametrize(
        "init, instr, atom, diagnostic",
        [
            ({"x": 256}, _NA_LOAD, MemAtom("x", 0), Diagnostic(_RANGE, "init x = 256 outside 0..255")),
            ({"x": 0}, _CAS_256, MemAtom("x", 0), Diagnostic(_RANGE, "expected 256 outside 0..255", 0, 0)),
            ({"x": 0}, _NA_LOAD, MemAtom("x", 256), Diagnostic(_RANGE, "assertion value 256 outside 0..255")),
            ({"x": 0}, _NA_LOAD, RegAtom("P0", "r1", 256), Diagnostic(_RANGE, "assertion value 256 outside 0..255")),
        ],
        ids=["init", "cas-literal", "memory-atom", "register-atom"],
    )
    def test_values_out_of_range(self, init, instr, atom, diagnostic):
        assert validate(prog([[instr]], assertion=Assertion("exists", atom), init=init)) == [diagnostic]

    def test_repeated_names_pool_their_registers(self):
        # The assertion's P0:r1 is the first P0's register, so only the repeated name is a fault.
        load = Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED)
        store = Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.RELAXED)
        p = prog([[load], [store]], assertion=Assertion("exists", RegAtom("P0", "r1", 0)), names=("P0", "P0"))
        assert validate(p) == [Diagnostic("duplicate thread name", "thread names must be unique")]

    @pytest.mark.parametrize(
        "assertion, message",
        [
            (Assertion("exists", 5), "5 is not a boolean expression"),
            (Assertion("forall", And(MemAtom("x", 0), Not("x = 0"))), "'x = 0' is not a boolean expression"),
            (Assertion("exist", MemAtom("x", 0)), "quantifier 'exist' is neither exists nor forall"),
        ],
        ids=["formula", "nested-formula", "quantifier"],
    )
    def test_malformed_assertion(self, assertion, message):
        p = prog([[Instruction(Kind.NA_LOAD, location="x", dest="r1")]], assertion=assertion)
        assert validate(p) == [Diagnostic("malformed assertion", message)]

    def test_diagnostic_text_names_where(self):
        assert str(Diagnostic("rule", "message")) == "rule: message"
        assert str(Diagnostic("rule", "message", 1)) == "thread 1: rule: message"
        assert str(Diagnostic("rule", "message", 1, 2)) == "thread 1 instruction 2: rule: message"


BACKENDS = pytest.mark.parametrize(
    "backend", [enumerate_sc, enumerate_tso, enumerate_cxx11], ids=["sc", "tso", "cxx11"]
)


_NAME_COUNT = "^malformed program: thread name count does not match thread count$"
THREAD_NAMES = pytest.mark.parametrize(
    "names, message",
    [
        (("P0", "P0"), "^duplicate thread name: thread names must be unique$"),
        (("P0",), _NAME_COUNT),
        (("P0", "P1", "P2"), _NAME_COUNT),
    ],
    ids=["repeated", "too-few", "too-many"],
)


class TestBackendsRejectWhatTheyCannotRun:
    """The backends do not call validate, but each raises ValueError whose
    text is validate's first diagnostic, for a value outside 0..255, an
    atomic kind without its order or thread names that are not one per
    thread, where a store of 300 would be reported or carry into a
    neighbour."""

    @BACKENDS
    @pytest.mark.parametrize(
        "init, instr, message",
        [
            (
                {"x": 300},
                Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED),
                "value out of range: init x = 300",
            ),
            (
                {"x": 0},
                Instruction(Kind.STORE, location="x", operand=256, order=MemoryOrder.RELAXED),
                "thread 0 instruction 1: value out of range: operand 256",
            ),
            (
                {"x": 0},
                Instruction(Kind.FETCH_ADD, dest="r2", location="x", operand=-1, order=MemoryOrder.RELAXED),
                "thread 0 instruction 1: value out of range: operand -1",
            ),
            (
                {"x": 0},
                Instruction(
                    Kind.CAS_WEAK, dest="r2", location="x", expected=256, desired=1,
                    order=MemoryOrder.SEQ_CST, failure_order=MemoryOrder.SEQ_CST,
                ),
                "thread 0 instruction 1: value out of range: expected 256",
            ),
            (
                {"x": 0},
                Instruction(
                    Kind.CAS_STRONG, dest="r2", location="x", expected=0, desired=999,
                    order=MemoryOrder.SEQ_CST, failure_order=MemoryOrder.SEQ_CST,
                ),
                "thread 0 instruction 1: value out of range: desired 999",
            ),
        ],
        ids=["init", "operand", "negative-operand", "expected", "desired"],
    )
    def test_value_outside_a_byte(self, backend, init, instr, message):
        first = Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.RELAXED)
        program = prog([[first, instr]], init=init)
        assert str(validate(program)[0]) == f"{message} outside 0..255"
        with pytest.raises(ValueError, match=f"^{message} outside 0..255$"):
            backend(program)

    @BACKENDS
    @pytest.mark.parametrize(
        "instr, message",
        [
            (Instruction(Kind.STORE, location="x", operand=1), "store requires a memory order"),
            (Instruction(Kind.FENCE), "fence requires a memory order"),
            (
                Instruction(Kind.CAS_STRONG, dest="r1", location="x", expected=0, desired=1, order=MemoryOrder.SEQ_CST),
                "cas requires a failure order",
            ),
        ],
        ids=["store", "fence", "cas-failure-order"],
    )
    def test_atomic_kind_without_its_order(self, backend, instr, message):
        program = prog([[instr]])
        assert validate(program)
        with pytest.raises(ValueError, match=f"^thread 0 instruction 0: missing memory order: {message}$"):
            backend(program)

    @BACKENDS
    def test_values_at_the_ends_of_a_byte_run(self, backend):
        program = prog(
            [[Instruction(Kind.STORE, location="x", operand=255, order=MemoryOrder.RELAXED)]], init={"x": 0, "y": 255}
        )
        assert not validate(program)
        (outcome,) = backend(program).outcomes
        assert outcome.memory == (("x", 255), ("y", 255))

    @BACKENDS
    @THREAD_NAMES
    def test_thread_names_not_one_per_thread(self, backend, names, message):
        # Run anyway, they would lose outcomes under repeated names and a thread's registers under missing ones.
        body = [Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED)]
        program = prog([body, body], names=names)
        assert validate(program)
        with pytest.raises(ValueError, match=message):
            backend(program)

    @THREAD_NAMES
    def test_check_axioms_rejects_thread_names_not_one_per_thread(self, names, message):
        body = [Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED)]
        program = prog([body, body], names=names)
        with pytest.raises(ValueError, match=message):
            check_axioms(program, CandidateExecution((), {}, {}, ()))

    @BACKENDS
    def test_operand_register_never_assigned(self, backend):
        program = prog([[Instruction(Kind.STORE, location="x", operand="r9", order=MemoryOrder.RELAXED)]])
        with pytest.raises(
            ValueError, match="^thread 0 instruction 0: unwritten register: operand register r9 not yet assigned$"
        ):
            backend(program)


_RLX = MemoryOrder.RELAXED
_LOAD_Y = Instruction(Kind.LOAD, location="y", dest="r1", order=_RLX)
_AT = "thread 0 instruction 0: "
# (init, body of thread P0, validate's first diagnostic), each a program a backend cannot run.
_UNRUNNABLE = {
    "store-without-location": (
        {},
        [Instruction(Kind.STORE, operand=1, order=_RLX)],
        _AT + "malformed instruction: missing location",
    ),
    "load-without-dest": (
        {},
        [Instruction(Kind.LOAD, location="x", order=_RLX)],
        _AT + "malformed instruction: missing dest",
    ),
    "store-without-operand": (
        {},
        [Instruction(Kind.STORE, location="x", order=_RLX)],
        _AT + "malformed instruction: missing operand",
    ),
    "fetch-add-without-operand": (
        {},
        [Instruction(Kind.FETCH_ADD, location="x", dest="r1", order=_RLX)],
        _AT + "malformed instruction: missing operand",
    ),
    "load-with-operand": (
        {},
        [Instruction(Kind.LOAD, location="x", dest="r1", operand=1, order=_RLX)],
        _AT + "malformed instruction: load takes no operand",
    ),
    "store-with-dest": (
        {},
        [Instruction(Kind.STORE, location="x", dest="r1", operand=1, order=_RLX)],
        _AT + "malformed instruction: store takes no dest",
    ),
    "fence-with-location": (
        {},
        [Instruction(Kind.FENCE, location="x", order=MemoryOrder.SEQ_CST)],
        _AT + "malformed instruction: fence takes no location",
    ),
    "cas-without-expected": (
        {},
        [Instruction(Kind.CAS_STRONG, location="x", dest="r1", desired=1, order=_RLX, failure_order=_RLX)],
        _AT + "malformed instruction: missing expected",
    ),
    "float-operand": (
        {},
        [Instruction(Kind.STORE, location="x", operand=1.5, order=_RLX)],
        _AT + "value out of range: operand 1.5 outside 0..255",
    ),
    "float-init": ({"x": 2.5}, [_LOAD_Y], "value out of range: init x = 2.5 outside 0..255"),
    "register-before-its-load": (
        {},
        [Instruction(Kind.STORE, location="x", operand="r1", order=_RLX), _LOAD_Y],
        _AT + "unwritten register: operand register r1 not yet assigned",
    ),
    "register-never-assigned": (
        {},
        [Instruction(Kind.STORE, location="x", operand="r9", order=_RLX)],
        _AT + "unwritten register: operand register r9 not yet assigned",
    ),
    "location-not-a-name": (
        {},
        [Instruction(Kind.STORE, location=5, operand=1, order=_RLX)],
        _AT + "malformed instruction: location 5 is not a name",
    ),
    "init-location-not-a-name": ({5: 0}, [_LOAD_Y], "malformed program: init location 5 is not a name"),
    "dest-not-a-name": (
        {},
        [_LOAD_Y, Instruction(Kind.LOAD, location="x", dest=5, order=_RLX)],
        "thread 0 instruction 1: malformed instruction: dest 5 is not a name",
    ),
    "non-atomic-with-order": (
        {},
        [
            Instruction(Kind.NA_STORE, location="x", operand=1, order=MemoryOrder.SEQ_CST),
            Instruction(Kind.NA_LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST),
        ],
        _AT + "order on non-atomic access: na_store carries no memory order",
    ),
}


def _judge_empty_candidate(program):
    return check_axioms(program, CandidateExecution((), {}, {}, ()))


@pytest.mark.parametrize(
    "read",
    [enumerate_sc, enumerate_tso, enumerate_cxx11, _judge_empty_candidate],
    ids=["sc", "tso", "cxx11", "check_axioms"],
)
@pytest.mark.parametrize("probe", list(_UNRUNNABLE))
def test_every_reader_rejects_what_validate_reports_first(read, probe):
    """One definition of a runnable program: every backend and check_axioms
    raise ValueError whose text is validate's first diagnostic, and none
    raises another error or returns outcomes."""
    init, body, message = _UNRUNNABLE[probe]
    program = prog([body], init={"x": 0, "y": 0} | init)
    assert str(validate(program)[0]) == message
    with pytest.raises(ValueError) as caught:
        read(program)
    assert str(caught.value) == message


@pytest.mark.parametrize("probe", list(_UNRUNNABLE))
def test_validate_lists_each_fault_once(probe):
    """validate's policy rules judge no fault that _faults already reports."""
    init, body, _ = _UNRUNNABLE[probe]
    listed = [str(d) for d in validate(prog([body], init={"x": 0, "y": 0} | init))]
    assert len(listed) == len(set(listed))


class TestProgramTransforms:
    def test_force_seq_cst_upgrades_everything(self):
        p = prog(
            [[
                Instruction(Kind.NA_STORE, location="x", operand=1),
                Instruction(Kind.NA_LOAD, location="x", dest="r1"),
                Instruction(Kind.LOAD, location="x", dest="r2", order=MemoryOrder.RELAXED),
                Instruction(
                    Kind.CAS_WEAK, location="x", dest="r3", expected=0, desired=1,
                    order=MemoryOrder.RELEASE, failure_order=MemoryOrder.RELAXED,
                ),
            ]]
        )
        forced = force_seq_cst(p)
        kinds = [i.kind for i in forced.threads[0]]
        assert Kind.NA_STORE not in kinds and Kind.NA_LOAD not in kinds
        assert all(i.order is MemoryOrder.SEQ_CST for i in forced.threads[0])
        assert forced.threads[0][3].failure_order is MemoryOrder.SEQ_CST

    def test_fence_insertion_after_stores(self):
        p = prog(
            [[
                Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.RELAXED),
                Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED),
            ]]
        )
        fenced = with_fences_after_stores(p)
        kinds = [i.kind for i in fenced.threads[0]]
        assert kinds == [Kind.STORE, Kind.FENCE, Kind.LOAD]
        assert fenced.threads[0][1].order is MemoryOrder.SEQ_CST


class TestOutcomesAndAssertions:
    def _outcome(self, value_x, r1):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST)]])
        return p, make_outcome(p, [{"r1": r1}], {"x": value_x})

    def test_format_is_sorted_and_complete(self):
        p, o = self._outcome(3, 1)
        assert o.format() == "P0:r1=1 | x=3"

    def test_memory_defaults_to_initial_value(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST)]], init={"x": 7})
        o = make_outcome(p, [{"r1": 7}], {})
        assert o.location("x") == 7

    def test_satisfies_connectives(self):
        p, o = self._outcome(3, 1)
        reg = RegAtom("P0", "r1", 1)
        mem = MemAtom("x", 3)
        assert satisfies(And(reg, mem), o)
        assert satisfies(Or(RegAtom("P0", "r1", 9), mem), o)
        assert not satisfies(Not(mem), o)

    def test_eval_exists_and_forall(self):
        from memlit.model import OutcomeSet

        p, good = self._outcome(3, 1)
        _, bad = self._outcome(0, 0)
        outs = OutcomeSet(frozenset({good, bad}))
        allowed = eval_assertion(Assertion("exists", MemAtom("x", 3)), outs)
        assert allowed.kind == "allowed" and allowed.witnesses == (good,)
        forbidden = eval_assertion(Assertion("exists", MemAtom("x", 9)), outs)
        assert forbidden.kind == "forbidden" and forbidden.witnesses == ()
        fails = eval_assertion(Assertion("forall", MemAtom("x", 3)), outs)
        assert fails.kind == "fails" and fails.witnesses == (bad,)
        holds = eval_assertion(Assertion("forall", Or(MemAtom("x", 3), MemAtom("x", 0))), outs)
        assert holds.kind == "holds" and holds.witnesses == ()

    def test_eval_rejects_an_unknown_quantifier(self):
        from memlit.model import OutcomeSet

        _, o = self._outcome(3, 1)
        with pytest.raises(ValueError, match="^quantifier 'exist' is neither exists nor forall$"):
            eval_assertion(Assertion("exist", MemAtom("x", 0)), OutcomeSet(frozenset({o})))

    def test_witnesses_sorted_by_format(self):
        from memlit.model import OutcomeSet

        # By value the hits would run 2, 9, 10, 25, 100; by format() they do not.
        hits = [self._outcome(3, r1)[1] for r1 in (100, 9, 25, 2, 10)]
        misses = [self._outcome(0, r1)[1] for r1 in (7, 1, 30)]
        outs = OutcomeSet(frozenset(misses[:1] + hits[3:] + misses[1:] + hits[:3]))
        want = ["P0:r1=10 | x=3", "P0:r1=100 | x=3", "P0:r1=2 | x=3", "P0:r1=25 | x=3", "P0:r1=9 | x=3"]
        allowed = eval_assertion(Assertion("exists", MemAtom("x", 3)), outs)
        assert allowed.kind == "allowed" and [o.format() for o in allowed.witnesses] == want
        fails = eval_assertion(Assertion("forall", MemAtom("x", 0)), outs)
        assert fails.kind == "fails" and [o.format() for o in fails.witnesses] == want


class TestEventShape:
    """Building an Event checks nothing; judging a candidate that holds a
    misshapen one fails."""

    INIT = Event(0, -1, 0, EventKind.WRITE, True, None, location="x", value_written=0)

    def test_fence_cannot_have_location(self):
        p = prog([[Instruction(Kind.FENCE, order=MemoryOrder.SEQ_CST)]])
        fence = Event(1, 0, 0, EventKind.FENCE, True, MemoryOrder.SEQ_CST, location="x")
        with pytest.raises(ValueError):
            check_axioms(p, CandidateExecution((self.INIT, fence), {}, {"x": (0,)}, (1,)))

    def test_read_cannot_write(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELAXED)]])
        read = Event(1, 0, 0, EventKind.READ, True, MemoryOrder.RELAXED, location="x", value_read=0, value_written=1)
        with pytest.raises(ValueError):
            check_axioms(p, CandidateExecution((self.INIT, read), {1: 0}, {"x": (0,)}, ()))

    def test_describe(self):
        w = Event(3, 0, 1, EventKind.WRITE, True, MemoryOrder.RELEASE, location="x", value_written=1)
        assert w.describe() == "T0#1 W x=1 rel"
        init = Event(0, -1, 0, EventKind.WRITE, True, None, location="x", value_written=0)
        assert init.describe() == "init x=0"


@given(programs())
def test_generated_programs_validate(p):
    assert validate(p) == []


@given(programs())
def test_validate_is_idempotent_and_pure(p):
    snapshot = dict(p.init)
    assert validate(p) == validate(p)
    assert dict(p.init) == snapshot and validate(p) == []


def test_validate_repeats_diagnostics_for_bad_programs():
    bad = prog([[Instruction(Kind.FENCE, location="x", order=MemoryOrder.SEQ_CST)]])
    first = validate(bad)
    assert first and validate(bad) == first


@given(programs(max_threads=2, max_total=5))
@settings(max_examples=25, deadline=None)
def test_outcome_values_are_written_or_initial(p):
    universe = value_universe(p)
    for result in (enumerate_sc(p), enumerate_tso(p), enumerate_cxx11(p)):
        for outcome in result.outcomes:
            assert {v for _, _, v in outcome.registers} <= universe
            assert {v for _, v in outcome.memory} <= universe
