from __future__ import annotations

import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from memlit import model
from memlit.axiomatic import CandidateExecution, check_axioms, enumerate_cxx11
from memlit.dot import execution_dot
from memlit.dsl import parse_litmus
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
    Outcome,
    OutcomeSet,
    PackedOutcomes,
    Program,
    RegAtom,
    derive_failure_order,
    eval_assertion,
    force_seq_cst,
    validate,
    with_fences_after_stores,
)
from memlit.operational import enumerate_sc, enumerate_tso

from support import formulas, make_outcome, programs, satisfies, value_universe


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


class TestValidation:
    """The policy rules validate adds to _faults; what _faults reports is
    _UNRUNNABLE's, below."""

    @pytest.mark.parametrize(
        "body",
        [
            [Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.SEQ_CST)],
            [
                Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST),
                Instruction(Kind.STORE, location="x", operand="r1", order=MemoryOrder.SEQ_CST),
            ],
            [
                Instruction(Kind.FENCE, order=MemoryOrder.ACQ_REL),
                Instruction(Kind.FETCH_ADD, location="x", dest="r1", operand=1, order=MemoryOrder.ACQ_REL),
            ],
        ],
        ids=["store", "register-after-its-load", "acq_rel-fence-and-rmw"],
    )
    def test_clean_program_passes(self, body):
        assert validate(prog([body])) == []

    def test_consume_rejected(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.CONSUME)]])
        assert validate(p) == [Diagnostic("consume rejected", "memory_order_consume is not supported (order)", 0, 0)]

    def test_release_load_rejected(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.RELEASE)]])
        assert validate(p) == [Diagnostic("release on read operation", "order release is write-only", 0, 0)]

    def test_acquire_store_rejected(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.ACQUIRE)]])
        assert validate(p) == [Diagnostic("acquire on write operation", "order acquire is read-only", 0, 0)]

    def test_acq_rel_plain_access_rejected(self):
        p = prog([[Instruction(Kind.STORE, location="x", operand=1, order=MemoryOrder.ACQ_REL)]])
        assert validate(p) == [Diagnostic("acq_rel on non-RMW", "order acq_rel requires a read-modify-write", 0, 0)]

    def test_thread_limit(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)]
        p = prog([body] * 5)
        assert validate(p) == [Diagnostic("thread limit exceeded", "5 threads, limit 4")]

    def test_instruction_limit(self):
        body = [Instruction(Kind.NA_STORE, location="x", operand=1)] * 9
        p = prog([body])
        assert validate(p) == [Diagnostic("instruction limit exceeded", "9 instructions, limit 8", 0)]

    def test_assertion_unknown_thread(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", RegAtom("P7", "r1", 0)),
        )
        assert validate(p) == [Diagnostic("unknown assertion thread", "no thread named P7")]

    def test_assertion_unwritten_register(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", RegAtom("P0", "r1", 0)),
        )
        assert validate(p) == [Diagnostic("unwritten assertion register", "P0:r1 is never assigned")]

    def test_assertion_unknown_location(self):
        p = prog(
            [[Instruction(Kind.NA_STORE, location="x", operand=1)]],
            assertion=Assertion("exists", MemAtom("z", 0)),
        )
        assert validate(p) == [Diagnostic("unknown assertion location", "z does not appear in the program")]

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

    def test_assertion_on_a_name_without_a_thread(self):
        # The name count is _faults' fault; that P1 names no thread is the assertion check's.
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
        "atom", [MemAtom("x", 256), RegAtom("P0", "r1", 256)], ids=["memory-atom", "register-atom"]
    )
    def test_values_out_of_range(self, atom):
        p = prog([[Instruction(Kind.NA_LOAD, location="x", dest="r1")]], assertion=Assertion("exists", atom))
        assert validate(p) == [Diagnostic("value out of range", "assertion value 256 outside 0..255")]

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


_RLX = MemoryOrder.RELAXED
_SC = MemoryOrder.SEQ_CST
_LOAD_X = Instruction(Kind.LOAD, location="x", dest="r1", order=_RLX)
_LOAD_Y = Instruction(Kind.LOAD, location="y", dest="r1", order=_RLX)
_STORE_X = Instruction(Kind.STORE, location="x", operand=1, order=_RLX)
_AT = "thread 0 instruction 0: "
_AT_1 = "thread 0 instruction 1: "
_NAME_COUNT = "malformed program: thread name count does not match thread count"
# (init, threads, thread names or None for P0, P1, ..., validate's full
# diagnostic list), each a program no backend can run.
_UNRUNNABLE = {
    "store-without-location": (
        {}, [[Instruction(Kind.STORE, operand=1, order=_RLX)]], None, [_AT + "malformed instruction: missing location"]
    ),
    "load-without-dest": (
        {}, [[Instruction(Kind.LOAD, location="x", order=_RLX)]], None, [_AT + "malformed instruction: missing dest"]
    ),
    "store-without-operand": (
        {},
        [[Instruction(Kind.STORE, location="x", order=_RLX)]],
        None,
        [_AT + "malformed instruction: missing operand"],
    ),
    "fetch-add-without-operand": (
        {},
        [[Instruction(Kind.FETCH_ADD, location="x", dest="r1", order=_RLX)]],
        None,
        [_AT + "malformed instruction: missing operand"],
    ),
    "load-with-operand": (
        {},
        [[Instruction(Kind.LOAD, location="x", dest="r1", operand=1, order=_RLX)]],
        None,
        [_AT + "malformed instruction: load takes no operand"],
    ),
    "store-with-dest": (
        {},
        [[Instruction(Kind.STORE, location="x", dest="r1", operand=1, order=_RLX)]],
        None,
        [_AT + "malformed instruction: store takes no dest"],
    ),
    **{
        f"fence-with-{field}": (
            {},
            [[Instruction(Kind.FENCE, order=_SC, **{field: value})]],
            None,
            [_AT + f"malformed instruction: fence takes no {field}"],
        )
        for field, value in (("location", "x"), ("dest", ""), ("expected", 0), ("desired", 1), ("failure_order", _RLX))
    },
    "fence-with-empty-location": (
        {},
        [[Instruction(Kind.FENCE, location="", order=_SC)]],
        None,
        [_AT + "malformed instruction: fence takes no location"],
    ),
    "cas-without-expected": (
        {},
        [[Instruction(Kind.CAS_STRONG, location="x", dest="r1", desired=1, order=_RLX, failure_order=_RLX)]],
        None,
        [_AT + "malformed instruction: missing expected"],
    ),
    "store-without-order": (
        {},
        [[Instruction(Kind.STORE, location="x", operand=1)]],
        None,
        [_AT + "missing memory order: store requires a memory order"],
    ),
    "load-without-order": (
        {},
        [[Instruction(Kind.LOAD, location="x", dest="r1")]],
        None,
        [_AT + "missing memory order: load requires a memory order"],
    ),
    "fence-without-order": (
        {}, [[Instruction(Kind.FENCE)]], None, [_AT + "missing memory order: fence requires a memory order"]
    ),
    "cas-without-failure-order": (
        {},
        [[Instruction(Kind.CAS_STRONG, location="x", dest="r1", expected=0, desired=1, order=_SC)]],
        None,
        [_AT + "missing memory order: cas requires a failure order"],
    ),
    "non-atomic-with-order": (
        {},
        [[
            Instruction(Kind.NA_STORE, location="x", operand=1, order=_SC),
            Instruction(Kind.NA_LOAD, location="x", dest="r1", order=_SC),
        ]],
        None,
        [
            _AT + "order on non-atomic access: na_store carries no memory order",
            _AT_1 + "order on non-atomic access: na_load carries no memory order",
        ],
    ),
    "init-256": ({"x": 256}, [[_LOAD_X]], None, ["value out of range: init x = 256 outside 0..255"]),
    "init-300": ({"x": 300}, [[_STORE_X, _LOAD_X]], None, ["value out of range: init x = 300 outside 0..255"]),
    "float-init": ({"x": 2.5}, [[_LOAD_Y]], None, ["value out of range: init x = 2.5 outside 0..255"]),
    "operand-256": (
        {},
        [[_STORE_X, Instruction(Kind.STORE, location="x", operand=256, order=_RLX)]],
        None,
        [_AT_1 + "value out of range: operand 256 outside 0..255"],
    ),
    "negative-operand": (
        {},
        [[_STORE_X, Instruction(Kind.FETCH_ADD, location="x", dest="r2", operand=-1, order=_RLX)]],
        None,
        [_AT_1 + "value out of range: operand -1 outside 0..255"],
    ),
    "float-operand": (
        {},
        [[Instruction(Kind.STORE, location="x", operand=1.5, order=_RLX)]],
        None,
        [_AT + "value out of range: operand 1.5 outside 0..255"],
    ),
    "cas-expected-256": (
        {},
        [[
            _STORE_X,
            Instruction(Kind.CAS_WEAK, location="x", dest="r2", expected=256, desired=1, order=_SC, failure_order=_SC),
        ]],
        None,
        [_AT_1 + "value out of range: expected 256 outside 0..255"],
    ),
    "cas-desired-999": (
        {},
        [[
            _STORE_X,
            Instruction(Kind.CAS_STRONG, location="x", dest="r2", expected=0, desired=999, order=_SC, failure_order=_SC),
        ]],
        None,
        [_AT_1 + "value out of range: desired 999 outside 0..255"],
    ),
    "register-before-its-load": (
        {},
        [[Instruction(Kind.STORE, location="x", operand="r1", order=_RLX), _LOAD_Y]],
        None,
        [_AT + "unwritten register: operand register r1 not yet assigned"],
    ),
    "register-never-assigned": (
        {},
        [[Instruction(Kind.STORE, location="x", operand="r9", order=_RLX)]],
        None,
        [_AT + "unwritten register: operand register r9 not yet assigned"],
    ),
    "location-not-a-name": (
        {},
        [[Instruction(Kind.STORE, location=5, operand=1, order=_RLX)]],
        None,
        [_AT + "malformed instruction: location 5 is not a name"],
    ),
    "init-location-not-a-name": ({5: 0}, [[_LOAD_Y]], None, ["malformed program: init location 5 is not a name"]),
    "dest-not-a-name": (
        {},
        [[_LOAD_Y, Instruction(Kind.LOAD, location="x", dest=5, order=_RLX)]],
        None,
        [_AT_1 + "malformed instruction: dest 5 is not a name"],
    ),
    "repeated-thread-names": (
        {}, [[_LOAD_X], [_LOAD_X]], ("P0", "P0"), ["duplicate thread name: thread names must be unique"]
    ),
    "too-few-thread-names": ({}, [[_LOAD_X], [_LOAD_X]], ("P0",), [_NAME_COUNT]),
    "too-many-thread-names": ({}, [[_LOAD_X], [_LOAD_X]], ("P0", "P1", "P2"), [_NAME_COUNT]),
}

BACKENDS = {"sc": enumerate_sc, "tso": enumerate_tso, "cxx11": enumerate_cxx11}
READERS = BACKENDS | {"check_axioms": lambda program: check_axioms(program, CandidateExecution((), {}, {}, ()))}


@pytest.mark.parametrize("reader", list(READERS))
@pytest.mark.parametrize("probe", list(_UNRUNNABLE))
def test_every_reader_rejects_what_validate_reports_first(reader, probe):
    """One definition of a runnable program: validate lists each fault of the
    row once, in program order, and every backend and check_axioms raise
    ValueError whose text is the first, and none raises another error or
    returns outcomes.  The backends do not call validate; run anyway, a
    store of 300 would carry into a neighbour's field, repeated thread names
    would lose outcomes and a missing name a thread's registers."""
    init, threads, names, diagnostics = _UNRUNNABLE[probe]
    program = prog(threads, init={"x": 0, "y": 0} | init, names=names)
    assert [str(d) for d in validate(program)] == diagnostics
    with pytest.raises(ValueError) as caught:
        READERS[reader](program)
    assert str(caught.value) == diagnostics[0]


def test_faults_are_walked_once_per_program_object(monkeypatch):
    walked = []
    faults = model._faults
    monkeypatch.setattr(model, "_faults", lambda program: walked.append(program) or faults(program))
    program = prog([[_STORE_X], [_LOAD_X]])
    assert validate(program) == []
    results = {name: backend(program) for name, backend in BACKENDS.items()}
    for witness in results["cxx11"].witnesses.values():
        assert check_axioms(program, witness).consistent
        execution_dot(program, witness)
    assert walked == [program]
    copy = replace(program)
    assert validate(copy) == [] and enumerate_cxx11(copy).outcomes == results["cxx11"].outcomes
    assert walked == [program, copy] and walked[1] is copy


@pytest.mark.parametrize("backend", list(BACKENDS))
def test_values_at_the_ends_of_a_byte_run(backend):
    program = prog([[Instruction(Kind.STORE, location="x", operand=255, order=_RLX)]], init={"x": 0, "y": 255})
    assert not validate(program)
    (outcome,) = BACKENDS[backend](program).outcomes
    assert outcome.memory == (("x", 255), ("y", 255))


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
        _, o = self._outcome(3, 1)
        outs = OutcomeSet(frozenset({o}))
        reg = RegAtom("P0", "r1", 1)
        mem = MemAtom("x", 3)
        for formula, holds in ((And(reg, mem), True), (Or(RegAtom("P0", "r1", 9), mem), True), (Not(mem), False)):
            assert eval_assertion(Assertion("exists", formula), outs).witnesses == ((o,) if holds else ())
            assert eval_assertion(Assertion("forall", formula), outs).witnesses == (() if holds else (o,))

    def test_eval_exists_and_forall(self):
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
        _, o = self._outcome(3, 1)
        with pytest.raises(ValueError, match="^quantifier 'exist' is neither exists nor forall$"):
            eval_assertion(Assertion("exist", MemAtom("x", 0)), OutcomeSet(frozenset({o})))

    def test_witnesses_sorted_by_format(self):
        # By value the hits would run 2, 9, 10, 25, 100; by format() they do not.
        hits = [self._outcome(3, r1)[1] for r1 in (100, 9, 25, 2, 10)]
        misses = [self._outcome(0, r1)[1] for r1 in (7, 1, 30)]
        outs = OutcomeSet(frozenset(misses[:1] + hits[3:] + misses[1:] + hits[:3]))
        want = ["P0:r1=10 | x=3", "P0:r1=100 | x=3", "P0:r1=2 | x=3", "P0:r1=25 | x=3", "P0:r1=9 | x=3"]
        allowed = eval_assertion(Assertion("exists", MemAtom("x", 3)), outs)
        assert allowed.kind == "allowed" and [o.format() for o in allowed.witnesses] == want
        fails = eval_assertion(Assertion("forall", MemAtom("x", 0)), outs)
        assert fails.kind == "fails" and [o.format() for o in fails.witnesses] == want


class TestPackedOutcomes:
    """OutcomeSet.outcomes holds one int per outcome and reads as the
    frozenset of the outcomes it decodes to."""

    @staticmethod
    def check_round_trip(result):
        packed = result.outcomes
        decoded = [packed.decode(key) for key in packed.keys]
        # Location i at bits 8*i, then register j at bits 8*(locations + j).
        for key, o in zip(packed.keys, decoded):
            assert tuple(loc for loc, _ in o.memory) == packed.layout[0]
            values = [v for _, v in o.memory] + [v for _, _, v in o.registers]
            assert values == [key >> 8 * i & 255 for i in range(len(values))] and key >> 8 * len(values) == 0
        assert [packed.key(o) for o in decoded] == list(packed.keys)
        assert set(packed) == set(decoded) and len(set(decoded)) == len(decoded)
        shared: dict = {}  # outcomes with equal memory or registers share the tuple
        assert all(shared.setdefault(row, row) is row for o in packed for row in (o.memory, o.registers))
        assert [packed.key(o) for o in decoded] == list(packed.keys)
        # The outcomes iteration returns each give back the int they decode from.
        assert all(packed.decode(packed.key(o)) == o for o in packed)

    @staticmethod
    def check_as_frozensets(results):
        # Backend sets, a caller's repacked copy (same layout) and the empty set (another layout).
        sets = [r.outcomes for r in results] + [OutcomeSet(frozenset(results[0].outcomes)).outcomes]
        sets.append(OutcomeSet(frozenset()).outcomes)
        frozen = [frozenset(s) for s in sets]
        for a, fa in zip(sets, frozen):
            assert len(a) == len(fa) and hash(a) == hash(fa) and a == fa and fa == a
            for b, fb in zip(sets, frozen):
                assert (a == b) == (a == fb) == (fa == b) == (fa == fb)
                assert (a != b) == (fa != fb)
                assert (a <= b) == (a <= fb) == (fa <= b) == (fa <= fb)
                assert (a < b) == (fa < fb) and (a >= b) == (fa >= fb)
                assert a - b == a - fb == fa - b == fa - fb
                assert frozenset(a - b) == fa - fb and len(a - b) == len(fa - fb)

    @staticmethod
    def check_strangers(result):
        # A fresh copy of the set, asked before its first full read and after it.
        packed = PackedOutcomes(result.outcomes.keys, *result.outcomes.layout)
        outcomes = [packed.decode(key) for key in list(packed.keys)[:3]]
        strangers = [None, 0, frozenset(), ()]
        for o in outcomes:
            (loc, value), *memory = o.memory
            strangers += [
                replace(o, memory=(("zz", value), *memory)),
                replace(o, memory=(*memory, (loc, value))) if memory else None,
                replace(o, memory=tuple(memory)),
                replace(o, memory=((loc, 256), *memory)),
                replace(o, memory=((loc, -1), *memory)),
                replace(o, memory=((loc, str(value)), *memory)),
                # Equal to o, and hashed like it, but 1.0 and True are no bytes.
                replace(o, memory=((loc, float(value)), *memory)),
                replace(o, memory=((loc, bool(value)), *memory)) if value in (0, 1) else None,
                replace(o, registers=(*o.registers, ("P9", "r1", 0))),
                o.format(),
                (o.registers, o.memory),
            ]
            if o.registers:
                (t, r, v), *registers = o.registers
                strangers += [
                    replace(o, registers=((t + "x", r, v), *registers)),
                    replace(o, registers=((t, r + "x", v), *registers)),
                    replace(o, registers=((t, r, 256), *registers)),
                    replace(o, registers=((t, r, float(v)), *registers)),
                    replace(o, registers=((t, r, bool(v)), *registers)) if v in (0, 1) else None,
                ]
        for read in (False, True):
            if read:
                assert set(packed) >= set(outcomes)
            for stranger in strangers:
                assert stranger not in packed and packed.key(stranger) is None
                assert stranger not in result.witnesses
                with pytest.raises(KeyError):
                    result.witnesses[stranger]

    @settings(max_examples=40, deadline=None)
    @given(programs(max_total=5))
    def test_on_random_programs(self, program):
        results = [enumerate_sc(program), enumerate_tso(program), enumerate_cxx11(program)]
        for result in results:
            self.check_round_trip(result)
            self.check_strangers(result)
        self.check_as_frozensets(results)

    def test_on_the_corpus(self, corpus):
        for entry in corpus.values():
            results = list(entry.results.values())
            for result in results:
                self.check_round_trip(result)
                self.check_strangers(result)
            self.check_as_frozensets(results)

    def test_a_caller_set_shares_one_layout_of_bytes(self):
        p = prog([[Instruction(Kind.LOAD, location="x", dest="r1", order=MemoryOrder.SEQ_CST)]])
        o = make_outcome(p, [{"r1": 1}], {"x": 3})
        assert OutcomeSet(frozenset({o})) == OutcomeSet(frozenset({o}))
        for bad in (replace(o, memory=(("y", 3),)), replace(o, memory=(("x", 256),)), "x=3"):
            with pytest.raises(ValueError, match="name the same locations and registers"):
                OutcomeSet(frozenset({o, bad}))

    @staticmethod
    def check_eval_against_the_oracle(formula, result):
        for quantifier in ("exists", "forall"):
            wanted = quantifier == "exists"
            found = sorted((o for o in frozenset(result.outcomes) if satisfies(formula, o) == wanted), key=Outcome.format)
            verdict = eval_assertion(Assertion(quantifier, formula), result)
            assert verdict.witnesses == tuple(found)
            assert verdict.kind == {(True, True): "allowed", (True, False): "forbidden",
                                    (False, True): "fails", (False, False): "holds"}[wanted, bool(found)]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_eval_assertion_matches_the_oracle(self, data):
        program = data.draw(programs(max_total=4))
        result = data.draw(st.sampled_from([enumerate_sc, enumerate_cxx11]))(program)
        self.check_eval_against_the_oracle(data.draw(formulas(program)), result)

    @pytest.mark.parametrize(
        "condition",
        [
            "P0:r1 = 0 /\\ P0:r1 = 1",
            "P0:r1 = 1 /\\ x = 1 /\\ P0:r1 = 0",
            "P0:r1 = 1 /\\ P0:r1 = 1",
            "x = 1 /\\ !(P0:r1 = 1 /\\ P0:r1 = 0)",
            "P0:r1 = 0 /\\ (x = 1 \\/ P0:r1 = 1)",
        ],
    )
    def test_eval_assertion_matches_the_oracle_on_conjunctions(self, condition):
        # P0:r1 ends 0 or 1, so a conjunction that wants both never holds.
        text = "name: t\ninit: x = 0\nthread P0:\n  r1 = load x relaxed\nthread P1:\n  store x 1 relaxed\n"
        program = parse_litmus(text + f"exists: {condition}\n")
        for result in (enumerate_sc(program), enumerate_cxx11(program)):
            assert {o.register("P0", "r1") for o in result.outcomes} == {0, 1}
            self.check_eval_against_the_oracle(program.assertion.formula, result)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_sorted_outcomes_follow_the_format_texts(self, data):
        # Values whose decimal texts order apart from their numbers.
        values = st.sampled_from([0, 1, 2, 9, 10, 19, 20, 99, 100, 199, 200, 255])
        locations = ("x", "y", "z")[: data.draw(st.integers(0, 3))]
        registers = (("P0", "r1"), ("P0", "r2"), ("P1", "r1"))[: data.draw(st.integers(0, 3))]
        rows = data.draw(st.sets(st.tuples(*[values] * (len(locations) + len(registers))), min_size=1, max_size=40))
        outcomes = frozenset(
            Outcome(tuple((t, r, v) for (t, r), v in zip(registers, row[len(locations):])), tuple(zip(locations, row)))
            for row in rows
        )
        want = sorted(o.format() for o in outcomes)
        for read_first in (False, True):
            result = OutcomeSet(outcomes)
            iterated = list(result.outcomes) if read_first else None
            ordered = result.sorted_outcomes()
            assert [o.format() for o in ordered] == want
            # The very objects iteration returns, before and after the sort.
            assert {id(o) for o in ordered} == {id(o) for o in (iterated or result.outcomes)}
            assert all(o in result.outcomes for o in ordered)
            everything = eval_assertion(Assertion("forall", MemAtom("nowhere", 0)), result)
            assert [o.format() for o in everything.witnesses] == want

    def test_eval_assertion_matches_the_oracle_on_the_corpus(self, corpus):
        for entry in corpus.values():
            formula = entry.program.assertion.formula
            wanted = entry.program.assertion.quantifier == "exists"
            for model, result in entry.results.items():
                found = sorted((o for o in result.outcomes if satisfies(formula, o) == wanted), key=Outcome.format)
                assert entry.verdicts[model].witnesses == tuple(found), (entry.path, model)


class TestEventShape:
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
