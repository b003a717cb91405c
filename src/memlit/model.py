"""Program, instruction, event, and outcome model shared by every backend.

Values are 8-bit naturals (0..255); fetch_add and fetch_sub wrap modulo 256.
Programs are straight-line: no branches, no loops, at most 4 threads with at
most 8 instructions each.  Registers are thread-local and write-once-visible
(an operand register must have been assigned earlier in the same thread).
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping, Set, Sized
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional, Union

MAX_THREADS = 4
MAX_INSTRUCTIONS = 8
MAX_VALUE = 255

DEFAULT_MAX_STATES = 1_000_000
DEFAULT_MAX_CANDIDATES = 1_000_000


class ResourceLimitError(Exception):
    """An exploration exceeded its configured state or candidate budget."""

    def __init__(self, limit_name: str, limit: int):
        super().__init__(f"{limit_name} limit exceeded ({limit})")
        self.limit_name = limit_name
        self.limit = limit


class MemoryOrder(enum.Enum):
    """A memory order, with what the axioms read off it.  acq_rel fences act
    as both an acquire and a release fence; relaxed fences are accepted and
    have no effect."""

    # token, label abbreviation, acquires, releases
    RELAXED = "relaxed", "rlx", False, False
    CONSUME = "consume", "cns", False, False
    ACQUIRE = "acquire", "acq", True, False
    RELEASE = "release", "rel", False, True
    ACQ_REL = "acq_rel", "acq_rel", True, True
    SEQ_CST = "seq_cst", "sc", True, True

    def __new__(cls, token: str, abbrev: str, acquires: bool, releases: bool) -> "MemoryOrder":
        # _value_ is set here, not in __init__, so that lookup by token works.
        member = object.__new__(cls)
        member._value_ = token
        member.abbrev, member.acquires, member.releases = abbrev, acquires, releases
        return member

    def __str__(self) -> str:
        return self.value


def derive_failure_order(success: MemoryOrder) -> MemoryOrder:
    """Failure order implied by a CAS given only its success order.

    release maps to relaxed and acq_rel to acquire; everything else carries
    over unchanged.  The pre-C++17 "no stronger than success" restriction is
    deliberately not enforced anywhere.
    """
    if success is MemoryOrder.RELEASE:
        return MemoryOrder.RELAXED
    if success is MemoryOrder.ACQ_REL:
        return MemoryOrder.ACQUIRE
    return success


class EventKind(enum.Enum):
    """What an event does to memory: read, write, both, or neither."""

    # token, reads, writes
    READ = "R", True, False
    WRITE = "W", False, True
    RMW = "RMW", True, True
    FENCE = "F", False, False

    def __new__(cls, token: str, reads: bool, writes: bool) -> "EventKind":
        member = object.__new__(cls)
        member._value_ = token
        member.reads, member.writes = reads, writes
        return member

    def __str__(self) -> str:
        return self.value


_RMW_FIELDS = ("dest", "location", "operand", "order")
_CAS_FIELDS = ("dest", "location", "expected", "desired", "order", "failure_order")
# An Instruction's optional fields, in _check_shape's order; Kind.shape marks a kind's own.
_SHAPE_FIELDS = ("location", "dest", "operand", "expected", "desired", "failure_order", "order")


class Kind(enum.Enum):
    """The instruction table, read by the parser, the printer, validate and
    both backends.  Each kind has its source fields in order ("dest" first
    for `REG = op` forms), the event it makes (a failed CAS makes a READ at
    its failure order instead), whether that event is atomic and, for
    exchange and the fetches, `update(old, operand)`: the value it writes."""

    # token, fields, event, atomic, update
    LOAD = "load", ("dest", "location", "order"), EventKind.READ, True, None
    STORE = "store", ("location", "operand", "order"), EventKind.WRITE, True, None
    NA_LOAD = "na_load", ("dest", "location"), EventKind.READ, False, None
    NA_STORE = "na_store", ("location", "operand"), EventKind.WRITE, False, None
    EXCHANGE = "exchange", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: operand
    FETCH_ADD = "fetch_add", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: (old + operand) & MAX_VALUE
    FETCH_SUB = "fetch_sub", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: (old - operand) & MAX_VALUE
    FETCH_AND = "fetch_and", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: old & operand
    FETCH_OR = "fetch_or", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: old | operand
    FETCH_XOR = "fetch_xor", _RMW_FIELDS, EventKind.RMW, True, lambda old, operand: old ^ operand
    CAS_STRONG = "cas_strong", _CAS_FIELDS, EventKind.RMW, True, None
    CAS_WEAK = "cas_weak", _CAS_FIELDS, EventKind.RMW, True, None
    FENCE = "fence", ("order",), EventKind.FENCE, True, None

    def __new__(
        cls,
        token: str,
        fields: tuple[str, ...],
        event: EventKind,
        atomic: bool,
        update: Optional[Callable[[int, int], int]],
    ) -> "Kind":
        member = object.__new__(cls)
        member._value_ = token
        member.fields, member.event, member.atomic, member.update = fields, event, atomic, update
        member.shape = tuple(name in fields for name in _SHAPE_FIELDS)
        return member

    def __str__(self) -> str:
        return self.value


CAS_KINDS = frozenset({Kind.CAS_STRONG, Kind.CAS_WEAK})


@dataclass(frozen=True)
class Instruction:
    """One straight-line instruction; its kind's fields say which it uses.

    An operand is a literal or a register name.
    """

    kind: Kind
    location: Optional[str] = None
    dest: Optional[str] = None
    operand: Union[int, str, None] = None
    expected: Optional[int] = None
    desired: Optional[int] = None
    order: Optional[MemoryOrder] = None
    failure_order: Optional[MemoryOrder] = None


# ---------------------------------------------------------------------------
# assertions


@dataclass(frozen=True)
class RegAtom:
    thread: str
    register: str
    value: int


@dataclass(frozen=True)
class MemAtom:
    location: str
    value: int


@dataclass(frozen=True)
class Not:
    operand: "BoolExpr"


@dataclass(frozen=True)
class And:
    left: "BoolExpr"
    right: "BoolExpr"


@dataclass(frozen=True)
class Or:
    left: "BoolExpr"
    right: "BoolExpr"


BoolExpr = Union[RegAtom, MemAtom, Not, And, Or]


@dataclass(frozen=True)
class Assertion:
    quantifier: str  # "exists" | "forall"
    formula: BoolExpr


def atoms(expr: BoolExpr) -> Iterator[object]:
    """A formula's leaves: its atoms, and anything in it that is no formula."""
    if isinstance(expr, Not):
        yield from atoms(expr.operand)
    elif isinstance(expr, (And, Or)):
        yield from atoms(expr.left)
        yield from atoms(expr.right)
    else:
        yield expr


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class Program:
    name: str
    init: Mapping[str, int]
    thread_names: tuple[str, ...]
    threads: tuple[tuple[Instruction, ...], ...]
    assertion: Assertion

    @cached_property
    def locations(self) -> tuple[str, ...]:
        locs = set(self.init)
        for body in self.threads:
            for instr in body:
                if instr.location is not None:
                    locs.add(instr.location)
        return tuple(sorted(locs, key=str))  # key=str: a name not a str is a fault of _faults, not a TypeError here

    @cached_property
    def registers(self) -> tuple[tuple[str, str], ...]:
        """(thread name, register) per destination register, by thread, then name: Outcome.registers' order."""
        return tuple(
            (name, reg)
            for name, body in zip(self.thread_names, self.threads)
            for reg in sorted({instr.dest for instr in body if instr.dest is not None}, key=str)
        )

    def initial_value(self, location: str) -> int:
        return self.init.get(location, 0)

    @cached_property
    def _fault_list(self) -> tuple[Diagnostic, ...]:
        """Every fault of `_faults`, walked once per program object: validate,
        each backend and each reader of a candidate read it here."""
        return tuple(_faults(self))


@dataclass(frozen=True)
class Diagnostic:
    rule: str
    message: str
    thread: Optional[int] = None
    instruction: Optional[int] = None

    def __str__(self) -> str:
        where = ""
        if self.thread is not None:
            where = f"thread {self.thread}"
            if self.instruction is not None:
                where += f" instruction {self.instruction}"
            where += ": "
        return f"{where}{self.rule}: {self.message}"


def _is_byte(value: object) -> bool:
    return value.__class__ is int and 0 <= value <= MAX_VALUE


def _set_fields(instr: Instruction) -> tuple[bool, ...]:
    """Per name in _SHAPE_FIELDS, whether it is set: its kind's shape when well formed."""
    return (instr.location is not None, instr.dest is not None, instr.operand is not None, instr.expected is not None,
            instr.desired is not None, instr.failure_order is not None, instr.order is not None)


def _check_shape(instr: Instruction) -> Optional[str]:
    """A field is set exactly when its kind lists it; the orders are judged
    apart, but a failure order on a kind without one is malformed."""
    for name, present, listed in zip(_SHAPE_FIELDS, _set_fields(instr), instr.kind.shape):
        if present and not listed and name != "order":
            return f"{instr.kind} takes no {name}"
        if listed and not present and name not in ("order", "failure_order"):
            return f"missing {name}"
    return None


def _faults(program: Program) -> Iterator[Diagnostic]:
    """Each fault that stops a backend, in program order: thread names not one
    per thread, a location or dest register not a str, an init value or
    literal (operand, expected, desired) not an int in 0..MAX_VALUE, an
    instruction without exactly its kind's fields (judged no further) or
    orders (an atomic kind without its order, a CAS without its failure
    order, a non-atomic kind with an order), an operand register not yet
    assigned."""
    names = program.thread_names
    if len(names) != len(program.threads):
        yield Diagnostic("malformed program", "thread name count does not match thread count")
    if len(set(names)) != len(names):
        yield Diagnostic("duplicate thread name", "thread names must be unique")
    for loc, value in program.init.items():
        if loc.__class__ is not str:
            yield Diagnostic("malformed program", f"init location {loc!r} is not a name")
        if not _is_byte(value):
            yield Diagnostic("value out of range", f"init {loc} = {value} outside 0..{MAX_VALUE}")
    for t, body in enumerate(program.threads):
        assigned: set[str] = set()
        for i, instr in enumerate(body):
            kind = instr.kind
            if _set_fields(instr) != kind.shape:  # a well-formed instruction costs this compare alone
                shape = _check_shape(instr)
                if shape is not None:
                    yield Diagnostic("malformed instruction", shape, t, i)
                    continue
                if kind.atomic and instr.order is None:
                    yield Diagnostic("missing memory order", f"{kind} requires a memory order", t, i)
                elif kind in CAS_KINDS and instr.failure_order is None:
                    yield Diagnostic("missing memory order", "cas requires a failure order", t, i)
                elif not kind.atomic:  # with its fields right, a non-atomic kind misses its shape only by an order
                    yield Diagnostic("order on non-atomic access", f"{kind} carries no memory order", t, i)
            for field, name in (("location", instr.location), ("dest", instr.dest)):
                if name is not None and name.__class__ is not str:
                    yield Diagnostic("malformed instruction", f"{field} {name!r} is not a name", t, i)
            operand = instr.operand
            if operand.__class__ is str:
                if operand not in assigned:
                    yield Diagnostic("unwritten register", f"operand register {operand} not yet assigned", t, i)
            elif operand is not None and not _is_byte(operand):
                yield Diagnostic("value out of range", f"operand {operand} outside 0..{MAX_VALUE}", t, i)
            if kind in CAS_KINDS:
                for name, value in (("expected", instr.expected), ("desired", instr.desired)):
                    if not _is_byte(value):
                        yield Diagnostic("value out of range", f"{name} {value} outside 0..{MAX_VALUE}", t, i)
            if instr.dest is not None:
                assigned.add(instr.dest)


def check_runnable(program: Program) -> None:
    """ValueError whose text is the first of _faults: what no backend and no
    reader of a candidate can run.  validate reports them all, then policy."""
    faults = program._fault_list
    if faults:
        raise ValueError(str(faults[0]))


def _order_diagnostics(instr: Instruction) -> Iterator[tuple[str, str]]:
    # _faults reports an order that is missing or on a non-atomic kind, and
    # a failure order on a kind without one.
    k = instr.kind
    if not k.atomic:
        return
    for slot, order in (("order", instr.order), ("failure order", instr.failure_order)):
        if order is MemoryOrder.CONSUME:
            yield "consume rejected", f"memory_order_consume is not supported ({slot})"
            continue
        if k.event is EventKind.READ or slot == "failure order":
            if order is MemoryOrder.RELEASE:
                yield "release on read operation", f"{slot} {order} is write-only"
            elif order is MemoryOrder.ACQ_REL:
                yield "acq_rel on non-RMW", f"{slot} {order} requires a read-modify-write"
        elif k.event is EventKind.WRITE:
            if order is MemoryOrder.ACQUIRE:
                yield "acquire on write operation", f"{slot} {order} is read-only"
            elif order is MemoryOrder.ACQ_REL:
                yield "acq_rel on non-RMW", f"{slot} {order} requires a read-modify-write"
        # RMW success orders and fence orders admit everything but consume.


def validate(program: Program) -> list[Diagnostic]:
    """Every fault of _faults, then the policy rules: the limits, the orders
    each kind admits and the assertion.  Empty means acceptable.  Same
    diagnostics for the same program, and no side effect but the fault list
    the program object keeps for check_runnable."""
    diags = list(program._fault_list)

    def bad(rule: str, message: str, thread: Optional[int] = None, instr: Optional[int] = None) -> None:
        diags.append(Diagnostic(rule, message, thread, instr))

    if len(program.threads) > MAX_THREADS:
        bad("thread limit exceeded", f"{len(program.threads)} threads, limit {MAX_THREADS}")
    for t, body in enumerate(program.threads):
        if len(body) > MAX_INSTRUCTIONS:
            bad(
                "instruction limit exceeded",
                f"{len(body)} instructions, limit {MAX_INSTRUCTIONS}",
                thread=t,
            )
        for i, instr in enumerate(body):
            for rule, message in _order_diagnostics(instr):
                bad(rule, message, thread=t, instr=i)

    quantifier = program.assertion.quantifier
    if quantifier not in ("exists", "forall"):
        bad("malformed assertion", f"quantifier {quantifier!r} is neither exists nor forall")
    named = set(program.thread_names[: len(program.threads)])  # a name without a thread names none
    assigned = set(program.registers)  # repeated names pool their threads' registers
    for atom in atoms(program.assertion.formula):
        if not isinstance(atom, (RegAtom, MemAtom)):
            bad("malformed assertion", f"{atom!r} is not a boolean expression")
            continue
        if isinstance(atom, RegAtom):
            if atom.thread not in named:
                bad("unknown assertion thread", f"no thread named {atom.thread}")
            elif (atom.thread, atom.register) not in assigned:
                bad(
                    "unwritten assertion register",
                    f"{atom.thread}:{atom.register} is never assigned",
                )
        elif atom.location not in program.locations:
            bad("unknown assertion location", f"{atom.location} does not appear in the program")
        if not _is_byte(atom.value):
            bad("value out of range", f"assertion value {atom.value} outside 0..255")
    return diags


# ---------------------------------------------------------------------------
# outcomes and verdicts


@dataclass(frozen=True)
class Outcome:
    """Final register values (keyed by thread name) plus final memory.

    Complete over every destination register and every program location, so
    outcomes from different backends compare exactly.
    """

    registers: tuple[tuple[str, str, int], ...]  # (thread name, register, value)
    memory: tuple[tuple[str, int], ...]

    def register(self, thread: str, name: str) -> Optional[int]:
        for t, r, v in self.registers:
            if t == thread and r == name:
                return v
        return None

    def location(self, loc: str) -> Optional[int]:
        for m, v in self.memory:
            if m == loc:
                return v
        return None

    def format(self) -> str:
        regs = " ".join(f"{t}:{r}={v}" for t, r, v in self.registers)
        mem = " ".join(f"{loc}={v}" for loc, v in self.memory)
        if regs and mem:
            return f"{regs} | {mem}"
        return regs or mem


@dataclass
class ExplorationStats:
    explored: int = 0
    complete_runs: int = 0


# The bytes in the order of their decimal texts, and each byte's place in it.
_BY_TEXT = sorted(range(MAX_VALUE + 1), key=str)
_TEXT_RANK = bytes(sorted(range(MAX_VALUE + 1), key=_BY_TEXT.__getitem__))


class PackedOutcomes(Set[Outcome]):
    """A program's outcomes as ints, read as a set of `Outcome`s.

    An outcome packs into one int of 8-bit fields: location i of `locations`
    at bits 8*i, then register j of `registers` (its (thread name, register)
    pairs) at bits 8*(len(locations) + j).  Those are the low fields of an
    sc/tso state, and every value is a byte (`_faults`).

    The set is read-only.  Iteration decodes each int once: the first full
    read keeps the decoded outcomes for later reads, and decoded outcomes
    with the same memory, or the same registers, share that tuple.  `in`
    and `key` know those outcomes by identity and encode any other object,
    so anything that is no outcome of this layout, such as one holding
    True or 1.0 for a 1, is absent whether or not the set has been read.
    The set compares and hashes like the frozenset of its outcomes.
    """

    def __init__(self, keys: Set[int], locations: tuple[str, ...], registers: tuple[tuple[str, str], ...]) -> None:
        self.keys = keys
        self.layout = locations, registers
        self.location_shifts, self.register_shifts, _ = self.shifts(locations, registers)
        self._locations = tuple(zip(locations, self.location_shifts))
        self._registers = tuple(zip(registers, self.register_shifts))
        self._decoded: Optional[tuple[Outcome, ...]] = None
        self._decoded_keys: dict[int, int] = {}  # each decoded outcome's int, by its id while _decoded holds it
        # Each decoded memory and register tuple, by its bits.
        self._memory_mask = sum(MAX_VALUE << s for s in self.location_shifts)
        self._register_base, self._register_bits = 8 * len(locations), 8 * len(registers)
        self._memory_rows: dict[int, tuple[tuple[str, int], ...]] = {}
        self._register_rows: dict[int, tuple[tuple[str, str, int], ...]] = {}

    @staticmethod
    def shifts(locations: Sized, registers: Sized) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The shift of each location's field and of each register's field,
        and the width of an outcome in bits: the one place that lays out
        an outcome, and the low fields of an sc/tso state."""
        registers_base = 8 * len(locations)
        width = registers_base + 8 * len(registers)
        return tuple(range(0, registers_base, 8)), tuple(range(registers_base, width, 8)), width

    @classmethod
    def pack(cls, outcomes: Iterable[Outcome]) -> PackedOutcomes:
        """A caller's outcomes, in the layout the first one names.
        ValueError unless each names the same locations and registers in the
        same order, with byte values."""
        outcomes = list(outcomes)
        first = outcomes[0] if outcomes and outcomes[0].__class__ is Outcome else Outcome((), ())
        layout = tuple(loc for loc, _ in first.memory), tuple((t, r) for t, r, _ in first.registers)
        keys = frozenset(map(cls(frozenset(), *layout)._encode, outcomes))
        if None in keys:
            raise ValueError("outcomes of one set name the same locations and registers, each holding a byte")
        return cls(keys, *layout)

    def format_key(self, key: int) -> bytes:
        """A key on which ints sort as the `Outcome.format` texts of their
        outcomes do.  Those texts share every name, so they first differ in
        a value, registers first, then memory; a value's text ends at a space
        or at the end of the text, both below every digit, so the values
        compare as their decimal texts.  The key is the int's bytes, the
        register bytes first, each replaced by its rank among those texts."""
        rotated = key >> self._register_base | (key & self._memory_mask) << self._register_bits
        return rotated.to_bytes((self._register_base + self._register_bits) // 8, "little").translate(_TEXT_RANK)

    def in_format_order(self) -> list[Outcome]:
        """The outcomes iteration returns, the very objects, sorted as their
        `Outcome.format` texts are, on `format_key`.  Before the first full
        read the ints are sorted, then decoded in that order, which
        iteration keeps."""
        keys = sorted(self.keys, key=self.format_key)
        if self._decoded is None:
            self._decode_all(keys)
            return list(self._decoded)
        decoded = dict(zip(self._decoded_keys.values(), self._decoded))
        return [decoded[key] for key in keys]

    def decode(self, key: int) -> Outcome:
        memory_bits = key & self._memory_mask
        register_bits = key ^ memory_bits
        memory = self._memory_rows.get(memory_bits)
        if memory is None:
            memory = tuple((loc, key >> s & MAX_VALUE) for loc, s in self._locations)
            self._memory_rows[memory_bits] = memory
        registers = self._register_rows.get(register_bits)
        if registers is None:
            registers = tuple((t, r, key >> s & MAX_VALUE) for (t, r), s in self._registers)
            self._register_rows[register_bits] = registers
        return Outcome(registers, memory)

    def _encode(self, outcome: object) -> Optional[int]:
        """The int of an outcome in this layout, or None for anything else."""
        if outcome.__class__ is not Outcome:
            return None
        if (len(outcome.memory), len(outcome.registers)) != (len(self._locations), len(self._registers)):
            return None
        key = 0
        for (loc, value), (name, shift) in zip(outcome.memory, self._locations):
            if loc != name or not _is_byte(value):
                return None
            key |= value << shift
        for (t, r, value), (name, shift) in zip(outcome.registers, self._registers):
            if (t, r) != name or not _is_byte(value):
                return None
            key |= value << shift
        return key

    def key(self, outcome: object) -> Optional[int]:
        """The int of `outcome` when the set holds it, else None."""
        key = self._decoded_keys.get(id(outcome))
        if key is None:
            key = self._encode(outcome)
        return key if key is not None and key in self.keys else None

    def __contains__(self, outcome: object) -> bool:
        return self.key(outcome) is not None

    def _decode_all(self, keys: Iterable[int]) -> None:
        keys = tuple(keys)
        self._decoded = tuple(map(self.decode, keys))
        self._decoded_keys = dict(zip(map(id, self._decoded), keys))

    def __iter__(self) -> Iterator[Outcome]:
        if self._decoded is None:
            self._decode_all(self.keys)
        return iter(self._decoded)

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def _from_iterable(cls, outcomes: Iterable[Outcome]) -> frozenset[Outcome]:
        return frozenset(outcomes)

    def __hash__(self) -> int:
        return self._hash()

    def __repr__(self) -> str:
        return f"PackedOutcomes({set(self)!r})"


class Witnesses(Mapping[Outcome, object]):
    """A backend's witnesses, read-only, keyed like its outcomes: the search
    keeps a recipe per packed outcome, and `build` turns it into the witness
    on its first read."""

    def __init__(self, outcomes: PackedOutcomes, recipes: dict[int, object], build: Callable[[object], object]) -> None:
        self._outcomes, self._recipes, self._build, self._built = outcomes, recipes, build, {}

    def __getitem__(self, outcome: Outcome) -> object:
        key = self._outcomes.key(outcome)
        if key is None:
            raise KeyError(outcome)
        witness = self._built.get(key)
        if witness is None:
            witness = self._built[key] = self._build(self._recipes[key])
        return witness

    def __contains__(self, outcome: object) -> bool:
        return outcome in self._outcomes

    def __iter__(self) -> Iterator[Outcome]:
        return iter(self._outcomes)

    def __len__(self) -> int:
        return len(self._recipes)


@dataclass(frozen=True)
class OutcomeSet:
    """Deduplicated final outcomes plus a race flag.

    outcomes is a `PackedOutcomes`: a set of `Outcome`s given as a frozenset
    is packed when the OutcomeSet is built.  stats and witnesses are
    exploration byproducts and do not participate in equality; witnesses
    maps an outcome to one execution that produced it: a cxx11
    CandidateExecution, or an sc/tso trace (a tuple of TraceSteps).  Every
    backend returns them as `Witnesses`, each built on its first read.
    """

    outcomes: Set[Outcome]
    racy: bool = False
    stats: Optional[ExplorationStats] = field(default=None, compare=False, repr=False)
    witnesses: Optional[Mapping[Outcome, object]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.outcomes, PackedOutcomes):
            object.__setattr__(self, "outcomes", PackedOutcomes.pack(self.outcomes))

    def sorted_outcomes(self) -> list[Outcome]:
        """The outcomes, as iteration returns them (so `witnesses` knows them
        by identity), sorted as their `Outcome.format` texts are, though no
        text is built: `PackedOutcomes.format_key` sorts their ints."""
        return self.outcomes.in_format_order()


def _conjuncts(expr: BoolExpr) -> Iterator[BoolExpr]:
    """The operands of a tree of `And`s, or `expr` itself when it is none."""
    if isinstance(expr, And):
        yield from _conjuncts(expr.left)
        yield from _conjuncts(expr.right)
    else:
        yield expr


def _never(key: int) -> bool:
    return False


def _compile(expr: BoolExpr, shifts: Mapping[object, int]) -> Callable[[int], bool]:
    """`expr` as a test on a packed outcome.  An atom wants the field at the
    shift `shifts` gives its location, or its (thread, register), to hold
    its value; the atoms of a conjunction make one `key & mask == value`
    test, which never holds when one of them names no field, wants a value
    that is no byte, or contradicts another on its field.  Each `Not`,
    `Or` and non-atom conjunct is a closure of its own."""
    if isinstance(expr, Not):
        operand = _compile(expr.operand, shifts)
        return lambda key: not operand(key)
    if isinstance(expr, Or):
        left, right = _compile(expr.left, shifts), _compile(expr.right, shifts)
        return lambda key: left(key) or right(key)
    if not isinstance(expr, (RegAtom, MemAtom, And)):
        raise TypeError(f"not a boolean expression: {expr!r}")
    wanted: dict[int, int] = {}  # shift -> the value its atoms want there
    rest = []
    satisfiable = True
    for conjunct in _conjuncts(expr):
        if isinstance(conjunct, (RegAtom, MemAtom)):
            name = (conjunct.thread, conjunct.register) if isinstance(conjunct, RegAtom) else conjunct.location
            shift, value = shifts.get(name), conjunct.value
            if shift is None or not _is_byte(value) or wanted.setdefault(shift, value) != value:
                satisfiable = False
        else:
            rest.append(_compile(conjunct, shifts))
    if not satisfiable:
        return _never
    mask = sum(MAX_VALUE << shift for shift in wanted)
    value = sum(v << shift for shift, v in wanted.items())
    if not rest:
        return lambda key: key & mask == value
    return lambda key: key & mask == value and all(test(key) for test in rest)


@dataclass(frozen=True)
class Verdict:
    kind: str  # exists: "allowed" | "forbidden"; forall: "holds" | "fails"
    witnesses: tuple[Outcome, ...]


def eval_assertion(assertion: Assertion, outcomes: OutcomeSet) -> Verdict:
    """exists: allowed iff some outcome satisfies the formula.
    forall: holds iff every outcome does; witnesses carry the relevant
    outcomes (satisfying ones for allowed, violating ones for fails), sorted
    as their `Outcome.format` texts are.  The formula is compiled once into
    tests on the packed outcomes, whose ints are sorted on
    `PackedOutcomes.format_key`, and only the outcomes returned are decoded.
    """
    if assertion.quantifier not in ("exists", "forall"):
        raise ValueError(f"quantifier {assertion.quantifier!r} is neither exists nor forall")
    wanted = assertion.quantifier == "exists"
    packed = outcomes.outcomes
    locations, registers = packed.layout
    # The first field of a name wins, as Outcome.register reads the first.
    shifts = dict(reversed([*zip(locations, packed.location_shifts), *zip(registers, packed.register_shifts)]))
    holds = _compile(assertion.formula, shifts)
    found = tuple(map(packed.decode, sorted((key for key in packed.keys if holds(key) == wanted), key=packed.format_key)))
    if wanted:
        return Verdict("allowed" if found else "forbidden", found)
    return Verdict("fails" if found else "holds", found)


# ---------------------------------------------------------------------------
# events (used by the axiomatic backend and by graph export)

INIT_THREAD = -1


@dataclass(frozen=True)
class Event:
    """One memory event; (thread, index) identifies the source instruction.

    Initialization pseudo-writes use thread INIT_THREAD and index the
    location's position; they are modification-order-first for their location
    and happen-before every program event.  Building one checks nothing; the
    axiomatic functions check a candidate's events against its program.
    """

    id: int
    thread: int
    index: int
    kind: EventKind
    atomic: bool
    order: Optional[MemoryOrder]
    location: Optional[str]
    value_read: Optional[int] = None
    value_written: Optional[int] = None

    @property
    def is_init(self) -> bool:
        return self.thread == INIT_THREAD

    @property
    def reads_memory(self) -> bool:
        return self.kind.reads

    @property
    def writes_memory(self) -> bool:
        return self.kind.writes

    def describe(self) -> str:
        if self.is_init:
            return f"init {self.location}={self.value_written}"
        bits = [f"T{self.thread}#{self.index}", self.kind.value]
        if self.location is not None:
            if self.kind is EventKind.READ:
                bits.append(f"{self.location}={self.value_read}")
            elif self.kind is EventKind.WRITE:
                bits.append(f"{self.location}={self.value_written}")
            else:
                bits.append(f"{self.location}={self.value_read}->{self.value_written}")
        bits.append(self.order.abbrev if self.atomic else "na")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# traces (witnesses of the operational backends)


@dataclass(frozen=True)
class TraceStep:
    kind: str  # "exec" | "dequeue"
    thread: int
    text: str


# ---------------------------------------------------------------------------
# program transforms used by tests and experiments


def force_seq_cst(program: Program) -> Program:
    """Atomic everything, every order seq_cst (non-atomics become atomic)."""
    new_threads = []
    for body in program.threads:
        instrs = []
        for instr in body:
            kind = instr.kind
            if not kind.atomic:
                kind = Kind.LOAD if kind.event is EventKind.READ else Kind.STORE
            failure_order = MemoryOrder.SEQ_CST if "failure_order" in kind.fields else None
            instrs.append(replace(instr, kind=kind, order=MemoryOrder.SEQ_CST, failure_order=failure_order))
        new_threads.append(tuple(instrs))
    return replace(program, threads=tuple(new_threads))


def with_fences_after_stores(program: Program) -> Program:
    """Insert a seq_cst fence after every plain store (TSO: an mfence)."""
    fence = Instruction(Kind.FENCE, order=MemoryOrder.SEQ_CST)
    new_threads = []
    for body in program.threads:
        instrs: list[Instruction] = []
        for instr in body:
            instrs.append(instr)
            if instr.kind.event is EventKind.WRITE:
                instrs.append(fence)
        new_threads.append(tuple(instrs))
    return replace(program, threads=tuple(new_threads))
