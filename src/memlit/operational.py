"""One operational machine for SC and x86-TSO.

Threads step one instruction at a time against one shared memory, and each
thread has a FIFO store buffer (x86-TSO: Owens, Sarkar & Sewell, TPHOLs 2009).
Under TSO (`buffered=True`) every store, atomic or not and of any order, is
appended to its thread's buffer; a load reads the thread's newest buffered
value for its location, falling back to shared memory; fence seq_cst is an
mfence and cannot execute until the thread's own buffer is empty; weaker
fences do nothing; every RMW is a locked instruction that drains the buffer
and acts on memory in one atomic step.  A buffered store reaches memory at
any time through a dequeue transition.

SC is the same machine whose stores commit at once (`buffered=False`): the
buffers stay empty, so mfence never waits, no dequeue is enabled, and
forwarding and the RMW drain do nothing.  Memory orders are then irrelevant,
and non-atomic accesses behave like plain ones.  Besides the choice of
transition, the only nondeterminism is the spurious-failure branch of
cas_weak, exposed as an extra successor state.

A state is positional: memory is one value per location, in
`Program.locations` order, a buffer entry is a (location index, value) pair,
and registers are one slot per `Program.registers` entry.  `_resolve` turns
each instruction's names into these positions once per exploration, and a
terminal state zips its values with the names into an `Outcome`.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import (
    DEFAULT_MAX_STATES,
    ExplorationStats,
    Kind,
    MemoryOrder,
    Outcome,
    OutcomeSet,
    Program,
    ResourceLimitError,
    TraceStep,
    rmw_written_value,
)

Step = tuple[str, int, str]  # a TraceStep's fields; built into one only for witnesses


class State(NamedTuple):
    memory: tuple[int, ...]  # one value per location, in Program.locations order
    buffers: tuple[tuple[tuple[int, int], ...], ...]  # per thread, oldest first: (location index, value)
    pcs: tuple[int, ...]
    registers: tuple[int, ...]  # one per Program.registers entry, 0 until assigned; the pcs say which are


def _resolve(program: Program) -> tuple[tuple[tuple, ...], ...]:
    """Each thread's instructions with their names resolved, once: (instruction,
    location index, dest slot, register operand's slot or None)."""
    locations = {loc: i for i, loc in enumerate(program.locations)}
    slots = {reg: i for i, reg in enumerate(program.registers)}  # keyed (thread name, register): no literal matches
    return tuple(
        tuple(
            (instr, locations.get(instr.location), slots.get((name, instr.dest)), slots.get((name, instr.operand)))
            for instr in body
        )
        for name, body in zip(program.thread_names, program.threads)
    )


def initial_state(program: Program) -> State:
    n = len(program.threads)
    memory = tuple(program.initial_value(loc) for loc in program.locations)
    return State(memory, ((),) * n, (0,) * n, (0,) * len(program.registers))


def enabled(program: Program, state: State) -> tuple[tuple[str, int], ...]:
    """(kind, thread) pairs in thread order: exec, then dequeue when the buffer is not empty."""
    transitions = []
    for t, (body, pc, buffer) in enumerate(zip(program.threads, state.pcs, state.buffers)):
        # mfence: blocked until the thread's own buffer has drained.
        if pc < len(body) and not (buffer and body[pc].kind is Kind.FENCE and body[pc].order is MemoryOrder.SEQ_CST):
            transitions.append(("exec", t))
        if buffer:
            transitions.append(("dequeue", t))
    return tuple(transitions)


def _replace(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index + 1 :]


def _step(
    program: Program, ops: tuple, state: State, transition: tuple[str, int], buffered: bool, weak_spurious: bool
) -> list[tuple[State, Step]]:
    """Successors of an enabled transition, each with its trace step."""
    kind, t = transition
    memory, buffers, pcs, registers = state
    if kind == "dequeue":
        loc, value = buffers[t][0]
        succ = State(_replace(memory, loc, value), _replace(buffers, t, buffers[t][1:]), pcs, registers)
        return [(succ, ("dequeue", t, f"{program.locations[loc]} = {value}"))]

    pc = pcs[t]
    instr, loc, dest, source = ops[t][pc]
    operand = instr.operand if source is None else registers[source]
    pcs = _replace(pcs, t, pc + 1)
    k = instr.kind

    if k in (Kind.STORE, Kind.NA_STORE):
        text = f"{k.value} {instr.location} {operand}"
        if buffered:
            buffers = _replace(buffers, t, buffers[t] + ((loc, operand),))
            text += " -> buffer"
        else:
            memory = _replace(memory, loc, operand)
        return [(State(memory, buffers, pcs, registers), ("exec", t, text))]

    if k in (Kind.LOAD, Kind.NA_LOAD):
        value, src = memory[loc], "memory"
        for buffered_loc, buffered_value in buffers[t]:  # forward the newest own store
            if buffered_loc == loc:
                value, src = buffered_value, "buffer"
        succ = State(memory, buffers, pcs, _replace(registers, dest, value))
        return [(succ, ("exec", t, f"{instr.dest} = {k.value} {instr.location} -> {value} ({src})"))]

    if k is Kind.FENCE:
        return [(State(memory, buffers, pcs, registers), ("exec", t, f"fence {instr.order}"))]

    # Locked RMW: drain the buffer, then act on memory, in this one transition.
    if buffers[t]:
        drained = list(memory)
        for buffered_loc, buffered_value in buffers[t]:
            drained[buffered_loc] = buffered_value
        memory = tuple(drained)
        buffers = _replace(buffers, t, ())
    old = memory[loc]
    regs = _replace(registers, dest, old)
    head = f"{instr.dest} = {k.value} {instr.location} -> {old} (locked, "

    def succ(written: tuple[int, ...], note: str) -> tuple[State, Step]:
        return State(written, buffers, pcs, regs), ("exec", t, head + note + ")")

    if instr.is_cas:
        if old != instr.expected:
            return [succ(memory, "failure")]
        results = [succ(_replace(memory, loc, instr.desired), "success")]
        if k is Kind.CAS_WEAK and weak_spurious:
            results.append(succ(memory, "spurious failure"))
        return results

    value = rmw_written_value(instr, old, operand)
    return [succ(_replace(memory, loc, value), f"wrote {value}")]


def apply(
    program: Program,
    state: State,
    transition: tuple[str, int],
    *,
    buffered: bool = True,
    weak_spurious: bool = True,
) -> tuple[State, ...]:
    """Apply one enabled transition; cas_weak success yields two states."""
    if transition not in enabled(program, state):
        raise ValueError(f"transition {transition} is not enabled")
    return tuple(s for s, _ in _step(program, _resolve(program), state, transition, buffered, weak_spurious))


def _explore(program: Program, *, buffered: bool, weak_spurious: bool, max_states: int) -> OutcomeSet:
    stats = ExplorationStats()
    witnesses: dict[Outcome, tuple[TraceStep, ...]] = {}
    seen: set[State] = set()
    path: list[Step] = []
    ops = _resolve(program)

    def visit(state: State) -> None:
        if state in seen:
            return
        seen.add(state)
        stats.explored += 1
        if stats.explored > max_states:
            raise ResourceLimitError("state", max_states)
        transitions = enabled(program, state)
        if not transitions:
            # all threads done and all buffers drained
            stats.complete_runs += 1
            registers = tuple((t, r, v) for (t, r), v in zip(program.registers, state.registers))
            outcome = Outcome(registers, tuple(zip(program.locations, state.memory)))
            if outcome not in witnesses:
                witnesses[outcome] = tuple(TraceStep(*step) for step in path)
            return
        for transition in transitions:
            for succ, step in _step(program, ops, state, transition, buffered, weak_spurious):
                path.append(step)
                visit(succ)
                path.pop()

    visit(initial_state(program))
    return OutcomeSet(frozenset(witnesses), racy=False, stats=stats, witnesses=witnesses)


def enumerate_sc(
    program: Program,
    *,
    weak_spurious: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
) -> OutcomeSet:
    """Every interleaving against one shared memory: the machine with unbuffered stores."""
    return _explore(program, buffered=False, weak_spurious=weak_spurious, max_states=max_states)


def enumerate_tso(
    program: Program,
    *,
    weak_spurious: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
) -> OutcomeSet:
    """Every interleaving and dequeue schedule of the store-buffer machine."""
    return _explore(program, buffered=True, weak_spurious=weak_spurious, max_states=max_states)
