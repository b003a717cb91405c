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
each instruction's names into these positions, and its kind into an opcode,
once per exploration, and a terminal state zips its values with the names
into an `Outcome`.  One function, `_successors`, defines which transitions a
state enables and the states they lead to; the search, `enabled` and `apply`
all read it.  Inside the search a state is a plain 4-tuple, which hashes and
compares equal to its `State`; `State` appears only at the public API.  A step
records what it did as data; its text is built only for the path a new
outcome stores as its witness.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .model import (
    CAS_KINDS,
    DEFAULT_MAX_STATES,
    EventKind,
    ExplorationStats,
    Instruction,
    Kind,
    MemoryOrder,
    Outcome,
    OutcomeSet,
    Program,
    ResourceLimitError,
    TraceStep,
)

Step = tuple[str, int, tuple]  # (kind, thread, data): _trace_step builds its TraceStep for witnesses only

# What _successors does with an instruction; _resolve gives each instruction its opcode:
# a CAS kind's own, or else the one for the event its kind makes.
_STORE, _LOAD, _FENCE, _MFENCE, _CAS, _CAS_WEAK, _RMW = range(7)
_OPCODES = {EventKind.WRITE: _STORE, EventKind.READ: _LOAD, EventKind.FENCE: _FENCE, EventKind.RMW: _RMW,
            Kind.CAS_STRONG: _CAS, Kind.CAS_WEAK: _CAS_WEAK}


class State(NamedTuple):
    memory: tuple[int, ...]  # one value per location, in Program.locations order
    buffers: tuple[tuple[tuple[int, int], ...], ...]  # per thread, oldest first: (location index, value)
    pcs: tuple[int, ...]
    registers: tuple[int, ...]  # one per Program.registers entry, 0 until assigned; the pcs say which are


def _resolve(program: Program) -> tuple[tuple[tuple, ...], ...]:
    """Each thread's instructions with their names resolved, once: (opcode,
    instruction, location index, dest slot, register operand's slot or None)."""
    locations = {loc: i for i, loc in enumerate(program.locations)}
    slots = {reg: i for i, reg in enumerate(program.registers)}  # keyed (thread name, register): no literal matches

    def resolved(name: str, i: Instruction) -> tuple:
        op = _OPCODES.get(i.kind, _OPCODES[i.kind.event])
        if op == _FENCE and i.order is MemoryOrder.SEQ_CST:
            op = _MFENCE
        return op, i, locations.get(i.location), slots.get((name, i.dest)), slots.get((name, i.operand))

    return tuple(tuple(resolved(name, i) for i in body) for name, body in zip(program.thread_names, program.threads))


def initial_state(program: Program) -> State:
    n = len(program.threads)
    memory = tuple(program.initial_value(loc) for loc in program.locations)
    return State(memory, ((),) * n, (0,) * n, (0,) * len(program.registers))


def _replace(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index + 1 :]


def _successors(ops: tuple, state: tuple, buffered: bool) -> list[tuple[tuple, Step]]:
    """Every enabled transition's successor states, each with its step's data,
    in thread order: a thread's exec successors, then its dequeue.  The data is
    a dequeue's buffer entry, or (pc, what the instruction did): a store's
    value, a load's (value, source), an RMW's (old value, CAS outcome or value
    written).  No successors: every thread is done and every buffer drained."""
    memory, buffers, pcs, registers = state
    successors: list[tuple[tuple, Step]] = []
    for t, (body, pc, buffer) in enumerate(zip(ops, pcs, buffers)):
        # mfence: blocked until the thread's own buffer has drained.
        if pc < len(body) and not (buffer and body[pc][0] == _MFENCE):
            op, instr, loc, dest, source = body[pc]
            operand = instr.operand if source is None else registers[source]
            after = _replace(pcs, t, pc + 1)
            if op == _STORE:
                if buffered:
                    succ = memory, _replace(buffers, t, buffer + ((loc, operand),)), after, registers
                else:
                    succ = _replace(memory, loc, operand), buffers, after, registers
                successors.append((succ, ("exec", t, (pc, operand))))
            elif op == _LOAD:
                value, src = memory[loc], "memory"
                for buffered_loc, buffered_value in buffer:  # forward the newest own store
                    if buffered_loc == loc:
                        value, src = buffered_value, "buffer"
                succ = memory, buffers, after, _replace(registers, dest, value)
                successors.append((succ, ("exec", t, (pc, (value, src)))))
            elif op <= _MFENCE:
                successors.append(((memory, buffers, after, registers), ("exec", t, (pc, None))))
            else:
                # Locked RMW: drain the buffer, then act on memory, in this one transition.
                drained, emptied = memory, buffers
                if buffer:
                    cells = list(memory)
                    for buffered_loc, buffered_value in buffer:
                        cells[buffered_loc] = buffered_value
                    drained, emptied = tuple(cells), _replace(buffers, t, ())
                old = drained[loc]
                regs = _replace(registers, dest, old)
                failed = drained, emptied, after, regs  # memory as the drain left it
                if op == _RMW:
                    value = instr.kind.update(old, operand)
                    succ = _replace(drained, loc, value), emptied, after, regs
                    successors.append((succ, ("exec", t, (pc, (old, value)))))
                elif old != instr.expected:
                    successors.append((failed, ("exec", t, (pc, (old, "failure")))))
                else:
                    succ = _replace(drained, loc, instr.desired), emptied, after, regs
                    successors.append((succ, ("exec", t, (pc, (old, "success")))))
                    if op == _CAS_WEAK:
                        successors.append((failed, ("exec", t, (pc, (old, "spurious failure")))))
        if buffer:  # dequeue: the oldest buffered store reaches memory
            entry = buffer[0]
            succ = _replace(memory, entry[0], entry[1]), _replace(buffers, t, buffer[1:]), pcs, registers
            successors.append((succ, ("dequeue", t, entry)))
    return successors


def enabled(program: Program, state: State) -> tuple[tuple[str, int], ...]:
    """(kind, thread) pairs in thread order: exec, then dequeue when the buffer is not empty."""
    steps = _successors(_resolve(program), state, True)  # buffered changes the states that follow, not the steps
    return tuple(dict.fromkeys(step[:2] for _, step in steps))


def _trace_step(program: Program, step: Step, buffered: bool) -> TraceStep:
    """A step's TraceStep, its text built from the step's data: a dequeue's
    buffer entry, or an instruction's pc and what it did (see _successors)."""
    kind, t, (at, payload) = step
    if kind == "dequeue":
        return TraceStep(kind, t, f"{program.locations[at]} = {payload}")
    instr = program.threads[t][at]
    k = instr.kind
    if k.event is EventKind.FENCE:
        text = f"fence {instr.order}"
    elif k.event is EventKind.WRITE:
        text = f"{k.value} {instr.location} {payload}" + (" -> buffer" if buffered else "")
    else:
        value, note = payload
        if k.event is EventKind.RMW:
            note = f"locked, {note if k in CAS_KINDS else f'wrote {note}'}"
        text = f"{instr.dest} = {k.value} {instr.location} -> {value} ({note})"
    return TraceStep(kind, t, text)


def apply(
    program: Program,
    state: State,
    transition: tuple[str, int],
    *,
    buffered: bool = True,
) -> tuple[State, ...]:
    """Apply one enabled transition; cas_weak success yields two states."""
    steps = _successors(_resolve(program), state, buffered)
    successors = tuple(State._make(succ) for succ, step in steps if step[:2] == transition)
    if not successors:
        raise ValueError(f"transition {transition} is not enabled")
    return successors


def _explore(program: Program, *, buffered: bool, max_states: int) -> OutcomeSet:
    stats = ExplorationStats()
    witnesses: dict[Outcome, tuple[TraceStep, ...]] = {}
    ops = _resolve(program)
    root = tuple(initial_state(program))
    seen = {root}
    path: list[Step] = []
    explored = 0
    # Witnesses share their TraceSteps: each distinct step is built once.
    trace_step = functools.cache(lambda step: _trace_step(program, step, buffered))

    def visit(state: tuple) -> None:
        nonlocal explored
        explored += 1
        if explored > max_states:
            raise ResourceLimitError("state", max_states)
        successors = _successors(ops, state, buffered)
        if not successors:
            # all threads done and all buffers drained
            stats.complete_runs += 1
            registers = tuple((t, r, v) for (t, r), v in zip(program.registers, state[3]))
            outcome = Outcome(registers, tuple(zip(program.locations, state[0])))
            if outcome not in witnesses:
                witnesses[outcome] = tuple(map(trace_step, path))
            return
        for succ, step in successors:
            size = len(seen)
            seen.add(succ)  # one hash per successor: the set grows only when succ is new
            if len(seen) != size:
                path.append(step)
                visit(succ)
                path.pop()

    try:
        visit(root)
    finally:
        stats.explored = explored
    return OutcomeSet(frozenset(witnesses), racy=False, stats=stats, witnesses=witnesses)


def enumerate_sc(
    program: Program,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> OutcomeSet:
    """Every interleaving against one shared memory: the machine with unbuffered stores."""
    return _explore(program, buffered=False, max_states=max_states)


def enumerate_tso(
    program: Program,
    *,
    max_states: int = DEFAULT_MAX_STATES,
) -> OutcomeSet:
    """Every interleaving and dequeue schedule of the store-buffer machine."""
    return _explore(program, buffered=True, max_states=max_states)
