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
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .model import (
    DEFAULT_MAX_STATES,
    ExplorationStats,
    Instruction,
    Kind,
    MemoryOrder,
    Outcome,
    OutcomeSet,
    Program,
    ResourceLimitError,
    TraceStep,
    make_outcome,
    rmw_written_value,
)

Pairs = tuple[tuple[str, int], ...]
Step = tuple[str, int, str]  # a TraceStep's fields; built into one only for witnesses


class State(NamedTuple):
    memory: Pairs  # every location, sorted by name
    buffers: tuple[Pairs, ...]  # per thread, oldest first
    pcs: tuple[int, ...]
    registers: tuple[Pairs, ...]  # per thread, sorted by name


def initial_state(program: Program) -> State:
    n = len(program.threads)
    memory = tuple((loc, program.initial_value(loc)) for loc in program.locations)
    return State(memory, ((),) * n, (0,) * n, ((),) * n)


def enabled(program: Program, state: State) -> tuple[tuple[str, int], ...]:
    """(kind, thread) pairs in thread order: exec, then dequeue when the buffer is not empty."""
    transitions = []
    for t, body in enumerate(program.threads):
        pc = state.pcs[t]
        buffer = state.buffers[t]
        # mfence: blocked until the thread's own buffer has drained.
        if pc < len(body) and not (
            buffer and body[pc].kind is Kind.FENCE and body[pc].order is MemoryOrder.SEQ_CST
        ):
            transitions.append(("exec", t))
        if buffer:
            transitions.append(("dequeue", t))
    return tuple(transitions)


def _replace(items: tuple, index: int, item) -> tuple:
    return items[:index] + (item,) + items[index + 1 :]


def _write(pairs: Pairs, name: str, value: int) -> Pairs:
    """Memory with one location updated; insertion order keeps it sorted."""
    updated = dict(pairs)
    updated[name] = value
    return tuple(updated.items())


def _set_register(registers: tuple[Pairs, ...], thread: int, name: str, value: int) -> tuple[Pairs, ...]:
    regs = dict(registers[thread])
    regs[name] = value
    return _replace(registers, thread, tuple(sorted(regs.items())))


def _operand_value(instr: Instruction, regs: Pairs) -> Optional[int]:
    if isinstance(instr.operand, str):
        return dict(regs)[instr.operand]
    return instr.operand


def _step(
    program: Program, state: State, transition: tuple[str, int], buffered: bool, weak_spurious: bool
) -> list[tuple[State, Step]]:
    """Successors of an enabled transition, each with its trace step."""
    kind, t = transition
    memory, buffers, registers = state.memory, state.buffers, state.registers
    if kind == "dequeue":
        loc, value = buffers[t][0]
        succ = State(_write(memory, loc, value), _replace(buffers, t, buffers[t][1:]), state.pcs, registers)
        return [(succ, ("dequeue", t, f"{loc} = {value}"))]

    pc = state.pcs[t]
    instr = program.threads[t][pc]
    pcs = _replace(state.pcs, t, pc + 1)
    k = instr.kind

    if k in (Kind.STORE, Kind.NA_STORE):
        value = _operand_value(instr, registers[t])
        text = f"{k.value} {instr.location} {value}"
        if buffered:
            buffers = _replace(buffers, t, buffers[t] + ((instr.location, value),))
            text += " -> buffer"
        else:
            memory = _write(memory, instr.location, value)
        return [(State(memory, buffers, pcs, registers), ("exec", t, text))]

    if k in (Kind.LOAD, Kind.NA_LOAD):
        value, src = dict(memory)[instr.location], "memory"
        for loc, buffered_value in buffers[t]:  # forward the newest own store
            if loc == instr.location:
                value, src = buffered_value, "buffer"
        succ = State(memory, buffers, pcs, _set_register(registers, t, instr.dest, value))
        return [(succ, ("exec", t, f"{instr.dest} = {k.value} {instr.location} -> {value} ({src})"))]

    if k is Kind.FENCE:
        return [(State(memory, buffers, pcs, registers), ("exec", t, f"fence {instr.order}"))]

    # Locked RMW: drain the buffer, then act on memory, in this one transition.
    if buffers[t]:
        drained = dict(memory)
        drained.update(buffers[t])
        memory = tuple(drained.items())
        buffers = _replace(buffers, t, ())
    old = dict(memory)[instr.location]
    regs = _set_register(registers, t, instr.dest, old)
    head = f"{instr.dest} = {k.value} {instr.location} -> {old} (locked, "

    def succ(written: Pairs, note: str) -> tuple[State, Step]:
        return State(written, buffers, pcs, regs), ("exec", t, head + note + ")")

    if instr.is_cas:
        if old != instr.expected:
            return [succ(memory, "failure")]
        results = [succ(_write(memory, instr.location, instr.desired), "success")]
        if k is Kind.CAS_WEAK and weak_spurious:
            results.append(succ(memory, "spurious failure"))
        return results

    value = rmw_written_value(instr, old, _operand_value(instr, registers[t]))
    return [succ(_write(memory, instr.location, value), f"wrote {value}")]


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
    return tuple(s for s, _ in _step(program, state, transition, buffered, weak_spurious))


def _explore(program: Program, *, buffered: bool, weak_spurious: bool, max_states: int) -> OutcomeSet:
    stats = ExplorationStats()
    witnesses: dict[Outcome, tuple[TraceStep, ...]] = {}
    seen: set[State] = set()
    path: list[Step] = []

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
            outcome = make_outcome(program, [dict(r) for r in state.registers], dict(state.memory))
            if outcome not in witnesses:
                witnesses[outcome] = tuple(TraceStep(*step) for step in path)
            return
        for transition in transitions:
            for succ, step in _step(program, state, transition, buffered, weak_spurious):
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
