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

A state is one int of bit fields, from the lowest bit up:
- an 8-bit value per location, in `Program.locations` order (values are
  bytes, 0..MAX_VALUE, so every value fits its field);
- an 8-bit value per register slot, in `Program.registers` order, 0 until
  assigned (the pcs say which are);
- a pc per thread, each as wide as the longest thread needs;
- under TSO, per thread, the count of its buffered stores and then one entry
  slot per store instruction of the thread, oldest entry lowest: a value in
  the low 8 bits with its location index above.
`_resolve` builds this layout, its location and register fields as
`model.PackedOutcomes.shifts` gives them, and turns each instruction's names
into field shifts and its kind into an opcode, once per exploration; check_runnable
first raises ValueError for a program no backend can run.  A thread is one
flat row (index, body, length, field shifts and masks), and a thread with no
buffer (every one under SC) never reads a buffer count.  One function, `_successors`, defines
which transitions a state enables and the states they lead to, as arithmetic
on the int, and the search, `_explore`, is its only caller.  A state is
terminal when every pc is at its thread's end and every buffer count is 0,
one masked compare.  Its location and register fields are its outcome as
`model.PackedOutcomes` packs one, so the outcome is the state masked to
them, and no `Outcome` is built during the search.  A step records what it
did as data.  Each outcome keeps the steps of the first path to it, and
`witnesses`, a read-only `Witnesses` mapping, builds its trace on the first
read, one TraceStep per distinct step.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

from .model import (
    CAS_KINDS,
    DEFAULT_MAX_STATES,
    MAX_VALUE,
    EventKind,
    ExplorationStats,
    Kind,
    MemoryOrder,
    OutcomeSet,
    PackedOutcomes,
    Program,
    ResourceLimitError,
    TraceStep,
    Witnesses,
    check_runnable,
)

# A step: (successor, thread, pc, payload).  A dequeue's pc is None and its
# payload the buffer entry it published; an instruction's payload is what it
# did: a store's value, a load's value (| _FORWARDED when read from the own
# buffer), an RMW's old value | the value written << 8, a CAS's old value |
# its outcome (_CAS_NOTES), a fence's None.
Step = tuple[int, int, Optional[int], Optional[int]]

_BYTE = MAX_VALUE  # the mask of an 8-bit value field
_FORWARDED = 1 << 8
_CAS_NOTES = ("failure", "success", "spurious failure")
_SUCCESS, _SPURIOUS = 1 << 8, 2 << 8

# What _successors does with an instruction; _resolve gives each instruction its opcode:
# a CAS kind's own, or else the one for the event its kind makes.
_STORE, _LOAD, _FENCE, _MFENCE, _CAS, _CAS_WEAK, _RMW = range(7)
_OPCODES = {EventKind.WRITE: _STORE, EventKind.READ: _LOAD, EventKind.FENCE: _FENCE, EventKind.RMW: _RMW,
            Kind.CAS_STRONG: _CAS, Kind.CAS_WEAK: _CAS_WEAK}


class _Machine(NamedTuple):
    """A program's resolved instructions and the field layout of its states."""

    # Per thread, a flat row: (thread index, body, body length, pc shift, pc mask,
    # count shift, count mask, buffer shift, buffer mask); body[pc] is (opcode,
    # literal operand, location shift, location index, dest shift, register
    # operand's shift or None, instruction).  Without buffers the count and buffer masks are 0.
    threads: tuple[tuple, ...]
    entry_bits: int  # one buffer entry: 8 value bits, then the location index
    outcome_mask: int  # every location and register field: a state's outcome, packed as model.PackedOutcomes packs it
    root: int  # the initial state
    done_mask: int  # every pc and buffer count field
    done: int  # every pc at its thread's end, every count 0


def _resolve(program: Program, buffered: bool) -> _Machine:
    """The machine of `program`, built in one pass over its instructions,
    with buffer fields when `buffered`.  ValueError, from check_runnable,
    for a program no backend can run; past it, every operand register has
    a slot and every value fits its 8-bit field."""
    check_runnable(program)
    locations = {loc: i for i, loc in enumerate(program.locations)}
    # A state's low fields are its outcome, laid out as PackedOutcomes lays one out.
    location_shifts, register_shifts, pc_base = PackedOutcomes.shifts(program.locations, program.registers)
    # Each register field's shift, keyed (thread name, register): no literal matches.
    slots = dict(zip(program.registers, register_shifts))
    entry_bits = 8 + (len(locations) - 1).bit_length()
    pc_bits = max(map(len, program.threads), default=0).bit_length()
    cursor = pc_base + pc_bits * len(program.threads)  # the next free bit: each thread's buffer fields follow the pcs
    threads = []
    done = done_mask = 0
    for t, (name, body) in enumerate(zip(program.thread_names, program.threads)):
        resolved = []
        for instr in body:
            op = _OPCODES.get(instr.kind, _OPCODES[instr.kind.event])
            if op == _FENCE and instr.order is MemoryOrder.SEQ_CST:
                op = _MFENCE
            loc = locations.get(instr.location)
            dest = slots.get((name, instr.dest))
            source = None
            if instr.operand.__class__ is str:  # check_runnable saw it assigned earlier in this thread
                source = slots[name, instr.operand]
            resolved.append((op, instr.operand, None if loc is None else location_shifts[loc], loc, dest, source, instr))
        pc_shift = pc_base + t * pc_bits
        stores = sum(entry[0] == _STORE for entry in resolved) if buffered else 0
        count_bits = stores.bit_length()
        count_mask = (1 << count_bits) - 1
        threads.append(
            (t, tuple(resolved), len(resolved), pc_shift, (1 << pc_bits) - 1, cursor, count_mask,
             cursor + count_bits, (1 << stores * entry_bits) - 1)
        )
        done += len(body) << pc_shift
        done_mask |= (1 << pc_bits) - 1 << pc_shift | count_mask << cursor
        cursor += count_bits + stores * entry_bits
    return _Machine(
        tuple(threads),
        entry_bits,
        (1 << pc_base) - 1,
        sum(value << location_shifts[locations[loc]] for loc, value in program.init.items()),
        done_mask,
        done,
    )


def _successors(machine: _Machine, state: int) -> list[Step]:
    """Every enabled transition's step (see Step), in thread order: a
    thread's exec successors, then its dequeue.  A terminal state (see
    _Machine.done) has none.  A thread's stores are buffered exactly when
    its count mask is not 0: _resolve gives a thread buffer fields only
    under TSO, and then only when it has a store."""
    entry_bits = machine.entry_bits
    entry_mask = (1 << entry_bits) - 1
    successors: list[Step] = []
    for t, body, length, pc_shift, pc_mask, count_shift, count_mask, buffer_shift, buffer_mask in machine.threads:
        pc = state >> pc_shift & pc_mask
        n = state >> count_shift & count_mask if count_mask else 0  # the thread's buffered stores
        if pc < length:
            op, literal, at, loc, dest, source, instr = body[pc]
            operand = literal if source is None else state >> source & _BYTE
            after = state + (1 << pc_shift)
            if op == _STORE:
                if count_mask:
                    succ = after + (1 << count_shift) + ((operand | loc << 8) << buffer_shift + n * entry_bits)
                else:
                    succ = after + ((operand - (state >> at & _BYTE)) << at)
                successors.append((succ, t, pc, operand))
            elif op == _LOAD:
                payload = state >> at & _BYTE
                for k in range(n):  # forward the newest own store
                    entry = state >> buffer_shift + k * entry_bits & entry_mask
                    if entry >> 8 == loc:
                        payload = entry & _BYTE | _FORWARDED
                succ = after + (((payload & _BYTE) - (state >> dest & _BYTE)) << dest)
                successors.append((succ, t, pc, payload))
            elif op <= _MFENCE:  # mfence: blocked until the thread's own buffer has drained
                if not (n and op == _MFENCE):
                    successors.append((after, t, pc, None))
            else:
                # Locked RMW: drain the buffer, then act on memory, in this one transition.
                if n:  # each entry, oldest first, reaches memory; then the buffer fields clear
                    buffer = state >> buffer_shift & buffer_mask
                    for k in range(n):
                        entry = buffer >> k * entry_bits & entry_mask
                        cell = (entry >> 8) * 8
                        after += ((entry & _BYTE) - (after >> cell & _BYTE)) << cell
                    after -= (buffer << buffer_shift) + (n << count_shift)
                old = after >> at & _BYTE
                failed = after + ((old - (after >> dest & _BYTE)) << dest)  # memory as the drain left it
                if op == _RMW:
                    value = instr.kind.update(old, operand)
                    successors.append((failed + ((value - old) << at), t, pc, old | value << 8))
                elif old != instr.expected:
                    successors.append((failed, t, pc, old))
                else:
                    successors.append((failed + ((instr.desired - old) << at), t, pc, old | _SUCCESS))
                    if op == _CAS_WEAK:
                        successors.append((failed, t, pc, old | _SPURIOUS))
        if n:  # dequeue: the oldest buffered store reaches memory, the rest shift down
            buffer = state >> buffer_shift & buffer_mask
            entry = buffer & entry_mask
            rest = buffer >> entry_bits
            cell = (entry >> 8) * 8
            succ = state + ((rest - buffer) << buffer_shift) - (1 << count_shift)
            successors.append((succ + (((entry & _BYTE) - (state >> cell & _BYTE)) << cell), t, None, entry))
    return successors


def _trace_step(program: Program, step: tuple[int, Optional[int], Optional[int]], buffered: bool) -> TraceStep:
    """A step's TraceStep, its text built from its (thread, pc, payload); see Step."""
    t, pc, payload = step
    if pc is None:
        return TraceStep("dequeue", t, f"{program.locations[payload >> 8]} = {payload & _BYTE}")
    instr = program.threads[t][pc]
    k = instr.kind
    if k.event is EventKind.FENCE:
        text = f"fence {instr.order}"
    elif k.event is EventKind.WRITE:
        text = f"{k.value} {instr.location} {payload}" + (" -> buffer" if buffered else "")
    else:
        value, note = payload & _BYTE, payload >> 8
        if k in CAS_KINDS:
            note = f"locked, {_CAS_NOTES[note]}"
        elif k.event is EventKind.RMW:
            note = f"locked, wrote {note}"
        else:
            note = "buffer" if note else "memory"
        text = f"{instr.dest} = {k.value} {instr.location} -> {value} ({note})"
    return TraceStep("exec", t, text)


def _explore(program: Program, *, buffered: bool, max_states: int) -> OutcomeSet:
    stats = ExplorationStats()
    paths: dict[int, tuple[Step, ...]] = {}  # each packed outcome's witness recipe: the steps that reached it
    machine = _resolve(program, buffered)
    seen = {machine.root}
    path: list[Step] = []
    explored = 0
    # Witnesses share their TraceSteps: each distinct step is built once, on its first read.
    trace_step = functools.cache(lambda step: _trace_step(program, step, buffered))
    outcome_mask, done_mask, done = machine.outcome_mask, machine.done_mask, machine.done

    def visit(state: int) -> None:
        nonlocal explored
        explored += 1
        if explored > max_states:
            raise ResourceLimitError("state", max_states)
        if state & done_mask == done:
            # All threads done and all buffers drained.  A terminal state's
            # fields other than its values are fixed, so each is a new outcome.
            stats.complete_runs += 1
            paths[state & outcome_mask] = tuple(path)
            return
        for step in _successors(machine, state):
            succ = step[0]
            if succ not in seen:
                seen.add(succ)
                path.append(step)
                visit(succ)
                path.pop()

    try:
        visit(machine.root)
    finally:
        stats.explored = explored
    outcomes = PackedOutcomes(paths.keys(), program.locations, program.registers)
    witnesses = Witnesses(outcomes, paths, lambda steps: tuple(trace_step(step[1:]) for step in steps))
    return OutcomeSet(outcomes, racy=False, stats=stats, witnesses=witnesses)


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
