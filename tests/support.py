"""Reference oracles, candidate spaces, random-program strategies and the
hand-built programs that the tests and tests/differential.py share.

The operational oracles re-derive the semantics from scratch on plain dicts,
and the axiomatic oracle judges candidates on frozensets of (a, b) pairs
with the relation helpers below, so the backends are checked against an
independent implementation, not against themselves.
"""

from __future__ import annotations

import ast
import itertools
import random
from collections.abc import Callable, Iterator, Mapping
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

from hypothesis import strategies as st

from memlit.axiomatic import CandidateExecution, ExecutionJudgment
from memlit.dsl import ParseError, parse_litmus
from memlit.model import (
    INIT_THREAD,
    And,
    Assertion,
    BoolExpr,
    Event,
    EventKind,
    Instruction,
    Kind,
    MemAtom,
    MemoryOrder,
    Not,
    Or,
    Outcome,
    Program,
    RegAtom,
    validate,
)

# The oracles' own classification, written out here so that a wrong row in
# memlit's instruction table is not mirrored by the oracle that checks it.
# acq_rel fences act as both an acquire and a release fence; relaxed fences
# have no effect.
ACQUIRE_CLASS = frozenset({MemoryOrder.ACQUIRE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST})
RELEASE_CLASS = frozenset({MemoryOrder.RELEASE, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST})
CAS_KINDS = frozenset({Kind.CAS_STRONG, Kind.CAS_WEAK})

_FETCH = {
    Kind.FETCH_ADD: lambda a, b: (a + b) % 256,
    Kind.FETCH_SUB: lambda a, b: (a - b) % 256,
    Kind.FETCH_AND: lambda a, b: a & b,
    Kind.FETCH_OR: lambda a, b: a | b,
    Kind.FETCH_XOR: lambda a, b: a ^ b,
}


def _operand(instr: Instruction, regs: dict[str, int]) -> int:
    return regs[instr.operand] if isinstance(instr.operand, str) else instr.operand


def make_outcome(program: Program, registers: list[Mapping[str, int]], memory: Mapping[str, int]) -> Outcome:
    """Final registers, one mapping per thread, and memory as an Outcome; a missing location holds its initial value."""
    threads = dict(zip(program.thread_names, registers))
    regs = tuple((name, reg, threads[name][reg]) for name, reg in program.registers)
    return Outcome(regs, tuple((loc, memory.get(loc, program.initial_value(loc))) for loc in program.locations))


def reg_pairs(result, a=("P0", "r1"), b=("P1", "r2")) -> set[tuple[int, int]]:
    """The (a, b) register value pairs over a result's outcomes, each register a (thread, name)."""
    return {(o.register(*a), o.register(*b)) for o in result.outcomes}


def satisfies(expr: BoolExpr, outcome: Outcome) -> bool:
    """The assertion oracle: `expr` read recursively on a decoded outcome."""
    if isinstance(expr, RegAtom):
        return outcome.register(expr.thread, expr.register) == expr.value
    if isinstance(expr, MemAtom):
        return outcome.location(expr.location) == expr.value
    if isinstance(expr, Not):
        return not satisfies(expr.operand, outcome)
    if isinstance(expr, And):
        return satisfies(expr.left, outcome) and satisfies(expr.right, outcome)
    if isinstance(expr, Or):
        return satisfies(expr.left, outcome) or satisfies(expr.right, outcome)
    raise TypeError(f"not a boolean expression: {expr!r}")


def _final_outcome(program: Program, mem, regs) -> Outcome:
    return make_outcome(program, [dict(r) for r in regs], dict(mem))


def sc_outcomes(program: Program) -> frozenset[Outcome]:
    """Every interleaving, executed on a single shared memory."""
    results: set[Outcome] = set()

    def step(mem, regs, pcs):
        progressed = False
        for t, body in enumerate(program.threads):
            pc = pcs[t]
            if pc >= len(body):
                continue
            progressed = True
            instr = body[pc]
            next_pcs = pcs[:t] + (pc + 1,) + pcs[t + 1 :]
            for mem2, regs2 in _sc_effects(mem, regs, t, instr):
                step(mem2, regs2, next_pcs)
        if not progressed:
            results.add(_final_outcome(program, mem, regs))

    step(
        {loc: program.initial_value(loc) for loc in program.locations},
        [dict() for _ in program.threads],
        tuple(0 for _ in program.threads),
    )
    return frozenset(results)


def _sc_effects(mem, regs, t, instr):
    def with_reg(value, new_mem=None):
        regs2 = [dict(r) for r in regs]
        regs2[t][instr.dest] = value
        return (new_mem if new_mem is not None else dict(mem), regs2)

    k = instr.kind
    if k in (Kind.STORE, Kind.NA_STORE):
        mem2 = dict(mem)
        mem2[instr.location] = _operand(instr, regs[t])
        return [(mem2, [dict(r) for r in regs])]
    if k in (Kind.LOAD, Kind.NA_LOAD):
        return [with_reg(mem[instr.location])]
    if k is Kind.FENCE:
        return [(dict(mem), [dict(r) for r in regs])]
    old = mem[instr.location]
    if k in (Kind.CAS_STRONG, Kind.CAS_WEAK):
        outs = []
        if old == instr.expected:
            mem2 = dict(mem)
            mem2[instr.location] = instr.desired
            outs.append(with_reg(old, mem2))
            if k is Kind.CAS_WEAK:  # a spurious failure
                outs.append(with_reg(old))
        else:
            outs.append(with_reg(old))
        return outs
    if k is Kind.EXCHANGE:
        mem2 = dict(mem)
        mem2[instr.location] = _operand(instr, regs[t])
        return [with_reg(old, mem2)]
    mem2 = dict(mem)
    mem2[instr.location] = _FETCH[k](old, _operand(instr, regs[t]))
    return [with_reg(old, mem2)]


def tso_search(program: Program) -> tuple[frozenset[Outcome], int]:
    """Exhaustive search over (memory, buffers, pcs, registers) states
    with explicit nondeterministic dequeues and store-to-load forwarding:
    its outcomes, and how many distinct states it reached."""
    results: set[Outcome] = set()
    n = len(program.threads)
    start = (
        tuple(sorted((loc, program.initial_value(loc)) for loc in program.locations)),
        tuple(() for _ in range(n)),
        tuple(0 for _ in range(n)),
        tuple(() for _ in range(n)),
    )
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        mem_t, bufs, pcs, regs_t = state
        mem = dict(mem_t)
        regs = [dict(r) for r in regs_t]
        successors = []
        for t in range(n):
            if bufs[t]:
                loc, val = bufs[t][0]
                mem2 = dict(mem)
                mem2[loc] = val
                successors.append((mem2, _replace(bufs, t, bufs[t][1:]), pcs, regs_t))
            pc = pcs[t]
            if pc >= len(program.threads[t]):
                continue
            instr = program.threads[t][pc]
            if instr.kind is Kind.FENCE:
                if instr.order is MemoryOrder.SEQ_CST and bufs[t]:
                    continue  # waits for its own buffer to drain
                successors.append((mem, bufs, _advance(pcs, t), regs_t))
                continue
            if instr.kind in (Kind.STORE, Kind.NA_STORE):
                entry = (instr.location, _operand(instr, regs[t]))
                successors.append((mem, _replace(bufs, t, bufs[t] + (entry,)), _advance(pcs, t), regs_t))
                continue
            if instr.kind in (Kind.LOAD, Kind.NA_LOAD):
                value = mem[instr.location]
                for loc, val in bufs[t]:
                    if loc == instr.location:
                        value = val  # newest buffered write wins
                successors.append((mem, bufs, _advance(pcs, t), _set_reg(regs_t, t, instr.dest, value)))
                continue
            # locked RMW: drain own buffer, then read-modify-write memory
            drained = dict(mem)
            for loc, val in bufs[t]:
                drained[loc] = val
            old = drained[instr.location]
            bufs2 = _replace(bufs, t, ())
            regs2 = _set_reg(regs_t, t, instr.dest, old)
            if instr.kind in (Kind.CAS_STRONG, Kind.CAS_WEAK):
                if old == instr.expected:
                    written = dict(drained)
                    written[instr.location] = instr.desired
                    successors.append((written, bufs2, _advance(pcs, t), regs2))
                    if instr.kind is Kind.CAS_WEAK:  # a spurious failure
                        successors.append((drained, bufs2, _advance(pcs, t), regs2))
                else:
                    successors.append((drained, bufs2, _advance(pcs, t), regs2))
            else:
                written = dict(drained)
                if instr.kind is Kind.EXCHANGE:
                    written[instr.location] = _operand(instr, regs[t])
                else:
                    written[instr.location] = _FETCH[instr.kind](old, _operand(instr, regs[t]))
                successors.append((written, bufs2, _advance(pcs, t), regs2))
        if not successors:
            results.add(_final_outcome(program, mem, regs))
            continue
        for mem2, bufs2, pcs2, regs2 in successors:
            key = (tuple(sorted(mem2.items())) if isinstance(mem2, dict) else mem2, bufs2, pcs2, regs2)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return frozenset(results), len(seen)


def _replace(bufs, t, new):
    return bufs[:t] + (new,) + bufs[t + 1 :]


def _advance(pcs, t):
    return pcs[:t] + (pcs[t] + 1,) + pcs[t + 1 :]


def _set_reg(regs_t, t, dest, value):
    d = dict(regs_t[t])
    d[dest] = value
    return regs_t[:t] + (tuple(sorted(d.items())),) + regs_t[t + 1 :]


def value_universe(program: Program) -> frozenset[int]:
    """Closure of every value any execution could place in memory.

    Register contents are always values read back out of memory, so outcome
    registers are bounded by this set too.
    """
    values = set(program.init.values())
    instrs = [instr for thread in program.threads for instr in thread]
    changed = True
    while changed:
        changed = False
        for instr in instrs:
            if instr.kind in (Kind.STORE, Kind.NA_STORE, Kind.EXCHANGE):
                new = values if isinstance(instr.operand, str) else {instr.operand}
            elif instr.kind in (Kind.CAS_STRONG, Kind.CAS_WEAK):
                new = {instr.desired}
            elif instr.kind in _FETCH:
                ops = values if isinstance(instr.operand, str) else {instr.operand}
                new = {_FETCH[instr.kind](old, op) for old in values for op in ops}
            else:
                continue
            if not new <= values:
                values |= new
                changed = True
    return frozenset(values)


def reachable_pairs(universe, pairs) -> frozenset[tuple[int, int]]:
    """Brute-force reachability: (a, b) iff a nonempty path a -> b."""
    succ: dict[int, set[int]] = {u: set() for u in universe}
    for a, b in pairs:
        succ[a].add(b)
    out = set()
    for a in universe:
        stack = list(succ[a])
        seen = set()
        while stack:
            b = stack.pop()
            if b in seen:
                continue
            seen.add(b)
            out.add((a, b))
            stack.extend(succ[b])
    return frozenset(out)


# ---------------------------------------------------------------------------
# relation algebra: the vocabulary of the axiomatic oracle


Pairs = frozenset[tuple[int, int]]


def _adjacency(r: Pairs) -> tuple[list[int], dict[int, int], list[int]]:
    nodes = sorted({e for pair in r for e in pair})
    index = {n: i for i, n in enumerate(nodes)}
    adj = [0] * len(nodes)
    for a, b in r:
        adj[index[a]] |= 1 << index[b]
    return nodes, index, adj


def transitive_closure(r: Pairs) -> Pairs:
    nodes, _, adj = _adjacency(r)
    n = len(nodes)
    # Floyd-Warshall, one bitmask row per node.
    for k in range(n):
        bit = 1 << k
        reach_k = adj[k]
        for i in range(n):
            if adj[i] & bit:
                adj[i] |= reach_k
    pairs = set()
    for i in range(n):
        row = adj[i]
        j = 0
        while row:
            if row & 1:
                pairs.add((nodes[i], nodes[j]))
            row >>= 1
            j += 1
    return frozenset(pairs)


def is_irreflexive_and_acyclic(r: Pairs) -> bool:
    closed = transitive_closure(r)
    return all(a != b for a, b in closed)


def compose(r: Pairs, s: Pairs) -> Pairs:
    by_src: dict[int, list[int]] = {}
    for b, c in s:
        by_src.setdefault(b, []).append(c)
    return frozenset((a, c) for a, b in r for c in by_src.get(b, ()))


def restrict(r: Pairs, keep: Callable[[int], bool]) -> Pairs:
    return frozenset((a, b) for a, b in r if keep(a) and keep(b))


# ---------------------------------------------------------------------------
# axiomatic oracle: every axiom on pair sets, one loop per rule


def reference_judgment(program: Program, candidate: CandidateExecution) -> ExecutionJudgment:
    """The axioms of memlit.axiomatic evaluated on sets of (a, b) pairs.
    NO-THIN-AIR holds when the candidate's values are the ones `_ground`
    derives from its rf, a failed cas_weak being free to fail spuriously."""
    events = candidate.events
    rf = candidate.rf
    mo = candidate.mo
    mo_pos = {w: i for order in mo.values() for i, w in enumerate(order)}
    sb = frozenset((a.id, b.id) for a in events for b in events if _sequenced(a, b))
    sw = _sw_pairs(events, rf, mo)
    init = frozenset((i.id, e.id) for i in events if i.is_init for e in events if not e.is_init)
    hb = transitive_closure(sb | sw | init)
    s = candidate.sc_order
    s_pos = {eid: i for i, eid in enumerate(s)}

    violated: list[str] = []
    # The SC axioms are judged only on an S that is C++11's: one consistent
    # with an acyclic hb and with mo.
    s_embeds = False
    if any(a == b for a, b in hb):
        violated.append("HB-IRREFLEXIVE")
    else:
        if _hb_mo_violated(events, mo_pos, hb):
            violated.append("HB-MO")
        if _coherent_read_violated(events, rf, hb):
            violated.append("COHERENT-READ")
        if _s_embed_violated(mo, s_pos, hb):
            violated.append("S-EMBED")
        else:
            s_embeds = True
    if s_embeds and _sc_read_violated(events, rf, s, s_pos, hb):
        violated.append("SC-READ")
    if _rmw_immediate_violated(events, rf, mo):
        violated.append("RMW-IMMEDIATE")
    if s_embeds:
        violated.extend(_sc_fence_violations(events, rf, mo_pos, s, s_pos))
    fresh = program_events(program, {(e.thread, e.index): e.kind is EventKind.RMW for e in events})
    grounded = _ground(program, fresh, rf)
    if grounded is None or [(e.value_read, e.value_written) for e in grounded] != [
        (e.value_read, e.value_written) for e in events
    ]:
        violated.append("NO-THIN-AIR")

    consistent = not violated
    races = _race_pairs(events, hb) if consistent else ()
    return ExecutionJudgment(consistent, tuple(violated), races, sb, sw, hb)


def _sequenced(a: Event, b: Event) -> bool:
    return a.thread == b.thread and a.thread != INIT_THREAD and a.index < b.index


def _sequence_from(events, mo, head: Event) -> tuple[int, ...]:
    order = mo[head.location]
    seq = [head.id]
    for w_id in order[order.index(head.id) + 1 :]:
        e = events[w_id]
        if not (e.atomic and (e.kind is EventKind.RMW or e.thread == head.thread)):
            break
        seq.append(w_id)
    return tuple(seq)


def _sw_pairs(events, rf, mo) -> frozenset[tuple[int, int]]:
    atomic_writes = [e for e in events if e.writes_memory and e.atomic and not e.is_init]
    atomic_reads = [e for e in events if e.reads_memory and e.atomic]
    release_writes = [e for e in atomic_writes if e.order in RELEASE_CLASS]
    acquire_reads = [e for e in atomic_reads if e.order in ACQUIRE_CLASS]
    release_fences = [e for e in events if e.kind is EventKind.FENCE and e.order in RELEASE_CLASS]
    acquire_fences = [e for e in events if e.kind is EventKind.FENCE and e.order in ACQUIRE_CLASS]
    hyp = {w.id: _sequence_from(events, mo, w) for w in atomic_writes}

    def carried(y: Event, x: Event) -> bool:
        # y reads from the hypothetical release sequence headed by x
        return y.location == x.location and rf.get(y.id) in hyp[x.id]

    pairs: set[tuple[int, int]] = set()
    for w in release_writes:
        for r in acquire_reads:
            if carried(r, w):
                pairs.add((w.id, r.id))
    for fa in release_fences:
        for fb in acquire_fences:
            if fa.id != fb.id and any(
                _sequenced(fa, x) and _sequenced(y, fb) and carried(y, x) for x in atomic_writes for y in atomic_reads
            ):
                pairs.add((fa.id, fb.id))
    for fa in release_fences:
        for r in acquire_reads:
            if any(_sequenced(fa, x) and carried(r, x) for x in atomic_writes):
                pairs.add((fa.id, r.id))
    for w in release_writes:
        for fb in acquire_fences:
            if any(_sequenced(y, fb) and carried(y, w) for y in atomic_reads):
                pairs.add((w.id, fb.id))
    return frozenset(pairs)


def _hb_mo_violated(events, mo_pos, hb_pairs) -> bool:
    return any(
        events[a].writes_memory
        and events[b].writes_memory
        and events[a].location == events[b].location
        and mo_pos[a] > mo_pos[b]
        for a, b in hb_pairs
    )


def _coherent_read_violated(events, rf, hb: Pairs) -> bool:
    """Only called on an acyclic hb, so a write interposed between w and r
    is neither of them."""
    for loc in {e.location for e in events if e.reads_memory}:
        at_loc = restrict(hb, lambda e: events[e].location == loc)
        between_writes = restrict(hb, lambda e: events[e].location == loc and events[e].writes_memory)
        interposed = compose(between_writes, at_loc)
        for r_id, w_id in rf.items():
            if events[r_id].location == loc and ((r_id, w_id) in hb or (w_id, r_id) in interposed):
                return True
    return False


def _rmw_immediate_violated(events, rf, mo) -> bool:
    for e in events:
        if e.kind is EventKind.RMW:
            order = mo[e.location]
            i = order.index(e.id)
            if i == 0 or order[i - 1] != rf.get(e.id):
                return True
    return False


def _s_embed_violated(mo, s_pos, hb_pairs) -> bool:
    """Some pair of seq_cst events that hb or mo orders, S orders the other way."""
    mo_pairs = {(a, b) for order in mo.values() for i, a in enumerate(order) for b in order[i + 1 :]}
    return any(s_pos[a] > s_pos[b] for a, b in hb_pairs | mo_pairs if a in s_pos and b in s_pos)


def _last_sc_write_before(events, s, limit_pos, location) -> Optional[int]:
    found = None
    for eid in s[:limit_pos]:
        e = events[eid]
        if e.writes_memory and e.location == location:
            found = eid
    return found


def _sc_read_violated(events, rf, s, s_pos, hb_pairs) -> bool:
    for b_id in s:
        b = events[b_id]
        if not b.reads_memory:
            continue
        w_id = rf[b_id]
        a_id = _last_sc_write_before(events, s, s_pos[b_id], b.location)
        plain = events[w_id].order is not MemoryOrder.SEQ_CST
        if a_id is None:
            ok = plain
        else:
            ok = w_id == a_id or (plain and (w_id, a_id) not in hb_pairs)
        if not ok:
            return True
    return False


def _sc_fence_violations(events, rf, mo_pos, s, s_pos) -> list[str]:
    fences = [events[i] for i in s if events[i].kind is EventKind.FENCE]
    if not fences:
        return []
    atomic_reads = [e for e in events if e.reads_memory and e.atomic]
    atomic_writes = [e for e in events if e.writes_memory and e.atomic and not e.is_init]

    def bracketed(a: Event, b: Event) -> bool:
        # a sb fence X, fence Y sb b, X before Y in S
        return any(
            _sequenced(a, x) and _sequenced(y, b) and s_pos[x.id] < s_pos[y.id] for x in fences for y in fences
        )

    violated = []
    # 1: fence X sequenced before read B constrains B by the last seq_cst
    #    write preceding X in S.
    if any(
        _sequenced(x, b)
        and (a_id := _last_sc_write_before(events, s, s_pos[x.id], b.location)) is not None
        and mo_pos[rf[b.id]] < mo_pos[a_id]
        for x in fences
        for b in atomic_reads
    ):
        violated.append("SC-FENCE-1")
    # 2: write A sequenced before fence X, X S-before seq_cst read B.
    if any(
        a.location == b.location
        and a.id != b.id
        and _sequenced(a, x)
        and s_pos[x.id] < s_pos[b.id]
        and mo_pos[rf[b.id]] < mo_pos[a.id]
        for b in atomic_reads
        if b.order is MemoryOrder.SEQ_CST
        for a in atomic_writes
        for x in fences
    ):
        violated.append("SC-FENCE-2")
    # 3: write A sb fence X, fence Y sb read B, X S-before Y.
    if any(
        b.location == a.location and b.id != a.id and mo_pos[rf[b.id]] < mo_pos[a.id] and bracketed(a, b)
        for a in atomic_writes
        for b in atomic_reads
    ):
        violated.append("SC-FENCE-3")
    # 4: write A sb fence X, fence Y sb write B, X S-before Y forces mo order.
    if any(
        b.location == a.location and b.id != a.id and mo_pos[b.id] <= mo_pos[a.id] and bracketed(a, b)
        for a in atomic_writes
        for b in atomic_writes
    ):
        violated.append("SC-FENCE-4")
    return violated


def _race_pairs(events, hb_pairs) -> tuple[tuple[int, int], ...]:
    return tuple(
        sorted(
            (a.id, b.id)
            for i, a in enumerate(events)
            if a.location is not None
            for b in events[i + 1 :]
            if b.location == a.location
            and b.thread != a.thread
            and (a.writes_memory or b.writes_memory)
            and not (a.atomic and b.atomic)
            and (a.id, b.id) not in hb_pairs
            and (b.id, a.id) not in hb_pairs
        )
    )


def program_events(program: Program, success: dict[tuple[int, int], bool]) -> list[Event]:
    """The initialization writes, values set, then one event per instruction,
    thread by thread, values unset.  The CAS at (t, i) fails when
    success[(t, i)] is False: then it only reads, at its failure order."""
    events = [
        Event(
            id=i,
            thread=INIT_THREAD,
            index=i,
            kind=EventKind.WRITE,
            atomic=True,
            order=None,
            location=loc,
            value_written=program.initial_value(loc),
        )
        for i, loc in enumerate(program.locations)
    ]
    for t, body in enumerate(program.threads):
        for i, instr in enumerate(body):
            k = instr.kind
            order = instr.order
            if k is Kind.FENCE:
                kind = EventKind.FENCE
            elif k in (Kind.LOAD, Kind.NA_LOAD):
                kind = EventKind.READ
            elif k in (Kind.STORE, Kind.NA_STORE):
                kind = EventKind.WRITE
            elif k in CAS_KINDS and success.get((t, i)) is False:
                kind, order = EventKind.READ, instr.failure_order
            else:
                kind = EventKind.RMW
            atomic = k not in (Kind.NA_LOAD, Kind.NA_STORE)
            events.append(Event(len(events), t, i, kind, atomic, order, instr.location))
    return events


def _ground(program: Program, events: list[Event], rf: dict[int, int]) -> Optional[tuple[Event, ...]]:
    """The events with their values: every thread runs in program order, a
    read taking its rf source's value once that is known, over and over until
    nothing changes.  A plain write needs its operand, an RMW its read value
    too, and a successful CAS writes `desired`.  None when some value stays
    unknown (it could only come out of thin air) or a CAS's branch
    contradicts the value it read, a failed cas_weak being free to read
    expected."""
    site = {(e.thread, e.index): e for e in events}
    read: dict[int, int] = {}
    written = {e.id: e.value_written for e in events if e.is_init}
    changed = True
    while changed:
        changed = False
        for t, body in enumerate(program.threads):
            regs: dict[str, Optional[int]] = {}
            for i, instr in enumerate(body):
                e = site[(t, i)]
                if e.reads_memory and e.id not in read and rf[e.id] in written:
                    read[e.id] = written[rf[e.id]]
                    changed = True
                operand = regs[instr.operand] if isinstance(instr.operand, str) else instr.operand
                old = read.get(e.id)
                if e.writes_memory and e.id not in written:
                    if e.kind is EventKind.WRITE:
                        value = operand
                    elif instr.kind in CAS_KINDS:
                        value = instr.desired
                    elif old is None or operand is None:
                        value = None
                    else:
                        value = operand if instr.kind is Kind.EXCHANGE else _FETCH[instr.kind](old, operand)
                    if value is not None:
                        written[e.id] = value
                        changed = True
                if instr.dest is not None:
                    regs[instr.dest] = old
    grounded = []
    for e in events:
        if not e.is_init:
            if (e.reads_memory and e.id not in read) or (e.writes_memory and e.id not in written):
                return None
            instr = program.threads[e.thread][e.index]
            if instr.kind in CAS_KINDS:
                succeeded = e.kind is EventKind.RMW
                if succeeded != (read[e.id] == instr.expected):
                    spurious = not succeeded and instr.kind is Kind.CAS_WEAK
                    if not spurious:
                        return None
            e = Event(e.id, e.thread, e.index, e.kind, e.atomic, e.order, e.location, read.get(e.id), written.get(e.id))
        grounded.append(e)
    return tuple(grounded)


def grounded_candidates(program: Program, limit: int) -> Optional[list[CandidateExecution]]:
    """Every grounded candidate of `program`, unpruned: each CAS branching,
    every rf choice of a same-location write, every modification order with
    initialization first, every order S of the seq_cst events.  None when
    there are more than `limit`."""
    cas_sites = [
        (t, i) for t, body in enumerate(program.threads) for i, instr in enumerate(body) if instr.kind in CAS_KINDS
    ]

    def space() -> Iterator[CandidateExecution]:
        for combo in itertools.product((True, False), repeat=len(cas_sites)):
            events = program_events(program, dict(zip(cas_sites, combo)))
            writes = {
                loc: [e.id for e in events if e.writes_memory and e.location == loc] for loc in program.locations
            }
            reads = [e for e in events if e.reads_memory]
            choices = [[w for w in writes[r.location] if w != r.id] for r in reads]
            mos = [[(order[0],) + rest for rest in itertools.permutations(order[1:])] for order in writes.values()]
            sc_ids = [e.id for e in events if e.order is MemoryOrder.SEQ_CST]
            for rf_combo in itertools.product(*choices):
                rf = dict(zip([r.id for r in reads], rf_combo))
                grounded = _ground(program, events, rf)
                if grounded is None:
                    continue
                for mo_combo in itertools.product(*mos):
                    for s in itertools.permutations(sc_ids):
                        yield CandidateExecution(grounded, rf, dict(zip(program.locations, mo_combo)), s)

    found = list(itertools.islice(space(), limit + 1))
    return None if len(found) > limit else found


def value_mutants(program: Program, candidate: CandidateExecution) -> Iterator[CandidateExecution]:
    """One candidate per write that has another value in `value_universe`:
    the write's value_written becomes the next universe value after it
    (wrapping round), and each read from the write reads that value.  rf,
    mo and S stay, so a mutant breaks the axioms its candidate breaks, plus
    NO-THIN-AIR when the candidate is grounded."""
    universe = sorted(value_universe(program))
    if len(universe) < 2:
        return
    for w in candidate.events:
        if not w.writes_memory:
            continue
        value = universe[(universe.index(w.value_written) + 1) % len(universe)]
        events = list(candidate.events)
        events[w.id] = replace(w, value_written=value)
        for r, source in candidate.rf.items():
            if source == w.id:
                events[r] = replace(events[r], value_read=value)
        yield CandidateExecution(tuple(events), candidate.rf, candidate.mo, candidate.sc_order)


def reference_outcomes(program: Program, limit: int) -> Optional[tuple[frozenset[Outcome], bool]]:
    """Outcomes and racy of `program` by brute force: every candidate of
    `grounded_candidates` that `reference_judgment` finds consistent.  None
    when there are more than `limit` candidates."""
    candidates = grounded_candidates(program, limit)
    if candidates is None:
        return None
    outcomes: set[Outcome] = set()
    racy = False
    for candidate in candidates:
        judgment = reference_judgment(program, candidate)
        if not judgment.consistent:
            continue
        racy = racy or bool(judgment.races)
        outcomes.add(candidate_outcome(program, candidate))
    return frozenset(outcomes), racy


def candidate_outcome(program: Program, candidate: CandidateExecution) -> Outcome:
    """The registers' values read and each location's mo-last value."""
    events = candidate.events
    site = {(e.thread, e.index): e for e in events}
    regs = [
        {instr.dest: site[(t, i)].value_read for i, instr in enumerate(body) if instr.dest is not None}
        for t, body in enumerate(program.threads)
    ]
    memory = {loc: events[order[-1]].value_written for loc, order in candidate.mo.items()}
    return make_outcome(program, regs, memory)


# ---------------------------------------------------------------------------
# synthetic programs


def ladder(lengths: tuple[int, ...], stores: str = "relaxed", loads: str = "relaxed") -> str:
    """Thread t, instruction i: even i stores t+1 to xy[(t+i//2)%2], odd i loads the other."""
    lines = ["name: ladder", "init: x = 0 y = 0"]
    for t, length in enumerate(lengths):
        lines.append(f"thread P{t}:")
        for i in range(length):
            side = (t + i // 2) % 2
            if i % 2 == 0:
                lines.append(f"  store {'xy'[side]} {t + 1} {stores}")
            else:
                lines.append(f"  r{i} = load {'xy'[1 - side]} {loads}")
    lines.append("exists: x = 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# mutated source text

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

# What mutated_corpus inserts: characters no token takes, characters of two
# and three UTF-8 bytes, lone and paired slashes, comment and line breaks,
# blanks, tokens, and bytes that are not UTF-8.
MUTATION_PIECES = tuple(
    piece if isinstance(piece, bytes) else piece.encode("utf-8")
    for piece in (
        "?", "@", "\f", "\v", "é", "✓", "\ufffd", "/", "\\", "/\\", "\\/", "#", "\n", "\r", "\t", " ",
        "=", ":", "(", ")", "!", "x", "r1", "0", "256", "seq_cst", "thread", b"\xff", b"\xe2\x9c",
    )
)


def mutated_corpus(seed: int, count: int) -> list[bytes]:
    """count corpus files, each with one to three edits at random byte
    offsets: a piece of MUTATION_PIECES inserted, or one to three bytes
    deleted.  An edit may split a character or delete the final newline."""
    rng = random.Random(seed)
    files = [path.read_bytes() for path in sorted(CORPUS_DIR.glob("*.lit"))]
    texts = []
    for _ in range(count):
        data = rng.choice(files)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(data) + 1)
            if rng.random() < 0.5:
                data = data[:at] + rng.choice(MUTATION_PIECES) + data[at:]
            else:
                data = data[:at] + data[at + rng.randint(1, 3):]
        texts.append(data)
    return texts


def span_problems(source: Union[str, bytes]) -> tuple[int, list[str]]:
    """(diagnostics, problems) of parse_litmus(source), where a problem is a
    span that leaves its bytes, that does not start at the byte its line and
    column name, or that does not cover the token an unexpected-character or
    trailing-input message quotes.  A str's bytes are its surrogatepass
    encoding.  Bytes that are not UTF-8 cover the U+FFFD they decode to."""
    try:
        parse_litmus(source)
        return 0, []
    except ParseError as exc:
        diagnostics = exc.diagnostics
    data = source.encode("utf-8", "surrogatepass") if isinstance(source, str) else source
    lines = data.split(b"\n")
    line_starts = list(itertools.accumulate((len(line) + 1 for line in lines), initial=0))
    problems = []
    for d in diagnostics:
        span = d.span
        where = f"{d} (bytes {span.start}..{span.end})"
        if not 0 <= span.start <= span.end <= len(data):
            problems.append(f"{where}: outside the {len(data)} bytes")
        if not (1 <= span.line <= len(lines) and 1 <= span.column <= len(lines[span.line - 1]) + 1):
            problems.append(f"{where}: no such line and column")
        elif span.start != line_starts[span.line - 1] + span.column - 1:
            problems.append(f"{where}: line and column are at byte {line_starts[span.line - 1] + span.column - 1}")
        for prefix in ("unexpected character ", "unexpected trailing input "):
            if d.message.startswith(prefix):
                covered = data[span.start:span.end].decode("utf-8", errors="replace")
                if covered != ast.literal_eval(d.message[len(prefix):]):
                    problems.append(f"{where}: covers {covered!r}")
    return len(diagnostics), problems


# ---------------------------------------------------------------------------
# random programs


_READ = [MemoryOrder.RELAXED, MemoryOrder.ACQUIRE, MemoryOrder.SEQ_CST]
_WRITE = [MemoryOrder.RELAXED, MemoryOrder.RELEASE, MemoryOrder.SEQ_CST]
_RMW = [
    MemoryOrder.RELAXED,
    MemoryOrder.ACQUIRE,
    MemoryOrder.RELEASE,
    MemoryOrder.ACQ_REL,
    MemoryOrder.SEQ_CST,
]
_FENCE = _RMW


@st.composite
def instructions(draw, atomic_only: bool = False, with_cas: bool = True, defined: tuple[str, ...] = ()):
    """One instruction; an operand is a literal or one of the `defined` registers."""
    locs = st.sampled_from(["x", "y"])
    regs = st.sampled_from(["r1", "r2"])
    vals = st.integers(0, 3)
    operands = st.one_of(vals, st.sampled_from(defined)) if defined else vals
    kinds = ["load", "store", "fetch", "exchange", "fence"]
    if with_cas:
        kinds.append("cas")
    if not atomic_only:
        kinds += ["na_load", "na_store"]
    choice = draw(st.sampled_from(kinds))
    if choice == "load":
        return Instruction(Kind.LOAD, location=draw(locs), dest=draw(regs), order=draw(st.sampled_from(_READ)))
    if choice == "store":
        return Instruction(Kind.STORE, location=draw(locs), operand=draw(operands), order=draw(st.sampled_from(_WRITE)))
    if choice == "na_load":
        return Instruction(Kind.NA_LOAD, location=draw(locs), dest=draw(regs))
    if choice == "na_store":
        return Instruction(Kind.NA_STORE, location=draw(locs), operand=draw(operands))
    if choice == "fence":
        return Instruction(Kind.FENCE, order=draw(st.sampled_from(_FENCE)))
    if choice == "exchange":
        return Instruction(
            Kind.EXCHANGE, location=draw(locs), dest=draw(regs), operand=draw(operands), order=draw(st.sampled_from(_RMW))
        )
    if choice == "cas":
        order = draw(st.sampled_from(_RMW))
        return Instruction(
            draw(st.sampled_from([Kind.CAS_STRONG, Kind.CAS_WEAK])),
            location=draw(locs),
            dest=draw(regs),
            expected=draw(vals),
            desired=draw(vals),
            order=order,
            failure_order=draw(st.sampled_from(_READ)),
        )
    fetch_kind = draw(st.sampled_from(sorted(_FETCH, key=lambda k: k.value)))
    return Instruction(
        fetch_kind, location=draw(locs), dest=draw(regs), operand=draw(operands), order=draw(st.sampled_from(_RMW))
    )


@st.composite
def programs(draw, max_threads: int = 3, max_total: int = 6, atomic_only: bool = False, with_cas: bool = True):
    n_threads = draw(st.integers(1, max_threads))
    budget = max_total
    threads = []
    for t in range(n_threads):
        top = max(1, min(3, budget - (n_threads - t - 1)))
        count = draw(st.integers(1, top))
        budget -= count
        body: list[Instruction] = []
        for _ in range(count):
            defined = tuple(sorted({instr.dest for instr in body if instr.dest is not None}))
            body.append(draw(instructions(atomic_only=atomic_only, with_cas=with_cas, defined=defined)))
        threads.append(tuple(body))
    program = Program(
        name="generated",
        init={"x": 0, "y": 0},
        thread_names=tuple(f"P{t}" for t in range(n_threads)),
        threads=tuple(threads),
        assertion=Assertion("exists", MemAtom("x", 0)),
    )
    assert not validate(program), validate(program)
    return program


def formulas(program: Program) -> st.SearchStrategy[BoolExpr]:
    """Formulas over `program`'s registers and locations, with a name it
    lacks and values just outside a byte among the atoms."""
    values = st.integers(-1, 3) | st.just(256)
    registers = st.sampled_from([*program.registers, ("P0", "r9"), ("P9", "r1")])
    atom = st.builds(lambda name, v: RegAtom(*name, v), registers, values) | st.builds(
        MemAtom, st.sampled_from([*program.locations, "z"]), values
    )
    return st.recursive(
        atom,
        lambda inner: st.builds(Not, inner) | st.builds(And, inner, inner) | st.builds(Or, inner, inner),
        max_leaves=6,
    )


def with_cas_kind(program: Program, kind: Kind) -> Program:
    """`program` with every CAS rewritten as `kind`.  Its cas_strong twin is
    the same program, minus the spurious failures."""
    threads = tuple(tuple(replace(i, kind=kind) if i.kind in CAS_KINDS else i for i in body) for body in program.threads)
    return replace(program, threads=threads)


# ---------------------------------------------------------------------------
# hand-built programs and candidates, shared by the tests and tests/differential.py

R, W, RMW, F = EventKind.READ, EventKind.WRITE, EventKind.RMW, EventKind.FENCE
RLX, ACQ, REL, SC = (
    MemoryOrder.RELAXED,
    MemoryOrder.ACQUIRE,
    MemoryOrder.RELEASE,
    MemoryOrder.SEQ_CST,
)


def init_w(eid: int, loc: str, value: int = 0) -> Event:
    return Event(
        id=eid,
        thread=INIT_THREAD,
        index=eid,
        kind=W,
        atomic=True,
        order=None,
        location=loc,
        value_written=value,
    )


def ev(eid, thread, index, kind, order, loc=None, *, read=None, written=None, atomic=True):
    return Event(
        id=eid,
        thread=thread,
        index=index,
        kind=kind,
        atomic=atomic,
        order=order,
        location=loc,
        value_read=read,
        value_written=written,
    )


# (axiom name, program, events, rf, mo, sc order); each candidate is built
# so that precisely the named axiom rejects it.
SINGLE_AXIOM_CASES = [
    (
        # Load buffering with an rf cycle through two acquire/release pairs.
        "HB-IRREFLEXIVE",
        "name: lb\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x acquire\n"
        "  store y 1 release\nthread P1:\n  r2 = load y acquire\n  store x 1 release\n"
        "exists: P0:r1 = 1\n",
        (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, R, ACQ, "x", read=1),
            ev(3, 0, 1, W, REL, "y", written=1),
            ev(4, 1, 0, R, ACQ, "y", read=1),
            ev(5, 1, 1, W, REL, "x", written=1),
        ),
        {2: 5, 4: 3},
        {"x": (0, 5), "y": (1, 3)},
        (),
    ),
    (
        # Two same-thread stores with modification order against sb.
        "HB-MO",
        "name: coww\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  store x 2 relaxed\n"
        "exists: x = 2\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 0, 1, W, RLX, "x", written=2),
        ),
        {},
        {"x": (0, 2, 1)},
        (),
    ),
    (
        # A load reading initialization past its own thread's newer store.
        "COHERENT-READ",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  r1 = load x relaxed\n"
        "exists: P0:r1 = 0\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 0, 1, R, RLX, "x", read=0),
        ),
        {2: 0},
        {"x": (0, 1)},
        (),
    ),
    (
        # Dekker's (0, 0) with every access seq_cst: each load reads
        # initialization, so S must put it before the other thread's store,
        # and S puts both loads before both stores, against sb.
        "S-EMBED",
        "name: dekker\ninit: x = 0 y = 0\nthread P0:\n  store x 1 seq_cst\n  r1 = load y seq_cst\n"
        "thread P1:\n  store y 1 seq_cst\n  r2 = load x seq_cst\nexists: P0:r1 = 0 /\\ P1:r2 = 0\n",
        (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, W, SC, "x", written=1),
            ev(3, 0, 1, R, SC, "y", read=0),
            ev(4, 1, 0, W, SC, "y", written=1),
            ev(5, 1, 1, R, SC, "x", read=0),
        ),
        {3: 1, 5: 0},
        {"x": (0, 2), "y": (1, 4)},
        (3, 5, 2, 4),
    ),
    (
        # A seq_cst load placed after the seq_cst store in S but reading the
        # initialization value, which happens-before that store.
        "SC-READ",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 seq_cst\n"
        "thread P1:\n  r1 = load x seq_cst\nexists: P1:r1 = 0\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, SC, "x", written=1),
            ev(2, 1, 0, R, SC, "x", read=0),
        ),
        {2: 0},
        {"x": (0, 1)},
        (1, 2),
    ),
    (
        # The RMW reads initialization but another store interposes in mo.
        "RMW-IMMEDIATE",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n"
        "thread P1:\n  r1 = fetch_add x 5 relaxed\nexists: x = 5\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 1, 0, RMW, RLX, "x", read=0, written=5),
        ),
        {2: 0},
        {"x": (0, 1, 2)},
        (),
    ),
    (
        # Fence sequenced before a relaxed load; the load ignores the
        # seq_cst store that precedes the fence in S.
        "SC-FENCE-1",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 seq_cst\n"
        "thread P1:\n  fence seq_cst\n  r1 = load x relaxed\nexists: P1:r1 = 0\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, SC, "x", written=1),
            ev(2, 1, 0, F, SC),
            ev(3, 1, 1, R, RLX, "x", read=0),
        ),
        {3: 0},
        {"x": (0, 1)},
        (1, 2),
    ),
    (
        # Relaxed store, fence, then a seq_cst load after the fence in S
        # that still reads the older initialization write.
        "SC-FENCE-2",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  fence seq_cst\n"
        "thread P1:\n  r1 = load x seq_cst\nexists: P1:r1 = 0\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 0, 1, F, SC),
            ev(3, 1, 0, R, SC, "x", read=0),
        ),
        {3: 0},
        {"x": (0, 1)},
        (2, 3),
    ),
    (
        # Store-fence on one side, fence-load on the other, fences ordered
        # in S, yet the load reads the older write.
        "SC-FENCE-3",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  fence seq_cst\n"
        "thread P1:\n  fence seq_cst\n  r1 = load x relaxed\nexists: P1:r1 = 0\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 0, 1, F, SC),
            ev(3, 1, 0, F, SC),
            ev(4, 1, 1, R, RLX, "x", read=0),
        ),
        {4: 0},
        {"x": (0, 1)},
        (2, 3),
    ),
    (
        # Both sides write; the S order of the fences contradicts mo.
        "SC-FENCE-4",
        "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  fence seq_cst\n"
        "thread P1:\n  fence seq_cst\n  store x 2 relaxed\nexists: x = 2\n",
        (
            init_w(0, "x"),
            ev(1, 0, 0, W, RLX, "x", written=1),
            ev(2, 0, 1, F, SC),
            ev(3, 1, 0, F, SC),
            ev(4, 1, 1, W, RLX, "x", written=2),
        ),
        {},
        {"x": (0, 4, 1)},
        (2, 3),
    ),
    (
        # corpus/lb_data_both.lit: each load reads the 1 the other thread's
        # store copies from it, so the 1 justifies itself out of thin air.
        "NO-THIN-AIR",
        "name: lb_data_both\ninit: x = 0 y = 0\nthread P0:\n  r1 = load x relaxed\n  store y r1 relaxed\n"
        "thread P1:\n  r2 = load y relaxed\n  store x r2 relaxed\nexists: P0:r1 = 1 /\\ P1:r2 = 1\n",
        (
            init_w(0, "x"),
            init_w(1, "y"),
            ev(2, 0, 0, R, RLX, "x", read=1),
            ev(3, 0, 1, W, RLX, "y", written=1),
            ev(4, 1, 0, R, RLX, "y", read=1),
            ev(5, 1, 1, W, RLX, "x", written=1),
        ),
        {2: 5, 4: 3},
        {"x": (0, 5), "y": (1, 3)},
        (),
    ),
]


DISJUNCTIVE_SC_READ = (
    "name: t\ninit: x = 0\nthread P0:\n  store x 2 relaxed\n  r1 = fetch_add x 1 seq_cst\n"
    "thread P1:\n  r0 = load x seq_cst\nthread P2:\n  store x 2 seq_cst\nexists: P1:r0 = 0\n"
)

# Programs that put the seq_cst order S edges' corner cases in reach of a
# whole-space comparison; random programs of four instructions rarely build
# them.
S_EDGE_PROGRAMS = [
    # SC-READ from a plain write that happens-before a seq_cst write which
    # is not mo-last: the edges that would keep the read before both seq_cst
    # writes are a disjunction, so none is derived.
    "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  store x 2 seq_cst\n"
    "thread P1:\n  store x 3 seq_cst\nthread P2:\n  r1 = load x seq_cst\nexists: P2:r1 = 1\n",
    # SC-FENCE-1 only constrains seq_cst writes mo-after the read's source.
    "name: t\ninit: x = 0\nthread P0:\n  store x 1 seq_cst\n  store x 2 relaxed\n"
    "thread P1:\n  fence seq_cst\n  r1 = load x relaxed\nexists: P1:r1 = 2\n",
    # With one fence, SC-FENCE-3 and 4 never apply: a fence is not ordered
    # against itself.
    "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  fence seq_cst\n  r1 = load x relaxed\n"
    "thread P1:\n  store x 2 relaxed\nexists: P0:r1 = 2 /\\ x = 1\n",
    "name: t\ninit: x = 0\nthread P0:\n  store x 1 relaxed\n  fence seq_cst\n  store x 2 relaxed\n"
    "exists: x = 1\n",
    DISJUNCTIVE_SC_READ,
]

# Programs where the mo choices of one rf map give different sw edges, so
# each sw input must be judged on its own hb.
RELEASE_SEQUENCE_BROKEN_BY_MO = (
    "name: t\ninit: x = 0 y = 0 z = 0\nthread P0:\n  store x 1 relaxed\n  store y 1 release\n  store y 2 relaxed\n"
    "thread P1:\n  store y 3 relaxed\nthread P2:\n  r2 = load y acquire\n  r1 = load z acquire\n  r3 = load x relaxed\n"
    "exists: P2:r2 = 2 /\\ P2:r3 = 0\n"
)
SW_ORDERS_MO = (
    "name: t\ninit: x = 0 y = 0\nthread P0:\n  store x 1 relaxed\n  store y 1 release\n"
    "thread P1:\n  r1 = load y acquire\n  store x 2 relaxed\nexists: P1:r1 = 1 /\\ x = 1\n"
)
SW_INPUT_PROGRAMS = [RELEASE_SEQUENCE_BROKEN_BY_MO, SW_ORDERS_MO]
