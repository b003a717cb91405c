"""Axiomatic release/acquire/seq_cst model with race detection.

A candidate execution fixes, for a program, a reads-from map (rf), one
modification order per location (mo, initialization first), and one total
order S over the seq_cst events.  Initialization is modeled as a pseudo-write
per location that is mo-first and happens-before every program event.  CAS
instructions contribute an RMW event when they succeed and a plain read at
the failure order when they fail; both branches are enumerated.

Candidates are judged against these axioms (names appear in judgments):

  HB-IRREFLEXIVE  happens-before (the transitive closure of sequenced-before
                  and synchronizes-with) has no cycle.
  HB-MO           same-location writes ordered by hb use the same order in mo.
  COHERENT-READ   a read neither observes an hb-later write nor one separated
                  from it by an hb-interposed write to the same location.
  S-EMBED         S is consistent with hb and mo: it orders two seq_cst events
                  as hb does, and two seq_cst writes as mo does.
  SC-READ         a seq_cst read observes the last seq_cst write to its
                  location that precedes it in S, or a non-seq_cst write that
                  does not happen-before that write.
  RMW-IMMEDIATE   an RMW reads the immediate mo-predecessor of its own write.
  SC-FENCE-1..4   the four seq_cst fence rules: (1) a read after (in sb) a
                  seq_cst fence X observes the last seq_cst write preceding X
                  in S or something mo-later; (2) a seq_cst read B observes a
                  write A or something mo-later if A is sequenced before a
                  seq_cst fence that S-precedes B; (3) with fences on both
                  sides ordered by S, the read side cannot observe anything
                  mo-earlier than A; (4) with fences on both sides ordered by
                  S, the writes themselves must agree with mo.
  NO-THIN-AIR     each value is the one grounding derives from rf: a read
                  takes its source's value, a store writes its operand, a
                  successful CAS writes desired at once, and any other RMW
                  writes once its read is known; a value that needs itself is
                  ungrounded, and each CAS takes the branch its read selects,
                  except that a cas_weak may fail spuriously.

When hb is cyclic, HB-IRREFLEXIVE is reported and the checks that need a
partial order (HB-MO, COHERENT-READ, S-EMBED, SC-READ, SC-FENCE-1..4) are
skipped.  SC-READ and SC-FENCE-1..4 are also skipped when S breaks S-EMBED:
they are defined for C++11's S.  RMW-IMMEDIATE and NO-THIN-AIR are always
judged.

Synchronizes-with edges come from four rules, all built on (hypothetical)
release sequences: release write to acquire read via the sequence, release
fence to acquire fence, release fence to acquire read, and release write to
acquire fence.  A release sequence starts at a release-class atomic write and
extends through contiguous mo-successors that are atomic writes by the same
thread or atomic RMWs by any thread.

One kernel evaluates the axioms for both check_axioms and the enumerator.
Relations are bitmask rows: row[a] has bit b set when (a, b) is in the
relation.  `_events` builds each CAS branching's events once, without
values; what depends only on them (sb, locations, which events can
synchronize, what each value is made from) is computed once per branching,
the values and the packed registers once per rf map, what depends on mo once
per modification order of each location, sw, the hb closure, COHERENT-READ,
the races and S-EMBED's hb half once per rf map and sw input
(`_Frame.sync_heads`), and the other axioms once per candidate.  rf alone
fixes the sw input in a frame where nothing can synchronize, or where no
release sequence grows past its head (`_Frame.heads_fixed_by_rf`); there
the enumerator takes that input and its judgment once per rf map, not per
(rf, mo) pair.  The enumerator also judges COHERENT-READ per
read and rf option, to drop options before the rf product.  In a sync-free
frame (no RMW, no seq_cst event, no possible sw edge) the enumerator visits
only the first mo with each tuple of mo-last writes, and `explored` counts
each pair it skips as judged like that one.  check_axioms returns sb, sw
and hb as frozensets of (a, b) pairs, read off the rows.

Building a candidate checks nothing.  The functions that read one,
check_axioms and execution_dot, take (program, candidate) and check the
candidate against the program first, in `_checked_frame`, raising ValueError
when it is not one of the program's.  execution_dot alone skips the check for
a witness enumerate_cxx11 returned for that very program object: it carries
the kernel's frame and mo orders, which `_compute_sw` reads.  enumerate_cxx11
builds each witness when it is first read.

On an S that embeds hb and mo between seq_cst events, SC-READ and
SC-FENCE-1..4 are S edges that rf, mo and hb fix, save one disjunctive case
of SC-READ (`_sc_edges`).  check_axioms reports an axiom whose edge S
breaks.  The enumerator adds every edge before it looks for S, and finds the
first order that keeps them in one pass (`first_extension`), or a cycle that
rules the candidate out.  Only a disjunctive SC-READ can reject that order;
when there is one, the ordered extensions are generated in turn, each
checked against the disjunctive SC-READs alone.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple, Optional

from .model import (
    CAS_KINDS,
    DEFAULT_MAX_CANDIDATES,
    Event,
    EventKind,
    ExplorationStats,
    INIT_THREAD,
    Instruction,
    Kind,
    MemoryOrder,
    OutcomeSet,
    PackedOutcomes,
    Program,
    ResourceLimitError,
    Witnesses,
    check_runnable,
)
from .relation import first_extension, ordered_extensions

AXIOMS = (
    "HB-IRREFLEXIVE",
    "HB-MO",
    "COHERENT-READ",
    "S-EMBED",
    "SC-READ",
    "RMW-IMMEDIATE",
    "SC-FENCE-1",
    "SC-FENCE-2",
    "SC-FENCE-3",
    "SC-FENCE-4",
    "NO-THIN-AIR",
)

@dataclass(frozen=True)
class CandidateExecution:
    """events are ordered by id (events[i].id == i), initialization
    pseudo-writes included.  rf maps every read event id to a write event id;
    mo maps each location to its write ids, initialization first; sc_order
    is a permutation of the seq_cst event ids.  Building one checks nothing:
    every function that reads a candidate takes its program and checks the
    candidate against it first."""

    events: tuple[Event, ...]
    rf: Mapping[int, int]
    mo: Mapping[str, tuple[int, ...]]
    sc_order: tuple[int, ...]


@dataclass(frozen=True)
class ExecutionJudgment:
    consistent: bool
    violated: tuple[str, ...]
    races: tuple[tuple[int, int], ...]
    sb: frozenset[tuple[int, int]]
    sw: frozenset[tuple[int, int]]
    hb: frozenset[tuple[int, int]]


# ---------------------------------------------------------------------------
# events


def _events(program: Program, success: Mapping[tuple[int, int], bool]) -> list[Event]:
    """Each event in id order, without values: the initialization writes,
    then every instruction's event.  A CAS is an RMW unless success[(t, i)]
    is False, which makes it a READ at its failure order."""
    events = [Event(i, INIT_THREAD, i, EventKind.WRITE, True, None, loc) for i, loc in enumerate(program.locations)]
    for t, body in enumerate(program.threads):
        for i, instr in enumerate(body):
            kind, order = instr.kind.event, instr.order
            if instr.kind in CAS_KINDS and success.get((t, i)) is False:
                kind, order = EventKind.READ, instr.failure_order
            events.append(Event(len(events), t, i, kind, instr.kind.atomic, order, instr.location))
    return events


def _checked_frame(program: Program, candidate: CandidateExecution) -> _Frame:
    """The kernel's frame for a candidate of `program`, once the candidate
    is checked.  The kernel reads sb off each event's (thread, index) and
    everything else off its kind, order, atomicity and location, so those
    must be the program's, with each CAS's branch read off its event's kind.
    Then ids must be positions, a read or fence must carry no written value
    and a write or fence no read value, rf must map each read to another write to its
    location that wrote the value it read, mo must order each written
    location's writes initialization first, and sc_order the seq_cst events.
    Before any of that, check_runnable raises ValueError, with validate's
    first diagnostic as its text, for a program no backend can run."""
    check_runnable(program)
    events = candidate.events
    layout = _events(program, {(e.thread, e.index): e.kind is EventKind.RMW for e in events})
    if len(events) != len(layout) or any(
        (e.thread, e.kind, e.atomic, e.order, e.location) != (x.thread, x.kind, x.atomic, x.order, x.location)
        or (e.index != x.index and not x.is_init)
        for e, x in zip(events, layout)
    ):
        raise ValueError("candidate does not match the program's event layout")
    for i, e in enumerate(events):
        if e.id != i:
            raise ValueError("events must be ordered by id")
        if e.value_written is not None and not e.writes_memory:
            raise ValueError(f"{e.kind.name.lower()} events carry no written value")
        if e.value_read is not None and not e.reads_memory:
            raise ValueError(f"{e.kind.name.lower()} events carry no read value")

    frame = _Frame(program, events)
    rf = candidate.rf
    others = dict(frame.read_checks)
    writes = sum(frame.loc_writes)
    for r, w in rf.items():
        if r not in others or w < 0 or not writes >> w & 1:
            raise ValueError(f"rf pair ({w} -> {r}) is not write-to-read")
        if r == w:
            raise ValueError("an event cannot read from itself")
        if not others[r] >> w & 1:
            raise ValueError(f"rf pair ({w} -> {r}) mixes locations")
        if events[r].value_read != events[w].value_written:
            raise ValueError(f"rf pair ({w} -> {r}) disagrees on the value")
    if len(rf) != len(others):
        raise ValueError("rf must give every read exactly one source")
    if set(candidate.mo) != set(frame.locations):
        raise ValueError("mo must cover exactly the written locations")
    for loc, order in candidate.mo.items():
        if sorted(order) != list(_bits(frame.loc_writes[frame.loc_index[loc]])):
            raise ValueError(f"mo for {loc} is not a permutation of its writes")
        if not events[order[0]].is_init:
            raise ValueError(f"mo for {loc} must start at the initialization write")
    if sorted(candidate.sc_order) != list(frame.sc_ids):
        raise ValueError("sc_order must be a permutation of the seq_cst events")
    return frame


# ---------------------------------------------------------------------------
# the kernel: bitmask rows, bit i standing for event id i


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Frame:
    """What the axioms read from the events before rf, mo and S are chosen.

    Built from a program with a candidate's events, or with one CAS
    branching's events as `_events` returns them: of the events only kind,
    order, atomicity, location, thread and index are read, and those a
    branching fixes; each thread's events must come in program order.  sb,
    hb's base rows, the writes of each location and the sw tables are built
    at once; what only the axioms read is built on first use, so
    `_compute_sw` never builds it.  Among those are the S tables, read off
    `sc_ids`: the seq_cst fences, reads and writes.  check_runnable admits
    no order on a non-atomic kind, so every seq_cst event is atomic.
    """

    def __init__(self, program: Program, events: Sequence[Event]) -> None:
        self.program = program
        self.events = events
        self.n = len(events)
        self.thread = [e.thread for e in events]

        # sb rows, and hb's base rows: sb plus initialization before every
        # program event.  Both are already transitive.  Each thread's events
        # come in program order, so an event's sb row is the mask of its
        # thread's events after it.
        self.sb = [0] * self.n
        later: dict[int, int] = {}
        for e in reversed(events):
            if e.thread != INIT_THREAD:
                self.sb[e.id] = row = later.get(e.thread, 0)
                later[e.thread] = row | 1 << e.id
        program_events = sum(later.values())
        self.base = [program_events if t == INIT_THREAD else row for t, row in zip(self.thread, self.sb)]

        # Each written location's writes, and COHERENT-READ's pairs: each
        # read with the other writes to its location.
        writes: dict[str, int] = {}
        for e in events:
            if e.writes_memory:
                writes[e.location] = writes.get(e.location, 0) | 1 << e.id
        self.locations: tuple[str, ...] = tuple(writes)
        self.loc_index = {loc: i for i, loc in enumerate(self.locations)}
        self.loc_writes = list(writes.values())
        self.read_checks = tuple((e.id, writes[e.location] & ~(1 << e.id)) for e in events if e.reads_memory)
        self.atomic = sum(1 << e.id for e in events if e.atomic)
        self.rmw = sum(1 << e.id for e in events if e.kind is EventKind.RMW)
        self.sc_ids = tuple(e.id for e in events if e.order is MemoryOrder.SEQ_CST)
        self.sc_mask = sum(1 << e for e in self.sc_ids)

        # sw: each atomic write tags the release heads its (hypothetical)
        # release sequence carries: itself if release-class, and every
        # release fence sequenced before it.  Each atomic read that can
        # acquire lists the acquire fences sequenced after it.
        self.atomic_writes = [e for e in events if e.atomic and e.writes_memory and e.thread != INIT_THREAD]
        self.atomic_reads = [e for e in events if e.atomic and e.reads_memory]
        fences = [e for e in events if e.kind is EventKind.FENCE]
        release_fences = [f.id for f in fences if f.order.releases]
        acquire_fences = [f.id for f in fences if f.order.acquires]
        self.tags: dict[int, int] = {}
        for x in self.atomic_writes:
            tag = 1 << x.id if x.order.releases else 0
            for f in release_fences:
                if self.sb[f] >> x.id & 1:
                    tag |= 1 << f
            if tag:
                self.tags[x.id] = tag
        self.sync_reads = []
        for y in self.atomic_reads:
            after = tuple(f for f in acquire_fences if self.sb[y.id] >> f & 1)
            acquire = y.order.acquires
            if acquire or after:
                self.sync_reads.append((y.id, self.loc_index[y.location], acquire, after))

    def sync_heads(self, mo: Sequence[_MoOrder], rf: Mapping[int, int]) -> tuple[int, ...]:
        """The whole input of `_sw_edges`: per sync read, the mask of release
        heads whose release sequences hold its source."""
        return tuple([mo[li].heads.get(rf[y], 0) for y, li, _, _ in self.sync_reads])

    @cached_property
    def heads_fixed_by_rf(self) -> bool:
        """Whether `sync_heads` is `rf_heads` under every mo: with no RMW,
        and no thread writing one location twice atomically, no release
        sequence grows past its head."""
        if self.rmw:
            return False
        writers = {(x.thread, x.location) for x in self.atomic_writes}
        return len(writers) == len(self.atomic_writes)

    def rf_heads(self, rf: Mapping[int, int]) -> tuple[int, ...]:
        """Per sync read, its source's release heads alone: `sync_heads`
        where `heads_fixed_by_rf` holds."""
        tags = self.tags
        return tuple([tags.get(rf[y], 0) for y, _, _, _ in self.sync_reads])

    @cached_property
    def conflicts(self) -> tuple[tuple[int, int], ...]:
        """Races: conflicting pairs, lower id first, that only hb can order."""
        by_loc: dict[str, list] = {}
        for e in self.events:
            if e.location is not None:
                by_loc.setdefault(e.location, []).append(e)
        return tuple(
            sorted(
                (a.id, b.id)
                for same_loc in by_loc.values()
                for i, a in enumerate(same_loc)
                for b in same_loc[i + 1 :]
                if b.thread != a.thread and (a.writes_memory or b.writes_memory) and not (a.atomic and b.atomic)
            )
        )

    @cached_property
    def sc_fence_steps(self) -> tuple[tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]], ...]:
        """Each seq_cst fence with the atomic reads and the atomic writes
        sequenced after it, each with its location index."""

        def after(e: int, accesses: list[Event]) -> tuple[tuple[int, int], ...]:
            return tuple((b.id, self.loc_index[b.location]) for b in accesses if self.sb[e] >> b.id & 1)

        return tuple(
            (e, after(e, self.atomic_reads), after(e, self.atomic_writes))
            for e in self.sc_ids
            if self.events[e].kind is EventKind.FENCE
        )

    @cached_property
    def sc_reads(self) -> tuple[tuple[int, int], ...]:
        """Each seq_cst event that reads, with its location index."""
        return tuple((e, self.loc_index[self.events[e].location]) for e in self.sc_ids if self.events[e].reads_memory)

    @cached_property
    def sc_writes(self) -> tuple[tuple[int, int], ...]:
        """Each seq_cst event that writes, with its location index."""
        return tuple((e, self.loc_index[self.events[e].location]) for e in self.sc_ids if self.events[e].writes_memory)

    @cached_property
    def sc_loc_writes(self) -> list[int]:
        """Per location index, the mask of its seq_cst writes."""
        masks = [0] * len(self.locations)
        for e, li in self.sc_writes:
            masks[li] |= 1 << e
        return masks

    @cached_property
    def sc_fences(self) -> tuple[tuple[int, int], ...]:
        """Each seq_cst fence with atomic writes sequenced before it, and
        their mask."""
        fences = [
            (e, sum(1 << a.id for a in self.atomic_writes if self.sb[a.id] >> e & 1)) for e, _, _ in self.sc_fence_steps
        ]
        return tuple((e, before) for e, before in fences if before)

    @cached_property
    def plan(self) -> _Plan:
        """What NO-THIN-AIR derives this branching's values from."""
        program = self.program
        fixed = {i: program.initial_value(loc) for i, loc in enumerate(program.locations)}
        rules: dict[int, tuple[Instruction, bool, Optional[int]]] = {}
        reads, cas = [], []
        last_def: dict[tuple[str, str], int] = {}  # (thread name, register) -> the read that last defined it
        e = len(fixed)
        for name, body in zip(program.thread_names, program.threads):
            for instr in body:
                event = self.events[e]
                source = last_def[name, instr.operand] if isinstance(instr.operand, str) else None
                if event.reads_memory:
                    reads.append(e)
                if instr.kind in CAS_KINDS:
                    if event.writes_memory:
                        fixed[e] = instr.desired
                        cas.append((e, instr.expected, True))
                    elif instr.kind is Kind.CAS_STRONG:  # a failed cas_weak may read expected
                        cas.append((e, instr.expected, False))
                elif event.writes_memory:
                    if event.reads_memory or source is not None:
                        rules[e] = (instr, event.reads_memory, source)
                    else:
                        fixed[e] = instr.operand
                if instr.dest is not None:
                    last_def[name, instr.dest] = e
                e += 1
        registers = tuple(map(last_def.__getitem__, program.registers))
        return _Plan(fixed, rules, tuple(reads), registers, tuple(cas))

    def mo_orders(self, mo: Mapping[str, tuple[int, ...]]) -> tuple["_MoOrder", ...]:
        return tuple(_MoOrder(self, mo[loc]) for loc in self.locations)


class _MoOrder:
    """One location's modification order and the masks the axioms read from
    it.  A candidate's mo is one _MoOrder per location, in frame order."""

    __slots__ = ("order", "before", "after", "rmw_preds", "heads")

    def __init__(self, frame: _Frame, order: tuple[int, ...]) -> None:
        self.order = order
        self.before: dict[int, int] = {}  # write -> its mo-earlier writes
        self.after: dict[int, int] = {}  # write -> its mo-later writes
        seen = 0
        for w in order:
            self.before[w] = seen
            seen |= 1 << w
        for w in order:
            self.after[w] = seen & ~self.before[w] & ~(1 << w)
        # mo starts at an initialization write, so an RMW is never first.
        self.rmw_preds = tuple((w, order[i - 1]) for i, w in enumerate(order) if frame.rmw >> w & 1)
        # write -> release heads whose hypothetical release sequence holds it
        self.heads: dict[int, int] = {}
        for i, x in enumerate(order):
            tag = frame.tags.get(x)
            if not tag:
                continue
            self.heads[x] = self.heads.get(x, 0) | tag
            for z in order[i + 1 :]:
                if not (frame.atomic >> z & 1 and (frame.rmw >> z & 1 or frame.thread[z] == frame.thread[x])):
                    break
                self.heads[z] = self.heads.get(z, 0) | tag


def _sw_edges(frame: _Frame, sync_heads: Sequence[int]) -> dict[int, int]:
    """Synchronizes-with, as target -> mask of sources, from `_Frame.sync_heads`."""
    sw: dict[int, int] = {}
    for (y, _, acquire, fences_after), heads in zip(frame.sync_reads, sync_heads):
        if heads:
            if acquire:
                sw[y] = sw.get(y, 0) | heads
            for fb in fences_after:
                sources = heads & ~(1 << fb)
                if sources:
                    sw[fb] = sw.get(fb, 0) | sources
    return sw


def _hb_rows(frame: _Frame, sw: Mapping[int, int]) -> tuple[list[int], bool]:
    """hb rows (the base rows closed under the sw edges) and whether hb is
    cyclic.  Adding the edges a -> b for every a in `sources` extends each
    row that reaches some a by b and everything b reaches; the new edges
    close a cycle exactly when b already reaches some a."""
    rows = list(frame.base)
    cyclic = False
    for b, sources in sw.items():
        reach = rows[b] | 1 << b
        if reach & sources:
            cyclic = True
        for x in range(frame.n):
            if (rows[x] | 1 << x) & sources:
                rows[x] |= reach
    return rows, cyclic


def _hb_mo_violated(mo: Sequence[_MoOrder], hb: Sequence[int]) -> bool:
    return any(hb[w] & earlier for t in mo for w, earlier in t.before.items())


def _coherent_read_violated(reads: Iterable[tuple[int, int]], rf: Mapping[int, int], hb: Sequence[int]) -> bool:
    """COHERENT-READ on `reads`, `_Frame.read_checks` or some of them: each
    a read with the other writes to its location."""
    for r, others in reads:
        w = rf[r]
        if hb[r] >> w & 1:
            return True
        for c in _bits(hb[w] & others & ~(1 << w)):
            if hb[c] >> r & 1:
                return True
    return False


def _rmw_immediate_violated(mo: Sequence[_MoOrder], rf: Mapping[int, int]) -> bool:
    return any(rf[e] != pred for t in mo for e, pred in t.rmw_preds)


class _Plan(NamedTuple):
    """What each value of one CAS branching is made from, before rf is chosen."""

    fixed: dict[int, int]  # write -> its value whatever it reads: init, literal store, successful CAS
    # any other write -> (instruction, whether it needs its own read, the read defining its register operand)
    rules: dict[int, tuple[Instruction, bool, Optional[int]]]
    reads: tuple[int, ...]  # in id order
    registers: tuple[int, ...]  # the read that last defines each of Program.registers
    cas: tuple[tuple[int, int, bool], ...]  # (CAS, expected, succeeded), failed cas_weak aside


def _ground(plan: _Plan, rf: Mapping[int, int]) -> Optional[tuple[dict[int, int], dict[int, int]]]:
    """NO-THIN-AIR: the values read and written, by event id, that rf
    grounds, each computed once from the values it needs.  A read takes its
    source's value: in one pass where the plan fixes it.  Only the reads of
    the other writes, the plan's rules, recurse: such a write needs its
    register operand and, for an RMW, its own read, even an exchange, whose
    value ignores it.  None when a value needs itself, or when a CAS took
    the branch its read does not select; a failed cas_weak may read
    expected.  Without rules, the values written are the plan's own `fixed`
    dict, which no reader mutates."""
    fixed = plan.fixed
    value_read: dict[int, int] = {}
    rule_reads = []  # reads whose source is a rule's write
    for r in plan.reads:
        value = fixed.get(rf[r])
        if value is None:
            rule_reads.append(r)
        else:
            value_read[r] = value
    value_written = fixed
    rules = plan.rules
    if rules:
        value_written = dict(fixed)
        pending: set[int] = set()  # reads whose source's value is being computed

        def read(r: int) -> Optional[int]:
            value = value_read.get(r)
            if value is None:
                value = value_written.get(rf[r])
                if value is None:
                    if r in pending:
                        return None
                    pending.add(r)
                    value = write(rf[r])
                    if value is None:
                        return None
                value_read[r] = value
            return value

        def write(w: int) -> Optional[int]:
            instr, own_read, source = rules[w]
            value = instr.operand if source is None else read(source)
            if own_read and value is not None:
                old = read(w)
                value = None if old is None else instr.kind.update(old, value)
            if value is not None:
                value_written[w] = value
            return value

        if any(read(r) is None for r in rule_reads):
            return None
        for w in rules.keys() - value_written.keys():
            write(w)  # every read is grounded, so this write is too
    if any((value_read[c] == expected) != succeeded for c, expected, succeeded in plan.cas):
        return None
    return value_read, value_written


def _s_hb_preds(frame: _Frame, hb: Sequence[int]) -> dict[int, int]:
    """S-EMBED's hb half: per seq_cst event, the mask of seq_cst events that happen-before it."""
    preds = dict.fromkeys(frame.sc_ids, 0)
    for a in frame.sc_ids:
        for b in _bits(hb[a] & frame.sc_mask):
            preds[b] |= 1 << a
    return preds


def _s_embedding(frame: _Frame, mo: Sequence[_MoOrder], hb_preds: Mapping[int, int]) -> dict[int, int]:
    """S-EMBED: each seq_cst event's mask of the seq_cst events S must put
    before it: `hb_preds`, its hb half, and the seq_cst writes mo-before it."""
    preds = dict(hb_preds)
    for e, li in frame.sc_writes:
        preds[e] |= mo[li].before[e] & frame.sc_mask
    return preds


def _sc_edges(
    frame: _Frame, mo: Sequence[_MoOrder], rf: Mapping[int, int], hb: Sequence[int]
) -> tuple[list[tuple[str, int, int]], list[tuple[int, int, int]]]:
    """SC-READ and SC-FENCE-1..4 for this rf and mo, judged on an S that
    passes S-EMBED.  Such an S orders seq_cst writes as mo does, so each
    axiom holds exactly when S keeps its edges, each (axiom, a, b) saying
    that S puts a before b: SC-FENCE-1, 3 and 4 per seq_cst fence, and
    SC-READ and SC-FENCE-2 per seq_cst read, which is atomic.  The one
    exception is an SC-READ from a plain source whose hb-later seq_cst
    writes are not the mo-latest ones: it holds when the last seq_cst write
    before the read in S is not one of them, a disjunction no edge states.
    Those come second, one (read, location index, forced writes) each, for
    `_sc_read_broken`."""
    edges: list[tuple[str, int, int]] = []
    disjunctions: list[tuple[int, int, int]] = []
    add = edges.append
    fences = frame.sc_fences
    for e, reads_after, writes_after in frame.sc_fence_steps:
        for b, li in reads_after:
            later = mo[li].after[rf[b]]
            # SC-FENCE-1: no seq_cst write mo-after b's source precedes e.
            for a in _bits(later & frame.sc_loc_writes[li]):
                add(("SC-FENCE-1", e, a))
            # SC-FENCE-3: e precedes every other fence after such a write.
            for x, before in fences:
                if x != e and before & later & ~(1 << b):
                    add(("SC-FENCE-3", e, x))
        # SC-FENCE-4: likewise for a write mo-after b.
        for b, li in writes_after:
            for x, before in fences:
                if x != e and before & mo[li].after[b]:
                    add(("SC-FENCE-4", e, x))
    for e, li in frame.sc_reads:
        w = rf[e]
        later = mo[li].after[w]
        others = frame.sc_loc_writes[li] & ~(1 << e)
        # SC-READ: the last seq_cst write before e in S is w itself, or one w
        # does not happen-before.  With w seq_cst, e falls between w and the
        # next seq_cst write in mo; otherwise e precedes the writes w
        # happens-before when they are all the mo-latest ones.
        if frame.sc_mask >> w & 1:
            add(("SC-READ", w, e))
            forced = later & others
        else:
            forced = hb[w] & others
            if any(mo[li].after[a] & others & ~forced for a in _bits(forced)):
                disjunctions.append((e, li, forced))
                forced = 0
        for a in _bits(forced):
            add(("SC-READ", e, a))
        # SC-FENCE-2: e precedes every fence after a write mo-after w.
        for x, before in fences:
            if before & later & ~(1 << e):
                add(("SC-FENCE-2", e, x))
    return edges, disjunctions


def _sc_read_broken(frame: _Frame, s: Sequence[int], disjunctions: Iterable[tuple[int, int, int]]) -> bool:
    """Whether S breaks one of the SC-READs `_sc_edges` leaves to it: the
    last seq_cst write to the read's location before it in S is forced."""
    for e, li, forced in disjunctions:
        writes = frame.sc_loc_writes[li]
        last = 0
        for x in s:
            if x == e:
                break
            if writes >> x & 1:
                last = 1 << x
        if last & forced:
            return True
    return False


def _races(frame: _Frame, hb: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((a, b) for a, b in frame.conflicts if not (hb[a] >> b & 1 or hb[b] >> a & 1))


def _rows_relation(rows: Sequence[int]) -> frozenset[tuple[int, int]]:
    return frozenset((a, b) for a, row in enumerate(rows) for b in _bits(row))


def _sw_relation(sw: Mapping[int, int]) -> frozenset[tuple[int, int]]:
    return frozenset((a, b) for b, sources in sw.items() for a in _bits(sources))


def _compute_sw(program: Program, candidate: CandidateExecution) -> frozenset[tuple[int, int]]:
    """The sw edges execution_dot draws."""
    known = getattr(candidate, "_kernel", None)  # (frame, mo orders) of a witness enumerate_cxx11 returned
    if known is None or known[0].program is not program:
        frame = _checked_frame(program, candidate)
        known = frame, frame.mo_orders(candidate.mo)
    frame, mo = known
    return _sw_relation(_sw_edges(frame, frame.sync_heads(mo, candidate.rf)))


def check_axioms(program: Program, candidate: CandidateExecution) -> ExecutionJudgment:
    """Judge a candidate by every name in AXIOMS.  Races are the conflicting
    same-location accesses from different threads, at least one non-atomic,
    that hb leaves unordered, as (lower id, higher id) pairs, sorted; an
    inconsistent candidate reports none."""
    frame = _checked_frame(program, candidate)
    mo = frame.mo_orders(candidate.mo)
    rf, s = candidate.rf, candidate.sc_order
    sw = _sw_edges(frame, frame.sync_heads(mo, rf))
    hb, cyclic = _hb_rows(frame, sw)
    violated: set[str] = set()
    if cyclic:
        violated.add("HB-IRREFLEXIVE")
    else:
        if _hb_mo_violated(mo, hb):
            violated.add("HB-MO")
        if _coherent_read_violated(frame.read_checks, rf, hb):
            violated.add("COHERENT-READ")
        preds = _s_embedding(frame, mo, _s_hb_preds(frame, hb))
        placed = dict(zip(s, itertools.accumulate((1 << e for e in s), int.__or__, initial=0)))  # S-predecessors
        if any(preds[e] & ~before for e, before in placed.items()):
            violated.add("S-EMBED")
        else:
            edges, disjunctions = _sc_edges(frame, mo, rf, hb)
            violated.update(axiom for axiom, a, b in edges if not placed[b] >> a & 1)
            if _sc_read_broken(frame, s, disjunctions):
                violated.add("SC-READ")
    if _rmw_immediate_violated(mo, rf):
        violated.add("RMW-IMMEDIATE")
    grounded = _ground(frame.plan, rf)
    if grounded is None or any(
        (e.value_read, e.value_written) != (grounded[0].get(e.id), grounded[1].get(e.id)) for e in candidate.events
    ):
        violated.add("NO-THIN-AIR")

    consistent = not violated
    races = _races(frame, hb) if consistent else ()
    return ExecutionJudgment(
        consistent,
        tuple(sorted(violated, key=AXIOMS.index)),
        races,
        _rows_relation(frame.sb),
        _sw_relation(sw),
        _rows_relation(hb),
    )


# ---------------------------------------------------------------------------
# candidate enumeration


def _rf_options(frame: _Frame) -> tuple[list[list[int]], list[list[int]]]:
    """Each read's rf options, in `read_checks` order, and those kept: the
    other writes to its location, except its own later ones, whose reading
    always violates hb; and of those, the ones that pass COHERENT-READ
    under the base rows.  Every hb holds those rows, and more hb only
    breaks COHERENT-READ more, so an option that breaks it there does
    under every mo."""
    choices = [list(_bits(others & ~frame.sb[r])) for r, others in frame.read_checks]
    kept = [
        [w for w in sources if not _coherent_read_violated(((r, others),), {r: w}, frame.base)]
        for (r, others), sources in zip(frame.read_checks, choices)
    ]
    return choices, kept


def _doomed_maps(choices: Sequence[list[int]], kept: Sequence[list[int]]) -> Iterator[tuple[int, ...]]:
    """Each rf combination drawn from `choices` that takes some source
    outside `kept`, once: per read i, those whose first such source is
    read i's."""
    for i, (sources, keep) in enumerate(zip(choices, kept)):
        dropped = [w for w in sources if w not in keep]
        if dropped:
            yield from itertools.product(*kept[:i], dropped, *choices[i + 1 :])


def _valued(
    shared: dict[tuple, Event], e: Event, value_read: Optional[int], value_written: Optional[int]
) -> Event:
    """The event e with these values, built once per key of `shared`."""
    key = (e.id, value_read, value_written)
    valued = shared.get(key)
    if valued is None:
        valued = shared[key] = Event(e.id, e.thread, e.index, e.kind, e.atomic, e.order, e.location, *key[1:])
    return valued


def _witness(recipe: tuple) -> CandidateExecution:
    """An enumerate_cxx11 witness, built from its recipe (rf map record,
    frame, mo orders, S).  A record is [rf, value_read, value_written, the
    branching's shared valued events, None]; its first witness fills the
    last slot with the events and rf it shares."""
    record, frame, mo, s_order = recipe
    rf, value_read, value_written, shared, made = record
    if made is None:
        events = tuple(_valued(shared, e, value_read.get(e.id), value_written.get(e.id)) for e in frame.events)
        made = record[4] = events, MappingProxyType(rf)
    # rf and mo are read-only; dataclasses.replace drops _kernel.
    mo_map = MappingProxyType({loc: t.order for loc, t in zip(frame.locations, mo)})
    witness = CandidateExecution(*made, mo_map, s_order)
    object.__setattr__(witness, "_kernel", (frame, mo))
    return witness


def enumerate_cxx11(
    program: Program,
    *,
    max_candidates: int = DEFAULT_MAX_CANDIDATES,
) -> OutcomeSet:
    """All assertion-relevant outcomes of axiom-consistent candidates.

    Enumerates CAS branchings, rf maps, per-location modification orders and,
    when needed, total orders S over the seq_cst events.  S choices stop at
    the first consistent one per (rf, mo): outcomes and races never depend on
    which consistent S witnessed them.  Only orders S that keep the S-EMBED
    edges and the SC axioms' edges for the candidate's rf and mo are tried
    (see `_sc_edges`); the first consistent S is the same as without
    pruning.  The first such order comes in one pass; the later ones are
    generated only when a disjunctive SC-READ can reject it.

    An rf option that breaks COHERENT-READ under hb's base rows (sb and
    initialization) breaks it under every mo, so it is dropped before the
    rf product, and stats.explored, the (rf, mo) pairs plus the S orders
    tried, counts every pair of each grounded rf map that takes one as
    judged and rejected.  In a sync-free frame (no RMW, no seq_cst event,
    no possible sw edge) only the first mo with each tuple of mo-last
    writes is visited, and stats.explored counts each pair skipped as
    judged like that first one.  Outcomes are ints, as `PackedOutcomes`
    packs them: the registers are packed once per rf map, and each
    consistent (rf, mo) ORs in the values of its mo-last writes.  Each
    outcome's witness is the first consistent candidate with that outcome,
    built when read; the witnesses share their `Event` objects, which are
    immutable: one per event and pair of values in each CAS branching.
    ValueError, from check_runnable, for a program no backend can run, such
    as one whose non-atomic access carries an order.
    """
    check_runnable(program)
    stats = ExplorationStats()
    recipes: dict[int, tuple] = {}  # each packed outcome's witness recipe
    outcomes = PackedOutcomes(recipes.keys(), program.locations, program.registers)
    # Every location has an initialization write, so each frame's locations
    # are the program's, in order, as mo's orders are.
    location_shifts = outcomes.location_shifts
    racy = False

    cas_sites = [
        (t, i) for t, body in enumerate(program.threads) for i, instr in enumerate(body) if instr.kind in CAS_KINDS
    ]

    def bump(count: int = 1) -> None:
        stats.explored += count
        if stats.explored > max_candidates:
            raise ResourceLimitError("candidate", max_candidates)

    for combo in itertools.product((True, False), repeat=len(cas_sites)):
        events = _events(program, dict(zip(cas_sites, combo)))
        frame = _Frame(program, events)
        plan = frame.plan
        reads = [r for r, _ in frame.read_checks]
        choices, kept = _rf_options(frame)

        shared: dict[tuple, Event] = {}  # the valued events this branching's witnesses share

        # Modification orders of each location: initialization first, each
        # thread's writes in program order.
        mo_choices = []
        for writes in frame.loc_writes:
            preds = {w: sum(1 << v for v in _bits(writes) if frame.base[v] >> w & 1) for w in _bits(writes)}
            mo_choices.append(list(ordered_extensions(preds)))
        pairs = math.prod(map(len, mo_choices))
        # Each grounded rf map with a dropped option counts all its pairs, as
        # if each were judged and rejected.  Without rules or CAS every map
        # grounds.
        if plan.rules or plan.cas:
            doomed = sum(_ground(plan, dict(zip(reads, c))) is not None for c in _doomed_maps(choices, kept))
        else:
            doomed = math.prod(map(len, choices)) - math.prod(map(len, kept))
        bump(doomed * pairs)
        # Sync-free: sw is empty, hb is the base rows, HB-MO holds and the RMW
        # and SC axioms are vacuous, so all mo of an rf map are judged alike.
        syncs = bool(frame.tags and frame.sync_reads)
        skipped = 0
        if not frame.rmw and not frame.sc_ids and not syncs:
            for orders in mo_choices:  # keep each order no earlier one ends with the same write
                orders[:] = [o for i, o in enumerate(orders) if all(p[-1] != o[-1] for p in orders[:i])]
            skipped = pairs - math.prod(map(len, mo_choices))
        mo_choices = [[_MoOrder(frame, order) for order in orders] for orders in mo_choices]
        register_fields = tuple(zip(plan.registers, outcomes.register_shifts))  # (read, shift) per register
        # Without syncs every source carries no head; where no release
        # sequence grows past its head, each carries its own tags.  Either
        # way rf alone fixes sw's input.
        heads_by_rf = not syncs or frame.heads_fixed_by_rf

        # mo reaches hb only through sw's input, so hb, COHERENT-READ, the
        # races and S-EMBED's hb half are judged once per input: (whether hb
        # passes, hb, whether sw has an edge, racy, hb half).  An input with
        # no head leaves hb at the base rows, where every kept rf map passes
        # COHERENT-READ: one judgment serves them all.
        unsynced: Optional[tuple[bool, list[int], bool, bool, dict[int, int]]] = None

        def judge(heads: tuple[int, ...], rf: Mapping[int, int]) -> tuple[bool, list[int], bool, bool, dict[int, int]]:
            nonlocal unsynced
            if any(heads):
                sw = _sw_edges(frame, heads)
                hb, cyclic = _hb_rows(frame, sw)
                ok = not (cyclic or _coherent_read_violated(frame.read_checks, rf, hb))
                return ok, hb, bool(sw), ok and bool(_races(frame, hb)), (
                    _s_hb_preds(frame, hb) if ok and frame.sc_ids else {})
            unsynced = unsynced or (True, frame.base, False, bool(_races(frame, frame.base)), (
                _s_hb_preds(frame, frame.base) if frame.sc_ids else {}))
            return unsynced

        for rf_combo in itertools.product(*kept):
            rf = dict(zip(reads, rf_combo))
            grounded = _ground(plan, rf)
            if grounded is None:
                continue
            value_read, value_written = grounded
            registers = 0
            for r, shift in register_fields:
                registers |= value_read[r] << shift
            record: Optional[list] = None  # this rf map's part of its witnesses' recipes
            if heads_by_rf:
                judged = judge(frame.rf_heads(rf) if syncs else (), rf)
            else:
                by_heads: dict[tuple[int, ...], tuple[bool, list[int], bool, bool, dict[int, int]]] = {}
            for mo in itertools.product(*mo_choices):
                bump()
                # Without RMWs RMW-IMMEDIATE holds, and without seq_cst events
                # the SC axioms do.
                if frame.rmw and _rmw_immediate_violated(mo, rf):
                    continue
                if not heads_by_rf:
                    heads = frame.sync_heads(mo, rf)
                    judged = by_heads.get(heads)
                    if judged is None:
                        judged = by_heads[heads] = judge(heads, rf)
                ok, hb, synced, hb_racy, hb_preds = judged
                # Every mo choice extends the base rows, so only sw can break HB-MO.
                if not ok or synced and _hb_mo_violated(mo, hb):
                    continue

                s_orders: Iterable[tuple[int, ...]] = ((),)
                disjunctions: Sequence[tuple[int, int, int]] = ()
                if frame.sc_ids:
                    preds = _s_embedding(frame, mo, hb_preds)
                    edges, disjunctions = _sc_edges(frame, mo, rf, hb)
                    for _, a, b in edges:
                        preds[b] |= 1 << a
                    first = first_extension(preds)
                    if first is None:
                        continue  # no S passes S-EMBED and the SC axioms
                    s_orders = ordered_extensions(preds) if disjunctions else (first,)
                for s_order in s_orders:
                    bump()
                    if disjunctions and _sc_read_broken(frame, s_order, disjunctions):
                        continue
                    racy = racy or hb_racy
                    # rf fixes the registers, and the mo-last writes the final
                    # values.  An outcome keeps the recipe of its first
                    # consistent candidate.
                    key = registers
                    for t, shift in zip(mo, location_shifts):
                        key |= value_written[t.order[-1]] << shift
                    if key not in recipes:
                        record = record or [rf, value_read, value_written, shared, None]
                        recipes[key] = record, frame, mo, s_order
                    break
            if skipped:  # each judged as its first pair with the same last writes: consistent, one S
                bump(2 * skipped)

    return OutcomeSet(outcomes, racy=racy, stats=stats, witnesses=Witnesses(outcomes, recipes, _witness))
