"""Graphviz (dot) rendering of executions and interleaving traces.

Output is deterministic: nodes by event id or step number, edges sorted.
An empty trace still yields a syntactically valid (header-only) graph.
"""

from __future__ import annotations

from collections.abc import Sequence

from .axiomatic import CandidateExecution, _compute_sw
from .model import INIT_THREAD, Event, EventKind, Program, TraceStep


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _event_label(event: Event) -> str:
    if event.is_init:
        return event.describe()
    # "T0#1 W x=1 rel" -> "T0: W x=1 rel"
    _, rest = event.describe().split(" ", 1)
    return f"T{event.thread}: {rest}"


def execution_dot(program: Program, candidate: CandidateExecution, *, title: str = "execution") -> str:
    """Candidate execution as a digraph: sb between consecutive same-thread
    events, rf write-to-read, mo between mo-adjacent writes, sw edges."""
    sw = _compute_sw(program, candidate)  # checks the candidate, unless enumerate_cxx11 built it for program
    events = candidate.events
    lines = [
        f"digraph {_quote(title)} {{",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for e in events:
        lines.append(f"  e{e.id} [label={_quote(_event_label(e))}];")

    # Each thread's events come together, in program order: _compute_sw checked it, or the enumerator built them.
    edges = {
        "sb": [(a.id, b.id) for a, b in zip(events, events[1:]) if a.thread == b.thread != INIT_THREAD],
        "rf": sorted((w_id, r_id) for r_id, w_id in candidate.rf.items()),
        "mo": sorted(pair for order in candidate.mo.values() for pair in zip(order, order[1:])),
        "sw": sorted(sw),
    }
    style = {
        "sb": "",
        "rf": ", color=red, fontcolor=red",
        "mo": ", color=blue, fontcolor=blue",
        "sw": ", color=darkgreen, fontcolor=darkgreen, style=dashed",
    }
    for name, pairs in edges.items():
        for a, b in pairs:
            lines.append(f"  e{a} -> e{b} [label={_quote(name)}{style[name]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def trace_dot(program: Program, trace: Sequence[TraceStep], *, title: str = "trace") -> str:
    """Interleaving trace, steps numbered in global order.

    Edges: program-order between consecutive instruction steps of one thread,
    propagation from a buffered store to the dequeue that publishes it.
    """
    lines = [
        f"digraph {_quote(title)} {{",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace"];',
    ]
    for i, step in enumerate(trace):
        name = program.thread_names[step.thread]
        if step.kind == "dequeue":
            label = f"{i + 1}. {name} dequeue: {step.text}"
            lines.append(f"  s{i} [label={_quote(label)}, style=dashed];")
        else:
            label = f"{i + 1}. {name}: {step.text}"
            lines.append(f"  s{i} [label={_quote(label)}];")

    # The k-th exec step of thread t runs program.threads[t][k]; a store step
    # waits for its thread's next dequeue (SC traces have none), unless a
    # locked RMW of its thread, a failed CAS too, drains it first.
    executed: dict[int, list[int]] = {}
    pending: dict[int, list[int]] = {}
    edges: list[tuple[int, int, str]] = []
    for i, step in enumerate(trace):
        if step.kind == "dequeue":
            queue = pending.get(step.thread)
            if queue:
                edges.append((queue.pop(0), i, "prop"))
            continue
        done = executed.setdefault(step.thread, [])
        if done:
            edges.append((done[-1], i, "po"))
        event = program.threads[step.thread][len(done)].kind.event
        if event is EventKind.WRITE:
            pending.setdefault(step.thread, []).append(i)
        elif event is EventKind.RMW:
            pending.pop(step.thread, None)
        done.append(i)

    style = {"po": "", "prop": ", color=blue, fontcolor=blue, style=dashed"}
    for a, b, name in sorted(edges, key=lambda e: (e[2], e[0], e[1])):
        lines.append(f"  s{a} -> s{b} [label={_quote(name)}{style[name]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
