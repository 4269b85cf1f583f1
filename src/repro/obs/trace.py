"""Span tracing: the one per-process span stack, journaled as a tree.

Usage — spans nest, and nesting builds slash-separated name chains::

    from repro.obs.trace import span

    with span("core.synthesizer"):
        with span("core.synthesizer.codegen", blocks=12):
            ...

Span names follow the benchmark's layers (``native``, ``sim``,
``core.profiler``, ``core.synthesizer``, ``lint``, ``exec.store``,
``uarch.cache``, ``uarch.sweep``, ``statsim``, ``uarch.power``,
``fleet``, ``evaluation``): each is a layer or ``<layer>.<step>``; the
CLI's root span is ``cli.<command>``.

Each span close does two things.  It folds the span's wall and CPU
time into one in-process table keyed by name chain
(:func:`phase_table`, the manifest's ``phases`` block), and, when a run
journal is active (:mod:`repro.obs.journal`), it records the span with
its identity — ``"<pid>-<n>"``, a parent id, and free-form attributes —
as a ``span_open``/``span_close`` pair.  Fleet workers are forked, so
they inherit the open-span stack and their first span attaches under
the span that started them: a merged journal yields one tree from
``cli.<command>`` down to each worker's blocks.  :func:`flame_summary`
of that tree derives the same chains as the table.

Reading side: :func:`build_span_tree` reconstructs the forest from
merged events (tolerating unclosed spans from crashed runs), and the
exporters render it as a text timeline, a flame summary (self vs total
time per path), a critical path, or Chrome trace-event JSON loadable in
``chrome://tracing`` / Perfetto.

Disabled tracing (:func:`set_tracing_enabled`) makes :func:`span` a
no-op context manager; without a journal a span costs its timers and
one table update.
"""

import contextlib
import json
import os
import time

from repro.obs.journal import active_journal

_ENABLED = True
_SEQ = 0
_SEQ_PID = None
_STACK = []   # open spans of this process: (span id or None, name chain)
_PHASES = {}  # name chain -> [count, wall_s, cpu_s]


def set_tracing_enabled(enabled):
    global _ENABLED
    _ENABLED = bool(enabled)


def tracing_enabled():
    return _ENABLED


def _next_id():
    """Process-unique span id; pid prefix keeps forked children unique."""
    global _SEQ, _SEQ_PID
    pid = os.getpid()
    if pid != _SEQ_PID:  # forked child inherited the counter
        _SEQ_PID = pid
        _SEQ = 0
    _SEQ += 1
    return f"{pid}-{_SEQ}"


def current_span_id():
    """Innermost open span id of this process (or, in a forked worker,
    of the parent at fork time), else ``None``."""
    return _STACK[-1][0] if _STACK else None


def current_path():
    """The innermost open span's name chain, or ``None``."""
    return _STACK[-1][1] if _STACK else None


@contextlib.contextmanager
def span(name, **attrs):
    """Time a phase; nested spans extend the current name chain."""
    if not _ENABLED:
        yield
        return
    parent, chain = _STACK[-1] if _STACK else (None, None)
    path = f"{chain}/{name}" if chain else name
    journal = active_journal()
    sid = None
    if journal is not None:
        sid = _next_id()
        if attrs:
            journal.emit("span_open", span=sid, parent=parent, name=name,
                         attrs=attrs)
        else:
            journal.emit("span_open", span=sid, parent=parent, name=name)
    frame = (sid, path)
    _STACK.append(frame)
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        yield
    finally:
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        # Closed out of order (a generator, a reset): drop it wherever
        # it is.
        for index in range(len(_STACK) - 1, -1, -1):
            if _STACK[index] is frame:
                del _STACK[index]
                break
        entry = _PHASES.get(path)
        if entry is None:
            _PHASES[path] = [1, wall, cpu]
        else:
            entry[0] += 1
            entry[1] += wall
            entry[2] += cpu
        journal = active_journal() if sid is not None else None
        if journal is not None:
            journal.emit("span_close", span=sid, parent=parent, name=name,
                         wall_s=round(wall, 6), cpu_s=round(cpu, 6))


def phase_table():
    """``{name chain: {"count", "wall_s", "cpu_s"}}``, chains sorted."""
    return {path: {"count": entry[0], "wall_s": entry[1],
                   "cpu_s": entry[2]}
            for path, entry in sorted(_PHASES.items())}


def reset_trace_state():
    """Drop the open-span stack and the phase table (start of a fresh
    run).  Span ids keep counting, so runs that append to one journal
    never reuse one."""
    _STACK.clear()
    _PHASES.clear()


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------
class SpanNode:
    """One reconstructed span: timing, attributes, and children."""

    __slots__ = ("sid", "parent", "name", "pid", "start", "end", "wall_s",
                 "cpu_s", "attrs", "children", "complete")

    def __init__(self, sid, parent, name, pid, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.pid = pid
        self.start = start
        self.end = None
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.attrs = {}
        self.children = []
        self.complete = False

    def path(self):
        return self.name

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def build_span_tree(events, now=None):
    """Reconstruct the span forest from merged journal events.

    Returns a list of root :class:`SpanNode` (spans whose parent is
    absent from the event stream — normally just ``cli.<command>``).
    Spans without a close event (in-flight or crashed runs) are kept,
    marked ``complete=False``, with ``end``/``wall_s`` estimated from
    ``now`` (default: the last event timestamp).
    """
    nodes = {}
    order = []
    last_ts = None
    for event in events:
        kind = event.get("kind")
        last_ts = event.get("ts", last_ts)
        if kind == "span_open":
            node = SpanNode(event["span"], event.get("parent"),
                            event.get("name", "?"), event["pid"],
                            event["ts"])
            node.attrs = event.get("attrs", {})
            nodes[node.sid] = node
            order.append(node)
        elif kind == "span_close":
            node = nodes.get(event["span"])
            if node is None:  # close without open (torn journal head)
                node = SpanNode(event["span"], event.get("parent"),
                                event.get("name", "?"), event["pid"],
                                event["ts"] - event.get("wall_s", 0.0))
                nodes[node.sid] = node
                order.append(node)
            node.end = event["ts"]
            node.wall_s = event.get("wall_s",
                                    max(0.0, node.end - node.start))
            node.cpu_s = event.get("cpu_s", 0.0)
            node.complete = True
    horizon = now if now is not None else (last_ts or 0.0)
    roots = []
    for node in order:
        if not node.complete:
            node.end = max(horizon, node.start)
            node.wall_s = node.end - node.start
        parent = nodes.get(node.parent) if node.parent else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    return roots


def span_coverage(roots, wall_seconds):
    """Fraction of ``wall_seconds`` covered by the widest root span."""
    if not roots or not wall_seconds:
        return 0.0
    widest = max(root.wall_s for root in roots)
    return min(1.0, widest / wall_seconds)


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def _name_chain(node, chain):
    return f"{chain}/{node.name}" if chain else node.name


def flame_summary(roots, limit=None):
    """Aggregate self/total wall time by name chain, widest first.

    Returns rows ``{path, count, total_s, self_s, cpu_s}`` where
    ``self_s`` is total minus the time spent in child spans — the flame
    view's answer to "where does the time actually go?".
    """
    table = {}

    def visit(node, chain):
        path = _name_chain(node, chain)
        child_wall = 0.0
        for child in node.children:
            visit(child, path)
            child_wall += child.wall_s
        row = table.setdefault(path, {"path": path, "count": 0,
                                      "total_s": 0.0, "self_s": 0.0,
                                      "cpu_s": 0.0})
        row["count"] += 1
        row["total_s"] += node.wall_s
        row["self_s"] += max(0.0, node.wall_s - child_wall)
        row["cpu_s"] += node.cpu_s

    for root in roots:
        visit(root, "")
    rows = sorted(table.values(), key=lambda row: -row["self_s"])
    return rows[:limit] if limit else rows


def flame_text(roots, limit=12, width=68):
    """Plain-text flame summary (self-time bars), one line per path."""
    rows = flame_summary(roots, limit=limit)
    if not rows:
        return "flame: no spans recorded"
    total = max(sum(row["self_s"] for row in rows), 1e-9)
    name_w = min(max(len(row["path"]) for row in rows), 46)
    lines = [f"{'span path':<{name_w}}  {'self':>8}  {'total':>8}  "
             f"{'count':>5}  share"]
    bar_w = max(10, width - name_w - 34)
    for row in rows:
        share = row["self_s"] / total
        bar = "#" * max(1, round(share * bar_w)) if row["self_s"] else ""
        path = row["path"]
        if len(path) > name_w:
            path = "..." + path[-(name_w - 3):]
        lines.append(f"{path:<{name_w}}  {row['self_s']:>7.3f}s "
                     f"{row['total_s']:>7.3f}s  {row['count']:>5}  "
                     f"{share:>5.1%} {bar}")
    return "\n".join(lines)


def critical_path(roots):
    """Longest chain of spans: at each level descend into the child with
    the largest ``wall_s`` (on a tie, the one that ends later).
    Returns ``[(depth, SpanNode)]``."""
    if not roots:
        return []
    chain = []
    node = max(roots, key=lambda root: root.wall_s)
    depth = 0
    while node is not None:
        chain.append((depth, node))
        if not node.children:
            break
        node = max(node.children, key=lambda child: (
            child.wall_s, child.end if child.end else child.start))
        depth += 1
    return chain


def critical_path_text(roots):
    chain = critical_path(roots)
    if not chain:
        return "critical path: no spans recorded"
    lines = ["critical path (longest child at each level):"]
    for depth, node in chain:
        marker = "" if node.complete else "  [open]"
        lines.append(f"  {'  ' * depth}{node.name}  "
                     f"{node.wall_s:.3f}s  pid={node.pid}{marker}")
    return "\n".join(lines)


def timeline_text(roots, width=60):
    """Per-pid lanes with proportional start offsets and durations."""
    spans = [node for root in roots for node in root.walk()]
    if not spans:
        return "timeline: no spans recorded"
    t0 = min(node.start for node in spans)
    t1 = max(node.end if node.end else node.start for node in spans)
    extent = max(t1 - t0, 1e-9)
    lines = [f"timeline: {extent:.3f}s across {len(spans)} spans"]
    by_pid = {}
    for node in spans:
        by_pid.setdefault(node.pid, []).append(node)
    for pid in sorted(by_pid):
        lines.append(f"pid {pid}:")
        for node in sorted(by_pid[pid], key=lambda n: (n.start, n.sid)):
            lead = round((node.start - t0) / extent * width)
            span_w = max(1, round(node.wall_s / extent * width))
            span_w = min(span_w, width - min(lead, width - 1))
            bar = " " * min(lead, width - 1) + "=" * span_w
            marker = "" if node.complete else " [open]"
            lines.append(f"  |{bar:<{width}}| {node.name} "
                         f"{node.wall_s:.3f}s{marker}")
    return "\n".join(lines)


def export_chrome_trace(events, path):
    """Write merged journal events as Chrome trace-event JSON.

    Spans become complete events (``ph="X"``, microsecond timestamps
    relative to the earliest event); store/lint/progress/metrics events
    become instants so they show up as markers in the same view.
    Returns the number of trace events written.
    """
    timestamps = [event["ts"] for event in events if "ts" in event]
    base = min(timestamps) if timestamps else 0.0

    def usec(ts):
        return round((ts - base) * 1e6, 1)

    trace_events = []
    roots = build_span_tree(events)
    for root in roots:
        for node in root.walk():
            entry = {"name": node.name, "ph": "X", "cat": "span",
                     "ts": usec(node.start),
                     "dur": round(node.wall_s * 1e6, 1),
                     "pid": node.pid, "tid": node.pid,
                     "args": dict(node.attrs)}
            if node.cpu_s:
                entry["args"]["cpu_s"] = node.cpu_s
            if not node.complete:
                entry["args"]["incomplete"] = True
            trace_events.append(entry)
    instant_kinds = {"store", "lint", "progress", "metrics", "run_begin",
                     "run_end", "profile_summary"}
    for event in events:
        kind = event.get("kind")
        if kind not in instant_kinds:
            continue
        args = {key: value for key, value in event.items()
                if key not in ("ts", "pid", "seq", "kind")}
        trace_events.append({"name": kind, "ph": "i", "cat": kind,
                             "ts": usec(event["ts"]), "pid": event["pid"],
                             "tid": event["pid"], "s": "p", "args": args})
    payload = {"traceEvents": trace_events, "displayTimeUnit": "ms"}
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return len(trace_events)
