"""Reuse-affinity scheduling: shard cells so shared work stays local.

The sweep engine's artifacts are keyed by trace and by config subsets
(:mod:`repro.uarch.incremental` documents the table): the trace digest
is per-trace, cache banks per hierarchy, predictor banks per predictor.
A scheduler that scatters a kernel's cells across workers makes every
worker acquire the trace and re-derive (or at best re-load) each bank;
one that keeps a trace's cells on a single worker back-to-back turns
all of that into in-process cache hits and single-knob
:class:`~repro.uarch.incremental.IncrementalSession` steps.

So the fleet orders and shards on exactly those keys:

* cells are grouped by trace (kernel, subject, seed) — a group never
  splits across shards;
* inside a group, cells sort by (hierarchy key, predictor key) so
  neighbors differ in as few artifact keys as possible;
* groups are packed onto shards largest-first onto the currently
  lightest shard (LPT), so shard loads balance without breaking
  affinity;
* a worker that drains its own shard steals from the *tail* of the
  currently heaviest remaining shard — the victim works its shard
  head-to-tail, so tail cells are the ones it would reach last and
  stealing them collides least with the victim's warm state.

Everything here is deterministic: same cells + same shard count =>
same shards, same order.
"""

from repro.uarch.sweep import _hierarchy_key, _predictor_key


def affinity_key(cell):
    """Sort key placing bank-sharing cells back-to-back.

    Hierarchy first (cache banks are the most expensive artifact to
    rebuild), then predictor, then expansion index as the deterministic
    tiebreak.
    """
    return (repr(_hierarchy_key(cell.config)),
            repr(_predictor_key(cell.config)),
            cell.index)


def order_cells(cells):
    """Cells grouped by trace, affinity-sorted inside each group."""
    ordered = []
    for group in group_by_trace(cells):
        ordered.extend(group)
    return ordered


def group_by_trace(cells):
    """Trace-sharing cell groups, each affinity-ordered, in first-seen
    trace order (expansion order is kernel-major, so this is stable)."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell.trace_key, []).append(cell)
    return [sorted(group, key=affinity_key) for group in groups.values()]


def build_shards(cells, n_shards):
    """Partition cells into ``n_shards`` affinity-preserving shards.

    Returns a list of cell lists (some possibly empty when there are
    fewer trace groups than shards).  Groups are assigned largest-first
    to the lightest shard; ties break on shard index, group order on
    first appearance — fully deterministic.
    """
    n_shards = max(1, int(n_shards))
    groups = group_by_trace(cells)
    shards = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    # Stable largest-first: sort by (-size, first-seen order).
    order = sorted(range(len(groups)),
                   key=lambda position: (-len(groups[position]), position))
    for position in order:
        group = groups[position]
        target = min(range(n_shards), key=lambda shard: (loads[shard],
                                                         shard))
        shards[target].extend(group)
        loads[target] += len(group)
    return shards


def steal_candidates(shards, own_index, remaining):
    """Cells to try stealing, best-victim-first, tail-first.

    ``remaining`` is a predicate (cell -> bool) selecting cells still
    worth claiming (no published result).  Victim shards are visited
    heaviest-remaining first; within a victim, cells come from the tail
    backwards so the thief and the victim converge from opposite ends.
    """
    victims = []
    for index, shard in enumerate(shards):
        if index == own_index:
            continue
        pending = [cell for cell in shard if remaining(cell)]
        if pending:
            victims.append((len(pending), -index, pending))
    victims.sort(reverse=True)
    for _, _, pending in victims:
        yield from reversed(pending)
