"""Reuse-affinity scheduling: shard cells so shared work stays local.

The sweep engine's artifacts are keyed by trace and by config subsets
(:mod:`repro.uarch.incremental` documents the table): the trace digest
is per-trace, cache banks per hierarchy, predictor banks per predictor.
A scheduler that scatters a kernel's cells across workers makes every
worker acquire the trace and re-derive (or at best re-load) each bank;
one that keeps a trace's cells on a single worker back-to-back turns
all of that into in-process cache hits and single-knob
:class:`~repro.uarch.incremental.IncrementalSession` steps.  The sweep
engine's ``*_reused`` / ``*_built`` counters record how much of that
reuse a run actually got.

So the fleet orders and shards on exactly those keys:

* cells are grouped by trace (kernel, subject, seed) — a group never
  splits across shards;
* inside a group, cells sort by (hierarchy key, predictor key) so
  neighbors differ in as few artifact keys as possible;
* each group is cut into **blocks** — runs of consecutive cells sized
  by estimated work (:data:`BLOCK_INSTRUCTIONS`) — and a block is the
  unit a worker claims, heartbeats, steals, times and publishes: the
  bookkeeping (lease file, heartbeat, span, sweep call, result file,
  progress) is paid per block, not per cell;
* groups are packed onto shards largest-first onto the currently
  lightest shard (LPT), so shard loads balance without breaking
  affinity;
* a worker that drains its own shard steals whole blocks from the
  *tail* of the currently heaviest remaining shard — the victim works
  its shard head-to-tail, so tail blocks are the ones it would reach
  last and stealing them collides least with the victim's warm state.

Everything here is deterministic and depends only on the recipe: same
cells => same blocks (whatever the shard count, on every resume), and
same blocks + same shard count => same shards, same order.  That is
what lets one ``O_EXCL`` lease per block settle every race.
"""

import dataclasses

from repro.uarch.sweep import _hierarchy_key, _predictor_key

#: Estimated timing work per block, in instructions (cells x the
#: per-cell instruction bound).  A block of this size times in tens of
#: milliseconds on the native loop: long enough to amortize a lease,
#: short enough that stealing whole blocks still balances the tail.
BLOCK_INSTRUCTIONS = 2_000_000


@dataclasses.dataclass(frozen=True)
class Block:
    """A run of consecutive same-trace cells, claimed as one lease."""

    block_id: str
    cells: tuple

    @property
    def trace_key(self):
        return self.cells[0].trace_key

    def __len__(self):
        return len(self.cells)


def affinity_key(cell):
    """Sort key placing bank-sharing cells back-to-back.

    Hierarchy first (cache banks are the most expensive artifact to
    rebuild), then predictor, then expansion index as the deterministic
    tiebreak.
    """
    return (repr(_hierarchy_key(cell.config)),
            repr(_predictor_key(cell.config)),
            cell.index)


def group_by_trace(cells):
    """Trace-sharing cell groups, each affinity-ordered, in first-seen
    trace order (expansion order is kernel-major, so this is stable)."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell.trace_key, []).append(cell)
    return [sorted(group, key=affinity_key) for group in groups.values()]


def build_blocks(cells, cell_instructions):
    """Cut every trace group into near-equal contiguous blocks.

    ``cell_instructions`` bounds the instructions one cell times (the
    recipe's pipeline cap, or its functional cap when timing runs the
    whole trace); a block holds about :data:`BLOCK_INSTRUCTIONS` worth
    of cells, at least one.  Returns the blocks in group order.
    """
    per_block = max(1, BLOCK_INSTRUCTIONS // max(1, int(cell_instructions)))
    blocks = []
    for group in group_by_trace(cells):
        count = -(-len(group) // per_block)
        for part in range(count):
            chunk = tuple(group[part * len(group) // count:
                                (part + 1) * len(group) // count])
            blocks.append(Block(f"{chunk[0].cell_id}.b{len(chunk)}", chunk))
    return blocks


def recipe_blocks(recipe, cells):
    """The blocks of ``recipe``'s expanded ``cells``."""
    return build_blocks(cells, recipe.pipeline_cap or recipe.functional_cap)


def build_shards(blocks, n_shards):
    """Partition blocks into ``n_shards`` affinity-preserving shards.

    Returns a list of block lists (some possibly empty when there are
    fewer trace groups than shards).  A trace's blocks always land on
    one shard together; groups are assigned largest-first (by cell
    count) to the lightest shard; ties break on shard index, group
    order on first appearance — fully deterministic.
    """
    n_shards = max(1, int(n_shards))
    groups = {}
    for block in blocks:
        groups.setdefault(block.trace_key, []).append(block)
    groups = list(groups.values())
    sizes = [sum(len(block) for block in group) for group in groups]
    shards = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    # Stable largest-first: sort by (-size, first-seen order).
    order = sorted(range(len(groups)),
                   key=lambda position: (-sizes[position], position))
    for position in order:
        target = min(range(n_shards), key=lambda shard: (loads[shard],
                                                         shard))
        shards[target].extend(groups[position])
        loads[target] += sizes[position]
    return shards


def steal_candidates(shards, own_index, remaining):
    """Blocks to try stealing, best-victim-first, tail-first.

    ``remaining`` is a predicate (block -> bool) selecting blocks still
    worth claiming (some cell without a published result).  Victim
    shards are visited heaviest-remaining first; within a victim, blocks
    come from the tail backwards so the thief and the victim converge
    from opposite ends.
    """
    victims = []
    for index, shard in enumerate(shards):
        if index == own_index:
            continue
        pending = [block for block in shard if remaining(block)]
        if pending:
            victims.append((len(pending), -index, pending))
    victims.sort(reverse=True)
    for _, _, pending in victims:
        yield from reversed(pending)
