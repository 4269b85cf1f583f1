"""Statistical flow graph (paper Section 3.1.1, after Eeckhout et al.).

Nodes are the profiled program's basic blocks annotated with dynamic
execution frequencies; edges carry transition probabilities to successor
blocks.  The synthesizer walks this graph: start nodes are drawn from the
occurrence distribution, successors from the edge distribution, and each
instantiation decrements the node's remaining occurrence budget (steps 1,
6 and 8 of the generation algorithm).
"""

import bisect


class _Cdf:
    """Cumulative distribution over (item, weight) pairs for fast sampling."""

    def __init__(self, items, weights):
        self.items = list(items)
        self.cumulative = []
        total = 0.0
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.total = total

    def sample(self, rng):
        if not self.items or self.total <= 0:
            return None
        point = rng.random() * self.total
        index = bisect.bisect_right(self.cumulative, point)
        if index >= len(self.items):
            index = len(self.items) - 1
        return self.items[index]


class StatisticalFlowGraph:
    """Walkable SFG with occurrence budgets.

    ``scale`` rescales profiled visit counts to the number of basic-block
    instances the synthesizer intends to emit, preserving relative
    frequencies (paper step 1's cumulative distribution).
    """

    def __init__(self, profile, target_instances=None):
        self.profile = profile
        visits = {bid: stats.visits for bid, stats in profile.blocks.items()
                  if stats.visits > 0}
        total_visits = sum(visits.values())
        if target_instances is None or total_visits == 0:
            scale = 1.0
        else:
            scale = target_instances / total_visits
        self.occurrences = {bid: max(1, round(count * scale))
                            for bid, count in visits.items()}
        self._initial = dict(self.occurrences)

        self.successors = {}
        for (pred, succ), count in profile.transitions.items():
            self.successors.setdefault(pred, []).append((succ, count))
        self.successor_cdfs = {
            pred: _Cdf([succ for succ, _ in pairs],
                       [count for _, count in pairs])
            for pred, pairs in self.successors.items()
        }

    # ------------------------------------------------------------------
    def start_distribution(self):
        """The :class:`_Cdf` over remaining occurrence frequencies."""
        alive = [(bid, count) for bid, count in self.occurrences.items()
                 if count > 0]
        if not alive:
            alive = list(self._initial.items())
        return _Cdf([bid for bid, _ in alive], [count for _, count in alive])

    def sample_start(self, rng):
        """Step 1: draw a node from remaining occurrence frequencies."""
        return self.start_distribution().sample(rng)

    def sample_next(self, bid, rng):
        """Step 8: draw a successor by edge probability; None if terminal."""
        cdf = self.successor_cdfs.get(bid)
        if cdf is None:
            return None
        return cdf.sample(rng)

    def instantiate(self, bid):
        """Step 6: decrement the node's occurrence budget (floor 0)."""
        remaining = self.occurrences.get(bid, 0)
        if remaining > 0:
            self.occurrences[bid] = remaining - 1

    def exhausted(self):
        return all(count <= 0 for count in self.occurrences.values())

    def transition_probability(self, pred, succ):
        """Edge probability P(succ | pred), 0.0 if the edge was never seen."""
        pairs = self.successors.get(pred)
        if not pairs:
            return 0.0
        total = sum(count for _, count in pairs)
        for node, count in pairs:
            if node == succ:
                return count / total
        return 0.0

    def walk(self, target_instances, rng):
        """Generate the block-instance sequence (steps 1, 6-9).

        Walks edges until ``target_instances`` blocks have been emitted,
        restarting from the occurrence distribution whenever a node has no
        outgoing edges.
        """
        sequence = []
        current = self.sample_start(rng)
        while current is not None and len(sequence) < target_instances:
            sequence.append(current)
            self.instantiate(current)
            nxt = self.sample_next(current, rng)
            if nxt is None or self.occurrences.get(nxt, 0) <= 0:
                # Terminal node, or the successor's budget is spent: go
                # back to step 1 so the walk's coverage stays
                # proportional to the occurrence distribution.  Without
                # this, a short walk can spend its entire budget inside
                # one hot loop nest (loop exit probabilities like 1/380
                # are effectively never drawn) and starve every other
                # program region.
                nxt = self.sample_start(rng)
            current = nxt
        return sequence
