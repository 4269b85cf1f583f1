"""Microarchitecture-independent memory access model (Sections 3.1.4, 3.2).

The paper models every static load/store as one fixed-stride stream that
resets after a number of iterations chosen so the clone's data footprint
matches the original.  Realizing that with ~30 architected registers,
no per-access multiplies, and a *looped* synthetic body takes four ideas:

* **Clusters** — memops are grouped by modelled stride; each cluster owns
  one pointer register that advances once per clone loop iteration and
  resets to its base every ``reset_period`` iterations.

* **Shared sliding streams** — all generated instances of the same
  original static memop share one stream; instance ``j`` uses static
  offset ``j·stride``, so consecutive instances inside one iteration are
  adjacent addresses and the window slides each iteration, preserving
  both the intra-loop spatial locality and the stream walk.

* **Region sharing** — distinct static memops whose profiled address
  ranges overlap (five neighbourhood loads over one image; the loads and
  stores of one table) share a single region with their original
  relative offsets, so the clone's working set is the *union* of their
  footprints as in the original, not the disjoint sum.

* **Sweep-once advance** — ops whose profiled stream runs essentially
  once over their footprint (stream length ≈ execution count) generate
  *compulsory* misses at any cache size.  Their cluster pointer advances
  by a whole window per iteration so the clone keeps touching fresh
  lines at the original's rate, instead of amortizing them away by
  looping in place.

Reset periods of looping clusters are scaled by one factor solved so the
total clone footprint matches the profiled footprint (the knob paper
step 11 leaves free).
"""

from dataclasses import dataclass, field

#: Pointer-register strides are clamped into this range so one stream
#: region cannot dwarf the whole footprint.
MAX_ABS_STRIDE = 4096

#: Bounds on the reset period (iterations between stream re-walks).
MIN_RESET, MAX_RESET = 4, 65536

#: Two same-stride ops share a region only when their range *starts* are
#: within this many bytes — close enough that the offset between them is
#: a structural one (neighbourhood taps, struct fields, paired arrays),
#: not two different data structures that happen to be adjacent.
REGION_GAP = 128


@dataclass
class StreamSlot:
    """One shared region's stream inside a cluster."""

    key: object
    op_offsets: dict = field(default_factory=dict)  # pc -> relative offset
    op_instances: dict = field(default_factory=dict)  # pc -> count
    mean_stream_length: float = 8.0
    footprint: int = 64
    extent: int = 0  # relative-offset spread of the member ops
    base_offset: int = 0
    anchor: int = 0
    span: int = 0

    @property
    def max_instances(self):
        return max(self.op_instances.values(), default=0)


@dataclass
class StreamCluster:
    """One pointer register's worth of streams."""

    index: int
    stride: int
    sweep_once: bool
    mean_stream_length: float
    weight: int  # total dynamic references merged into this cluster
    advance: int = 0  # pointer increment per loop iteration
    reset_period: int = 0
    symbol: str = ""
    slots: dict = field(default_factory=dict)  # key -> StreamSlot
    region: int = 0

    @property
    def total_instances(self):
        return sum(sum(slot.op_instances.values())
                   for slot in self.slots.values())

    @property
    def initial_offset(self):
        return 0

    def region_bytes(self):
        return self.region


class StreamPlan:
    """Assigns clone memops to shared streams and sizes the data regions."""

    #: Coverage below which the single-stride model is deemed wrong and
    #: the op is modelled as a sweep over its observed footprint instead
    #: (table lookups, hash probes — crc32-style access patterns).
    SCATTER_COVERAGE = 0.6

    #: Synthetic stride for non-local scatter ops: a bit over a cache
    #: line, so a sweep touches every line of the region without dwelling.
    SCATTER_STRIDE = 36

    def __init__(self, profile, max_clusters=8, footprint_scale=1.0):
        self.profile = profile
        self.max_clusters = max_clusters
        self.footprint_scale = footprint_scale
        self.clusters = []
        self._cluster_of_pc = {}
        self._region_of_pc = {}
        self._build()

    # ------------------------------------------------------------------
    # Modelling decisions per op
    # ------------------------------------------------------------------
    def _model_for(self, stats):
        """(stride, stream length, sweep_once) synthesized for one memop."""
        stride = max(-MAX_ABS_STRIDE,
                     min(MAX_ABS_STRIDE, stats.dominant_stride))
        if (stats.coverage < self.SCATTER_COVERAGE
                and stats.footprint_bytes > 64 and stats.count >= 8):
            if stats.local_fraction >= 0.3:
                # Wandering but spatially local (image windows): a dense
                # sweep preserves line reuse a coarse sweep would destroy.
                return 4, max(8.0, stats.footprint_bytes / 4), False
            return (self.SCATTER_STRIDE,
                    max(8.0, stats.footprint_bytes / self.SCATTER_STRIDE),
                    False)
        # Stream-once: the op's addresses essentially never repeat (its
        # footprint is as large as the whole walk), so every line it
        # touches is a compulsory miss in the original.
        sweep_once = (stride != 0 and stats.count >= 16
                      and stats.footprint_bytes
                      >= 0.5 * abs(stride) * stats.count)
        return stride, stats.mean_stream_length, sweep_once

    # ------------------------------------------------------------------
    def _build(self):
        ops = list(self.profile.mem_ops.values())
        models = {stats.pc: self._model_for(stats) for stats in ops}

        # --- regions: same-(stride, mode) ops with overlapping ranges ---
        groups = {}
        for stats in ops:
            stride, _, once = models[stats.pc]
            groups.setdefault((stride, once), []).append(stats)
        regions = []  # (stride, once, [stats...])
        for (stride, once), members in groups.items():
            members.sort(key=self._range_start)
            current = [members[0]]
            group_start = self._range_start(members[0])
            for stats in members[1:]:
                if self._range_start(stats) - group_start <= REGION_GAP:
                    current.append(stats)
                else:
                    regions.append((stride, once, current))
                    current = [stats]
                    group_start = self._range_start(stats)
            regions.append((stride, once, current))

        # --- clusters: regions grouped by (stride, mode), by weight -----
        by_key = {}
        for stride, once, members in regions:
            entry = by_key.setdefault((stride, once), [0, 0.0, []])
            weight = sum(stats.count for stats in members)
            entry[0] += weight
            entry[1] += sum(models[stats.pc][1] * stats.count
                            for stats in members)
            entry[2].append((members, weight))
        if not by_key:
            by_key[(4, False)] = [1, 8.0, [([], 1)]]

        ranked = sorted(by_key.items(), key=lambda item: item[1][0],
                        reverse=True)
        kept = ranked[:self.max_clusters]
        for index, ((stride, once), (weight, wlen, _)) in enumerate(kept):
            self.clusters.append(StreamCluster(
                index=index, stride=stride, sweep_once=once,
                mean_stream_length=(wlen / weight if weight else 8.0),
                weight=weight, symbol=f"stream_{index}"))

        # Route each region to its cluster (leftover stride groups go to
        # the nearest kept stride).
        kept_keys = [(cluster.stride, cluster.sweep_once)
                     for cluster in self.clusters]
        region_id = 0
        for (stride, once), (_, _, region_list) in by_key.items():
            cluster_index = (
                kept_keys.index((stride, once))
                if (stride, once) in kept_keys
                else min(range(len(kept_keys)),
                         key=lambda i, s=stride: abs(kept_keys[i][0] - s)))
            cluster = self.clusters[cluster_index]
            for members, _ in region_list:
                slot = StreamSlot(key=region_id)
                base = (min(self._range_start(s) for s in members)
                        if members else 0)
                extent = 0
                total_len = 0.0
                footprint = 64
                for stats in members:
                    rel = self._range_start(stats) - base
                    slot.op_offsets[stats.pc] = rel
                    slot.op_instances[stats.pc] = 0
                    extent = max(extent, rel + 8)
                    total_len += models[stats.pc][1]
                    footprint = max(footprint, stats.footprint_bytes)
                    self._cluster_of_pc[stats.pc] = cluster_index
                    self._region_of_pc[stats.pc] = region_id
                slot.extent = extent
                slot.footprint = footprint
                slot.mean_stream_length = (total_len / len(members)
                                           if members else 8.0)
                cluster.slots[region_id] = slot
                region_id += 1

    @staticmethod
    def _range_start(stats):
        return min(stats.first_address, stats.last_address)

    # ------------------------------------------------------------------
    def allocate(self, pc, rng=None):
        """Claim the next instance of original memop ``pc``.

        Returns an opaque handle consumed by :meth:`locate` once the plan
        is finalized.  ``rng`` is unused here; baseline plans assign
        probabilistically.
        """
        cluster_index = self._cluster_of_pc.get(pc)
        if cluster_index is None:
            # An op the profile never saw (defensive default).
            cluster_index = 0
            cluster = self.clusters[0]
            slot = cluster.slots.setdefault(-1, StreamSlot(
                key=-1, op_offsets={pc: 0}, op_instances={pc: 0}))
            slot.op_offsets.setdefault(pc, 0)
            slot.op_instances.setdefault(pc, 0)
            region = -1
        else:
            region = self._region_of_pc[pc]
            slot = self.clusters[cluster_index].slots[region]
        instance = slot.op_instances[pc]
        slot.op_instances[pc] = instance + 1
        return (cluster_index, region, pc, instance)

    # ------------------------------------------------------------------
    def finalize(self, estimated_iterations=None):
        """Fix advances, reset periods, and region layout.

        Sweep-once clusters advance a whole instance-window per iteration
        and size their slots to the ops' original footprints (compulsory
        misses at the original rate); when ``estimated_iterations`` is
        given their regions are stretched (up to 8x the footprint) so the
        walk does not wrap — and stop generating compulsory misses —
        before the clone finishes.  Looping clusters advance one stride
        and share a reset-period scale ``alpha`` solved so the total
        footprint matches the profile.
        """
        target = max(64, int(self.profile.data_footprint_bytes
                             * self.footprint_scale))

        fixed_cost = 0.0
        scaled_cost = 0.0
        for cluster in self.clusters:
            stride = abs(cluster.stride)
            if cluster.sweep_once:
                continue
            for slot in cluster.slots.values():
                fixed_cost += stride * slot.max_instances + slot.extent + 16
                scaled_cost += stride * max(2.0, slot.mean_stream_length)
        once_cost = 0.0
        for cluster in self.clusters:
            if not cluster.sweep_once:
                continue
            for slot in cluster.slots.values():
                once_cost += slot.footprint + slot.extent + 16
        alpha = (max(0.02, min(
            512.0, (target - fixed_cost - once_cost) / scaled_cost))
            if scaled_cost > 0 else 1.0)

        for cluster in self.clusters:
            stride = cluster.stride
            if cluster.sweep_once:
                instances = [slot.max_instances
                             for slot in cluster.slots.values()
                             if slot.max_instances]
                window = max(1, round(sum(instances) / len(instances))) \
                    if instances else 1
                cluster.advance = stride * window
                footprints = [slot.footprint
                              for slot in cluster.slots.values()] or [64]
                mean_footprint = sum(footprints) / len(footprints)
                period = mean_footprint / max(1, abs(cluster.advance))
                if estimated_iterations:
                    period = min(max(period, estimated_iterations),
                                 8 * period)
                cluster.reset_period = int(min(MAX_RESET,
                                               max(MIN_RESET, round(period))))
            else:
                cluster.advance = stride
                base_period = max(2.0, cluster.mean_stream_length) * alpha
                cluster.reset_period = int(min(
                    MAX_RESET, max(MIN_RESET, round(base_period))))

            offset = 0
            for order, slot in enumerate(cluster.slots.values()):
                if cluster.sweep_once:
                    # Instances are spread across one advance window.
                    walk = abs(cluster.advance) * (cluster.reset_period + 1)
                else:
                    wrap = max(1, int(slot.footprint * self.footprint_scale)
                               // max(1, abs(stride)))
                    walk = (abs(cluster.advance) * cluster.reset_period
                            + abs(stride) * min(slot.max_instances, wrap))
                slot.anchor = walk + 8 if (stride < 0) else 0
                slot.span = ((walk + slot.extent + 16 + 7) & ~7)
                slot.base_offset = offset
                # Line-granule skew between consecutive regions so slot
                # bases do not systematically alias the same set in small
                # direct-mapped caches.
                offset += slot.span + 32 * (1 + order % 7)
            cluster.region = offset
        return alpha

    def locate(self, handle):
        """(cluster_index, static offset) for an allocated instance.

        Must be called after :meth:`finalize`.  Descending streams anchor
        at the top of their slot so the whole walk stays in-region.
        """
        cluster_index, region, pc, instance = handle
        cluster = self.clusters[cluster_index]
        slot = cluster.slots[region]
        if cluster.sweep_once:
            # Spread the op's instances evenly over one iteration's
            # advance so consecutive iterations tile the region seamlessly
            # (no per-iteration overlap that would re-touch lines).
            count = max(1, slot.op_instances.get(pc, 1))
            step = cluster.advance * instance // count
        else:
            # Keep the instance window inside the op's (scaled) original
            # footprint: more clone instances than the original has
            # distinct locations must revisit, not widen the region.
            wrap = max(1, int(slot.footprint * self.footprint_scale)
                       // max(1, abs(cluster.stride)))
            step = cluster.stride * (instance % wrap)
        return cluster_index, (slot.base_offset + slot.anchor
                               + slot.op_offsets.get(pc, 0) + step)

    def data_directives(self):
        """Assembly `.data` lines reserving every cluster region."""
        lines = []
        for cluster in self.clusters:
            if cluster.region:
                # Inter-cluster skew, same rationale as the per-slot skew.
                lines.append(f"    .space {32 * (1 + cluster.index % 5)}")
                lines.append("    .align 8")
                lines.append(f"{cluster.symbol}:    .space {cluster.region}")
        return lines

    def active_clusters(self):
        return [cluster for cluster in self.clusters if cluster.slots]

    def total_footprint(self):
        return sum(cluster.region for cluster in self.clusters)
