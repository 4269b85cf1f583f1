"""Trace-driven superscalar timing model (the ``sim-outorder`` analog).

A dataflow-style cycle model: every dynamic instruction gets fetch,
dispatch, issue, complete, and commit times subject to

* fetch bandwidth (``width``/cycle), I-cache latency, taken-branch fetch
  breaks, and branch-misprediction redirects;
* a decoupling fetch queue and dispatch bandwidth (``width``/cycle);
* reorder-buffer and load/store-queue occupancy;
* register dataflow (producer completion times) and functional-unit
  structural hazards;
* in-order commit at ``width``/cycle; optional in-order *issue*
  (design change 5).

Absolute cycle counts are not meant to match the authors' SimpleScalar
runs; relative behaviour across configurations — which is what the paper
evaluates — is.
"""

import time
from dataclasses import dataclass, field

from repro.isa.instructions import IClass
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.uarch.branch_predictors import make_predictor
from repro.uarch.cache import CacheHierarchy
from repro.uarch.config import BASE_CONFIG

_LOG = get_logger("repro.pipeline")

#: Cycles between fetch and dispatch (decode depth).
DECODE_DEPTH = 2


@dataclass
class PipelineResult:
    """Timing outcome plus the activity counts the power model consumes."""

    config: object
    instructions: int
    cycles: int
    class_counts: list = field(default_factory=list)
    icache_accesses: int = 0
    icache_misses: int = 0
    dcache_accesses: int = 0
    dcache_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    branch_lookups: int = 0
    branch_mispredictions: int = 0
    # Occupancy stalls: how often dispatch waited on a full ROB/LSQ,
    # fetch waited on the decoupling queue, and how many cycles fetch
    # sat redirected after mispredictions.
    rob_stalls: int = 0
    lsq_stalls: int = 0
    fetch_queue_stalls: int = 0
    redirect_cycles: int = 0
    #: Host wall-clock seconds spent inside the timing loop.
    wall_seconds: float = 0.0

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def simulated_mips(self):
        """Host throughput: simulated instructions per wall microsecond."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds / 1e6

    @property
    def branch_misprediction_rate(self):
        if self.branch_lookups == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_lookups

    @property
    def dcache_miss_rate(self):
        if self.dcache_accesses == 0:
            return 0.0
        return self.dcache_misses / self.dcache_accesses


class _BandwidthPort:
    """Allocates at most ``width`` events per cycle to monotonic requests."""

    __slots__ = ("width", "cycle", "used")

    def __init__(self, width):
        self.width = width
        self.cycle = -1
        self.used = 0

    def allocate(self, earliest):
        if earliest > self.cycle:
            self.cycle = earliest
            self.used = 1
        elif self.used < self.width:
            self.used += 1
        else:
            self.cycle += 1
            self.used = 1
        return self.cycle


class PipelineModel:
    """One configured machine; ``run(trace)`` produces a PipelineResult."""

    def __init__(self, config=BASE_CONFIG):
        self.config = config

    # ------------------------------------------------------------------
    def run(self, trace, max_instructions=None):
        """Cycle-time the trace, one instruction at a time.

        This loop is the executable specification of the timing model:
        :func:`repro.uarch.sweep.simulate_pipeline_sweep` (and through
        it :func:`simulate_pipeline`) must reproduce its results field
        for field, and the differential tests use it as their oracle.
        """
        config = self.config
        program = trace.program
        hierarchy = CacheHierarchy(
            config.l1i, config.l1d, config.l2,
            l1_latency=config.l1_latency, l2_latency=config.l2_latency,
            memory_latency=config.memory_latency)
        predictor = make_predictor(config.predictor,
                                   **config.predictor_kwargs)

        # Static per-pc decode tables.
        latency_of_class = (
            config.latency_ialu, config.latency_imul, config.latency_idiv,
            config.latency_falu, config.latency_fmul, config.latency_fdiv,
            0, 1, config.latency_ialu, config.latency_ialu,
            config.latency_ialu)
        line_shift = config.l1i.line_shift
        static = []
        for index, instr in enumerate(program.instructions):
            static.append((
                instr.iclass,
                instr.rd if instr.rd is not None else -1,
                instr.srcs,
                latency_of_class[instr.iclass],
                program.pc_address(index) >> line_shift,
            ))

        pcs = trace.pcs.tolist()
        addrs = trace.addrs.tolist()
        takens = trace.taken.tolist()
        total = len(pcs)
        if max_instructions is not None and total > max_instructions:
            total = max_instructions

        # Functional units: next-free cycle per unit instance.
        fu_pools = {
            "ialu": [0] * config.n_int_alu,
            "imul": [0] * config.n_int_mul,
            "falu": [0] * config.n_fp_alu,
            "fmul": [0] * config.n_fp_mul,
            "mem": [0] * config.n_mem_ports,
        }
        pool_of_class = {
            IClass.IALU: "ialu", IClass.IMUL: "imul", IClass.IDIV: "imul",
            IClass.FALU: "falu", IClass.FMUL: "fmul", IClass.FDIV: "fmul",
            IClass.LOAD: "mem", IClass.STORE: "mem",
            IClass.BRANCH: "ialu", IClass.JUMP: "ialu", IClass.OTHER: "ialu",
        }
        # Divides occupy their unit for the full latency (unpipelined).
        unpipelined = {IClass.IDIV, IClass.FDIV}

        dispatch_port = _BandwidthPort(config.width)
        commit_port = _BandwidthPort(config.width)

        reg_ready = [0] * 64
        rob_ring = [0] * config.rob_size  # commit time of entry i % rob
        lsq_ring = [0] * config.lsq_size
        fetchq_ring = [0] * config.fetch_queue  # dispatch times

        fetch_cycle = 0
        fetch_used = 0
        fetch_break = False  # taken control transfer ends the fetch group
        fetch_stall_until = 0
        last_line = -1
        last_issue = 0
        last_commit = 0
        mem_index = 0
        rob_stalls = 0
        lsq_stalls = 0
        fetch_queue_stalls = 0
        redirect_cycles = 0
        wall_start = time.perf_counter()
        class_counts = [0] * IClass.COUNT
        width = config.width
        in_order = config.in_order
        predictor_update = predictor.update
        predictor_predict = predictor.predict

        for i in range(total):
            pc = pcs[i]
            iclass, dest, srcs, latency, line = static[pc]
            class_counts[iclass] += 1

            # ----- fetch ------------------------------------------------
            if fetch_stall_until > fetch_cycle:
                redirect_cycles += fetch_stall_until - fetch_cycle
                fetch_cycle = fetch_stall_until
                fetch_used = 0
                fetch_break = False
            if line != last_line:
                icache_latency = hierarchy.access_instruction(
                    line << line_shift)
                last_line = line
                if icache_latency > config.l1_latency:
                    fetch_cycle += icache_latency - config.l1_latency
                    fetch_used = 0
                    fetch_break = False
            if fetch_break or fetch_used >= width:
                fetch_cycle += 1
                fetch_used = 0
                fetch_break = False
            fetch_time = fetch_cycle
            fetch_used += 1

            # Fetch-queue backpressure: cannot fetch further ahead than
            # the queue decouples.
            queue_slot = i % config.fetch_queue
            if fetch_time < fetchq_ring[queue_slot]:
                fetch_time = fetchq_ring[queue_slot]
                fetch_cycle = fetch_time
                fetch_used = 1
                fetch_queue_stalls += 1

            # ----- dispatch (ROB / LSQ allocation) ----------------------
            dispatch_earliest = fetch_time + DECODE_DEPTH
            rob_slot = i % config.rob_size
            if rob_ring[rob_slot] > dispatch_earliest:
                dispatch_earliest = rob_ring[rob_slot]
                rob_stalls += 1
            is_mem = iclass in (IClass.LOAD, IClass.STORE)
            if is_mem:
                lsq_slot = mem_index % config.lsq_size
                if lsq_ring[lsq_slot] > dispatch_earliest:
                    dispatch_earliest = lsq_ring[lsq_slot]
                    lsq_stalls += 1
            dispatch_time = dispatch_port.allocate(dispatch_earliest)
            fetchq_ring[queue_slot] = dispatch_time

            # ----- issue -------------------------------------------------
            ready = dispatch_time + 1
            for src in srcs:
                src_ready = reg_ready[src]
                if src_ready > ready:
                    ready = src_ready
            if in_order and ready < last_issue:
                ready = last_issue
            pool = fu_pools[pool_of_class[iclass]]
            unit = 0
            unit_free = pool[0]
            for index_unit in range(1, len(pool)):
                if pool[index_unit] < unit_free:
                    unit_free = pool[index_unit]
                    unit = index_unit
            issue_time = ready if ready > unit_free else unit_free
            if in_order:
                last_issue = issue_time

            # ----- execute ----------------------------------------------
            if iclass == IClass.LOAD:
                latency = hierarchy.access_data(addrs[i])
            elif iclass == IClass.STORE:
                hierarchy.access_data(addrs[i])
                latency = 1
            complete = issue_time + latency
            pool[unit] = complete if iclass in unpipelined else issue_time + 1
            if dest >= 0:
                reg_ready[dest] = complete

            # ----- control flow ------------------------------------------
            taken = takens[i]
            if taken >= 0:
                was_taken = taken == 1
                mispredicted = predictor_predict(pc) != was_taken
                predictor_update(pc, was_taken)
                if mispredicted:
                    redirect = complete + config.mispredict_penalty
                    if redirect > fetch_stall_until:
                        fetch_stall_until = redirect
                elif was_taken:
                    fetch_break = True
            elif iclass == IClass.JUMP:
                fetch_break = True

            # ----- commit -------------------------------------------------
            commit_earliest = complete + 1
            if commit_earliest < last_commit:
                commit_earliest = last_commit
            commit_time = commit_port.allocate(commit_earliest)
            last_commit = commit_time
            rob_ring[rob_slot] = commit_time
            if is_mem:
                lsq_ring[mem_index % config.lsq_size] = commit_time
                mem_index += 1

        cycles = last_commit if total else 0
        wall = time.perf_counter() - wall_start
        result = PipelineResult(
            config=config,
            instructions=total,
            cycles=max(1, cycles),
            class_counts=class_counts,
            icache_accesses=hierarchy.l1i.stats.accesses,
            icache_misses=hierarchy.l1i.stats.misses,
            dcache_accesses=hierarchy.l1d.stats.accesses,
            dcache_misses=hierarchy.l1d.stats.misses,
            l2_accesses=hierarchy.l2.stats.accesses if hierarchy.l2 else 0,
            l2_misses=hierarchy.l2.stats.misses if hierarchy.l2 else 0,
            branch_lookups=predictor.stats.lookups,
            branch_mispredictions=predictor.stats.mispredictions,
            rob_stalls=rob_stalls,
            lsq_stalls=lsq_stalls,
            fetch_queue_stalls=fetch_queue_stalls,
            redirect_cycles=redirect_cycles,
            wall_seconds=wall,
        )
        REGISTRY.counter("pipeline.instructions").inc(total)
        REGISTRY.counter("pipeline.runs").inc()
        REGISTRY.gauge("pipeline.sim_mips").set(result.simulated_mips)
        _LOG.debug("pipeline.run", config=config.name,
                   instructions=total, cycles=result.cycles,
                   ipc=result.ipc, sim_mips=result.simulated_mips,
                   rob_stalls=rob_stalls, lsq_stalls=lsq_stalls)
        return result


def simulate_pipeline(trace, config=BASE_CONFIG, max_instructions=None):
    """Run one trace through one configuration.

    A one-config sweep: the result equals
    ``PipelineModel(config).run(trace, max_instructions)`` field for
    field, but it is timed by the sweep's scheduling loop (native when
    a C compiler is available) and shares the sweep's cached digests
    and outcome banks.
    """
    # Imported here: repro.uarch.sweep imports this module.
    from repro.uarch.sweep import simulate_pipeline_sweep
    return simulate_pipeline_sweep(trace, [config], max_instructions)[0]
