"""Static profile prediction and the clone contract (codes ``CF21x``).

Given a synthesized clone, *predict* the dynamic
:class:`repro.core.profile.WorkloadProfile` the functional simulator
and profiler would produce — without executing a single instruction —
and check the paper's synthesis contract (Section 3.2) against the
target profile (codes ``CF210``–``CF215``).  This is the one
clone-contract checker: aggregate comparisons use the same tolerance
semantics as the dynamic fidelity suite, and two exact per-block
contracts pin every generated ``bb<k>`` to the profiled block it was
drawn from.

The prediction leans entirely on facts the abstract interpreter
*proved* (:mod:`repro.lint.absint`), never on the synthesizer's own
stats:

* the single natural loop's **exact** trip count ``N`` gives block visit
  counts (``N`` for steady-state blocks, ``⌊N/period⌋`` for each
  verified countdown's reset block, 1 for the init/exit chains);
* the verified countdown invariants give every static memory op's full
  address sequence ``base + offset + advance·(j mod period)``, which is
  pushed through the profiler's own stride-mining arithmetic;
* branch direction sequences come from classified machinery — constant
  (``beq/bne r0, r0``), modulo of a proven affine induction register,
  or a bit-window of the verified xorshift register — evaluated for all
  ``N`` iterations in closed form or one vectorized sweep.  The
  classification itself (kind, mask, threshold) is recorded for the
  per-block branch contract.

When any structural obligation fails (several loops, indirect flow, an
unclassifiable branch, a memory op whose base is not a proven countdown
pointer, ...) the prediction declines with ``CF210`` instead of
guessing, mirroring the soundness contract of the safety proofs.

The checker deliberately *re-derives* what each block must look like
instead of importing the synthesizer's internals: a verifier that
shares code with the generator it checks can only confirm that the code
ran, not that it did the right thing.  The one shared piece is
:func:`repro.core.branch_model.pattern_for`, because the mapping from
profiled rates to a realizable pattern *is* the published contract.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.core.branch_model import pattern_for, xorshift32
from repro.core.profile import (
    DEP_BUCKETS,
    NUM_DEP_BUCKETS,
    BlockStats,
    BranchStats,
    ContextStats,
    MemOpStats,
    WorkloadProfile,
)
from repro.core.profiler import (
    STREAM_MIN_EXECUTIONS,
    _detect_store_aliases,
    _mean_run_length,
)
from repro.core.regassign import CloneRegisterFile
from repro.isa.columns import columns_for
from repro.isa.instructions import IClass
from repro.isa.registers import ZERO_REG
from repro.lint.absint import (
    _affine_deltas,
    _delta_at,
    _is_const,
    _loop_entry_state,
    _nested_blocks,
    analyze_program,
)
from repro.lint.diagnostics import LintReport, make_diagnostic

_SIGNED_MAX = 0x7FFFFFFF

#: The clone tail's xorshift32 step, as opcode/immediate tuples
#: (destination-relative): used to verify a register is the rng.
_XORSHIFT_SHAPE = (("slli", 13), ("xor", None), ("srli", 17),
                   ("xor", None), ("slli", 5), ("xor", None))

#: Mirror of the synthesizer's class→abstract-label mapping (jumps are
#: linearized into integer-ALU work so per-class counts still add up).
_SYNTH_LABELS = {
    IClass.IALU: "ialu", IClass.IMUL: "imul", IClass.IDIV: "idiv",
    IClass.FALU: "falu", IClass.FMUL: "fmul", IClass.FDIV: "fdiv",
    IClass.LOAD: "load", IClass.STORE: "store", IClass.JUMP: "ialu",
}
#: Class names in :class:`IClass` order, for per-block diagnostics.
_CLASS_NAMES = ("ialu", "imul", "idiv", "falu", "fmul", "fdiv", "load",
                "store", "branch", "jump", "other")
_CLASS_OF_LABEL = {label: iclass for iclass, label in enumerate(_CLASS_NAMES)}
#: Condition-setup ALU instructions each branch mechanism inserts.
_SETUP_COST = {"modulo": 2, "random": 3}


@dataclass(frozen=True)
class ConformanceTolerances:
    """Divergence bounds; defaults mirror the corpus fidelity tests."""

    memory_fraction: float = 0.08  # |clone − profile| memory fraction
    branch_fraction: float = 0.12  # |clone − profile| branch fraction
    compute_fraction: float = 0.05  # per IMUL/IDIV/FMUL/FDIV class
    dep_tvd: float = 0.40  # total-variation distance, dep buckets
    taken_rate: float = 0.15  # aggregate branch taken-rate
    footprint_ratio_low: float = 0.2  # clone/target footprint bounds
    footprint_ratio_high: float = 8.0


class StaticPredictionError(Exception):
    """Raised when the structure proofs cannot certify a prediction."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


@dataclass
class StaticPrediction:
    """A fully derived profile prediction plus the facts behind it."""

    profile: WorkloadProfile
    iterations: int
    loop_header: int
    countdowns: list
    reset_visits: dict  # reset block id -> visit count
    steady_blocks: list  # loop block ids executed every iteration
    tail_start: int  # first tail instruction (pointer advance / rng step)
    branch_sequences: dict = field(default_factory=dict)
    #: Block-machinery branch index -> proven ``(kind, mask, threshold)``;
    #: kind is ``taken``/``not_taken``, ``random`` (xorshift window),
    #: ``modulo`` (window of the 0, 1, 2, ... iteration counter) or
    #: ``affine`` (window of any other proven induction register).
    machinery: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Structure certification
# ----------------------------------------------------------------------
def _require(condition, reason):
    if not condition:
        raise StaticPredictionError(reason)


def _certify_structure(program, result):
    """Prove the clone's deterministic execution skeleton.

    Returns ``(loop, columns, init_chain, exit_chain)``; raises
    :class:`StaticPredictionError` on any unmet obligation.
    """
    columns = columns_for(program)
    _require(not result.degraded, result.degraded or "analysis degraded")
    _require(len(result.loops) == 1,
             f"expected exactly one natural loop, found {len(result.loops)}")
    loop = result.loops[0]
    _require(loop.trip_bound is not None and loop.exact,
             "loop trip count is not exactly known")
    _require(result.terminates, "termination is not proven")
    _require(len(loop.back_sources) == 1, "loop has several back edges")

    cfg = result.cfg
    reachable = cfg.reachable()
    header_start = columns.block_bounds[loop.header][0]
    countdown_branches = {info.branch_index
                          for info in loop.countdowns}
    reset_ranges = [range(info.reset_start, info.reset_end)
                    for info in loop.countdowns]

    # Every reset region must be exactly one basic block.
    for info in loop.countdowns:
        bid = int(columns.block_of[info.reset_start])
        _require(columns.block_bounds[bid]
                 == (info.reset_start, info.reset_end),
                 "countdown reset path is not a single basic block")

    # In-loop control flow must be forward-monotone: every branch either
    # returns to the header (the latch) or jumps strictly forward, so
    # instruction indices execute in increasing order within an
    # iteration and every non-reset block runs exactly once per trip.
    latch = None
    for bid in loop.body:
        start, end = columns.block_bounds[bid]
        last = end - 1
        if columns.is_jump[last]:
            raise StaticPredictionError(
                "loop body contains a jump instruction")
        if not columns.is_cond[last]:
            continue
        target = columns.target_list[last]
        if target == header_start:
            _require(latch is None, "several latch branches")
            latch = last
            continue
        if last in countdown_branches:
            continue  # verified separately by the countdown proof
        _require(target == last + 1,
                 f"in-loop branch at {last} does not target the next "
                 "instruction")
    _require(latch is not None, "no conditional latch branch")
    latch_bid = int(columns.block_of[latch])
    _require((latch_bid,) == tuple(loop.back_sources),
             "latch is not the unique back edge")

    # Outside the loop only straight-line chains may exist: the init
    # prefix (entry -> header) and the exit suffix (latch -> halt).
    init_chain = []
    bid = cfg.entry
    seen = set()
    while bid not in loop.body:
        _require(bid in reachable and bid not in seen,
                 "init chain does not reach the loop")
        seen.add(bid)
        init_chain.append(bid)
        succs = cfg.successors[bid]
        _require(len(succs) == 1, "init chain is not straight-line")
        last = columns.block_bounds[bid][1] - 1
        _require(not columns.is_cond[last] and not columns.is_jump[last],
                 "init chain contains control flow")
        bid = succs[0]
    _require(bid == loop.header, "init chain does not enter at the header")

    exit_chain = []
    exits = [succ for succ in cfg.successors[latch_bid]
             if succ not in loop.body]
    _require(len(exits) == 1, "latch has no unique exit successor")
    bid = exits[0]
    while True:
        _require(bid in reachable and bid not in loop.body
                 and bid not in seen and bid not in exit_chain,
                 "exit chain re-enters earlier code")
        exit_chain.append(bid)
        last = columns.block_bounds[bid][1] - 1
        _require(not columns.is_cond[last] and not columns.is_jump[last],
                 "exit chain contains control flow")
        succs = cfg.successors[bid]
        if not succs:
            break
        _require(len(succs) == 1, "exit chain is not straight-line")
        bid = succs[0]

    for bid in reachable:
        if bid not in loop.body and bid not in init_chain \
                and bid not in exit_chain:
            raise StaticPredictionError(
                f"reachable block {bid} is outside the certified "
                "init/loop/exit skeleton")

    # Memory ops may only live in the loop's steady-state path, with a
    # verified countdown pointer as base, read before the advance.
    pointers = {info.pointer: info for info in loop.countdowns}
    mem_indices = np.nonzero(columns.is_mem[:columns.n])[0]
    for index in (int(i) for i in mem_indices):
        bid = int(columns.block_of[index])
        if bid not in reachable:
            continue
        _require(bid in loop.body, "memory op outside the loop")
        _require(not any(index in r for r in reset_ranges),
                 "memory op inside a reset path")
        base = int(columns.src1[index])
        info = pointers.get(base)
        _require(info is not None,
                 f"memory op at {index} does not address through a "
                 "verified countdown pointer")
        _require(index < info.advance_index,
                 "memory op executes after its pointer's advance")
    return loop, columns, init_chain, exit_chain, latch


# ----------------------------------------------------------------------
# Branch direction sequences
# ----------------------------------------------------------------------
def _xorshift_register(columns, loop, result):
    """The verified per-iteration xorshift register, or None.

    Scans the loop for the canonical six-instruction step and checks the
    updated register is written nowhere else in the loop, so its value
    in iteration ``j`` is exactly ``xorshift32^j(seed)``.
    """
    opcodes = columns.opcode_list
    dests = columns.dest_list
    imms = columns.imm_list
    for bid in loop.body:
        start, end = columns.block_bounds[bid]
        for index in range(start, end - len(_XORSHIFT_SHAPE) + 1):
            ok = True
            for offset, (op, imm) in enumerate(_XORSHIFT_SHAPE):
                if opcodes[index + offset] != op or (
                        imm is not None and imms[index + offset] != imm):
                    ok = False
                    break
            if not ok:
                continue
            rng = dests[index + 1]
            if rng <= 0:
                continue
            writes = [i for body_bid in loop.body
                      for i in range(*columns.block_bounds[body_bid])
                      if dests[i] == rng]
            if sorted(writes) != [index + 1, index + 3, index + 5]:
                continue
            entry = _loop_entry_state(result.cfg, columns, loop,
                                      result.in_states)
            if entry is None or not _is_const(entry[rng]):
                continue
            return rng, entry[rng][0], index
    return None


def _rng_values(seed, iterations):
    values = np.empty(iterations, dtype=np.int64)
    state = seed
    for j in range(iterations):
        values[j] = state
        state = xorshift32(state)
    return values


def _cached_sequence(context, key, build):
    cache = context["seq_cache"]
    sequence = cache.get(key)
    if sequence is None:
        sequence = cache[key] = build()
    return sequence


def _branch_sequence(columns, loop, result, index, latch, countdowns,
                     iterations, context):
    """0/1 direction array over all iterations for one in-loop branch.

    Sequences are memoized per behaviour key — every machinery branch
    with the same (window, threshold) parameters shares one array, so
    the per-branch cost is a dictionary lookup, not a numpy sweep.
    Block machinery (anything but the latch and countdown branches) is
    also recorded as ``context["machinery"][index] = (kind, mask,
    threshold)``.
    """
    n = iterations
    if index == latch:
        def build():
            taken = np.ones(n, dtype=np.int8)
            taken[n - 1] = 0
            return taken
        return _cached_sequence(context, ("latch",), build)
    for info in countdowns:
        if info.branch_index == index:
            period = info.period
            return _cached_sequence(
                context, ("countdown", period),
                lambda: (np.arange(n, dtype=np.int64) % period
                         != period - 1).astype(np.int8))

    opcodes = columns.opcode_list
    dests = columns.dest_list
    src1s = columns.src1
    src2s = columns.src2
    imms = columns.imm_list
    op = opcodes[index]
    r1, r2 = int(src1s[index]), int(src2s[index])
    machinery = context["machinery"]
    if r1 == ZERO_REG and r2 == ZERO_REG:
        if op == "beq":
            machinery[index] = ("taken", 0, 0)
            return _cached_sequence(context, ("always",),
                                    lambda: np.ones(n, dtype=np.int8))
        if op == "bne":
            machinery[index] = ("not_taken", 0, 0)
            return _cached_sequence(context, ("never",),
                                    lambda: np.zeros(n, dtype=np.int8))
        raise StaticPredictionError(
            f"constant branch at {index} uses {op}, not beq/bne")
    _require(op == "bne" and r2 == ZERO_REG and index >= 2,
             f"unclassifiable branch machinery at {index}")
    cond = r1
    start = columns.block_bounds[int(columns.block_of[index])][0]
    compare = index - 1
    _require(compare >= start and opcodes[compare] == "slti"
             and dests[compare] == cond and int(src1s[compare]) == cond,
             f"branch at {index} lacks the slti condition setup")
    threshold = imms[compare]
    setup = index - 2
    _require(setup >= start and opcodes[setup] == "andi"
             and dests[setup] == cond,
             f"branch at {index} lacks the andi window setup")
    mask = imms[setup]
    _require(mask >= 0, f"negative andi mask at {setup}")
    source = int(src1s[setup])

    if source == cond:
        # Random machinery: srli cond, rng, shift feeds the window.
        window = index - 3
        _require(window >= start and opcodes[window] == "srli"
                 and dests[window] == cond,
                 f"branch at {index} lacks the srli rng window")
        shift = imms[window]
        rng_reg = int(src1s[window])
        _require(context["xorshift"] is not None
                 and context["xorshift"][0] == rng_reg
                 and window < context["xorshift"][2],
                 f"branch at {index} reads an unverified rng register")
        rng = context["rng_values"]
        machinery[index] = ("random", mask, threshold)
        return _cached_sequence(
            context, ("random", shift, mask, threshold),
            lambda: (((rng >> shift) & mask) < threshold).astype(np.int8))

    # Modulo machinery over a proven affine induction register.
    affine_cache = context["affine"]
    if source in affine_cache:
        affine = affine_cache[source]
    else:
        affine = affine_cache[source] = _affine_deltas(
            result.cfg, columns, loop, source, context["nested"])
    _require(affine is not None,
             f"branch at {index} windows a non-affine register")
    delta_in, cycle_delta = affine
    at_point = _delta_at(columns, delta_in,
                         int(columns.block_of[setup]), setup, source)
    _require(at_point is not None,
             f"cannot place the affine value at instruction {setup}")
    entry = context["entry"]
    _require(entry is not None and _is_const(entry[source]),
             f"branch at {index} windows a register without a constant "
             "entry value")
    first = entry[source][0] + at_point
    last = first + cycle_delta * (n - 1)
    _require(first >= 0 and 0 <= last <= _SIGNED_MAX and cycle_delta >= 0,
             "affine counter may wrap over the run")
    kind = "modulo" if (first, cycle_delta) == (0, 1) else "affine"
    machinery[index] = (kind, mask, threshold)

    def build():
        values = first + cycle_delta * np.arange(n, dtype=np.int64)
        return ((values & mask) < threshold).astype(np.int8)
    return _cached_sequence(
        context, ("modulo", first, cycle_delta, mask, threshold), build)


# ----------------------------------------------------------------------
# The prediction
# ----------------------------------------------------------------------
def predict_profile(program, result=None):
    """Predict the profiler's output for ``program`` without running it.

    Returns a :class:`StaticPrediction`; raises
    :class:`StaticPredictionError` when the structure cannot be
    certified (the caller maps that to ``CF210``).
    """
    if result is None:
        result = analyze_program(program)
    loop, columns, init_chain, exit_chain, latch = _certify_structure(
        program, result)
    n = loop.trip_bound
    cfg = result.cfg
    reachable = cfg.reachable()

    reset_blocks = {}
    for info in loop.countdowns:
        bid = int(columns.block_of[info.reset_start])
        reset_blocks[bid] = info
    reset_visits = {bid: n // info.period
                    for bid, info in reset_blocks.items()}

    # --- visits ---
    visits = {}
    for bid in init_chain:
        visits[bid] = 1
    for bid in sorted(loop.body):
        visits[bid] = reset_visits.get(bid, n) if bid in reset_blocks \
            else n
    for bid in exit_chain:
        visits[bid] = 1

    profile = WorkloadProfile(name=program.name, total_instructions=0,
                              total_memory_ops=0, total_branches=0)
    mix_rows = columns.mix_matrix()
    block_facts = columns.block_facts()
    visit_vector = np.zeros(len(columns.block_bounds), dtype=np.int64)
    for bid, count in visits.items():
        visit_vector[bid] = count
    profile.total_instructions = int(
        (columns.block_size * visit_vector).sum())
    profile.global_mix = (visit_vector @ mix_rows).tolist()
    for bid, count in visits.items():
        if count == 0:
            continue
        start, end = columns.block_bounds[bid]
        mix, mem_pcs, branch_pc = block_facts[bid]
        profile.blocks[bid] = BlockStats(
            bid=bid, size=end - start, visits=count, mix=list(mix),
            mem_pcs=list(mem_pcs), branch_pc=branch_pc)

    # --- transitions: deterministic chain with reset diversions ---
    chain = init_chain + sorted(loop.body, key=lambda b:
                                columns.block_bounds[b][0])
    transitions = {}

    def record(pred, succ, count):
        if count > 0:
            transitions[(pred, succ)] = (
                transitions.get((pred, succ), 0) + count)

    for pred, succ in zip(init_chain, init_chain[1:]):
        record(pred, succ, 1)
    loop_chain = [bid for bid in chain if bid in loop.body]
    if init_chain:
        record(init_chain[-1], loop_chain[0], 1)
    previous = None
    for bid in loop_chain:
        if bid in reset_blocks:
            continue  # handled as a diversion off its predecessor
        if previous is not None:
            record(previous, bid, n)
        previous = bid
    for bid, info in reset_blocks.items():
        branch_bid = int(columns.block_of[info.branch_index])
        skip_bid = int(columns.block_of[info.reset_end])
        count = reset_visits[bid]
        record(branch_bid, bid, count)
        record(bid, skip_bid, count)
        # The N direct branch->skip transitions recorded above include
        # the diverted iterations; carve them out.
        transitions[(branch_bid, skip_bid)] -= count
        if transitions[(branch_bid, skip_bid)] <= 0:
            del transitions[(branch_bid, skip_bid)]
    latch_bid = int(columns.block_of[latch])
    record(latch_bid, loop.header, n - 1)
    # The in-chain latch->header edge is the wraparound, already counted
    # above only if header followed latch in layout (it does not).
    if exit_chain:
        record(latch_bid, exit_chain[0], 1)
        for pred, succ in zip(exit_chain, exit_chain[1:]):
            record(pred, succ, 1)
    profile.transitions = dict(transitions)
    entry_block = init_chain[0] if init_chain else loop.header
    profile.contexts[(-1, entry_block)] = ContextStats(
        pred=-1, block=entry_block, visits=1,
        dep_hist=[0] * NUM_DEP_BUCKETS)
    for (pred, succ), count in transitions.items():
        profile.contexts[(pred, succ)] = ContextStats(
            pred=pred, block=succ, visits=count,
            dep_hist=[0] * NUM_DEP_BUCKETS)

    # --- branch behaviour ---
    entry = _loop_entry_state(cfg, columns, loop, result.in_states)
    xorshift = _xorshift_register(columns, loop, result)
    context = {
        "entry": entry,
        "nested": _nested_blocks(loop, result.loops),
        "xorshift": xorshift,
        "rng_values": (_rng_values(xorshift[1], n)
                       if xorshift is not None else None),
        "seq_cache": {},
        "affine": {},
        "machinery": {},
    }
    sequences = {}
    rate_cache = {}
    for bid in sorted(loop.body):
        if bid in reset_blocks:
            continue
        start, end = columns.block_bounds[bid]
        for index in range(start, end):
            if not columns.is_cond[index]:
                continue
            taken = _branch_sequence(columns, loop, result, index, latch,
                                     loop.countdowns, n, context)
            sequences[index] = taken
            rates = rate_cache.get(id(taken))
            if rates is None:
                count = len(taken)
                taken_rate = float(np.count_nonzero(taken) / count)
                transition_rate = (
                    float(np.count_nonzero(np.diff(taken)) / (count - 1))
                    if count > 1 else 0.0)
                rates = rate_cache[id(taken)] = (count, taken_rate,
                                                 transition_rate)
            profile.branches[index] = BranchStats(
                pc=index, count=rates[0], taken_rate=rates[1],
                transition_rate=rates[2])
    profile.total_branches = sum(
        stats.count for stats in profile.branches.values())

    # --- memory streams: exact per-op address sequences ---
    # Op ``m`` touches ``base + offset + advance * (j % period)`` on
    # iteration ``j``, so every delta statistic the profiler mines
    # (``np.diff`` is invariant under the constant ``base + offset``)
    # depends only on ``(advance, period)``; ops sharing a cluster
    # share one closed-form computation instead of each materializing
    # an n-element address array.
    pointers = {info.pointer: info for info in loop.countdowns}
    covered_refs = 0
    total_refs = 0
    streams = 0
    address_arrays = []
    stat_cache = {}
    mem_indices = [int(i) for i in np.nonzero(columns.is_mem)[0]
                   if int(columns.block_of[i]) in loop.body]
    for index in sorted(mem_indices):
        info = pointers[int(columns.src1[index])]
        offset = columns.imm_list[index] or 0
        base = info.base + offset
        total_refs += n
        is_store = bool(columns.is_store[index])
        if n == 1:
            address_arrays.append(np.array([base], dtype=np.int64))
            profile.mem_ops[index] = MemOpStats(
                pc=index, is_store=is_store, count=1, dominant_stride=0,
                coverage=1.0, mean_stream_length=1.0, distinct_strides=0,
                footprint_bytes=4, first_address=base, last_address=base)
            covered_refs += 1
            continue
        key = (info.advance, info.period)
        cached = stat_cache.get(key)
        if cached is None:
            advance, period = key
            # Sorted distinct offsets the op attains (j % period hits
            # 0..min(period, n)-1), and the exact delta sequence:
            # ``advance`` everywhere except ``-advance * (period - 1)``
            # at each wraparound (j % period == period - 1).
            distinct = np.unique(
                advance * np.arange(min(period, n), dtype=np.int64))
            deltas = np.full(n - 1, advance, dtype=np.int64)
            deltas[period - 1::period] = -advance * (period - 1)
            values, value_counts = np.unique(deltas, return_counts=True)
            best = int(np.argmax(value_counts))
            dominant = int(values[best])
            dominant_count = int(value_counts[best])
            coverage = float((dominant_count + 1) / n)
            mean_run = float(_mean_run_length(deltas == dominant))
            local = float(np.count_nonzero(np.abs(deltas) <= 32)
                          / len(deltas))
            span = int(distinct[-1] - distinct[0]) + 4
            last_delta = advance * ((n - 1) % period)
            cached = stat_cache[key] = (
                distinct, dominant, dominant_count, coverage, mean_run,
                int(len(values)), span, local, int(last_delta))
        (distinct, dominant, dominant_count, coverage, mean_run,
         n_strides, span, local, last_delta) = cached
        address_arrays.append(base + distinct)
        profile.mem_ops[index] = MemOpStats(
            pc=index, is_store=is_store, count=n,
            dominant_stride=dominant, coverage=coverage,
            mean_stream_length=mean_run, distinct_strides=n_strides,
            footprint_bytes=span, first_address=base,
            last_address=base + last_delta, local_fraction=local)
        covered_refs += dominant_count + 1
        if n >= STREAM_MIN_EXECUTIONS:
            streams += 1
    profile.total_memory_ops = total_refs
    profile.stride_coverage = (covered_refs / total_refs
                               if total_refs else 1.0)
    profile.unique_streams = streams
    _detect_store_aliases(profile)

    granularity = 4
    if address_arrays:
        granules = np.unique(np.concatenate(address_arrays) // granularity)
        profile.data_footprint_bytes = int(len(granules)) * granularity
    else:
        profile.data_footprint_bytes = 0

    # --- dependency distances: steady-state walk, scaled to the run ---
    profile.global_dep_hist = _steady_state_dep_hist(
        columns, loop, reset_blocks, n)

    # Sanity backstop: reachable blocks we never assigned visits would
    # make the prediction silently partial.
    for bid in reachable:
        if bid not in visits:
            raise StaticPredictionError(
                f"block {bid} escaped the visit computation")

    # The tail opens with the first proven pointer advance or the
    # xorshift step; the counter increment before the latch bounds it.
    tail_start = min([info.advance_index for info in loop.countdowns]
                     + ([xorshift[2]] if xorshift is not None else [])
                     + [latch - 1])
    return StaticPrediction(
        profile=profile, iterations=n, loop_header=loop.header,
        countdowns=list(loop.countdowns), reset_visits=reset_visits,
        steady_blocks=[bid for bid in loop_chain
                       if bid not in reset_blocks],
        tail_start=tail_start, branch_sequences=sequences,
        machinery=context["machinery"])


def _steady_state_dep_hist(columns, loop, reset_blocks, iterations):
    """Producer→consumer distance histogram over the common path.

    Walks the steady-state instruction sequence once with each
    register's last write seeded one iteration back (the conformance
    pass's wrap-around trick), then scales by the iteration count so
    the histogram carries run weight like the profiler's.
    """
    body = [index
            for bid in sorted(loop.body,
                              key=lambda b: columns.block_bounds[b][0])
            if bid not in reset_blocks
            for index in range(*columns.block_bounds[bid])]
    length = len(body)
    # Per register, the producer of a read at position p is the last
    # write before p, or the wrapped-around final write (seeded one
    # iteration back).  ``src1``/``src2`` hold every source register.
    seq = np.asarray(body, dtype=np.int64)
    positions = np.arange(length, dtype=np.int64)
    dest = columns.dest[seq]
    src1 = columns.src1[seq]
    src2 = columns.src2[seq]
    hist = np.zeros(NUM_DEP_BUCKETS, dtype=np.int64)
    buckets = np.asarray(DEP_BUCKETS, dtype=np.int64)
    written = np.unique(dest[dest > ZERO_REG])
    read = np.unique(np.concatenate((src1[src1 > ZERO_REG],
                                     src2[src2 > ZERO_REG])))
    for reg in np.intersect1d(written, read).tolist():
        writes = positions[dest == reg]
        reads = np.concatenate((positions[src1 == reg],
                                positions[src2 == reg]))
        nearest = np.searchsorted(writes, reads, side="left") - 1
        producer = np.where(nearest >= 0,
                            writes[np.maximum(nearest, 0)],
                            writes[-1] - length)
        distances = reads - producer
        hist += np.bincount(
            np.searchsorted(buckets, distances, side="left"),
            minlength=NUM_DEP_BUCKETS)
    return [int(count) * iterations for count in hist]


# ----------------------------------------------------------------------
# Per-block contracts: each generated block against its source block
# ----------------------------------------------------------------------
def _source_pattern(profile, bid):
    """The pattern the contract demands for profiled block ``bid``."""
    stats = profile.blocks[bid]
    if stats.branch_pc < 0:
        return None
    branch = profile.branches.get(stats.branch_pc)
    if branch is None:
        return pattern_for(1.0, 0.0)
    return pattern_for(branch.taken_rate, branch.transition_rate)


def _contract_machinery(pattern):
    """``pattern`` in the predictor's ``(kind, mask, threshold)`` form.

    The random pattern's bit-window ``shift`` is left out: the
    synthesizer rotates it through a cursor and it does not change the
    realized rates.
    """
    if pattern is None:
        return None
    if pattern.kind == "modulo":
        return ("modulo", pattern.period - 1, pattern.threshold)
    if pattern.kind == "random":
        return ("random", 7, pattern.threshold)
    return (pattern.kind, 0, 0)


def _expected_block_hist(profile, bid, pattern):
    """Static class histogram the synthesizer promises for one block."""
    stats = profile.blocks[bid]
    counts = {}
    for iclass, count in enumerate(stats.mix):
        label = _SYNTH_LABELS.get(iclass)
        if label is None or count == 0:
            continue
        counts[label] = counts.get(label, 0) + count
    counts.pop("load", None)
    counts.pop("store", None)
    loads = sum(1 for pc in stats.mem_pcs
                if not profile.mem_ops.get(pc)
                or not profile.mem_ops[pc].is_store)
    stores = len(stats.mem_pcs) - loads
    if loads:
        counts["load"] = loads
    if stores:
        counts["store"] = stores
    setup = _SETUP_COST.get(getattr(pattern, "kind", ""), 0)
    if setup and counts.get("ialu", 0) > 0:
        counts["ialu"] = max(0, counts["ialu"] - setup)
    hist = [0] * IClass.COUNT
    for label, count in counts.items():
        hist[_CLASS_OF_LABEL[label]] += count
    if pattern is not None:
        hist[IClass.BRANCH] += 1
        hist[IClass.IALU] += setup
    return hist


def _describe_machinery(machinery):
    if not machinery:
        return "no branch machinery"
    return ", ".join(kind if kind in ("taken", "not_taken")
                     else f"{kind}(mask={mask}, threshold={threshold})"
                     for kind, mask, threshold in machinery)


def _check_blocks(clone, prediction, report, severity_overrides):
    """Exact per-block contracts (``CF211`` mix, ``CF213`` machinery).

    Each generated ``bb<k>`` region (up to the next block, or the tail
    for the last one) must carry exactly the class histogram the
    contract derives from ``stats["sequence"][k]``'s profiled block,
    and exactly the branch machinery ``pattern_for`` demands for that
    block's profiled rates, as the predictor classified it.  Clones
    whose stats carry no matching walk are checked in aggregate only.
    """
    program = clone.program
    profile = clone.profile
    sequence = clone.stats.get("sequence")
    labels = program.labels
    starts = []
    while f"bb{len(starts)}" in labels:
        starts.append(labels[f"bb{len(starts)}"])
    if not sequence or len(sequence) != len(starts):
        return
    iclass = columns_for(program).iclass
    expected = {}  # the SFG walk revisits source blocks
    for k, (start, end, bid) in enumerate(zip(
            starts, starts[1:] + [prediction.tail_start], sequence)):
        if bid not in expected:
            pattern = _source_pattern(profile, bid)
            expected[bid] = (_expected_block_hist(profile, bid, pattern),
                             _contract_machinery(pattern))
        want_hist, want_branch = expected[bid]
        location = {"index": start, "data": {"block": k, "source_bid": bid}}
        got_hist = np.bincount(iclass[start:end],
                               minlength=IClass.COUNT).tolist()
        if got_hist != want_hist:
            diffs = ", ".join(
                f"{name}={got_hist[iclass_id]} (expected "
                f"{want_hist[iclass_id]})"
                for iclass_id, name in enumerate(_CLASS_NAMES)
                if got_hist[iclass_id] != want_hist[iclass_id])
            report.add(make_diagnostic(
                "CF211", f"block bb{k} (from profile block {bid}) mix "
                f"diverges: {diffs}",
                severity_overrides=severity_overrides, **location))
        got_branch = [prediction.machinery[index]
                      for index in range(start, end)
                      if index in prediction.machinery]
        want = [want_branch] if want_branch is not None else []
        if got_branch != want:
            report.add(make_diagnostic(
                "CF213", f"block bb{k} realizes "
                f"{_describe_machinery(got_branch)} but profile block "
                f"{bid} demands {_describe_machinery(want)}",
                severity_overrides=severity_overrides, **location))


# ----------------------------------------------------------------------
# CF210-CF215: the clone contract against the target profile
# ----------------------------------------------------------------------
def check_static_conformance(clone, tolerances=None,
                             severity_overrides=None, prediction=None):
    """Check a clone's synthesis contract with zero simulation.

    Mirrors the dynamic fidelity suite's comparisons, but feeds them the
    *predicted* profile: mix fractions (``CF211``), dependency-distance
    TVD (``CF212``), count-weighted taken rate (``CF213``), stream
    advances against the memory plan (``CF214``), and the data footprint
    ratio (``CF215``).  On top of the aggregates, every generated block
    must match its source block's mix (``CF211``) and branch machinery
    (``CF213``) exactly.  A failed structure certification reports
    ``CF210`` and skips the comparisons.
    """
    tolerances = tolerances or ConformanceTolerances()
    program = clone.program
    target = clone.profile
    report = LintReport(program.name)
    if prediction is None:
        try:
            prediction = predict_profile(program)
        except StaticPredictionError as error:
            report.add(make_diagnostic(
                "CF210",
                f"static profile prediction declined: {error.reason}",
                severity_overrides=severity_overrides,
                data={"reason": error.reason}))
            return report, None
    predicted = prediction.profile

    # CF211: instruction-mix fractions.
    got = predicted.mix_fractions()
    want = target.mix_fractions()
    if sum(got) and sum(want):
        checks = [
            ("memory", got[IClass.LOAD] + got[IClass.STORE],
             want[IClass.LOAD] + want[IClass.STORE],
             tolerances.memory_fraction),
            ("branch", got[IClass.BRANCH], want[IClass.BRANCH],
             tolerances.branch_fraction),
            ("imul", got[IClass.IMUL], want[IClass.IMUL],
             tolerances.compute_fraction),
            ("idiv", got[IClass.IDIV], want[IClass.IDIV],
             tolerances.compute_fraction),
            ("fmul", got[IClass.FMUL], want[IClass.FMUL],
             tolerances.compute_fraction),
            ("fdiv", got[IClass.FDIV], want[IClass.FDIV],
             tolerances.compute_fraction),
        ]
        for label, have, need, tolerance in checks:
            if abs(have - need) > tolerance:
                report.add(make_diagnostic(
                    "CF211",
                    f"predicted {label} fraction {have:.3f} diverges "
                    f"from profiled {need:.3f} (tolerance "
                    f"{tolerance:.3f})",
                    severity_overrides=severity_overrides,
                    data={"class": label, "predicted": round(have, 4),
                          "profile": round(need, 4)}))

    # CF212: dependency-distance TVD.
    predicted_deps = predicted.dep_fractions()
    target_deps = target.dep_fractions()
    if sum(predicted_deps) and sum(target_deps):
        tvd = 0.5 * sum(abs(a - b) for a, b
                        in zip(predicted_deps, target_deps))
        if tvd > tolerances.dep_tvd:
            report.add(make_diagnostic(
                "CF212",
                f"predicted dependency histogram diverges "
                f"(total-variation distance {tvd:.3f} > "
                f"{tolerances.dep_tvd:.3f})",
                severity_overrides=severity_overrides,
                data={"tvd": round(tvd, 4)}))

    # CF213: count-weighted aggregate taken rate.
    predicted_total = sum(s.count for s in predicted.branches.values())
    target_total = sum(s.count for s in target.branches.values())
    if predicted_total and target_total:
        predicted_rate = sum(s.taken_rate * s.count
                             for s in predicted.branches.values()) \
            / predicted_total
        target_rate = sum(s.taken_rate * s.count
                          for s in target.branches.values()) \
            / target_total
        if abs(predicted_rate - target_rate) > tolerances.taken_rate:
            report.add(make_diagnostic(
                "CF213",
                f"predicted aggregate taken rate {predicted_rate:.3f} "
                f"diverges from profiled {target_rate:.3f} (tolerance "
                f"{tolerances.taken_rate:.3f})",
                severity_overrides=severity_overrides,
                data={"predicted": round(predicted_rate, 4),
                      "profile": round(target_rate, 4)}))

    _check_blocks(clone, prediction, report, severity_overrides)

    # CF214: proven pointer advances against the memory plan.
    planned = {cluster["index"]: cluster["advance"]
               for cluster in clone.stats.get("clusters", [])
               if "index" in cluster and "advance" in cluster}
    if planned:
        first = CloneRegisterFile.FIRST_POINTER
        proven = {info.pointer - first: info.advance
                  for info in prediction.countdowns}
        for cluster_index in sorted(set(planned) | set(proven)):
            want_adv = planned.get(cluster_index)
            got_adv = proven.get(cluster_index)
            if got_adv != want_adv:
                report.add(make_diagnostic(
                    "CF214",
                    f"pointer cluster {cluster_index}: proven advance "
                    f"{got_adv} vs plan {want_adv}",
                    severity_overrides=severity_overrides,
                    data={"cluster": cluster_index, "proven": got_adv,
                          "plan": want_adv}))

    # CF215: the proven footprint interval span against the scaled
    # target, using the SR113 proof object: the extent the clone can
    # touch, not the data image it allocates.  (The granule-exact
    # touched footprint lives in ``predicted.data_footprint_bytes`` for
    # the cross-check suite; the gate compares reachable extent, an
    # order-of-magnitude contract.)
    scale = getattr(clone.parameters, "footprint_scale", 1.0) or 1.0
    target_bytes = target.data_footprint_bytes * scale
    result = analyze_program(program)
    if target_bytes > 0:
        if result.footprint is None:
            report.add(make_diagnostic(
                "CF215",
                "clone data footprint cannot be statically bounded",
                severity_overrides=severity_overrides,
                data={"unbounded_memops": len(result.unbounded_memops)}))
        else:
            lo, hi = result.footprint
            span = hi - lo
            ratio = span / target_bytes
            if not (tolerances.footprint_ratio_low <= ratio
                    <= tolerances.footprint_ratio_high):
                report.add(make_diagnostic(
                    "CF215",
                    f"proven footprint span {span} bytes is {ratio:.2f}x "
                    f"the scaled profiled footprint {target_bytes:.0f} "
                    f"bytes (accepted {tolerances.footprint_ratio_low}x.."
                    f"{tolerances.footprint_ratio_high}x)",
                    severity_overrides=severity_overrides,
                    data={"span": span, "target": round(target_bytes),
                          "ratio": round(ratio, 3)}))
    return report, prediction
