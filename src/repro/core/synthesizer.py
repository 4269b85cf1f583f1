"""Synthetic benchmark clone generation (paper Section 3.2, steps 1-12).

The synthesizer consumes only a :class:`WorkloadProfile` — never the
original program — and emits an assembly-text clone which is then run
through the regular assembler.  Structure of the generated program::

    .data   one region per stream cluster
    .text
    init:   counters, cluster pointers/countdowns, fp anchors
    loop:   <target_block_instances generated basic blocks>
    tail:   advance/reset cluster pointers, counter++, back-edge
    halt

Every generated block reproduces its SFG node's instruction mix, sampled
dependency distances (context-sensitive), per-memop stride streams, and
the terminating branch's transition/taken rates.
"""

import random
import re
from dataclasses import dataclass, field

from repro.core.branch_model import RNG_SEED, emit_branch, pattern_for
from repro.core.memory_model import StreamPlan
from repro.core.profile import NUM_DEP_BUCKETS, bucket_representative
from repro.core.regassign import CloneRegisterFile
from repro.core.sfg import StatisticalFlowGraph
from repro.isa.assembler import assemble, _li_sequence
from repro.isa.instructions import IClass
from repro.isa.registers import reg_name
from repro.obs.journal import emit_event
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

_LOG = get_logger("repro.synthesizer")


@dataclass
class SynthesisParameters:
    """Knobs for clone generation.

    ``dynamic_instructions`` controls the clone's run length (paper step
    11: "controlling the number of iterations of the loop effectively
    controls the number of dynamic instructions").  ``footprint_scale``
    is the what-if knob for growing/shrinking the cloned data footprint.

    ``lint_gate`` controls the post-synthesis static-verification gate:
    ``"error"`` (default) raises :class:`repro.lint.LintGateError` on
    error-severity findings, ``"warn"`` only records the verdict in
    ``CloneResult.stats["lint"]``, and ``"off"`` skips the gate.
    ``severity_overrides`` (``{code: severity}``) is threaded through
    every lint pass the gate runs — structural, safety, clone contract,
    and disclosure alike (see
    :mod:`repro.lint.diagnostics` for the precedence rules).
    """

    dynamic_instructions: int = 100_000
    target_block_instances: int = 0  # 0 => derived from the profile
    seed: int = 42
    max_pointer_clusters: int = 8
    footprint_scale: float = 1.0
    min_block_instances: int = 48
    max_block_instances: int = 640
    min_memory_instances: int = 120
    lint_gate: str = "error"  # "error" | "warn" | "off"
    severity_overrides: dict = None  # {diagnostic code: severity}


@dataclass
class CloneResult:
    """A synthesized clone plus its provenance and generation stats."""

    program: object
    asm_source: str
    profile: object
    parameters: SynthesisParameters
    stats: dict = field(default_factory=dict)


# Opcode rotations per instruction class: (mnemonic, source-count, suffix).
_INT_OPS = (("add", 2, ""), ("addi", 1, ", 3"), ("xor", 2, ""),
            ("sub", 2, ""), ("andi", 1, ", 255"), ("or", 2, ""))
_FALU_OPS = (("fadd", 2, ""), ("fsub", 2, ""))

_CLASS_LABELS = {
    IClass.IALU: "ialu", IClass.IMUL: "imul", IClass.IDIV: "idiv",
    IClass.FALU: "falu", IClass.FMUL: "fmul", IClass.FDIV: "fdiv",
    IClass.LOAD: "load", IClass.STORE: "store",
    # Jumps are linearized away; their issue slots become plain int ALU
    # work so the per-class instruction counts still add up.
    IClass.JUMP: "ialu",
}


def _interleave(counts):
    """Spread class labels evenly across a block (largest-remainder)."""
    total = sum(counts.values())
    credits = {label: 0.0 for label in counts}
    remaining = dict(counts)
    sequence = []
    for _ in range(total):
        for label in credits:
            credits[label] += remaining[label] and counts[label] / total
        label = max(credits, key=lambda key: (credits[key], counts[key]))
        sequence.append(label)
        credits[label] -= 1.0
        remaining[label] -= 1
        if remaining[label] == 0:
            credits[label] = float("-inf")
    return sequence


#: Integer operand tokens in emitted assembly text: standalone signed
#: decimals, not digits embedded in register names/labels/floats.
_INT_OPERAND = re.compile(r"(?<![\w.])-?\d+(?![\w.])")


def _emitted_ints(lines):
    """Every integer literal appearing in generated assembly lines.

    Used to record provenance for constants emitted by helper code
    (branch-pattern realizations) without threading an annotation
    through every emitter.
    """
    values = []
    for line in lines:
        text = line.split("#", 1)[0].strip()
        if not text or text.endswith(":") or text.startswith("."):
            continue
        _, _, operands = text.partition(" ")
        values.extend(int(token) for token in _INT_OPERAND.findall(operands))
    return values


def _sample_bucket(hist, rng):
    total = sum(hist)
    if total == 0:
        return 1  # a short, common dependence
    point = rng.random() * total
    cumulative = 0.0
    for bucket, count in enumerate(hist):
        cumulative += count
        if point < cumulative:
            return bucket
    return NUM_DEP_BUCKETS - 1


class CloneSynthesizer:
    """Generates a synthetic benchmark clone from a workload profile."""

    #: Reuse a paired load's stream for read-modify-write stores.  The
    #: microarchitecture-dependent baseline turns this off (prior-art
    #: generators modelled every memop independently).
    use_alias_pairing = True

    #: Check the synthesis contract (``CF21x``, plus the ``SR11x``
    #: safety proofs) in the post-synthesis gate.  Baseline synthesizers
    #: that *intentionally* violate the contract turn this off; the
    #: structural layer still runs.
    lint_conformance = True

    def __init__(self, profile, parameters=None):
        self.profile = profile
        self.parameters = parameters or SynthesisParameters()
        if self.parameters.max_pointer_clusters > CloneRegisterFile.MAX_CLUSTERS:
            raise ValueError("at most 8 pointer clusters are supported")
        if self.parameters.lint_gate not in ("error", "warn", "off"):
            raise ValueError(
                f"lint_gate must be 'error', 'warn', or 'off', "
                f"not {self.parameters.lint_gate!r}")

    # ------------------------------------------------------------------
    def synthesize(self):
        with span("core.synthesizer"):
            result = self._synthesize()
            self._lint_gate(result)
        REGISTRY.counter("synthesize.runs").inc()
        REGISTRY.counter("synthesize.block_instances").inc(
            result.stats["block_instances"])
        _LOG.debug("synthesize.done", profile=self.profile.name,
                   block_instances=result.stats["block_instances"],
                   iterations=result.stats["iterations"],
                   footprint_bytes=result.stats["footprint_bytes"])
        return result

    def _synthesize(self):
        profile = self.profile
        params = self.parameters
        rng = random.Random(params.seed)
        regs = CloneRegisterFile()
        self._random_cursor = 0
        self._provenance = {}

        target = params.target_block_instances
        if target <= 0:
            active = max(1, len(profile.blocks))
            target = max(params.min_block_instances, 3 * active)
            # Ensure the clone's loop body carries enough static memory
            # instructions that its instantaneous working set resembles
            # the original's (small-block kernels like SHA need more
            # block instances than 3x their block count provides).
            visits = sum(stats.visits for stats in profile.blocks.values())
            if visits and profile.total_memory_ops:
                mem_per_visit = profile.total_memory_ops / visits
                target = max(target,
                             round(params.min_memory_instances
                                   / max(mem_per_visit, 1e-6)))
            target = min(params.max_block_instances, target)

        with span("core.synthesizer.sfg_walk"):
            sfg = StatisticalFlowGraph(profile, target_instances=target)
            sequence = sfg.walk(target, rng)
            plan = self._make_stream_plan()

        with span("core.synthesizer.plan_blocks"):
            abstract_blocks = self._plan_blocks(sequence, plan, rng)
            body_estimate = (sum(profile.blocks[bid].size
                                 for bid in sequence) + 32)
            alpha = plan.finalize(
                estimated_iterations=max(
                    2, params.dynamic_instructions // max(1, body_estimate)))

        with span("core.synthesizer.codegen"):
            body_lines, body_instructions = self._emit_body(
                abstract_blocks, plan, regs)
            tail_lines, tail_common = self._emit_tail(plan, regs)

            per_iteration = body_instructions + tail_common
            iterations = max(
                2, params.dynamic_instructions // max(1, per_iteration))
            init_lines = self._emit_init(plan, regs, iterations)

            source_lines = ["    .data"]
            source_lines.extend(plan.data_directives())
            source_lines.append("    .text")
            source_lines.extend(init_lines)
            source_lines.append("loop_top:")
            source_lines.extend(body_lines)
            source_lines.extend(tail_lines)
            source_lines.append("    halt")
            asm_source = "\n".join(source_lines) + "\n"

        with span("core.synthesizer.assemble"):
            program = assemble(asm_source, name=f"{profile.name}.clone")
        stats = {
            "block_instances": len(sequence),
            "sequence": list(sequence),
            "per_iteration_instructions": per_iteration,
            "iterations": iterations,
            "clusters": [
                {"index": cluster.index,
                 "stride": cluster.stride,
                 "advance": cluster.advance,
                 "streams": len(cluster.slots),
                 "instances": cluster.total_instances,
                 "reset_period": cluster.reset_period,
                 "region_bytes": cluster.region_bytes()}
                for cluster in plan.active_clusters()],
            "footprint_bytes": plan.total_footprint(),
            "footprint_target": profile.data_footprint_bytes,
            "reset_scale_alpha": alpha,
            # Literal provenance ({origin: sorted values}): every
            # constant the emitters wrote, annotated at generation time
            # so the disclosure audit (repro.lint.disclosure) can prove
            # none derives from a raw address/value of the original.
            "provenance": {origin: sorted(values) for origin, values
                           in sorted(self._provenance.items())},
        }
        return CloneResult(program=program, asm_source=asm_source,
                           profile=profile, parameters=params, stats=stats)

    # ------------------------------------------------------------------
    def _note(self, value, origin):
        """Record one emitted literal's provenance (disclosure audit)."""
        self._provenance.setdefault(origin, set()).add(value)

    def _note_lines(self, lines, origin):
        for value in _emitted_ints(lines):
            self._note(value, origin)

    # ------------------------------------------------------------------
    def _lint_gate(self, result):
        """Statically verify the freshly synthesized clone (the gate).

        Runs every static layer — structural (``SR1xx``), safety proofs
        (``SR11x``), the synthesis contract checked on the static profile
        prediction (``CF21x``), and the disclosure audit (``DL3xx``) —
        and attaches the machine-readable safety certificate to
        ``stats["certificate"]``.  No simulation runs.

        Imported lazily: ``repro.lint`` depends on :mod:`repro.core`
        modules, so a module-level import here would be circular.
        """
        mode = self.parameters.lint_gate
        if mode == "off":
            return
        from repro.lint import LintGateError, lint_clone, safety_certificate
        overrides = self.parameters.severity_overrides
        with span("lint.gate"):
            report = lint_clone(result, severity_overrides=overrides,
                                contract=self.lint_conformance)
            # The absint fixpoint is already cached on the program's
            # columns, so certifying here costs nothing extra.
            result.stats["certificate"] = safety_certificate(result.program)
        result.stats["lint"] = report.summary()
        emit_event("lint", gate=mode, **report.summary())
        REGISTRY.counter("lint.gate_runs").inc()
        if not report.ok:
            REGISTRY.counter("lint.gate_failures").inc()
            _LOG.debug("lint_gate.failed", profile=self.profile.name,
                       codes=report.codes())
            if mode == "error":
                raise LintGateError(report)

    # ------------------------------------------------------------------
    def _make_stream_plan(self):
        """Build the memory model; overridable by baseline synthesizers."""
        return StreamPlan(self.profile,
                          max_clusters=self.parameters.max_pointer_clusters,
                          footprint_scale=self.parameters.footprint_scale)

    def _branch_pattern(self, branch_stats, rng):
        """Pattern for one block-terminating branch; overridable."""
        if branch_stats is None:
            return pattern_for(1.0, 0.0)
        pattern = pattern_for(branch_stats.taken_rate,
                              branch_stats.transition_rate,
                              random_shift=self._random_cursor)
        if pattern.kind == "random":
            self._random_cursor += 1
        return pattern

    # ------------------------------------------------------------------
    def _plan_blocks(self, sequence, plan, rng):
        """First pass: sample per-instance operations and claim slots."""
        profile = self.profile
        abstract_blocks = []
        previous = -1
        last_handle = {}  # original load pc -> most recent clone handle
        for bid in sequence:
            stats = profile.blocks[bid]
            hist = self._context_hist(previous, bid)
            pattern = None
            if stats.branch_pc >= 0:
                pattern = self._branch_pattern(
                    profile.branches.get(stats.branch_pc), rng)
            counts = {}
            for iclass, count in enumerate(stats.mix):
                label = _CLASS_LABELS.get(iclass)
                if label is None or count == 0:
                    continue
                counts[label] = counts.get(label, 0) + count
            counts.pop("load", None)
            counts.pop("store", None)
            loads = [pc for pc in stats.mem_pcs
                     if not profile.mem_ops.get(pc)
                     or not profile.mem_ops[pc].is_store]
            stores = [pc for pc in stats.mem_pcs
                      if profile.mem_ops.get(pc)
                      and profile.mem_ops[pc].is_store]
            if loads:
                counts["load"] = len(loads)
            if stores:
                counts["store"] = len(stores)
            # The modulo/random branch mechanisms add condition-setup ALU
            # ops; charge them against the block's integer-ALU budget so
            # the clone's instruction mix stays faithful.
            setup_cost = {"modulo": 2, "random": 3}.get(
                getattr(pattern, "kind", ""), 0)
            if setup_cost and counts.get("ialu", 0) > 0:
                counts["ialu"] = max(0, counts["ialu"] - setup_cost)
                if counts["ialu"] == 0:
                    del counts["ialu"]

            entries = []
            load_iter, store_iter = iter(loads), iter(stores)
            for label in _interleave(counts) if counts else []:
                if label == "load":
                    pc = next(load_iter)
                    handle = plan.allocate(pc, rng)
                    last_handle[pc] = handle
                    entries.append(("load", handle, ()))
                elif label == "store":
                    pc = next(store_iter)
                    mem_stats = profile.mem_ops.get(pc)
                    alias = (mem_stats.alias_of
                             if mem_stats and self.use_alias_pairing else -1)
                    # Read-modify-write pairing: the store retraces its
                    # partner load's stream (same slot, same instance as
                    # the load's most recent clone occurrence).
                    handle = last_handle.get(alias) if alias >= 0 else None
                    if handle is None:
                        handle = plan.allocate(pc, rng)
                    entries.append(("store", handle,
                                    (_sample_bucket(hist, rng),)))
                else:
                    entries.append((label, None, None))

            abstract_blocks.append((bid, hist, entries, pattern))
            previous = bid
        return abstract_blocks

    def _context_hist(self, pred, bid):
        """Dependency histogram for this (predecessor, block) context."""
        contexts = self.profile.contexts
        stats = contexts.get((pred, bid)) or contexts.get((-1, bid))
        if stats is None:
            for (_, block), candidate in contexts.items():
                if block == bid:
                    stats = candidate
                    break
        if stats is not None and sum(stats.dep_hist) > 0:
            return stats.dep_hist
        return self.profile.global_dep_hist

    # ------------------------------------------------------------------
    def _emit_body(self, abstract_blocks, plan, regs):
        """Second pass: assign registers, realize distances, emit text."""
        rng = random.Random(self.parameters.seed + 1)
        lines = []
        position = 0
        cycles = {"ialu": 0, "falu": 0}
        label_counter = 0

        def int_sources(n_srcs, hist):
            sources = []
            for _ in range(n_srcs):
                bucket = _sample_bucket(hist, rng)
                distance = bucket_representative(bucket)
                sources.append(regs.int_file.source_for(position, distance))
            return sources

        def fp_sources(n_srcs, hist):
            sources = []
            for _ in range(n_srcs):
                bucket = _sample_bucket(hist, rng)
                distance = bucket_representative(bucket)
                sources.append(regs.fp_file.source_for(position, distance))
            return sources

        for _bid, hist, entries, pattern in abstract_blocks:
            lines.append(f"bb{label_counter}:")
            for label, handle, extra in entries:
                if label == "load":
                    cluster_index, offset = plan.locate(handle)
                    dest = regs.int_file.allocate_dest(position)
                    self._note(offset, "slot-offset")
                    lines.append(f"    lw {reg_name(dest)}, {offset}"
                                 f"({regs.pointer_name(cluster_index)})")
                elif label == "store":
                    cluster_index, offset = plan.locate(handle)
                    distance = bucket_representative(extra[0])
                    source = regs.int_file.source_for(position, distance)
                    self._note(offset, "slot-offset")
                    lines.append(f"    sw {reg_name(source)}, {offset}"
                                 f"({regs.pointer_name(cluster_index)})")
                elif label == "ialu":
                    mnemonic, n_srcs, suffix = _INT_OPS[
                        cycles["ialu"] % len(_INT_OPS)]
                    if suffix:
                        self._note(int(suffix.lstrip(", ")), "mix-rotation")
                    cycles["ialu"] += 1
                    sources = int_sources(n_srcs, hist)
                    dest = regs.int_file.allocate_dest(position)
                    operands = ", ".join(reg_name(s) for s in sources)
                    lines.append(f"    {mnemonic} {reg_name(dest)}, "
                                 f"{operands}{suffix}")
                elif label == "imul":
                    sources = int_sources(2, hist)
                    dest = regs.int_file.allocate_dest(position)
                    lines.append(f"    mul {reg_name(dest)}, "
                                 f"{reg_name(sources[0])}, {reg_name(sources[1])}")
                elif label == "idiv":
                    sources = int_sources(2, hist)
                    dest = regs.int_file.allocate_dest(position)
                    lines.append(f"    div {reg_name(dest)}, "
                                 f"{reg_name(sources[0])}, {reg_name(sources[1])}")
                elif label == "falu":
                    mnemonic, n_srcs, _ = _FALU_OPS[
                        cycles["falu"] % len(_FALU_OPS)]
                    cycles["falu"] += 1
                    sources = fp_sources(n_srcs, hist)
                    dest = regs.fp_file.allocate_dest(position)
                    operands = ", ".join(reg_name(s) for s in sources)
                    lines.append(f"    {mnemonic} {reg_name(dest)}, {operands}")
                elif label == "fmul":
                    sources = fp_sources(2, hist)
                    dest = regs.fp_file.allocate_dest(position)
                    lines.append(f"    fmul {reg_name(dest)}, "
                                 f"{reg_name(sources[0])}, {reg_name(sources[1])}")
                elif label == "fdiv":
                    sources = fp_sources(2, hist)
                    dest = regs.fp_file.allocate_dest(position)
                    lines.append(f"    fdiv {reg_name(dest)}, "
                                 f"{reg_name(sources[0])}, {reg_name(sources[1])}")
                else:
                    raise ValueError(f"unknown abstract op {label!r}")
                position += 1
            if pattern is not None:
                next_label = f"bb{label_counter}_n"
                branch_lines = (pattern.emit(next_label)
                                if hasattr(pattern, "emit")
                                else emit_branch(pattern, next_label))
                self._note_lines(branch_lines, "branch-pattern")
                lines.extend(branch_lines)
                position += len(branch_lines)
                lines.append(f"{next_label}:")
            label_counter += 1
        return lines, position

    # ------------------------------------------------------------------
    def _emit_tail(self, plan, regs):
        """Advance and (rarely) reset each cluster pointer, then loop."""
        lines = []
        common_path = 0
        for cluster in plan.active_clusters():
            pointer = regs.pointer_name(cluster.index)
            countdown = regs.countdown_name(cluster.index)
            skip = f"adv{cluster.index}"
            self._note(cluster.advance, "stream-advance")
            self._note(-1, "loop-counter")
            lines.append(f"    addi {pointer}, {pointer}, {cluster.advance}")
            lines.append(f"    addi {countdown}, {countdown}, -1")
            lines.append(f"    bne {countdown}, r0, {skip}")
            lines.extend(self._pointer_reset(cluster, pointer, countdown))
            lines.append(f"{skip}:")
            common_path += 3
        # Step the shared xorshift32 register feeding "random" branches.
        for shift in (13, 17, 5):
            self._note(shift, "rng-step")
        self._note(1, "loop-counter")
        lines.append("    slli r3, r31, 13")
        lines.append("    xor r31, r31, r3")
        lines.append("    srli r3, r31, 17")
        lines.append("    xor r31, r31, r3")
        lines.append("    slli r3, r31, 5")
        lines.append("    xor r31, r31, r3")
        lines.append("    addi r1, r1, 1")
        lines.append("    blt r1, r2, loop_top")
        common_path += 8
        return lines, common_path

    def _pointer_reset(self, cluster, pointer, countdown):
        lines = [f"    la {pointer}, {cluster.symbol}"]
        if cluster.initial_offset:
            self._note(cluster.initial_offset, "stream-phase")
            lines.append(f"    addi {pointer}, {pointer}, "
                         f"{cluster.initial_offset}")
        self._note(cluster.reset_period, "reset-period")
        lines.append(f"    li {countdown}, {cluster.reset_period}")
        return lines

    # ------------------------------------------------------------------
    def _emit_init(self, plan, regs, iterations):
        self._note(0, "loop-counter")
        self._note(iterations, "run-length")
        self._note(RNG_SEED, "rng-seed")
        lines = ["main:", "    li r1, 0", f"    li r2, {iterations}",
                 f"    li r31, {RNG_SEED}"]
        for cluster in plan.active_clusters():
            pointer = regs.pointer_name(cluster.index)
            countdown = regs.countdown_name(cluster.index)
            lines.append(f"    la {pointer}, {cluster.symbol}")
            if cluster.initial_offset:
                self._note(cluster.initial_offset, "stream-phase")
                lines.append(f"    addi {pointer}, {pointer}, "
                             f"{cluster.initial_offset}")
            self._note(cluster.reset_period, "reset-period")
            lines.append(f"    li {countdown}, {cluster.reset_period}")
        for index, value in enumerate((1.0001, 0.9998, 1.5, 0.75)):
            self._note(value, "fp-seed")
            lines.append(f"    fli f{index}, {value}")
        return lines


def estimate_instruction_lines(lines):
    """Count machine instructions in assembly lines (la/li may expand)."""
    count = 0
    for line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped or stripped.endswith(":") or stripped.startswith("."):
            continue
        mnemonic, _, rest = stripped.partition(" ")
        if mnemonic == "la":
            count += 2
        elif mnemonic == "li":
            value = int(rest.split(",")[1].strip(), 0)
            count += len(_li_sequence(1, value))
        else:
            count += 1
    return count
