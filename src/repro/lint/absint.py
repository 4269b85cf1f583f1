"""Abstract interpretation over the lint CFG: machine-checked safety proofs.

This is the analysis substrate for certifying a clone *without running
it* (the paper's dissemination story): a worklist fixpoint over
:class:`repro.lint.cfg.ControlFlowGraph` with two abstract domains
tailored to SRISC and to the synthesizer's regular output shape:

* a **stride/interval domain** — every integer register is tracked as
  ``(lo, hi, stride)`` over the unsigned 32-bit value space, meaning
  "some value in ``{lo, lo+stride, ..., hi}``".  Constants wrap mod
  2³² exactly as the machine does; every other transfer function
  over-approximates (a non-constant interval that may wrap goes
  straight to ⊤), and conditional branches refine the intervals on
  their out-edges, so counted loops guarded by ``blt``/``bge``/``bne``
  converge to tight bounds without losing soundness;

* a **modulo-counter (countdown) domain** — the synthesizer realizes
  bounded pointer walks as ``advance a each iteration, reset to base
  when a countdown expires``.  A non-relational interval can never
  bound such a pointer (its maximum is tied to the countdown's value),
  so the analysis *recognizes* the pattern structurally, verifies the
  relational invariant ``p = base + a·(period - c)`` by a symbolic walk
  over the loop body, and then injects the implied header interval
  ``p ∈ [base, base + a·(period-1)]`` into the fixpoint as a proven
  clamp.

Four capabilities sit on the fixpoint:

1. loop trip-count bounds (``SR110``/``SR111``) via affine induction
   registers against loop-invariant limits;
2. whole-program termination plus a total dynamic instruction bound
   (``SR112``), valid when every retreating CFG edge is the back edge
   of a trip-bounded natural loop and the program contains no indirect
   jumps;
3. a proven dynamic memory footprint interval (``SR113``/``SR114``):
   every executed load/store address provably falls inside one
   ``[lo, hi)`` byte range;
4. static memory bounds (``SR106``): a load/store whose address is
   proven constant must hit the data image or the stack window.  This
   is the structural layer's one value analysis — :func:`lint_program
   <repro.lint.lint_program>` reads it from the same cached result.

Everything here is *sound by construction*: when a bound cannot be
proved the analysis reports "unbounded" (a warning diagnostic), never a
guess.  The machine-readable :func:`safety_certificate` rides along in
clone stats, exec-store metadata, and run manifests.
"""

from dataclasses import dataclass, field
from math import gcd

import numpy as np

from repro.isa.columns import columns_for
from repro.isa.registers import NUM_INT_REGS, REG_SP
from repro.lint.cfg import ControlFlowGraph
from repro.lint.diagnostics import LintReport, make_diagnostic

_M32 = 0xFFFFFFFF
_SIGNED_MAX = 0x7FFFFFFF

#: Interval = (lo, hi, stride): all values v with lo <= v <= hi and
#: v ≡ lo (mod stride); stride == 0 means the constant lo.
TOP = (0, _M32, 1)

#: Join-count at a widening point before bounds are widened to the
#: extremes (refinement-capped loops stabilize within this delay).
WIDEN_DELAY = 3

#: Address intervals wider than this are reported as unbounded rather
#: than claimed as a (vacuously true) footprint proof.
MAX_USEFUL_SPAN = 1 << 28

CERTIFICATE_SCHEMA_VERSION = 1

#: Memory access width per opcode (doubles for the FP file).
ACCESS_WIDTH = {"lw": 4, "sw": 4, "lb": 1, "lbu": 1, "sb": 1,
                "flw": 8, "fsw": 8}

#: Bytes below (and slack above) the initial stack pointer accepted as
#: legitimate stack addressing by the memory-bounds pass.
STACK_WINDOW = 0x10000
STACK_SLACK = 8


def _const(value):
    return (value & _M32, value & _M32, 0)


def _is_const(ivl):
    return ivl[2] == 0 and ivl[0] == ivl[1]


def _join(a, b):
    if a == b:
        return a
    lo = a[0] if a[0] <= b[0] else b[0]
    hi = a[1] if a[1] >= b[1] else b[1]
    stride = gcd(gcd(a[2], b[2]), abs(a[0] - b[0]))
    return (lo, hi, stride)


def _widen(old, new):
    """Classic interval widening with stride join; stable under iteration."""
    if old == new:
        return old
    lo = old[0] if new[0] >= old[0] else 0
    hi = old[1] if new[1] <= old[1] else _M32
    stride = gcd(gcd(old[2], new[2]), abs(old[0] - new[0]))
    return (lo, hi, stride)


def _clamp(ivl, lo, hi):
    """Meet ``ivl`` with ``[lo, hi]``, keeping the stride lattice sound.

    Returns None for an empty (infeasible) result.
    """
    new_lo = ivl[0] if ivl[0] >= lo else lo
    new_hi = ivl[1] if ivl[1] <= hi else hi
    stride = ivl[2]
    if stride:
        # Snap the bounds onto the residue class of the original set.
        offset = (new_lo - ivl[0]) % stride
        if offset:
            new_lo += stride - offset
        new_hi -= (new_hi - ivl[0]) % stride
    if new_lo > new_hi:
        return None
    if new_lo == new_hi:
        return (new_lo, new_hi, 0)
    return (new_lo, new_hi, stride)


# Constant operands wrap mod 2**32 exactly as the machine does; a
# non-constant interval that may wrap goes to TOP.
def _add_const(ivl, imm):
    if _is_const(ivl):
        return _const(ivl[0] + imm)
    lo, hi = ivl[0] + imm, ivl[1] + imm
    if lo < 0 or hi > _M32:
        return TOP
    return (lo, hi, ivl[2])


def _add(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a[0] + b[0])
    lo, hi = a[0] + b[0], a[1] + b[1]
    if lo < 0 or hi > _M32:
        return TOP
    return (lo, hi, gcd(a[2], b[2]) if (a[2] or b[2]) else 0)


def _sub(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a[0] - b[0])
    lo, hi = a[0] - b[1], a[1] - b[0]
    if lo < 0 or hi > _M32:
        return TOP
    return (lo, hi, gcd(a[2], b[2]) if (a[2] or b[2]) else 0)


def _shift_left(a, k):
    if _is_const(a):
        return _const(a[0] << k)
    hi = a[1] << k
    if hi > _M32:
        return TOP
    return (a[0] << k, hi, a[2] << k if a[2] else 0)


def _shift_right(a, k):
    lo, hi = a[0] >> k, a[1] >> k
    if lo == hi:
        return (lo, hi, 0)
    stride = a[2] >> k if a[2] and not a[2] % (1 << k) else 1
    return (lo, hi, stride or 1)


def _or_const(a, imm):
    """``ori``: exact on a constant, or when the immediate fills
    known-zero low bits."""
    if imm == 0:
        return a
    if _is_const(a):
        return _const(a[0] | (imm & _M32))
    if imm < 0:
        return TOP
    width = imm.bit_length()
    unit = 1 << width
    if a[2] and a[2] % unit == 0 and a[0] % unit == 0:
        return _add_const(a, imm)  # low bits are provably zero
    return TOP


def _and_const(a, imm):
    if _is_const(a):
        return _const(a[0] & (imm & _M32))
    if imm >= 0:
        return (0, imm, 1) if imm else _const(0)
    return TOP


def _mul(a, b):
    if _is_const(a) and _is_const(b):
        return _const(a[0] * b[0])
    for x, y in ((a, b), (b, a)):
        if _is_const(x):
            c = x[0]
            if c == 0:
                return _const(0)
            if y[1] * c <= _M32:
                return (y[0] * c, y[1] * c, (y[2] * c) if y[2] else 0)
    return TOP


@dataclass
class LoopInfo:
    """One natural loop plus everything the proofs derived about it."""

    header: int
    back_sources: tuple
    body: frozenset
    trip_bound: int = None
    exact: bool = False
    reason: str = ""
    countdowns: list = field(default_factory=list)


@dataclass
class CountdownInfo:
    """A verified countdown-guarded pointer walk (modulo-counter domain).

    The relational invariant ``pointer = base + advance·(period -
    counter)`` holds at the loop header, with ``counter ∈ [1, period]``;
    both facts are established by the structural verification in
    :func:`_find_countdowns`, not assumed.
    """

    pointer: int
    counter: int
    advance: int
    period: int
    base: int
    advance_index: int
    decrement_index: int
    branch_index: int
    reset_start: int
    reset_end: int


@dataclass
class AbsintResult:
    """Fixpoint states plus the derived safety facts for one program."""

    program: object
    cfg: ControlFlowGraph
    loops: list
    in_states: dict
    terminates: bool = False
    instruction_bound: int = None
    footprint: tuple = None  # (lo, hi) byte interval, hi exclusive
    mem_intervals: dict = field(default_factory=dict)
    unbounded_memops: list = field(default_factory=list)
    degraded: str = ""
    block_bounds: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Transfer functions
# ----------------------------------------------------------------------
def _entry_state(program):
    state = [_const(0)] * NUM_INT_REGS
    state[REG_SP] = _const(program.stack_top)
    return state


# Dispatch codes for the precomputed transfer plan.  Constant results
# (lui, link registers, lbu's byte range) fold at plan-build time.
_K_ADDI, _K_SET, _K_TOP, _K_ADD, _K_SUB = 0, 1, 2, 3, 4
_K_ORI, _K_ANDI, _K_XORI, _K_SLLI, _K_SRL, _K_SRA = 5, 6, 7, 8, 9, 10
_K_CMP, _K_BITOP, _K_MUL = 11, 12, 13

_CMP_OPS = ("slt", "sltu", "slti", "sltiu", "feq", "flt", "fle")
_BIT_OPS = ("and", "or", "xor", "nor", "sll", "srl", "sra")


def _transfer_plan(columns):
    """Per-instruction ``(kind, rd, r1, r2, aux, op)`` tuples, cached.

    One build per program replaces the per-sweep numpy scalar reads and
    opcode string chains with plain-int tuple dispatch; instructions
    that cannot change tracked state (no dest, r0 dest, fp dest) are
    ``None`` so the hot loop skips them with one load.
    """
    plan = columns.derived.get("absint_plan")
    if plan is not None:
        return plan
    plan = [None] * columns.n
    src1s = columns.src1.tolist()
    src2s = columns.src2.tolist()
    for index, rd in enumerate(columns.dest_list):
        if rd <= 0 or rd >= NUM_INT_REGS:
            continue  # r0 writes are discarded; fp file is not tracked
        op = columns.opcode_list[index]
        r1 = src1s[index]
        r2 = src2s[index]
        if not 0 <= r1 < NUM_INT_REGS:
            r1 = -1
        if not 0 <= r2 < NUM_INT_REGS:
            r2 = -1
        imm = columns.imm_list[index]
        if op == "addi":
            entry = (_K_ADDI, rd, r1, r2, imm, op)
        elif op == "add":
            entry = (_K_ADD, rd, r1, r2, imm, op)
        elif op == "sub":
            entry = (_K_SUB, rd, r1, r2, imm, op)
        elif op == "lui":
            entry = (_K_SET, rd, r1, r2, _const((imm << 16) & _M32), op)
        elif op == "ori":
            entry = (_K_ORI, rd, r1, r2, imm, op)
        elif op == "andi":
            entry = (_K_ANDI, rd, r1, r2, imm, op)
        elif op == "xori":
            entry = (_K_XORI, rd, r1, r2, imm, op)
        elif op == "slli":
            entry = (_K_SLLI, rd, r1, r2, imm & 31, op)
        elif op == "srli":
            entry = (_K_SRL, rd, r1, r2, imm & 31, op)
        elif op == "srai":
            entry = (_K_SRA, rd, r1, r2, imm & 31, op)
        elif op in _CMP_OPS:
            entry = (_K_CMP, rd, r1, r2, imm, op)
        elif op in _BIT_OPS:
            entry = (_K_BITOP, rd, r1, r2, imm, op)
        elif op == "mul":
            entry = (_K_MUL, rd, r1, r2, imm, op)
        elif op == "lbu":
            entry = (_K_SET, rd, r1, r2, (0, 255, 1), op)
        elif op in ("jal", "jalr"):
            entry = (_K_SET, rd, r1, r2,
                     _const(int(columns.pc_addresses[index]) + 4), op)
        else:
            # Loads, division, fp-to-int conversion, anything exotic.
            entry = (_K_TOP, rd, r1, r2, imm, op)
        plan[index] = entry
    columns.derived["absint_plan"] = plan
    return plan


def _transfer_range(state, start, end, columns):
    """Apply instructions ``[start, end)`` to a copied register state."""
    plan = columns.derived.get("absint_plan")
    if plan is None:
        plan = _transfer_plan(columns)
    state = list(state)
    for index in range(start, end):
        entry = plan[index]
        if entry is None:
            continue
        kind, rd, r1, r2, aux, op = entry
        a = state[r1] if r1 >= 0 else TOP
        if kind == _K_ADDI:
            value = _add_const(a, aux)
        elif kind == _K_SET:
            value = aux
        elif kind == _K_TOP:
            value = TOP
        elif kind == _K_ADD:
            value = _add(a, state[r2] if r2 >= 0 else TOP)
        elif kind == _K_SUB:
            value = _sub(a, state[r2] if r2 >= 0 else TOP)
        elif kind == _K_ORI:
            value = _or_const(a, aux)
        elif kind == _K_ANDI:
            value = _and_const(a, aux)
        elif kind == _K_XORI:
            value = _const(a[0] ^ (aux & _M32)) if _is_const(a) else TOP
        elif kind == _K_SLLI:
            value = _shift_left(a, aux)
        elif kind == _K_SRL:
            value = _shift_right(a, aux)
        elif kind == _K_SRA:
            value = TOP if a[1] > _SIGNED_MAX else _shift_right(a, aux)
        elif kind == _K_CMP:
            value = _comparison_value(
                op, a, state[r2] if r2 >= 0 else TOP, aux)
        elif kind == _K_BITOP:
            value = _varshift_or_bitop(
                op, a, state[r2] if r2 >= 0 else TOP)
        else:
            value = _mul(a, state[r2] if r2 >= 0 else TOP)
        state[rd] = value
    return state


def _comparison_value(op, a, b, imm):
    """slt-family results are {0,1}; decide them when the intervals do."""
    if op in ("slti", "sltiu"):
        b = _const(imm)
    if op in ("feq", "flt", "fle"):
        return (0, 1, 1)
    if op in ("sltu", "sltiu") or (a[1] <= _SIGNED_MAX
                                   and b[1] <= _SIGNED_MAX):
        if a[1] < b[0]:
            return _const(1)
        if a[0] >= b[1] and not (_is_const(a) and _is_const(b)
                                 and a[0] < b[0]):
            return _const(0)
    return (0, 1, 1)


def _varshift_or_bitop(op, a, b):
    if _is_const(a) and _is_const(b):
        x, y = a[0], b[0]
        if op == "and":
            return _const(x & y)
        if op == "or":
            return _const(x | y)
        if op == "xor":
            return _const(x ^ y)
        if op == "nor":
            return _const(~(x | y))
        if op == "sll":
            return _const((x << (y & 31)) & _M32)
        if op == "srl":
            return _const(x >> (y & 31))
        if op == "sra" and x <= _SIGNED_MAX:
            return _const(x >> (y & 31))
    if op == "and" and b[1] <= _SIGNED_MAX:
        return (0, b[1], 1)
    if op == "and" and a[1] <= _SIGNED_MAX:
        return (0, a[1], 1)
    return TOP


# ----------------------------------------------------------------------
# Branch refinement
# ----------------------------------------------------------------------
def _refine_edge(state, op, r1, r2, taken):
    """Refined copy of ``state`` on one branch edge; None if infeasible."""
    if r1 < 0 or r2 < 0:
        return state
    a = state[r1]
    b = state[r2]
    if op == "beq":
        equal = taken
    elif op == "bne":
        equal = not taken
    elif op in ("blt", "bge", "bltu", "bgeu"):
        return _refine_order(state, op, r1, r2, a, b, taken)
    else:
        return state
    if equal:
        lo = max(a[0], b[0])
        hi = min(a[1], b[1])
        na = _clamp(a, lo, hi)
        nb = _clamp(b, lo, hi)
        if na is None or nb is None:
            return None
        state = list(state)
        if r1:
            state[r1] = na
        if r2:
            state[r2] = nb
        return state
    # Not-equal edge: only single-point exclusions are expressible.
    if _is_const(a) and _is_const(b) and a[0] == b[0]:
        return None
    state = list(state)
    for reg, ivl, other in ((r1, a, b), (r2, b, a)):
        if reg and _is_const(other):
            c = other[0]
            step = ivl[2] or 1
            if ivl[0] == c:
                refined = _clamp(ivl, c + step, ivl[1])
            elif ivl[1] == c:
                refined = _clamp(ivl, ivl[0], c - step)
            else:
                continue
            if refined is None:
                return None
            state[reg] = refined
    return state


def _refine_order(state, op, r1, r2, a, b, taken):
    unsigned = op in ("bltu", "bgeu")
    if not unsigned and (a[1] > _SIGNED_MAX or b[1] > _SIGNED_MAX):
        return state  # may straddle the sign boundary; skip refinement
    less = taken if op in ("blt", "bltu") else not taken
    if less:  # a < b
        na = _clamp(a, a[0], b[1] - 1)
        nb = _clamp(b, a[0] + 1, b[1])
    else:  # a >= b
        na = _clamp(a, b[0], a[1])
        nb = _clamp(b, b[0], a[1])
    if na is None or nb is None:
        return None
    state = list(state)
    if r1:
        state[r1] = na
    if r2:
        state[r2] = nb
    return state


# ----------------------------------------------------------------------
# The worklist fixpoint
# ----------------------------------------------------------------------
def _branch_facts(columns):
    """``{index: (op, r1, r2, taken_bid)}`` per conditional, cached."""
    facts = columns.derived.get("absint_branch_facts")
    if facts is None:
        facts = {}
        for index in (i for i, cond in enumerate(columns.is_cond.tolist())
                      if cond):
            target = columns.target_list[index]
            taken_bid = (int(columns.block_of[target])
                         if 0 <= target < columns.n else -1)
            facts[index] = (columns.opcode_list[index],
                            int(columns.src1[index]),
                            int(columns.src2[index]), taken_bid)
        columns.derived["absint_branch_facts"] = facts
    return facts


def _edge_states(bid, out_state, cfg, columns):
    """[(succ, state)] with terminator refinement; infeasible edges drop."""
    block = cfg.blocks[bid]
    last = block.end - 1
    succs = cfg.successors[bid]
    if not succs:
        return []
    facts = _branch_facts(columns).get(last)
    if facts is not None and len(succs) == 2:
        op, r1, r2, taken_succ = facts
        results = []
        fall_succ = succs[1] if succs[0] == taken_succ else succs[0]
        taken_state = _refine_edge(out_state, op, r1, r2, True)
        fall_state = _refine_edge(out_state, op, r1, r2, False)
        if taken_state is not None:
            results.append((taken_succ, taken_state))
        if fall_state is not None:
            results.append((fall_succ, fall_state))
        return results
    return [(succ, out_state) for succ in succs]


def _fixpoint(cfg, columns, clamps=None):
    """Worklist interval analysis; returns ``{bid: entry state}``.

    ``clamps`` maps ``(bid, reg) -> (lo, hi, stride)`` intervals proven
    externally (the countdown domain); they are met into the block's
    joined entry state.  Widening at every retreating-edge target keeps
    the iteration finite even on irreducible graphs.
    """
    if cfg.entry is None:
        return {}
    order = cfg.rpo()
    position = {bid: i for i, bid in enumerate(order)}
    widen_points = {dst for _, dst in cfg.retreating_edges()}
    join_counts = dict.fromkeys(widen_points, 0)
    in_states = {cfg.entry: _entry_state(cfg.program)}
    pending = set(order)
    clamps = clamps or {}

    def apply_clamps(bid, state):
        for reg in range(1, NUM_INT_REGS):
            bound = clamps.get((bid, reg))
            if bound is not None:
                met = _clamp(state[reg], bound[0], bound[1])
                state[reg] = bound if met is None else met
        return state

    if clamps:
        in_states[cfg.entry] = apply_clamps(
            cfg.entry, list(in_states[cfg.entry]))

    while pending:
        bid = min(pending, key=position.get)
        pending.discard(bid)
        state = in_states.get(bid)
        if state is None:
            continue
        block = cfg.blocks[bid]
        out = _transfer_range(state, block.start, block.end, columns)
        for succ, edge_state in _edge_states(bid, out, cfg, columns):
            if succ not in position:
                continue
            current = in_states.get(succ)
            if current is None:
                new = list(edge_state)
            else:
                new = [_join(c, e) for c, e in zip(current, edge_state)]
                if succ in widen_points:
                    join_counts[succ] += 1
                    if join_counts[succ] > WIDEN_DELAY:
                        new = [_widen(c, n) for c, n in zip(current, new)]
            new = apply_clamps(succ, new)
            if current is None or new != current:
                in_states[succ] = new
                pending.add(succ)
    return in_states


def _single_pass(cfg, columns, loops, clamps=None, discover=None):
    """One-sweep interval analysis for reducible graphs.

    The worklist fixpoint carries no narrowing, so any register that a
    loop modifies and no countdown clamp covers ends at the widened
    bounds regardless of how many times the loop is re-analyzed.  On a
    reducible CFG the same (or a tighter) result is reached in a single
    reverse-post-order sweep by *havocking* at each loop header: the
    header's state joins only its entry edges, every register written
    anywhere in the loop body drops to TOP and is then met with its
    proven clamp, and each block is transferred exactly once.

    ``discover``, when given, is called at each loop header with the
    joined entry-edge state (pre-havoc) and returns additional clamps
    (``{(bid, reg): interval}``) to install.  Because reverse
    post-order visits a header before any of its body blocks, the
    countdown discovery that used to need a whole phase-1 sweep can
    run inline, so the reducible path needs exactly one sweep total.

    Soundness: TOP covers whatever the skipped back edges could carry;
    clamped registers are covered by the countdown invariant proof; and
    registers the loop never writes are loop-invariant by definition,
    so their entry-edge value is the fixpoint value.  This is what
    makes the static lint gate run in milliseconds instead of
    re-interpreting the body to convergence.
    """
    if cfg.entry is None:
        return {}
    clamp_rows = {}

    def add_clamps(mapping):
        for (bid, reg), bound in mapping.items():
            clamp_rows.setdefault(bid, []).append((reg, bound))

    if clamps:
        add_clamps(clamps)
    havoc = {}
    for loop in loops:
        written = set()
        for bid in loop.body:
            start, end = columns.block_bounds[bid]
            for index in range(start, end):
                rd = columns.dest_list[index]
                if 0 < rd < NUM_INT_REGS:
                    written.add(rd)
        havoc[loop.header] = (written, loop.body)

    in_states = {}
    edge_states = {}
    for bid in cfg.rpo():
        if bid == cfg.entry:
            state = _entry_state(cfg.program)
        else:
            state = None
            header = havoc.get(bid)
            for pred in cfg.predecessors[bid]:
                if header is not None and pred in header[1]:
                    continue  # back edge: replaced by the havoc below
                incoming = edge_states.get((pred, bid))
                if incoming is None:
                    continue
                state = list(incoming) if state is None else [
                    s if s == e else _join(s, e)
                    for s, e in zip(state, incoming)]
            if state is None:
                continue  # unreachable (or all entry edges infeasible)
        header = havoc.get(bid)
        if header is not None:
            if discover is not None:
                add_clamps(discover(bid, state))
            for reg in header[0]:
                state[reg] = TOP
        rows = clamp_rows.get(bid)
        if rows:
            for reg, bound in rows:
                met = _clamp(state[reg], bound[0], bound[1])
                state[reg] = bound if met is None else met
        in_states[bid] = state
        block = cfg.blocks[bid]
        out = _transfer_range(state, block.start, block.end, columns)
        for succ, edge_state in _edge_states(bid, out, cfg, columns):
            current = edge_states.get((bid, succ))
            # Both edges of a conditional can reach the same successor
            # (the clone machinery branches target the next line); the
            # edge contributions join rather than overwrite.
            edge_states[(bid, succ)] = edge_state if current is None \
                else [c if c == e else _join(c, e)
                      for c, e in zip(current, edge_state)]
    return in_states


def _loop_entry_state(cfg, columns, loop, in_states):
    """Join of predecessor out-states entering the loop from outside."""
    joined = None
    for pred in cfg.predecessors[loop.header]:
        if pred in loop.body:
            continue
        state = in_states.get(pred)
        if state is None:
            continue
        block = cfg.blocks[pred]
        out = _transfer_range(state, block.start, block.end, columns)
        joined = out if joined is None else [
            _join(a, b) for a, b in zip(joined, out)]
    return joined


# ----------------------------------------------------------------------
# Affine induction deltas over a loop body
# ----------------------------------------------------------------------
def _nested_blocks(loop, all_loops):
    nested = set()
    for other in all_loops:
        if other.header != loop.header and other.header in loop.body \
                and other.body <= loop.body:
            nested |= other.body
    return nested


def _affine_deltas(cfg, columns, loop, reg, nested):
    """Per-block entry deltas of ``reg`` relative to the loop header.

    Returns ``(delta_in, cycle_delta)`` or ``None`` when the register
    is not a path-invariant affine induction variable (written by a
    non-``addi`` op, written inside a nested loop, or accumulating
    different deltas along converging paths).
    """
    if reg == 0:
        return None
    opcodes = columns.opcode_list
    dests = columns.dest_list
    src1s = columns.src1
    imms = columns.imm_list

    def block_delta(bid):
        start, end = columns.block_bounds[bid]
        delta = 0
        for index in range(start, end):
            if dests[index] == reg:
                if opcodes[index] == "addi" and int(src1s[index]) == reg:
                    delta += imms[index]
                else:
                    return None
        return delta

    for bid in nested:
        start, end = columns.block_bounds[bid]
        for index in range(start, end):
            if dests[index] == reg:
                return None

    order = [bid for bid in cfg.rpo() if bid in loop.body]
    delta_in = {loop.header: 0}
    cycle_delta = None
    for bid in order:
        if bid not in delta_in:
            return None  # reached before any in-loop predecessor
        own = block_delta(bid)
        if own is None:
            return None
        out_delta = delta_in[bid] + own
        for succ in cfg.successors[bid]:
            if succ not in loop.body:
                continue
            if succ == loop.header:
                if cycle_delta is None:
                    cycle_delta = out_delta
                elif cycle_delta != out_delta:
                    return None
                continue
            if succ in delta_in:
                if delta_in[succ] != out_delta:
                    return None
            else:
                delta_in[succ] = out_delta
    if cycle_delta is None:
        return None
    return delta_in, cycle_delta


def _delta_at(columns, delta_in, bid, index, reg):
    """Delta of ``reg`` from the loop header to instruction ``index``."""
    start, _ = columns.block_bounds[bid]
    delta = delta_in[bid]
    for i in range(start, index):
        if columns.dest_list[i] == reg:
            if columns.opcode_list[i] == "addi" \
                    and int(columns.src1[i]) == reg:
                delta += columns.imm_list[i]
            else:
                return None
    return delta


# ----------------------------------------------------------------------
# Trip-count bounds
# ----------------------------------------------------------------------
def _ceil_div(a, b):
    return -(-a // b)


def _solve_trip(kind, limit, v_first, cycle_delta):
    """Smallest iteration t >= 1 whose exit condition fires, or None.

    ``v_t = v_first + (t-1)·cycle_delta`` is the induction value at the
    exit branch in iteration ``t``; all values must stay inside the
    non-negative signed range so machine arithmetic cannot wrap.
    """
    if kind == "ge":
        if cycle_delta <= 0:
            return None
        trips = 1 + max(0, _ceil_div(limit - v_first, cycle_delta))
    elif kind == "le":
        if cycle_delta >= 0:
            return None
        trips = 1 + max(0, _ceil_div(v_first - limit, -cycle_delta))
    elif kind == "eq":
        diff = limit - v_first
        if cycle_delta == 0 or diff % cycle_delta:
            return None
        steps = diff // cycle_delta
        if steps < 0:
            return None
        trips = steps + 1
    else:
        return None
    v_last = v_first + (trips - 1) * cycle_delta
    for value in (v_first, v_last, limit):
        if not 0 <= value <= _SIGNED_MAX:
            return None
    return trips


#: taken-condition comparator by opcode, from the induction side's view.
_EXIT_KINDS = {
    # (opcode, induction_on_left, exit_on_taken) -> exit kind + limit adj.
    # taken conditions: beq v==L; bne v!=L; blt v<L; bge v>=L.
    ("beq", True): ("eq", 0),
    ("blt", True): ("le", -1),   # exit when v < L  ⇒ v <= L-1
    ("bge", True): ("ge", 0),    # exit when v >= L
    ("bltu", True): ("le", -1),
    ("bgeu", True): ("ge", 0),
    ("blt", False): ("ge", 1),   # exit when L < v  ⇒ v >= L+1
    ("bge", False): ("le", 0),   # exit when L >= v ⇒ v <= L
    ("bltu", False): ("ge", 1),
    ("bgeu", False): ("le", 0),
    ("beq", False): ("eq", 0),
}


def _analyze_loop_trips(cfg, columns, loop, in_states, all_loops):
    """Fill ``loop.trip_bound``/``loop.exact`` from its exit branches."""
    entry = _loop_entry_state(cfg, columns, loop, in_states)
    if entry is None:
        loop.reason = "loop entry state unavailable"
        return
    nested = _nested_blocks(loop, all_loops)
    exit_edges = []
    for bid in loop.body:
        for succ in cfg.successors[bid]:
            if succ not in loop.body:
                exit_edges.append((bid, succ))
    if not exit_edges:
        loop.reason = "no exit edge"
        return

    bounds = []
    for src, dst in exit_edges:
        trips = _exit_bound(cfg, columns, loop, src, dst, entry,
                            nested)
        if trips is not None:
            bounds.append(trips)
    if bounds:
        loop.trip_bound = min(bounds)
        loop.exact = len(exit_edges) == 1 and len(bounds) == 1
    else:
        loop.reason = "no exit branch with an affine induction bound"


def _exit_bound(cfg, columns, loop, src, dst, entry, nested):
    if src in nested:
        return None  # exits from inner loops fire per inner iteration
    # The exit branch must execute every iteration to yield a bound.
    for back in loop.back_sources:
        if not cfg.dominates(src, back):
            return None
    block = cfg.blocks[src]
    last = block.end - 1
    if not columns.is_cond[last]:
        return None
    target = columns.target_list[last]
    taken_succ = cfg.program.block_of(target)
    exit_on_taken = taken_succ == dst and taken_succ not in loop.body
    exit_on_fall = (block.end < len(cfg.program)
                    and cfg.program.block_of(block.end) == dst
                    and dst not in loop.body)
    if not exit_on_taken and not exit_on_fall:
        return None
    op = columns.opcode_list[last]
    r1 = int(columns.src1[last])
    r2 = int(columns.src2[last])

    for induction, invariant, on_left in ((r1, r2, True), (r2, r1, False)):
        if induction <= 0:
            continue
        if not _loop_invariant(columns, loop, invariant):
            continue
        limit_ivl = entry[invariant] if invariant else _const(0)
        if not _is_const(limit_ivl):
            continue
        affine = _affine_deltas(cfg, columns, loop, induction, nested)
        if affine is None:
            continue
        delta_in, cycle_delta = affine
        at_branch = _delta_at(columns, delta_in, src, last, induction)
        if at_branch is None:
            continue
        v0_ivl = entry[induction]
        if not _is_const(v0_ivl):
            continue
        taken_kind = _EXIT_KINDS.get((op, on_left))
        if taken_kind is None:
            continue
        kind, adjust = taken_kind
        if exit_on_taken:
            exit_kind, limit = kind, limit_ivl[0] + adjust
        else:
            # Exit on fall-through: negate the taken condition.
            negate = {"ge": ("le", -1), "le": ("ge", 1), "eq": None}
            flipped = negate.get(kind)
            if flipped is None:
                continue  # "exit when !=" has no closed form
            exit_kind, limit = flipped[0], limit_ivl[0] + adjust + flipped[1]
        trips = _solve_trip(exit_kind, limit, v0_ivl[0] + at_branch,
                            cycle_delta)
        if trips is not None:
            return trips
    return None


def _loop_invariant(columns, loop, reg):
    if reg <= 0:
        return True
    return not any(
        columns.dest_list[index] == reg
        for bid in loop.body
        for index in range(*columns.block_bounds[bid]))


# ----------------------------------------------------------------------
# The countdown (modulo-counter) domain
# ----------------------------------------------------------------------
def _eval_reset_region(columns, start, end):
    """Constant-evaluate a straight-line reset region.

    Returns ``{reg: constant}`` for the registers it (re)defines, or
    None when the region contains control flow, memory writes, or any
    computation the mini-evaluator cannot prove constant.
    """
    consts = {}
    for index in range(start, end):
        op = columns.opcode_list[index]
        rd = columns.dest_list[index]
        r1 = int(columns.src1[index])
        imm = columns.imm_list[index]
        if rd <= 0 or rd >= NUM_INT_REGS:
            return None
        if op == "lui":
            consts[rd] = (imm << 16) & _M32
        elif op == "ori":
            base = 0 if r1 == 0 else consts.get(r1)
            if base is None:
                return None
            consts[rd] = base | (imm & _M32)
        elif op == "addi":
            base = 0 if r1 == 0 else consts.get(r1)
            if base is None:
                return None
            consts[rd] = (base + imm) & _M32
        else:
            return None
    return consts


def _find_countdowns(cfg, columns, loop, entry, nested):
    """Structurally verify countdown-guarded pointer walks in ``loop``.

    The proof obligations, each checked mechanically:

    1. ``addi c, c, -1`` immediately followed by its block terminator
       ``bne c, r0, skip`` with a forward in-loop target;
    2. the fall-through region up to ``skip`` is straight-line and
       constant-sets exactly ``{pointer, c}`` (the reset);
    3. exactly one other write to the pointer exists in the loop —
       ``addi p, p, a`` — and no other write to ``c``; neither lives in
       a nested loop, and both (plus the decrement) dominate every back
       edge, so they execute exactly once per iteration;
    4. the loop entry state carries exactly the reset constants, so
       the first iteration starts a fresh countdown window.

    Under 1–4 the relational invariant ``p = base + a·(period - c)``
    with ``c ∈ [1, period]`` holds at the header by induction (base
    case from 4, step from 1–3), which yields the header clamp
    ``p ∈ [base, base + a·(period-1)]`` — the fact a non-relational
    interval domain cannot express.
    """
    found = []
    opcodes = columns.opcode_list
    dests = columns.dest_list
    src1s = columns.src1
    src2s = columns.src2
    imms = columns.imm_list
    n = columns.n
    for bid in loop.body:
        if bid in nested:
            continue
        start, end = columns.block_bounds[bid]
        last = end - 1
        if last < 1 or opcodes[last] != "bne" or int(src2s[last]) != 0:
            continue
        decr = last - 1
        counter = int(src1s[last])
        if counter <= 0 or dests[decr] != counter:
            continue
        if opcodes[decr] != "addi" or int(src1s[decr]) != counter \
                or imms[decr] != -1:
            continue
        target = columns.target_list[last]
        if target is None or not end <= target <= n:
            continue
        if cfg.program.block_of(target) not in loop.body:
            continue
        reset_consts = _eval_reset_region(columns, end, target)
        if reset_consts is None or counter not in reset_consts:
            continue
        others = [reg for reg in reset_consts if reg != counter]
        if len(others) != 1:
            continue
        pointer = others[0]
        period = reset_consts[counter]
        base = reset_consts[pointer]
        if period < 1:
            continue
        # Reset-region blocks are excluded from the "no other writes"
        # scan; everything else in the loop must leave p and c alone,
        # except exactly one pointer advance.
        reset_range = range(end, target)
        advance_index = None
        advance = None
        ok = True
        for body_bid in loop.body:
            b_start, b_end = columns.block_bounds[body_bid]
            for index in range(b_start, b_end):
                if index in reset_range or index == decr:
                    continue
                rd = dests[index]
                if rd == counter:
                    ok = False
                    break
                if rd == pointer:
                    if advance_index is not None \
                            or opcodes[index] != "addi" \
                            or int(src1s[index]) != pointer \
                            or columns.block_of[index] in nested:
                        ok = False
                        break
                    advance_index = index
                    advance = imms[index]
            if not ok:
                break
        if not ok or advance_index is None:
            continue  # advance may be 0: a legal constant-address stream
        # The decrement and advance must run exactly once per iteration.
        decr_bid = int(columns.block_of[decr])
        adv_bid = int(columns.block_of[advance_index])
        if decr_bid in nested:
            continue
        per_iteration = True
        for back in loop.back_sources:
            if not cfg.dominates(decr_bid, back) \
                    or not cfg.dominates(adv_bid, back):
                per_iteration = False
                break
        if not per_iteration:
            continue
        # Loop entry must start a fresh window: p = base, c = period.
        if entry is None or not _is_const(entry[pointer]) \
                or not _is_const(entry[counter]):
            continue
        if entry[pointer][0] != base or entry[counter][0] != period:
            continue
        # The pointer walk must stay inside the 32-bit space even at
        # its momentary pre-reset extreme (base + a·period).
        for extreme in (base + advance * period,
                        base + advance * (period - 1)):
            if not 0 <= extreme <= _M32:
                break
        else:
            found.append(CountdownInfo(
                pointer=pointer, counter=counter, advance=advance,
                period=period, base=base, advance_index=advance_index,
                decrement_index=decr, branch_index=last,
                reset_start=end, reset_end=target))
    return found


def _countdown_clamps(loop, countdowns):
    clamps = {}
    for info in countdowns:
        span = info.advance * (info.period - 1)
        lo = min(info.base, info.base + span)
        hi = max(info.base, info.base + span)
        clamps[(loop.header, info.pointer)] = (lo, hi,
                                              abs(info.advance) or 1)
        clamps[(loop.header, info.counter)] = (1, info.period, 1)
    return clamps


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_program(program):
    """Run the full analysis; the result is cached on the columns."""
    columns = columns_for(program)
    cached = columns.derived.get("absint")
    if cached is not None:
        return cached
    result = _analyze(program, columns)
    columns.derived["absint"] = result
    return result


def _analyze(program, columns):
    cfg = ControlFlowGraph(program)
    loops = [LoopInfo(header=header, back_sources=backs, body=body)
             for header, backs, body in cfg.natural_loops()]
    result = AbsintResult(program=program, cfg=cfg, loops=loops,
                          in_states={})

    indirect = any(op in ("jr", "jalr") for op in columns.opcode_list)
    if indirect:
        # Static successors of jr/jalr are unknown, so neither the
        # fixpoint's state flow nor the loop forest models real control
        # flow; every proof is declined rather than risked.
        result.degraded = "indirect jumps (jr/jalr) defeat static flow"
        for loop in loops:
            loop.reason = result.degraded
        return result

    headers = {loop.header: loop for loop in loops}
    reducible = all(
        headers.get(dst) is not None and src in headers[dst].body
        for src, dst in cfg.retreating_edges())
    if reducible:
        # Countdown discovery only needs the loop's entry-edge state,
        # which the reverse-post-order sweep has in hand when it
        # reaches the header — so discovery and the clamped analysis
        # fuse into one pass instead of a discover/re-run pair.
        def discover(header_bid, entry):
            loop = headers[header_bid]
            nested = _nested_blocks(loop, loops)
            loop.countdowns = _find_countdowns(cfg, columns, loop, entry,
                                               nested)
            return _countdown_clamps(loop, loop.countdowns)

        in_states = _single_pass(cfg, columns, loops, discover=discover)
    else:
        # Irreducible graphs fall back to the two-phase worklist:
        # discover countdowns against the unclamped fixpoint, then
        # re-run with the proven header clamps injected.
        in_states = _fixpoint(cfg, columns)
        clamps = {}
        for loop in loops:
            nested = _nested_blocks(loop, loops)
            entry = _loop_entry_state(cfg, columns, loop, in_states)
            loop.countdowns = _find_countdowns(cfg, columns, loop, entry,
                                               nested)
            clamps.update(_countdown_clamps(loop, loop.countdowns))
        if clamps:
            in_states = _fixpoint(cfg, columns, clamps)
    result.in_states = in_states

    for loop in loops:
        _analyze_loop_trips(cfg, columns, loop, in_states, loops)

    _prove_termination(result, cfg, columns)
    _prove_footprint(result, cfg, columns)
    return result


def _prove_termination(result, cfg, columns):
    loops = result.loops
    headers = {loop.header: loop for loop in loops}
    for src, dst in cfg.retreating_edges():
        loop = headers.get(dst)
        if loop is None or src not in loop.body:
            result.degraded = (result.degraded
                               or "irreducible cycle outside natural loops")
            return
    if any(loop.trip_bound is None for loop in loops):
        return
    reachable = cfg.reachable()
    total = 0
    for bid in reachable:
        bound = 1
        for loop in loops:
            if bid in loop.body:
                bound *= loop.trip_bound
        result.block_bounds[bid] = bound
        size = int(columns.block_bounds[bid][1]
                   - columns.block_bounds[bid][0])
        total += size * bound
    result.terminates = True
    result.instruction_bound = total


def _memop_facts(columns):
    """``{bid: [(index, base_reg, imm, width)]}`` per block, cached."""
    facts = columns.derived.get("absint_memop_facts")
    if facts is None:
        facts = {}
        src1s = columns.src1.tolist()
        for index in np.nonzero(columns.is_mem)[0]:
            index = int(index)
            base_reg = src1s[index]
            if not 0 <= base_reg < NUM_INT_REGS:
                base_reg = -1
            facts.setdefault(int(columns.block_of[index]), []).append(
                (index, base_reg, columns.imm_list[index] or 0,
                 ACCESS_WIDTH.get(columns.opcode_list[index], 4)))
        columns.derived["absint_memop_facts"] = facts
    return facts


def _prove_footprint(result, cfg, columns):
    if result.degraded:
        return
    reachable = cfg.reachable()
    memops = _memop_facts(columns)
    lo = hi = None
    for bid in reachable:
        block_memops = memops.get(bid)
        if block_memops is None:
            continue
        state = result.in_states.get(bid)
        if state is None:
            continue
        start, _ = columns.block_bounds[bid]
        current = state
        scanned = start
        for index, base_reg, imm, width in block_memops:
            current = _transfer_range(current, scanned, index, columns)
            scanned = index
            ivl = current[base_reg] if base_reg >= 0 else TOP
            addr = _add_const(ivl, imm)
            if addr == TOP or addr[1] - addr[0] > MAX_USEFUL_SPAN:
                result.unbounded_memops.append(index)
                continue
            result.mem_intervals[index] = (addr[0], addr[1] + width,
                                           addr[2])
            lo = addr[0] if lo is None else min(lo, addr[0])
            hi = addr[1] + width if hi is None else max(hi, addr[1] + width)
    if not result.unbounded_memops and lo is not None:
        result.footprint = (lo, hi)
    elif not result.unbounded_memops and lo is None:
        result.footprint = (0, 0)  # no memory ops at all


# ----------------------------------------------------------------------
# Diagnostics + certificate
# ----------------------------------------------------------------------
def _valid_regions(program):
    """[(start, end)) address ranges statically accepted for data access."""
    image_end = program.data_base + len(program.data_image)
    return [(program.data_base, image_end),
            (program.stack_top - STACK_WINDOW,
             program.stack_top + STACK_SLACK)]


def check_memory_bounds(program, severity_overrides=None, result=None):
    """``SR106``: constant-addressed memops must hit data or stack.

    Only a stride-0 (singleton) address interval is a proof, so every
    finding is a genuine out-of-footprint access; a program the
    analysis declines (indirect jumps, irreducible cycles) gets none.
    """
    if result is None:
        result = analyze_program(program)
    report = LintReport(program.name)
    regions = _valid_regions(program)
    for index, (lo, hi, stride) in sorted(result.mem_intervals.items()):
        if stride or any(start <= lo and hi <= end
                         for start, end in regions):
            continue
        report.add(make_diagnostic(
            "SR106",
            f"{program.instructions[index].opcode} at address {lo:#x} is "
            "outside the data image "
            f"[{regions[0][0]:#x}, {regions[0][1]:#x}) and the stack region",
            severity_overrides=severity_overrides,
            index=index, block=program.block_of(index),
            pc=program.pc_address(index),
            data={"address": lo, "width": hi - lo}))
    return report


def check_safety(program, severity_overrides=None, result=None):
    """``SR110``–``SR114``: safety-proof diagnostics for one program."""
    if result is None:
        result = analyze_program(program)
    report = LintReport(program.name)
    cfg = result.cfg
    for loop in result.loops:
        start = cfg.blocks[loop.header].start
        location = {"block": loop.header, "index": start,
                    "pc": program.pc_address(start)}
        if loop.trip_bound is not None:
            bound_kind = "exactly" if loop.exact else "at most"
            report.add(make_diagnostic(
                "SR110",
                f"loop at bb{loop.header} executes {bound_kind} "
                f"{loop.trip_bound} iterations",
                severity_overrides=severity_overrides,
                data={"trip_bound": loop.trip_bound, "exact": loop.exact,
                      "countdowns": len(loop.countdowns)},
                **location))
        else:
            report.add(make_diagnostic(
                "SR111",
                f"cannot bound the trip count of the loop at "
                f"bb{loop.header}"
                + (f" ({loop.reason})" if loop.reason else ""),
                severity_overrides=severity_overrides,
                data={"reason": loop.reason}, **location))
    if result.degraded and not result.loops:
        report.add(make_diagnostic(
            "SR111", f"termination analysis declined: {result.degraded}",
            severity_overrides=severity_overrides,
            data={"reason": result.degraded}))
    if result.terminates:
        report.add(make_diagnostic(
            "SR112",
            f"program terminates within {result.instruction_bound} "
            "dynamic instructions",
            severity_overrides=severity_overrides,
            data={"instruction_bound": result.instruction_bound}))
    if result.footprint is not None:
        lo, hi = result.footprint
        report.add(make_diagnostic(
            "SR113",
            f"every memory access stays within [{lo:#x}, {hi:#x}) "
            f"({hi - lo} bytes)",
            severity_overrides=severity_overrides,
            data={"lo": lo, "hi": hi, "bytes": hi - lo}))
    elif result.unbounded_memops or result.degraded:
        count = len(result.unbounded_memops)
        message = (f"{count} memory operation(s) have no provable "
                   "address bound" if count else
                   f"footprint analysis declined: {result.degraded}")
        report.add(make_diagnostic(
            "SR114", message,
            severity_overrides=severity_overrides,
            data={"unbounded": result.unbounded_memops[:16],
                  "count": count}))
    return report


def safety_certificate(program, result=None):
    """Machine-readable proof summary for manifests and artifact stores."""
    if result is None:
        result = analyze_program(program)
    loops = [{"header": loop.header,
              "trip_bound": loop.trip_bound,
              "exact": loop.exact,
              "countdowns": len(loop.countdowns)}
             for loop in result.loops]
    footprint = None
    if result.footprint is not None:
        lo, hi = result.footprint
        footprint = {"lo": lo, "hi": hi, "bytes": hi - lo}
    return {
        "schema": CERTIFICATE_SCHEMA_VERSION,
        "program": program.name,
        "terminates": result.terminates,
        "instruction_bound": result.instruction_bound,
        "loops": loops,
        "footprint": footprint,
        "unbounded_memops": len(result.unbounded_memops),
        "degraded": result.degraded or None,
    }
