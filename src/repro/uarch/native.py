"""Native sweep kernels: the timing inner loop, the LRU stack pass and
the table branch predictors.

The per-config cost of a grid study is dominated by executing run()'s
integer scheduling recurrence ~60k times per config.  Every input to
that recurrence is already columnar — the digest's event streams, the
banks' per-access latencies, the program's decode columns — so the loop
ports directly to a ~100-line C function over int64 arrays with *no*
per-instruction Python anywhere.  The cache layer's hot loop ports the
same way, as one exact-LRU kernel: a stack pass (Mattson et al.) that
records each access's depth in its set's LRU stack, so one pass per
(line size, set count) answers every associativity of
``simulate_cache_sweep``, and a pass ``ways`` deep flags each access
of a cache bank the sweep builds.  So does the replay of a branch
stream through a table of 2-bit counters (bimodal, GAp, gshare), which
builds every predictor bank.  Banks are rebuilt from the trace in
memory rather than stored: with these loops a rebuild costs less than
an artifact-store load.

This module embeds the three C functions in one source (ports of
``PipelineModel.run``'s scheduling loop, ``cache.Cache`` and the table
predictors, asserted equivalent by the corpus differential suites and
a property test), compiles it once per machine through the shared
:mod:`repro.native` toolchain into a content-addressed shared library
under the repro cache dir, and exposes it through ctypes.  No
third-party packages, no CPython API: plain arrays in, final counters
out.

The scheduling loop also comes as a lane kernel, ``repro_run_lanes``,
that times up to 8 same-shape configs in one pass over the digest, one
config per int64 vector lane (:func:`run_lanes`).  Its width is the
host's (:func:`lane_width`: 8 under AVX-512F/VL/DQ, 4 under AVX2, 0
otherwise, asked of the ``sweeploop`` library); it is compiled, for
that width only, into its own cached library the first time a sweep
uses lanes, through a per-function target attribute, so the shared
``cc`` line stays as it is.

No C compiler, a failed compile, or ``REPRO_NATIVE=off`` simply means
:func:`available` is False: the sweep then times every config with the
spec, ``PipelineModel.run``, ``simulate_cache_sweep`` replays every
config with the spec, ``simulate_cache``, and predictor banks replay
the spec predictor.  The semantics are identical either way; only the
wall time differs.
"""

import ctypes

import numpy as np

from repro.isa.instructions import IClass
from repro.native import toolchain

#: The class codes are baked into the C source; fail loudly at import
#: if the ISA enumeration ever drifts.
assert (int(IClass.IDIV), int(IClass.FDIV), int(IClass.LOAD),
        int(IClass.JUMP)) == (2, 5, 6, 9)

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* run()'s scheduling recurrence over dynamic positions [0, n) from
 * the fresh state _initial_state packs, consuming precomputed
 * cache/predictor event streams by cursor.  The packed state is 19
 * scalars, 64 register-ready times, the ROB/LSQ/fetch-queue rings, and
 * the flattened FU pools; the final scalars are written back to sc. */
int64_t repro_run_range(
    int64_t n,
    const int64_t *pcs,
    const int32_t *st_iclass, const int32_t *st_dest,
    const int32_t *st_src1, const int32_t *st_src2,
    const int32_t *st_pool,
    const int64_t *latency_of_class,
    const int64_t *iacc_pos, const int64_t *iacc_extra, int64_t n_iacc,
    const int64_t *m_pos, const int64_t *dacc_lat, int64_t n_mem,
    const int64_t *b_pos, const uint8_t *b_taken, const uint8_t *b_miss,
    int64_t n_branch,
    int64_t width, int64_t in_order, int64_t rob_size, int64_t lsq_size,
    int64_t fetch_queue, int64_t mispredict_penalty, int64_t decode_depth,
    const int64_t *pool_base, const int64_t *pool_sizes,
    int64_t *sc, int64_t *reg_ready, int64_t *rob_ring,
    int64_t *lsq_ring, int64_t *fetchq_ring, int64_t *fus)
{
    int64_t i = sc[0], fetch_cycle = sc[1], fetch_used = sc[2];
    int64_t fetch_break = sc[3], fetch_stall_until = sc[4];
    int64_t last_issue = sc[5], last_commit = sc[6], mem_index = sc[7];
    int64_t dispatch_cycle = sc[8], dispatch_used = sc[9];
    int64_t commit_cycle = sc[10], commit_used = sc[11];
    int64_t rob_stalls = sc[12], lsq_stalls = sc[13];
    int64_t fetch_queue_stalls = sc[14], redirect_cycles = sc[15];
    int64_t ii = sc[16], di = sc[17], bi = sc[18];

    for (int64_t position = 0; position < n; position++) {
        int64_t pc = pcs[position];
        int32_t iclass = st_iclass[pc];

        /* fetch */
        if (fetch_stall_until > fetch_cycle) {
            redirect_cycles += fetch_stall_until - fetch_cycle;
            fetch_cycle = fetch_stall_until;
            fetch_used = 0;
            fetch_break = 0;
        }
        if (ii < n_iacc && iacc_pos[ii] == position) {
            int64_t extra = iacc_extra[ii];
            ii++;
            if (extra) {
                fetch_cycle += extra;
                fetch_used = 0;
                fetch_break = 0;
            }
        }
        if (fetch_break || fetch_used >= width) {
            fetch_cycle += 1;
            fetch_used = 0;
            fetch_break = 0;
        }
        int64_t fetch_time = fetch_cycle;
        fetch_used += 1;

        int64_t queue_slot = i % fetch_queue;
        if (fetch_time < fetchq_ring[queue_slot]) {
            fetch_time = fetchq_ring[queue_slot];
            fetch_cycle = fetch_time;
            fetch_used = 1;
            fetch_queue_stalls += 1;
        }

        /* dispatch */
        int64_t dispatch_earliest = fetch_time + decode_depth;
        int64_t rob_slot = i % rob_size;
        if (rob_ring[rob_slot] > dispatch_earliest) {
            dispatch_earliest = rob_ring[rob_slot];
            rob_stalls += 1;
        }
        int is_mem = (di < n_mem && m_pos[di] == position);
        int64_t lsq_slot = 0;
        if (is_mem) {
            lsq_slot = mem_index % lsq_size;
            if (lsq_ring[lsq_slot] > dispatch_earliest) {
                dispatch_earliest = lsq_ring[lsq_slot];
                lsq_stalls += 1;
            }
        }
        if (dispatch_earliest > dispatch_cycle) {
            dispatch_cycle = dispatch_earliest;
            dispatch_used = 1;
        } else if (dispatch_used < width) {
            dispatch_used += 1;
        } else {
            dispatch_cycle += 1;
            dispatch_used = 1;
        }
        fetchq_ring[queue_slot] = dispatch_cycle;

        /* issue */
        int64_t ready = dispatch_cycle + 1;
        int32_t src = st_src1[pc];
        if (src >= 0) {
            if (reg_ready[src] > ready) ready = reg_ready[src];
            src = st_src2[pc];
            if (src >= 0 && reg_ready[src] > ready) ready = reg_ready[src];
        }
        if (in_order && ready < last_issue) ready = last_issue;

        int32_t pool = st_pool[pc];
        int64_t base = pool_base[pool];
        int64_t end = base + pool_sizes[pool];
        int64_t unit = base;
        int64_t unit_free = fus[base];
        for (int64_t u = base + 1; u < end; u++) {
            if (fus[u] < unit_free) {
                unit_free = fus[u];
                unit = u;
            }
        }
        int64_t issue_time = ready > unit_free ? ready : unit_free;
        if (in_order) last_issue = issue_time;

        /* execute */
        int64_t complete;
        if (is_mem) {
            complete = issue_time + (iclass == 6 ? dacc_lat[di] : 1);
            di++;
        } else {
            complete = issue_time + latency_of_class[iclass];
        }
        fus[unit] = (iclass == 2 || iclass == 5) ? complete
                                                 : issue_time + 1;
        int32_t dest = st_dest[pc];
        if (dest >= 0) reg_ready[dest] = complete;

        /* control flow */
        if (bi < n_branch && b_pos[bi] == position) {
            if (b_miss[bi]) {
                int64_t redirect = complete + mispredict_penalty;
                if (redirect > fetch_stall_until)
                    fetch_stall_until = redirect;
            } else if (b_taken[bi]) {
                fetch_break = 1;
            }
            bi++;
        } else if (iclass == 9) {
            fetch_break = 1;
        }

        /* commit */
        int64_t commit_earliest = complete + 1;
        if (commit_earliest < last_commit) commit_earliest = last_commit;
        if (commit_earliest > commit_cycle) {
            commit_cycle = commit_earliest;
            commit_used = 1;
        } else if (commit_used < width) {
            commit_used += 1;
        } else {
            commit_cycle += 1;
            commit_used = 1;
        }
        last_commit = commit_cycle;
        rob_ring[rob_slot] = commit_cycle;
        if (is_mem) {
            lsq_ring[lsq_slot] = commit_cycle;
            mem_index += 1;
        }
        i += 1;
    }

    sc[0] = i; sc[1] = fetch_cycle; sc[2] = fetch_used;
    sc[3] = fetch_break; sc[4] = fetch_stall_until;
    sc[5] = last_issue; sc[6] = last_commit; sc[7] = mem_index;
    sc[8] = dispatch_cycle; sc[9] = dispatch_used;
    sc[10] = commit_cycle; sc[11] = commit_used;
    sc[12] = rob_stalls; sc[13] = lsq_stalls;
    sc[14] = fetch_queue_stalls; sc[15] = redirect_cycles;
    sc[16] = ii; sc[17] = di; sc[18] = bi;
    return 0;
}

/* True-LRU stack pass (Mattson et al., 1970) of n addresses over sets
 * sets, each an MRU-first array of up to depth blocks; the set index
 * follows repro.uarch.cache.Cache: & for power-of-two set counts, else
 * a non-negative %.  An access found at stack depth d hits in every LRU
 * cache of this set count with more than d ways: it bumps hist[d] and
 * sets hits[i], which is 0 for a block not within depth.  At the end
 * fills[k] counts the sets holding k blocks.  Any of hist, fills and
 * hits may be NULL.  Returns 0, or -1 if allocation fails. */
int64_t repro_lru_stack(
    const int64_t *addresses, int64_t n, int64_t line_shift,
    int64_t sets, int64_t depth, int64_t *hist, int64_t *fills,
    uint8_t *hits)
{
    int64_t *tags = malloc(sizeof(int64_t) * sets * depth);
    int64_t *fill = calloc(sets, sizeof(int64_t));
    int pow2 = (sets & (sets - 1)) == 0;
    if (!tags || !fill) {
        free(tags);
        free(fill);
        return -1;
    }
    for (int64_t i = 0; i < n; i++) {
        int64_t block = addresses[i] >> line_shift;
        int64_t index = pow2 ? block & (sets - 1) : block % sets;
        if (index < 0) index += sets;
        int64_t *way = tags + index * depth;
        int64_t used = fill[index], d = 0;
        while (d < used && way[d] != block) d++;
        if (hits) hits[i] = d < used;
        if (d == used) {
            if (used < depth) fill[index] = used + 1;
            else d = depth - 1;
        } else if (hist) hist[d]++;
        for (; d > 0; d--) way[d] = way[d - 1];
        way[0] = block;
    }
    if (fills)
        for (int64_t s = 0; s < sets; s++) fills[fill[s]]++;
    free(tags);
    free(fill);
    return 0;
}

/* Exact port of the table predictors in repro.uarch.branch_predictors
 * (Bimodal, TwoLevelGAp, GShare) over n resolved branches: each looks
 * up the 2-bit counter at ((pc & pc_mask) << pc_shift ^ history) &
 * table_mask, where history holds the last history_bits outcomes,
 * newest in bit 0.  counters (table_mask + 1 of them, every one 1 on
 * entry) are updated in place; miss[i] is 1 where branch i was
 * mispredicted.  Unsigned arithmetic keeps any pc well defined. */
void repro_predict_counters(
    const int64_t *pcs, const uint8_t *taken, int64_t n, uint64_t pc_mask,
    int64_t pc_shift, int64_t history_bits, uint64_t table_mask,
    uint8_t *counters, uint8_t *miss)
{
    uint64_t history = 0;
    uint64_t history_mask = (UINT64_C(1) << history_bits) - 1;
    for (int64_t i = 0; i < n; i++) {
        uint64_t index = ((((uint64_t)pcs[i] & pc_mask) << pc_shift)
                          ^ history) & table_mask;
        uint8_t counter = counters[index];
        uint8_t outcome = taken[i] != 0;
        miss[i] = (counter >= 2) != outcome;
        if (outcome) {
            if (counter < 3) counters[index] = counter + 1;
        } else if (counter > 0) {
            counters[index] = counter - 1;
        }
        history = ((history << 1) | outcome) & history_mask;
    }
}

/* How many configs this host's lane kernel times per pass: 8 under
 * AVX-512F/VL/DQ, 4 under AVX2, 0 where neither (or no x86-64). */
int repro_lane_width(void)
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512vl")
        && __builtin_cpu_supports("avx512dq"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 0;
}
"""

#: Per lane width, the instruction sets its lane kernel is compiled for
#: (a per-function target attribute, so the shared cc line is unchanged).
LANE_TARGETS = {8: "avx512f,avx512vl,avx512dq", 4: "avx2"}

#: repro_run_range for LANES configs at once.  The configs share what
#: the shape of the state depends on (ring sizes, FU pools, the I-line
#: size, so also the I-access event positions); each lane keeps its own
#: 14 scheduling scalars, rings, register-ready and FU-free times as
#: int64 vector elements, and every data-dependent branch of the scalar
#: loop becomes a mask select, or a max/min where it only keeps the
#: later time (one instruction under AVX-512, off the compare's latency;
#: written as inline asm because the intrinsic headers add ~0.4 s of
#: cc).  Per-position work that does not depend on the config (pc,
#: decode columns, event cursors, ring slots, the FU pool walk) is done
#: once for all lanes.  Per-lane event outcomes are read through one
#: pointer per lane.  out receives the 19 final scalars, lane-minor
#: (out[k * LANES + lane]); returns -1 if allocation fails.  Prefixed
#: with LANES and LANE_TARGET defines.
_LANE_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t vec __attribute__((vector_size(8 * LANES)));

#define SEL(m, a, b) (((a) & (m)) | ((b) & ~(m)))
#if LANES == 8
#define MAX(a, b) ({ vec r_; __asm__("vpmaxsq %2, %1, %0" : "=v"(r_)    \
                                    : "v"((vec)(a)), "v"((vec)(b))); r_; })
#define MIN(a, b) ({ vec r_; __asm__("vpminsq %2, %1, %0" : "=v"(r_)    \
                                    : "v"((vec)(a)), "v"((vec)(b))); r_; })
#else
#define MAX(a, b) SEL((a) > (b), (a), (b))
#define MIN(a, b) SEL((a) < (b), (a), (b))
#endif
#define GATHER(dst, ptrs, index)                                    \
    do {                                                            \
        _Pragma("GCC unroll 8")                                     \
        for (int l_ = 0; l_ < LANES; l_++)                          \
            (dst)[l_] = (ptrs)[l_][index];                          \
    } while (0)

static vec *lane_alloc(int64_t count)
{
    vec *block = aligned_alloc(sizeof(vec), (size_t)count * sizeof(vec));
    if (block) memset(block, 0, (size_t)count * sizeof(vec));
    return block;
}

__attribute__((target(LANE_TARGET)))
int64_t repro_run_lanes(
    int64_t n,
    const int64_t *pcs,
    const int32_t *st_iclass, const int32_t *st_dest,
    const int32_t *st_src1, const int32_t *st_src2,
    const int32_t *st_pool,
    const int64_t *lane_cfg,
    const int64_t *iacc_pos, const int64_t *const *iacc_extra,
    int64_t n_iacc,
    const int64_t *m_pos, const int64_t *const *dacc_lat, int64_t n_mem,
    const int64_t *b_pos, const uint8_t *b_taken,
    const uint8_t *const *b_miss, int64_t n_branch,
    int64_t rob_size, int64_t lsq_size, int64_t fetch_queue,
    int64_t decode_depth,
    const int64_t *pool_base, const int64_t *pool_sizes, int64_t units,
    int64_t *out)
{
    /* lane_cfg rows: width, in_order, mispredict penalty, then the 11
     * per-class latencies. */
    vec width, in_order, penalty, latency[11];
    memcpy(&width, lane_cfg, sizeof(vec));
    memcpy(&in_order, lane_cfg + LANES, sizeof(vec));
    memcpy(&penalty, lane_cfg + 2 * LANES, sizeof(vec));
    for (int k = 0; k < 11; k++)
        memcpy(&latency[k], lane_cfg + (3 + k) * LANES, sizeof(vec));
    in_order = in_order != 0;

    vec *reg_ready = lane_alloc(64);
    vec *rob_ring = lane_alloc(rob_size);
    vec *lsq_ring = lane_alloc(lsq_size);
    vec *fetchq_ring = lane_alloc(fetch_queue);
    vec *fus = lane_alloc(units);
    if (!reg_ready || !rob_ring || !lsq_ring || !fetchq_ring || !fus) {
        free(reg_ready); free(rob_ring); free(lsq_ring);
        free(fetchq_ring); free(fus);
        return -1;
    }

    const vec zero = {0}, one = zero + 1;
    vec fetch_cycle = zero, fetch_used = zero, fetch_break = zero;
    vec fetch_stall_until = zero, last_issue = zero, last_commit = zero;
    vec dispatch_cycle = zero - 1, dispatch_used = zero;
    vec commit_cycle = zero - 1, commit_used = zero;
    vec rob_stalls = zero, lsq_stalls = zero;
    vec fetch_queue_stalls = zero, redirect_cycles = zero;
    int64_t mem_index = 0, ii = 0, di = 0, bi = 0;
    int64_t queue_slot = 0, rob_slot = 0, lsq_slot = 0;

    for (int64_t position = 0; position < n; position++) {
        int64_t pc = pcs[position];
        int32_t iclass = st_iclass[pc];
        vec m, m2;

        /* fetch */
        vec gap = fetch_stall_until - fetch_cycle;
        m = gap > 0;
        redirect_cycles += MAX(gap, zero);
        fetch_cycle = MAX(fetch_cycle, fetch_stall_until);
        fetch_used &= ~m;
        fetch_break &= ~m;
        if (ii < n_iacc && iacc_pos[ii] == position) {
            vec extra;
            GATHER(extra, iacc_extra, ii);
            ii++;
            m = extra != 0;
            fetch_cycle += extra;
            fetch_used &= ~m;
            fetch_break &= ~m;
        }
        m = (fetch_break != 0) | (fetch_used >= width);
        fetch_cycle -= m;
        fetch_used &= ~m;
        fetch_break &= ~m;
        vec fetch_time = fetch_cycle;
        fetch_used += 1;

        vec queued = fetchq_ring[queue_slot];
        m = fetch_time < queued;
        fetch_time = MAX(fetch_time, queued);
        fetch_cycle = fetch_time;
        fetch_used = SEL(m, one, fetch_used);
        fetch_queue_stalls -= m;

        /* dispatch */
        vec dispatch_earliest = fetch_time + decode_depth;
        vec held = rob_ring[rob_slot];
        rob_stalls -= held > dispatch_earliest;
        dispatch_earliest = MAX(dispatch_earliest, held);
        int is_mem = (di < n_mem && m_pos[di] == position);
        if (is_mem) {
            held = lsq_ring[lsq_slot];
            lsq_stalls -= held > dispatch_earliest;
            dispatch_earliest = MAX(dispatch_earliest, held);
        }
        /* a later dispatch_earliest opens a new cycle; otherwise a full
         * port moves on one cycle, which never passes it */
        m = dispatch_earliest > dispatch_cycle;
        m2 = dispatch_used < width;
        dispatch_used = SEL(m2 & ~m, dispatch_used + 1, one);
        dispatch_cycle = MAX(dispatch_earliest, dispatch_cycle - ~m2);
        fetchq_ring[queue_slot] = dispatch_cycle;

        /* issue */
        vec ready = dispatch_cycle + 1;
        int32_t src = st_src1[pc];
        if (src >= 0) {
            ready = MAX(reg_ready[src], ready);
            src = st_src2[pc];
            if (src >= 0) ready = MAX(reg_ready[src], ready);
        }
        /* last_issue stays 0 in out-of-order lanes, and ready >= 1 */
        ready = MAX(last_issue, ready);

        int32_t pool = st_pool[pc];
        int64_t base = pool_base[pool];
        int64_t end = base + pool_sizes[pool];
        vec unit_free = fus[base];
        for (int64_t u = base + 1; u < end; u++)
            unit_free = MIN(unit_free, fus[u]);
        vec issue_time = MAX(ready, unit_free);
        last_issue = SEL(in_order, issue_time, last_issue);

        /* execute */
        vec complete;
        if (is_mem) {
            if (iclass == 6) {
                vec lat;
                GATHER(lat, dacc_lat, di);
                complete = issue_time + lat;
            } else {
                complete = issue_time + 1;
            }
            di++;
        } else {
            complete = issue_time + latency[iclass];
        }
        vec busy = (iclass == 2 || iclass == 5) ? complete : issue_time + 1;
        if (end - base == 1) {
            fus[base] = busy;
        } else {
            /* the first unit that frees earliest takes the instruction */
            vec free_unit = zero - 1;
            for (int64_t u = base; u < end; u++) {
                m = free_unit & (fus[u] == unit_free);
                fus[u] = SEL(m, busy, fus[u]);
                free_unit &= ~m;
            }
        }
        int32_t dest = st_dest[pc];
        if (dest >= 0) reg_ready[dest] = complete;

        /* control flow */
        if (bi < n_branch && b_pos[bi] == position) {
            vec miss;
            GATHER(miss, b_miss, bi);
            miss = miss != 0;
            vec redirect = complete + penalty;
            m = miss & (redirect > fetch_stall_until);
            fetch_stall_until = SEL(m, redirect, fetch_stall_until);
            if (b_taken[bi]) fetch_break = SEL(miss, fetch_break, one);
            bi++;
        } else if (iclass == 9) {
            fetch_break = one;
        }

        /* commit */
        vec commit_earliest = MAX(complete + 1, last_commit);
        m = commit_earliest > commit_cycle;
        m2 = commit_used < width;
        commit_used = SEL(m2 & ~m, commit_used + 1, one);
        commit_cycle = MAX(commit_earliest, commit_cycle - ~m2);
        last_commit = commit_cycle;
        rob_ring[rob_slot] = commit_cycle;
        if (is_mem) {
            lsq_ring[lsq_slot] = commit_cycle;
            mem_index += 1;
            if (++lsq_slot == lsq_size) lsq_slot = 0;
        }
        if (++queue_slot == fetch_queue) queue_slot = 0;
        if (++rob_slot == rob_size) rob_slot = 0;
    }

    vec scalars[19] = {
        zero + n, fetch_cycle, fetch_used, fetch_break, fetch_stall_until,
        last_issue, last_commit, zero + mem_index, dispatch_cycle,
        dispatch_used, commit_cycle, commit_used, rob_stalls, lsq_stalls,
        fetch_queue_stalls, redirect_cycles, zero + ii, zero + di,
        zero + bi};
    memcpy(out, scalars, sizeof(scalars));
    free(reg_ready); free(rob_ring); free(lsq_ring);
    free(fetchq_ring); free(fus);
    return 0;
}
"""

_I64 = ctypes.POINTER(ctypes.c_int64)
_I32 = ctypes.POINTER(ctypes.c_int32)
_U8 = ctypes.POINTER(ctypes.c_uint8)

#: None = not yet probed, False = unavailable, else the ctypes library.
_LIBRARY = None

#: Lane width -> the lane kernel's ctypes function, or False when it
#: did not build; filled on first lane use of that width.
_LANE_KERNELS = {}


def _load():
    """The ctypes library, probing/compiling on first use."""
    global _LIBRARY
    if _LIBRARY is not None:
        return _LIBRARY or None
    library = toolchain.load_library(_C_SOURCE, "sweeploop")
    if library is None:
        _LIBRARY = False
        return None
    library.repro_run_range.restype = ctypes.c_int64
    library.repro_run_range.argtypes = [
        ctypes.c_int64,                                    # n
        _I64,                                              # pcs
        _I32, _I32, _I32, _I32, _I32,                      # static
        _I64,                                              # latencies
        _I64, _I64, ctypes.c_int64,                        # iacc
        _I64, _I64, ctypes.c_int64,                        # dacc
        _I64, _U8, _U8, ctypes.c_int64,                    # branches
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64,                                    # config
        _I64, _I64,                                        # pools
        _I64, _I64, _I64, _I64, _I64, _I64,                # state
    ]
    library.repro_lru_stack.restype = ctypes.c_int64
    library.repro_lru_stack.argtypes = [
        _I64, ctypes.c_int64, ctypes.c_int64,              # stream, shift
        ctypes.c_int64, ctypes.c_int64,                    # sets, depth
        _I64, _I64, _U8,                                   # hist, fills, hits
    ]
    library.repro_predict_counters.restype = None
    library.repro_predict_counters.argtypes = [
        _I64, _U8, ctypes.c_int64,                         # branches
        ctypes.c_uint64, ctypes.c_int64,                   # pc mask, shift
        ctypes.c_int64, ctypes.c_uint64,                   # history, table
        _U8, _U8,                                          # counters, miss
    ]
    library.repro_lane_width.restype = ctypes.c_int
    library.repro_lane_width.argtypes = []
    _LIBRARY = library
    return _LIBRARY


def available():
    """Whether the native loop can be used (compiles lazily)."""
    return _load() is not None


def reset():
    """Forget the probe result (tests toggling REPRO_NATIVE)."""
    global _LIBRARY
    _LIBRARY = None
    _LANE_KERNELS.clear()
    toolchain.reset()


def lane_width():
    """Configs one lane pass times on this host: 8 under AVX-512F/VL/DQ,
    4 under AVX2, 0 without either or without the native loop."""
    library = _load()
    return library.repro_lane_width() if library else 0


def lanes_available(width):
    """Whether the ``width``-lane kernel builds and loads (compiling it
    on first use); without it every config is timed alone."""
    return _lane_kernel(width) is not None


def _lane_kernel(width):
    """``repro_run_lanes`` built for ``width`` lanes, compiling its own
    cached library on first use; None if it does not build."""
    kernel = _LANE_KERNELS.get(width)
    if kernel is None:
        source = (f"#define LANES {width}\n"
                  f"#define LANE_TARGET \"{LANE_TARGETS[width]}\"\n"
                  + _LANE_SOURCE)
        library = toolchain.load_library(source, f"sweeplanes{width}")
        kernel = False
        if library is not None:
            kernel = library.repro_run_lanes
            kernel.restype = ctypes.c_int64
            kernel.argtypes = [
                ctypes.c_int64, _I64,                      # n, pcs
                _I32, _I32, _I32, _I32, _I32,              # static
                _I64,                                      # lane configs
                _I64, ctypes.c_void_p, ctypes.c_int64,     # iacc
                _I64, ctypes.c_void_p, ctypes.c_int64,     # dacc
                _I64, _U8, ctypes.c_void_p, ctypes.c_int64,  # branches
                ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64,                            # rings, depth
                _I64, _I64, ctypes.c_int64,                # pools
                _I64,                                      # out
            ]
        _LANE_KERNELS[width] = kernel
    return kernel or None


def _static_columns(columns):
    """C-facing int32 copies of the decode columns, built once."""
    cached = columns.derived.get("native_static")
    if cached is None:
        cached = (
            columns.iclass.astype(np.int32),
            columns.dest.astype(np.int32),
            columns.src1.astype(np.int32),
            columns.src2.astype(np.int32),
            np.asarray(columns.pool_list, dtype=np.int32),
        )
        columns.derived["native_static"] = cached
    return cached


def _ptr64(array):
    return array.ctypes.data_as(_I64)


def _initial_state(config):
    """Fresh packed scheduling state: ``(scalars, reg_ready, rob_ring,
    lsq_ring, fetchq_ring, fus)`` int64 arrays, in the scalar order the
    C loop unpacks.  The values mirror run()'s locals: everything
    starts at 0 except the two bandwidth ports' cycles, which start at
    -1."""
    scalars = np.zeros(19, dtype=np.int64)
    scalars[8] = scalars[10] = -1  # dispatch_cycle, commit_cycle
    units = (config.n_int_alu + config.n_int_mul + config.n_fp_alu
             + config.n_fp_mul + config.n_mem_ports)
    return (scalars, np.zeros(64, dtype=np.int64),
            np.zeros(config.rob_size, dtype=np.int64),
            np.zeros(config.lsq_size, dtype=np.int64),
            np.zeros(config.fetch_queue, dtype=np.int64),
            np.zeros(int(units), dtype=np.int64))


def run_range(total, digest, config, cache_bank, pred_bank):
    """Time dynamic positions ``[0, total)`` of ``digest``'s trace on
    ``config`` in C, from a fresh state; returns the final scalars.

    Index 6 is the last commit cycle and indices 12–15 are the ROB,
    LSQ, fetch-queue stall and redirect-cycle counters.
    """
    function, args, scalars = range_call(total, digest, config, cache_bank,
                                         pred_bank)
    function(*args)
    return scalars


def range_call(total, digest, config, cache_bank, pred_bank):
    """:func:`run_range` as a bare C call, ``(function, args, scalars)``:
    ``function(*args)`` fills ``scalars`` once, from a fresh state."""
    iclass, dest, src1, src2, pool = _static_columns(digest.static)
    latencies = np.array(_latencies(config), dtype=np.int64)
    iacc_pos, _ = digest.iacc(cache_bank.shift)
    sizes, base = _pools(config)
    state = _initial_state(config)
    args = (
        total, _ptr64(digest.pcs),
        iclass.ctypes.data_as(_I32), dest.ctypes.data_as(_I32),
        src1.ctypes.data_as(_I32), src2.ctypes.data_as(_I32),
        pool.ctypes.data_as(_I32), _ptr64(latencies),
        _ptr64(iacc_pos), _ptr64(cache_bank.iacc_extra), len(iacc_pos),
        _ptr64(digest.m_pos), _ptr64(cache_bank.dacc_lat),
        len(digest.m_pos), _ptr64(digest.b_pos),
        digest.b_taken.ctypes.data_as(_U8),
        pred_bank.miss.ctypes.data_as(_U8), len(digest.b_pos),
        config.width, int(config.in_order), config.rob_size,
        config.lsq_size, config.fetch_queue, config.mispredict_penalty,
        _decode_depth(), _ptr64(base), _ptr64(sizes),
        *(_ptr64(array) for array in state))
    return _load().repro_run_range, args, state[0]


def run_lanes(total, digest, configs, cache_banks, pred_banks, width):
    """Time positions ``[0, total)`` of ``digest``'s trace on up to
    ``width`` same-shape ``configs`` in one pass of the lane kernel.

    ``cache_banks`` and ``pred_banks`` run parallel to ``configs``; the
    configs must agree on ``sweep._shape_key``.  Unused lanes repeat
    the first config.  Returns a ``(19, len(configs))`` array: column
    ``k`` holds config ``k``'s final scalars in :func:`run_range`'s
    order.
    """
    function, args, out = lanes_call(total, digest, configs, cache_banks,
                                     pred_banks, width)
    if function(*args) < 0:
        raise MemoryError(f"cannot allocate lane state for {width} lanes")
    return out[:, :len(configs)]


def lanes_call(total, digest, configs, cache_banks, pred_banks, width):
    """:func:`run_lanes` as a bare C call, ``(function, args, out)``:
    ``function(*args)`` fills the ``(19, width)`` array ``out`` and
    returns -1 if it cannot allocate.  The banks must outlive the call:
    ``args`` holds only their addresses."""
    # The lanes share the I-access event positions, so every lane's
    # iacc_extra must be as long as the first one's.
    if not 0 < len(configs) <= width \
            or len({bank.shift for bank in cache_banks}) != 1:
        raise ValueError(f"a lane pass takes 1-{width} configs of one "
                         f"I-line size")
    lanes = list(range(len(configs))) + [0] * (width - len(configs))
    first = configs[0]
    iclass, dest, src1, src2, pool = _static_columns(digest.static)
    lane_cfg = np.array(
        [(configs[lane].width, int(configs[lane].in_order),
          configs[lane].mispredict_penalty, *_latencies(configs[lane]))
         for lane in lanes], dtype=np.int64).T.copy()
    iacc_pos, _ = digest.iacc(cache_banks[0].shift)

    def table(arrays):
        return (ctypes.c_void_p * width)(
            *(arrays[lane].ctypes.data for lane in lanes))
    sizes, base = _pools(first)
    out = np.empty((19, width), dtype=np.int64)
    args = (
        total, _ptr64(digest.pcs),
        iclass.ctypes.data_as(_I32), dest.ctypes.data_as(_I32),
        src1.ctypes.data_as(_I32), src2.ctypes.data_as(_I32),
        pool.ctypes.data_as(_I32), _ptr64(lane_cfg),
        _ptr64(iacc_pos), table([bank.iacc_extra for bank in cache_banks]),
        len(iacc_pos),
        _ptr64(digest.m_pos), table([bank.dacc_lat for bank in cache_banks]),
        len(digest.m_pos), _ptr64(digest.b_pos),
        digest.b_taken.ctypes.data_as(_U8),
        table([bank.miss for bank in pred_banks]), len(digest.b_pos),
        first.rob_size, first.lsq_size, first.fetch_queue, _decode_depth(),
        _ptr64(base), _ptr64(sizes), int(sizes.sum()), _ptr64(out))
    return _lane_kernel(width), args, out


def _latencies(config):
    """Execute latency per instruction class, in class-code order."""
    return (config.latency_ialu, config.latency_imul, config.latency_idiv,
            config.latency_falu, config.latency_fmul, config.latency_fdiv,
            0, 1, config.latency_ialu, config.latency_ialu,
            config.latency_ialu)


def _pools(config):
    """``(sizes, base)``: units per FU pool and each pool's first unit."""
    sizes = np.array(
        (config.n_int_alu, config.n_int_mul, config.n_fp_alu,
         config.n_fp_mul, config.n_mem_ports), dtype=np.int64)
    return sizes, np.concatenate(([0], np.cumsum(sizes)[:-1]))


def lru_stack(addresses, line_shift, sets, depth, hits=None):
    """One LRU stack pass of an int64 address stream over ``sets`` sets
    of ``depth`` blocks in C, for every associativity up to ``depth``.

    Blocks are ``address >> line_shift``.  Returns ``(hist, fills)``:
    ``hist[d]`` counts hits at stack depth ``d`` and ``fills[k]`` the
    sets left holding ``k`` blocks.  When ``hits`` (a bool array as long
    as the stream) is given, it receives one flag per access.
    """
    addresses = np.ascontiguousarray(addresses, dtype=np.int64)
    hist = np.zeros(depth, dtype=np.int64)
    fills = np.zeros(depth + 1, dtype=np.int64)
    if _load().repro_lru_stack(
            _ptr64(addresses), len(addresses), line_shift, sets, depth,
            _ptr64(hist), _ptr64(fills),
            None if hits is None else hits.ctypes.data_as(_U8)) < 0:
        raise MemoryError(f"cannot allocate LRU state for {sets} sets "
                          f"of {depth} blocks")
    return hist, fills


def predict_counters(pcs, taken, pc_mask, pc_shift, history_bits,
                     table_bits):
    """Per-branch mispredict flags of a table of ``2**table_bits`` 2-bit
    counters (all starting at 1) indexed by ``((pc & pc_mask) <<
    pc_shift) ^ history``, from ``repro_predict_counters``."""
    pcs = np.ascontiguousarray(pcs, dtype=np.int64)
    taken = np.ascontiguousarray(taken, dtype=bool).view(np.uint8)
    counters = np.ones(1 << table_bits, dtype=np.uint8)
    miss = np.empty(len(pcs), dtype=np.uint8)
    _load().repro_predict_counters(
        _ptr64(pcs), taken.ctypes.data_as(_U8), len(pcs),
        pc_mask & 0xFFFF_FFFF_FFFF_FFFF, pc_shift, history_bits,
        (1 << table_bits) - 1, counters.ctypes.data_as(_U8),
        miss.ctypes.data_as(_U8))
    return miss.view(bool)


def _decode_depth():
    from repro.uarch.pipeline import DECODE_DEPTH
    return DECODE_DEPTH
