"""Sweep kernel harness: the native scheduling loops timed on their own.

Times the two C loops ``simulate_pipeline_sweep`` spends its time in,
with every argument built before the clock starts, so no Python set-up
runs per config inside the timed region:

* ``repro_run_range`` — one config per call;
* ``repro_run_lanes`` — up to L same-shape configs per pass (L = 8
  under AVX-512F/VL/DQ, 4 under AVX2), at each lane width the host runs.

The inputs are clone digests and banks, built before the clock starts:
the crc32, sha, qsort and dijkstra clones (synthesis seed 42) on the
design-sweep grid (width × ROB × L1D × predictor, 108 configs) at its
60k-instruction cap.  Each kernel's grid is timed whole and cut into
the fleet's affinity blocks (27 configs each), with the sweep's own
pass plan (``sweep._lane_passes``) deciding which configs share a
pass.  Reported
per kernel: ns per instruction per config, one scalar config and one
full lane pass in ms, the pass cost in scalar-config units (the number
the sweep's remainder rule rests on), and grid and block totals.  Every
config's final scalars from the lane kernel must equal
``repro_run_range``'s.

Run as a script::

    python benchmarks/bench_sweep_kernel.py           # writes results/sweep_kernel.*
    python benchmarks/bench_sweep_kernel.py --smoke   # two kernels, persists nothing
"""

import json
import statistics
import time

import numpy as np

from repro.core.synthesizer import SynthesisParameters
from repro.exec.artifacts import pipeline_artifacts
from repro.fleet.recipe import recipe_from_dict
from repro.fleet.scheduler import recipe_blocks
from repro.uarch import native
from repro.uarch.sweep import (_cache_bank_for, _hierarchy_key,
                               _lane_passes, _pred_bank_for, _predictor_key,
                               trace_digest)
from repro.workloads import get_workload

from _shared import emit, maybe_journal

KERNELS = ("crc32", "sha", "qsort", "dijkstra")
SMOKE_KERNELS = ("crc32", "sha")

#: The design-sweep recipe's grid, seed and cap.
AXES = [
    ["width", [1, 2, 4]],
    ["rob_size", [16, 32, 64]],
    ["l1d", [[8192, 2, 32], [16384, 2, 32], [32768, 4, 32]]],
    ["predictor", ["nottaken", "bimodal", "gap", "gshare"]],
]
SEED = 42
CAP = 60_000

#: Timed rounds per measurement; each reports its median.
ROUNDS = 7
SMOKE_ROUNDS = 3


def _inputs(name):
    """The clone trace's digest, the grid's configs, its blocks (lists
    of config indices) and each config's (cache bank, predictor bank)."""
    recipe = recipe_from_dict({
        "name": "sweep-kernel", "kernels": [name], "subject": "clone",
        "seeds": [SEED], "pipeline_cap": CAP, "axes": AXES})
    cells = recipe.expand()
    trace = pipeline_artifacts(
        name, get_workload(name).source(), SynthesisParameters(seed=SEED),
        max_instructions=recipe.functional_cap).clone_trace
    digest = trace_digest(trace)
    configs = [cell.config for cell in cells]
    cache_banks, pred_banks = {}, {}
    for config in configs:
        key = _hierarchy_key(config)
        if key not in cache_banks:
            cache_banks[key] = _cache_bank_for(digest, config)
        key = _predictor_key(config)
        if key not in pred_banks:
            pred_banks[key] = _pred_bank_for(digest, config.predictor,
                                             config.predictor_kwargs)
    banks = [(cache_banks[_hierarchy_key(config)],
              pred_banks[_predictor_key(config)]) for config in configs]
    blocks = [[cell.index for cell in block.cells]
              for block in recipe_blocks(recipe, cells)]
    return trace, digest, configs, blocks, banks


def _median_seconds(run, rounds):
    """Median wall time of ``run(prepared)`` over ``rounds`` rounds,
    where ``run`` returns a zero-argument callable prepared untimed."""
    times = []
    for _ in range(rounds):
        timed = run()
        started = time.perf_counter()
        timed()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _scalar_calls(total, digest, configs, banks, indices):
    calls = [native.range_call(total, digest, configs[index], *banks[index])
             for index in indices]

    def timed():
        for function, args, _ in calls:
            function(*args)
    return timed, calls


def _lane_calls(total, digest, configs, banks, passes, width):
    calls = []
    for indices in passes:
        calls.append((indices, native.lanes_call(
            total, digest, [configs[index] for index in indices],
            [banks[index][0] for index in indices],
            [banks[index][1] for index in indices], width)))

    def timed():
        for _, (function, args, _out) in calls:
            if function(*args) < 0:
                raise MemoryError("lane state")
    return timed, calls


def _plan_seconds(total, digest, configs, banks, groups, width, rounds):
    """Median seconds to time every group of config indices with the
    sweep's plan: its lane passes, then its lone configs in scalar."""
    plan = [_lane_passes([configs[index] for index in group], width)
            for group in groups]
    passes = [[group[k] for k in indices]
              for group, (group_passes, _) in zip(groups, plan)
              for indices in group_passes]
    singles = [group[k] for group, (_, group_singles) in zip(groups, plan)
               for k in group_singles]

    def run():
        lanes, _ = _lane_calls(total, digest, configs, banks, passes, width)
        scalar, _ = _scalar_calls(total, digest, configs, banks, singles)
        return lambda: (lanes(), scalar())
    return _median_seconds(run, rounds), sum(map(len, passes))


def _measure_kernel(name, widths, rounds):
    trace, digest, configs, blocks, banks = _inputs(name)
    total = min(len(trace), CAP)
    everything = list(range(len(configs)))

    # Reference scalars, and the per-config scalar time.
    _, calls = _scalar_calls(total, digest, configs, banks, everything)
    for function, args, _ in calls:
        function(*args)
    reference = [scalars.copy() for _, _, scalars in calls]
    grid_scalar = _median_seconds(
        lambda: _scalar_calls(total, digest, configs, banks, everything)[0],
        rounds)
    row = {
        "kernel": name, "instructions": total, "configs": len(configs),
        "blocks": len(blocks),
        "scalar_ms_per_config": 1e3 * grid_scalar / len(configs),
        "scalar_ns_per_instr_config": 1e9 * grid_scalar
        / (len(configs) * total),
        "grid_scalar_ms": 1e3 * grid_scalar,
        "lanes": {},
    }
    for width in widths:
        full = [indices for indices in _lane_passes(configs, width)[0]
                if len(indices) == width]
        _, calls = _lane_calls(total, digest, configs, banks, full, width)
        for indices, (function, args, out) in calls:
            assert function(*args) == 0
            for lane, index in enumerate(indices):
                assert np.array_equal(out[:, lane], reference[index]), \
                    f"{name}: lane {lane} of {width} diverges on " \
                    f"{configs[index].name}"
        pass_seconds = _median_seconds(
            lambda: _lane_calls(total, digest, configs, banks, full,
                                width)[0], rounds) / len(full)
        grid_lanes, grid_lane_configs = _plan_seconds(
            total, digest, configs, banks, [everything], width, rounds)
        blocks_lanes, block_lane_configs = _plan_seconds(
            total, digest, configs, banks, blocks, width, rounds)
        row["lanes"][width] = {
            "pass_ms": 1e3 * pass_seconds,
            "pass_scalar_units": pass_seconds * len(configs) / grid_scalar,
            "ns_per_instr_config": 1e9 * pass_seconds / (width * total),
            "grid_ms": 1e3 * grid_lanes,
            "grid_lane_configs": grid_lane_configs,
            "blocks_ms": 1e3 * blocks_lanes,
            "blocks_lane_configs": block_lane_configs,
        }
    return row


def _measure(names, rounds):
    if not native.available():
        return {"native": False, "host_lane_width": 0, "rows": []}
    host = native.lane_width()
    widths = [width for width in sorted(native.LANE_TARGETS) if width <= host]
    return {"native": True, "host_lane_width": host, "widths": widths,
            "cap": CAP, "rounds": rounds,
            "rows": [_measure_kernel(name, widths, rounds)
                     for name in names]}


def _render(data):
    if not data["native"]:
        return "sweep kernel: no native loop on this host (nothing timed)"
    lines = [f"host lane width: {data['host_lane_width']} "
             f"(cap {data['cap']}, median of {data['rounds']} rounds; "
             f"every lane config's final scalars equal repro_run_range's)",
             "",
             f"{'kernel':<9} {'L':>2} {'scalar':>9} {'scalar':>8} "
             f"{'pass':>8} {'pass/':>6} {'lanes':>8} "
             f"{'scalar':>8} {'lanes ms':>16} {'lane':>8}",
             f"{'':<9} {'':>2} {'ns/i/cfg':>9} {'ms/cfg':>8} "
             f"{'ms':>8} {'scalar':>6} {'ns/i/cfg':>8} "
             f"{'ms':>8} {'grid  blocks':>16} {'configs':>8}"]
    for row in data["rows"]:
        for width, lane in row["lanes"].items():
            lines.append(
                f"{row['kernel']:<9} {width:>2} "
                f"{row['scalar_ns_per_instr_config']:>9.1f} "
                f"{row['scalar_ms_per_config']:>8.3f} "
                f"{lane['pass_ms']:>8.3f} {lane['pass_scalar_units']:>6.2f} "
                f"{lane['ns_per_instr_config']:>8.2f} "
                f"{row['grid_scalar_ms']:>8.1f} {lane['grid_ms']:>7.1f} "
                f"{lane['blocks_ms']:>8.1f} "
                f"{lane['blocks_lane_configs']:>4}/{row['configs']}")
    return "\n".join(lines)


def test_sweep_kernel(benchmark):
    from _shared import run_once
    data = run_once(benchmark, lambda: _measure(KERNELS, ROUNDS))
    emit("sweep_kernel", _render(data), data=data)


def main(argv=None):
    import argparse
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="two kernels, three rounds; persists nothing")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="also write the measured data as JSON")
    args = parser.parse_args(argv)
    names = SMOKE_KERNELS if args.smoke else KERNELS
    rounds = SMOKE_ROUNDS if args.smoke else ROUNDS
    with maybe_journal("sweep_kernel"):
        started = time.perf_counter()
        data = _measure(names, rounds)
        seconds = time.perf_counter() - started
    print(_render(data))
    if not args.smoke:
        emit("sweep_kernel", _render(data), data=data, wall_seconds=seconds)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"name": "sweep_kernel", "data": data}, handle,
                      indent=2)
            handle.write("\n")
    print(f"\nsweep-kernel bench OK ({'smoke, ' if args.smoke else ''}"
          f"{len(names)} kernels, host lane width "
          f"{data['host_lane_width']})")


if __name__ == "__main__":
    main()
