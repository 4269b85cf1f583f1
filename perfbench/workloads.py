"""The three workloads, as run inside one child process per repetition.

* ``repro-cold`` — the full Section 5 reproduction (Table 1, Figs 3-9,
  Table 3, Ablations A-C) on a four-kernel cross-domain slice, from an
  empty store and an empty native compile cache: what a first
  reproduction, or an owner cloning a new program, pays.
* ``repro-warm`` — the same reproduction on all 23 kernels against a
  store and compile cache primed once per checkout: the everyday loop
  of regenerating the figures.
* ``design-sweep`` — a clone-subject fleet recipe over all 23 kernels
  (width x ROB x L1D x predictor, 108 configs) on two workers, starting
  from the clones' stored traces and compiled engines but no digests or
  banks: the clone consumer's design-space exploration.

The workload seed orders the kernels (every output is keyed by kernel,
so the order changes no result) and, for the sweep, picks the cells the
output check re-times.  It is not the synthesis seed: the accuracy
figures must equal the committed ones, which use the default seed.
"""

import contextlib
import json
import os
import random
import resource
import shutil
import time

from perfbench import checks, pace, report, spans

WORKLOADS = ("repro-cold", "repro-warm", "design-sweep")

#: The cold slice: one kernel each from telecom, automotive, network
#: and consumer.
KERNEL_SLICE = ("crc32", "qsort", "dijkstra", "jpeg")

#: The kernels the committed Ablation A and C benches use.
ABLATION_A_KERNELS = ("qsort", "sha", "susan", "crc32", "dijkstra", "fft",
                      "basicmath", "rijndael", "gsm", "stringsearch")
ABLATION_C_KERNELS = ("qsort", "crc32", "sha", "adpcm", "fft", "rijndael",
                      "dijkstra", "susan")

#: Instruction caps the committed figure benches use.
PIPELINE_CAP = 100_000
TABLE1_CAP = 5_000_000
STATSIM_INSTRUCTIONS = 50_000

#: The design sweep: 3 x 3 x 3 x 4 = 108 configs per clone.
SWEEP_AXES = [
    ["width", [1, 2, 4]],
    ["rob_size", [16, 32, 64]],
    ["l1d", [[8192, 2, 32], [16384, 2, 32], [32768, 4, 32]]],
    ["predictor", ["nottaken", "bimodal", "gap", "gshare"]],
]
SWEEP_PIPELINE_CAP = 60_000
SWEEP_SYNTHESIS_SEED = 42
FLEET_WORKERS = 2
#: Cells per repetition that the output check re-times directly.
SWEEP_CHECK_CELLS = 6


def all_kernels():
    from repro.workloads import workload_names
    return list(workload_names())


def seeded_order(kernels, seed):
    order = list(kernels)
    random.Random(seed).shuffle(order)
    return order


def sweep_recipe(kernels, name="design-sweep", axes=SWEEP_AXES):
    return {"name": name, "kernels": list(kernels), "subject": "clone",
            "seeds": [SWEEP_SYNTHESIS_SEED],
            "pipeline_cap": SWEEP_PIPELINE_CAP, "axes": axes}


# ----------------------------------------------------------------------
# The reproduction
# ----------------------------------------------------------------------
def reproduce(kernels, recorder=None, jobs=1):
    """Run every Section 5 study on ``kernels``.

    Returns ``(rows, fidelity, cells)``: ``{study: {kernel: row}}``, the
    aggregate accuracy figures, and how many (program, configuration)
    results the studies computed.
    """
    from repro import evaluation as ev
    from repro import uarch
    from repro.sim import run_program
    from repro.statsim import StatisticalSimulator
    from repro.workloads import get_workload

    def study(name):
        if recorder is None:
            return contextlib.nullcontext()
        return recorder.span("evaluation", f"study.{name}")

    rows = {}
    cells = 0
    with study("table1"):
        table = {}
        for name in kernels:
            spec = get_workload(name)
            summary = run_program(spec.build(),
                                  max_instructions=TABLE1_CAP).summary()
            count = summary["instructions"]
            table[name] = [spec.domain, spec.suite, count,
                           summary["memory_ops"] / count,
                           summary["branches"] / count]
        rows["table1"] = table
    with study("fig3"):
        coverage = dict(ev.stride_coverage_table(kernels, jobs=jobs))
        rows["fig3"] = coverage
    with study("fig4_5"):
        caches = ev.cache_correlation_study(kernels, jobs=jobs)
        rows["fig4_5"] = {name: [caches["correlations"][name],
                                 caches["mpi_real"][name],
                                 caches["mpi_clone"][name]]
                          for name in kernels}
        cells += 2 * len(kernels) * len(caches["configs"])
    with study("fig6_7"):
        base = ev.base_config_comparison(kernels,
                                         max_instructions=PIPELINE_CAP,
                                         jobs=jobs)
        rows["fig6_7"] = {row["name"]: {key: value
                                        for key, value in row.items()
                                        if key != "name"}
                          for row in base["rows"]}
        cells += 2 * len(kernels)
    with study("table3"):
        design = ev.design_change_study(kernels,
                                        max_instructions=PIPELINE_CAP,
                                        jobs=jobs)
        rows["table3"] = {
            name: {"base": design["base"][name],
                   "changes": {change["change"]: detail
                               for change in design["changes"]
                               for detail in change["detail"]
                               if detail["name"] == name}}
            for name in kernels}
        cells += 2 * len(kernels) * (1 + len(design["changes"]))
    ablation_a = [name for name in kernels if name in ABLATION_A_KERNELS]
    with study("ablation_a"):
        baseline = ev.baseline_cache_comparison(ablation_a, jobs=jobs)
        rows["ablation_a"] = {row["name"]: row for row in baseline["rows"]}
        # Real (sweep + profiled cache) + predictor, clone and baseline.
        cells += len(ablation_a) * (3 * len(caches["configs"]) + 2)
    with study("ablation_b"):
        streams = ev.stream_count_table(kernels, jobs=jobs)
        rows["ablation_b"] = {name: [count, corr]
                              for name, count, corr in streams}
        cells += 2 * len(kernels) * len(caches["configs"])
    ablation_c = [name for name in kernels if name in ABLATION_C_KERNELS]
    with study("ablation_c"):
        statsim = {}
        for name in ablation_c:
            artifacts = ev.workload_artifacts(name)
            real = uarch.simulate_pipeline(artifacts.trace, uarch.BASE_CONFIG,
                                           max_instructions=PIPELINE_CAP)
            clone = uarch.simulate_pipeline(artifacts.clone_trace,
                                            uarch.BASE_CONFIG,
                                            max_instructions=PIPELINE_CAP)
            estimate = StatisticalSimulator(artifacts.profile).estimate(
                uarch.BASE_CONFIG, STATSIM_INSTRUCTIONS)
            statsim[name] = [real.ipc, clone.ipc, estimate.ipc]
        rows["ablation_c"] = statsim
        cells += 3 * len(ablation_c)
    changes = {change["change"]: change for change in design["changes"]}
    fidelity = {
        "ipc_err_pct": 100 * base["average_ipc_error"],
        "power_err_pct": 100 * base["average_power_error"],
        "stride_coverage": sum(coverage.values()) / len(coverage),
        "cache_corr": caches["average_correlation"],
        "rank_corr": caches["ranking_correlation"],
        "width_ipc_err_pct":
            100 * changes["2x-width"]["avg_ipc_relative_error"],
        "bpred_ipc_err_pct":
            100 * changes["nottaken-bpred"]["avg_ipc_relative_error"],
    }
    return rows, fidelity, cells


# ----------------------------------------------------------------------
# Priming (once per checkout) and per-repetition set-up
# ----------------------------------------------------------------------
def fleet_clone_keys(kernels):
    """Store keys of the clone entries the design sweep's cells read."""
    from repro.core.synthesizer import SynthesisParameters
    from repro.exec.store import artifact_key
    from repro.fleet.recipe import recipe_from_dict
    from repro.isa.assembler import assemble
    from repro.sim.turbo import resolve_backend
    from repro.workloads import get_workload

    functional_cap = recipe_from_dict(sweep_recipe(kernels)).functional_cap
    keys = []
    for name in kernels:
        source = get_workload(name).source()
        backend = resolve_backend(None, assemble(source, name=name))
        keys.append(artifact_key(
            name, source, SynthesisParameters(seed=SWEEP_SYNTHESIS_SEED),
            functional_cap, sim_backend=backend))
    return keys


def prime(prime_dir):
    """Fill the two primed caches a checkout's warm runs start from.

    ``repro`` gets everything one full reproduction writes; ``fleet``
    gets only the design sweep's clone entries and compiled engines,
    which a one-config fleet run produces.
    """
    from repro.fleet.run import run_fleet

    kernels = all_kernels()
    os.environ["REPRO_CACHE_DIR"] = os.path.join(prime_dir, "repro")
    reproduce(kernels, jobs=FLEET_WORKERS)
    fleet_cache = os.path.join(prime_dir, "fleet")
    os.environ["REPRO_CACHE_DIR"] = fleet_cache
    recipe = sweep_recipe(kernels, name="prime",
                          axes=[["width", [1]]])
    run_fleet(os.path.join(prime_dir, "prime-run"), recipe,
              workers=FLEET_WORKERS)
    shutil.rmtree(os.path.join(prime_dir, "prime-run"))
    keep = set(fleet_clone_keys(kernels))
    artifacts_dir = os.path.join(fleet_cache, "artifacts")
    for key in os.listdir(artifacts_dir):
        if key not in keep:
            shutil.rmtree(os.path.join(artifacts_dir, key))
    shutil.rmtree(os.path.join(fleet_cache, "pins"), ignore_errors=True)
    missing = keep - set(os.listdir(artifacts_dir))
    if missing:
        raise RuntimeError(f"fleet priming left out {sorted(missing)}")


def set_up(workload, prime_dir, work_dir):
    """Give this repetition its own cache.

    A primed cache is hard-linked, not copied: the store and the
    compile cache only ever add files (written aside, then renamed into
    place), so the primed files are never changed, and set-up measures
    the program rather than a 100 MB disk copy.
    """
    cache = os.path.join(work_dir, "cache")
    if workload == "repro-cold":
        os.makedirs(cache)
    else:
        source = "repro" if workload == "repro-warm" else "fleet"
        shutil.copytree(os.path.join(prime_dir, source), cache,
                        copy_function=os.link)
    os.environ["REPRO_CACHE_DIR"] = cache


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
def _registry_counters():
    from repro.obs.metrics import REGISTRY
    return {name: entry["value"]
            for name, entry in REGISTRY.snapshot().items()
            if entry["type"] == "counter"}


def _sweep_stats():
    from repro.uarch.sweep import sweep_stats_snapshot
    return sweep_stats_snapshot()


def _deltas(after, before):
    return {name: value - before.get(name, 0)
            for name, value in after.items()
            if isinstance(value, (int, float))}


def _peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024


def _worker_dumps(dump_dir):
    dumps = []
    for name in sorted(os.listdir(dump_dir)):
        with open(os.path.join(dump_dir, name)) as handle:
            dumps.append(json.load(handle))
    return dumps


def _pin(index=0):
    """Keep this process (and the children it starts) on one CPU, so
    that a pacer's probes time the CPU its work runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def _dump_workers(recorder, dump_dir, patches):
    """Record spans (or paced time) inside the forked fleet workers.

    Workers inherit the wrapped entry points and the recorder; each one
    takes its own CPU, drops what it inherited, wraps its whole run in a
    ``fleet`` span, and writes its dump and counter deltas to
    ``dump_dir``.
    """
    from repro.fleet import run as fleet_run

    def make(original):
        def worker_entry(run_dir, worker_index, *args, **kwargs):
            _pin(worker_index)
            recorder.reset()
            counters, sweep = _registry_counters(), _sweep_stats()
            try:
                with recorder.span("fleet", "worker"):
                    return original(run_dir, worker_index, *args, **kwargs)
            finally:
                if isinstance(recorder, pace.Pacer):
                    recorder.stop()
                dump = dict(recorder.dump(), pid=os.getpid(),
                            counters=_deltas(_registry_counters(), counters),
                            sweep=_deltas(_sweep_stats(), sweep),
                            peak_rss_mb=_peak_rss_mb())
                path = os.path.join(dump_dir, f"{os.getpid()}.json")
                with open(path, "w") as handle:
                    json.dump(dump, handle)
        return worker_entry
    patches.wrap(fleet_run, "worker_entry", make)


def merge_dumps(dumps):
    """One trace from several processes' dumps: span ids made unique,
    each span tagged with its pid, counts and counters summed."""
    merged = {"spans": [], "counts": {}, "counters": {}, "sweep": {}}
    for dump in dumps:
        offset = len(merged["spans"])
        for span in dump["spans"]:
            parent = span["parent"]
            merged["spans"].append(dict(
                span, id=span["id"] + offset, pid=dump["pid"],
                parent=None if parent is None else parent + offset))
        for key in ("counts", "counters", "sweep"):
            for name, value in dump.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0) + value
    return merged


def _prepare(spec):
    """Set-up: this fresh process gets its cache and imports the
    package; returns the seeded kernel order."""
    set_up(spec["workload"], spec["prime_dir"], spec["work_dir"])
    kernels = all_kernels()
    if spec["workload"] == "repro-cold":
        kernels = [name for name in kernels if name in KERNEL_SLICE]
    return seeded_order(kernels, spec["seed"])


def set_up_only(spec):
    _prepare(spec)
    return {"ready": time.monotonic(), "speed": pace.speed_now()}


def _paced_wall(pacer, workers):
    """``(raw, normalized)`` seconds of a paced timed region.

    The reproduction runs in this process.  The sweep's work runs in the
    fleet workers (their dumps), one per vCPU, so their combined speed
    scales the orchestrator's wall, less the time an average worker
    spent probing.
    """
    if not workers:
        return pacer.raw_s, pacer.norm_s
    wall = pacer.raw_s - sum(w["probe_s"] for w in workers) / len(workers)
    return wall, wall * sum(w["norm_s"] for w in workers) \
        / sum(w["raw_s"] for w in workers)


def run_repetition(spec):
    """Set up, measure and check one repetition; returns its record.

    ``spec`` holds ``workload``, ``seed``, ``trace``, ``prime_dir`` and
    ``work_dir``.  The record's ``ready`` is the monotonic time set-up
    ended (the parent measures set-up from its own spawn time) and
    ``speed`` the host speed just after.  An untraced repetition is
    paced (:mod:`perfbench.pace`): ``wall_s`` is its raw timed wall and
    ``norm_wall_s`` the same at reference host speed.
    """
    workload = spec["workload"]
    work_dir = spec["work_dir"]
    kernels = _prepare(spec)
    record = {"workload": workload, "ready": time.monotonic(),
              "speed": pace.speed_now()}
    if workload != "design-sweep":
        _pin()  # serial: one CPU, shared with the compilers it starts
    recorder = spans.SpanRecorder() if spec["trace"] else pace.Pacer()
    patches = spans.install(recorder)
    dump_dir = os.path.join(work_dir, "spans")
    if workload == "design-sweep":
        os.makedirs(dump_dir)
        _dump_workers(recorder, dump_dir, patches)
    pacer = recorder if isinstance(recorder, pace.Pacer) else None
    if pacer:
        pacer.start()
    counters, sweep = _registry_counters(), _sweep_stats()
    started = time.perf_counter()
    if workload == "design-sweep":
        from repro.fleet.run import run_fleet
        run_dir = os.path.join(work_dir, "run")
        span = contextlib.nullcontext() if pacer \
            else recorder.span("fleet", "run_fleet")
        with span:
            summary = run_fleet(run_dir, sweep_recipe(kernels),
                                workers=FLEET_WORKERS)
    else:
        rows, fidelity, cells = reproduce(kernels, recorder)
    record["wall_s"] = time.perf_counter() - started
    workers = _worker_dumps(dump_dir) if workload == "design-sweep" else []
    if pacer:
        pacer.stop()
        record["wall_s"], record["norm_wall_s"] = _paced_wall(pacer, workers)
        record["paced"] = [dict(pacer.dump(), pid=os.getpid())] + [
            {key: worker[key] for key in ("raw_s", "norm_s", "probe_s",
                                          "probes", "pid")}
            for worker in workers]
    patches.undo()
    # Taken before the checks, which simulate too.
    counters = _deltas(_registry_counters(), counters)
    sweep = _deltas(_sweep_stats(), sweep)
    # The fleet workers run side by side: their peaks add up.  A
    # reproduction's children (cc) run one at a time.
    if workers:
        record["peak_rss_mb"] = _peak_rss_mb() + sum(
            worker["peak_rss_mb"] for worker in workers)
    else:
        record["peak_rss_mb"] = max(
            _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN))
    import numpy
    from repro.native import toolchain
    record["native"] = bool(toolchain.enabled() and toolchain.probe())
    record["numpy"] = numpy.__version__

    if workload == "design-sweep":
        fleet, journaled = report.fleet_metrics(run_dir)
        attempted, mismatches = checks.check_cells(
            run_dir, SWEEP_CHECK_CELLS, spec["seed"])
        record["cells"] = summary["executed"]
        record["instructions"] = journaled.get("sim.instructions", 0) \
            + journaled.get("pipeline.instructions", 0)
    else:
        digests = checks.row_digests(rows)
        attempted, mismatches = 0, []
        if not spec.get("record"):
            reference = checks.load_reference()
            attempted, mismatches = checks.compare_rows(digests,
                                                        reference["rows"])
            more, wrong = checks.compare_fidelity(
                fidelity, reference["fidelity"][workload])
            attempted += more
            mismatches += wrong
        record.update(cells=cells, digests=digests, fidelity=fidelity,
                      instructions=counters.get("sim.instructions", 0)
                      + counters.get("pipeline.instructions", 0))
    record.update(attempted=attempted, failed=len(mismatches),
                  mismatches=mismatches[:20])
    if not pacer:
        dump = dict(recorder.dump(), pid=os.getpid(), counters=counters,
                    sweep=sweep)
        trace = merge_dumps([dump] + workers)
        trace["pid"] = os.getpid()
        trace["fleet"] = fleet if workload == "design-sweep" else {}
        record["trace"] = trace
    return record
