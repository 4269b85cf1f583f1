"""Tests of the benchmark's own harness (run with
``python3 -m pytest perfbench/tests``)."""

import os

import pytest

from perfbench import checks, report, spans
from perfbench.workloads import merge_dumps

FIXTURE_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures", "fleet_run")


def _span(id, parent, layer, start, end, name=None):
    return {"id": id, "parent": parent, "layer": layer,
            "name": name or layer, "start": start, "end": end}


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
TREE = [
    _span(0, None, "evaluation", 0.0, 10.0, "study.fig3"),
    _span(1, 0, "sim", 1.0, 5.0),
    _span(2, 1, "native", 2.0, 4.5),
    _span(3, 0, "uarch.cache", 6.0, 9.0),
    _span(4, 3, "uarch.cache", 7.0, 8.0),
    _span(5, None, "evaluation", 10.0, 11.0, "study.fig4_5"),
]


def test_self_time_is_duration_minus_children():
    own = spans.self_times(TREE)
    assert own == pytest.approx({0: 3.0, 1: 1.5, 2: 2.5, 3: 2.0, 4: 1.0,
                                 5: 1.0})


def test_layer_self_times_sum_to_root_time():
    totals = spans.layer_self_times(TREE)
    assert totals["evaluation"] == pytest.approx(4.0)
    assert totals["sim"] == pytest.approx(1.5)
    assert totals["native"] == pytest.approx(2.5)
    # A layer nested in itself is counted once.
    assert totals["uarch.cache"] == pytest.approx(3.0)
    assert set(totals) == set(spans.LAYERS)
    assert sum(totals.values()) == pytest.approx(spans.root_seconds(TREE))


def test_waiting_spans_have_no_self_time():
    waiting = [_span(0, None, "fleet", 0.0, 9.0, "run_fleet"),
               _span(1, 0, "exec.store", 1.0, 2.0, "load")]
    totals = spans.layer_self_times(waiting, waiting=("run_fleet",))
    assert totals["fleet"] == 0.0
    assert totals["exec.store"] == pytest.approx(1.0)


def test_recorder_nests_spans_and_merge_keeps_trees_apart():
    recorder = spans.SpanRecorder()
    with recorder.span("evaluation", "study.table1"):
        with recorder.span("sim"):
            recorder.count("sim.runs")
    dump = dict(recorder.dump(), pid=1, counters={"sim.runs": 1})
    other = dict(dump, pid=2)
    merged = merge_dumps([dump, other])
    assert [span["parent"] for span in merged["spans"]] == [None, 0, None, 2]
    assert [span["pid"] for span in merged["spans"]] == [1, 1, 2, 2]
    assert merged["counts"] == {"sim.runs": 2}
    assert merged["counters"] == {"sim.runs": 2}


def test_layer_metrics_report_every_per_layer_metric():
    trace = {"spans": [dict(span, pid=7) for span in TREE], "pid": 7,
             "counts": {"sim.instructions": 3_000_000, "store.hits": 3,
                        "store.misses": 1},
             "counters": {}, "sweep": {}, "fleet": {}}
    metrics = report.layer_metrics(trace, wall_s=11.5, untraced_wall_s=10.0)
    assert list(metrics) == list(report.PER_LAYER)
    assert metrics["trace.coverage"] == pytest.approx(11.0 / 11.5)
    assert metrics["trace.overhead"] == pytest.approx(1.15)
    assert metrics["sim.mips"] == pytest.approx(2.0)
    assert metrics["store.hit_ratio"] == pytest.approx(0.75)
    assert metrics["study.fig3_s"] == pytest.approx(10.0)
    assert metrics["share.native"] == pytest.approx(2.5 / 11.0)


# ----------------------------------------------------------------------
# Pacing: time at reference host speed
# ----------------------------------------------------------------------
def test_pacer_scales_each_stretch_by_its_probes(monkeypatch):
    from perfbench import pace
    clock = [100.0]
    probes = iter([0.010, 0.020, 0.005])  # seconds each probe takes

    def probe():
        took = next(probes)
        clock[0] += took
        return took
    monkeypatch.setattr(pace, "probe", probe)
    monkeypatch.setattr(pace.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(pace, "REFERENCE_PROBE_S", 0.010)
    pacer = pace.Pacer()
    pacer.start()
    clock[0] += 3.0
    with pacer.span("sim"):      # probes on entry: 3 s since the first
        clock[0] += 0.1          # too soon to probe on exit
    clock[0] += 2.0
    pacer.stop()
    assert pacer.probes == 3
    assert pacer.probe_s == pytest.approx(0.035)
    assert pacer.raw_s == pytest.approx(5.1)
    # 3 s at mean probe 15 ms, then 2.1 s at mean probe 12.5 ms.
    assert pacer.norm_s == pytest.approx(3.0 * 10 / 15 + 2.1 * 10 / 12.5)


def test_pacer_scales_a_compile_by_the_compile_probe(monkeypatch):
    from perfbench import pace
    clock = [100.0]

    def taking(seconds):
        def probe():
            clock[0] += seconds
            return seconds
        return probe
    monkeypatch.setattr(pace, "probe", taking(0.010))
    monkeypatch.setattr(pace, "compile_probe", taking(0.060))
    monkeypatch.setattr(pace.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(pace, "REFERENCE_PROBE_S", 0.010)
    monkeypatch.setattr(pace, "REFERENCE_COMPILE_S", 0.030)
    pacer = pace.Pacer()
    pacer.start()
    clock[0] += 1.0
    with pacer.span("native"):   # a compile: twice the reference probe
        clock[0] += 4.0
    with pacer.span("native"):   # a cache hit: an ordinary stretch
        clock[0] += 0.001
    clock[0] += 1.0
    pacer.stop()
    assert pacer.raw_s == pytest.approx(6.001)
    assert pacer.norm_s == pytest.approx(1.0 + 4.0 / 2 + 0.001 + 1.0)
    assert pacer.probe_s == pytest.approx(6 * 0.010 + 4 * 0.060)


# ----------------------------------------------------------------------
# Metric extraction from a recorded fleet run directory
# ----------------------------------------------------------------------
def test_fleet_metrics_from_recorded_run():
    metrics, counters = report.fleet_metrics(FIXTURE_RUN)
    assert metrics["fleet.claims"] == 4
    assert metrics["fleet.steals"] == 1
    assert metrics["fleet.reclaims"] == 0
    assert counters["fleet.cells_completed"] == 4
    assert metrics["fleet.acquire_s"] == pytest.approx(3.828342 + 4.262197)
    assert metrics["fleet.timing_s"] == pytest.approx(0.193712 + 0.007107)
    assert metrics["fleet.overhead_s"] == pytest.approx(
        4.291547 + 4.277433 - 3.828342 - 4.262197 - 0.193712 - 0.007107)
    # Cell spans: 5.558, 6.576, 4022.074 and 4275.8 ms (nearest rank).
    assert metrics["fleet.cell_p50_ms"] == pytest.approx(6.576)
    assert metrics["fleet.cell_p99_ms"] == pytest.approx(4275.8)
    assert metrics["fleet.worker_imbalance"] == pytest.approx(
        4.291547 / ((4.291547 + 4.277433) / 2))


def test_percentile_is_nearest_rank():
    assert report.percentile([3, 1, 2, 4], 50) == 2
    assert report.percentile([3, 1, 2, 4], 99) == 4
    assert report.percentile([5], 1) == 5


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------
ROWS = {"fig6_7": {"crc32": {"ipc_real": 0.947, "ipc_clone": 0.923},
                   "qsort": {"ipc_real": 0.787, "ipc_clone": 0.732}},
        "fig3": {"crc32": 0.61}}


def test_matching_rows_pass():
    reference = checks.row_digests(ROWS)
    assert checks.compare_rows(checks.row_digests(ROWS), reference) \
        == (3, [])


def test_perturbed_row_fails():
    reference = checks.row_digests(ROWS)
    perturbed = {study: {kernel: row for kernel, row in rows.items()}
                 for study, rows in ROWS.items()}
    perturbed["fig6_7"]["qsort"] = {"ipc_real": 0.787,
                                    "ipc_clone": 0.732 + 1e-12}
    attempted, mismatches = checks.compare_rows(
        checks.row_digests(perturbed), reference)
    assert attempted == 3
    assert mismatches == ["fig6_7/qsort"]


def test_unknown_kernel_fails():
    reference = checks.row_digests({"fig3": {"crc32": 0.61}})
    _, mismatches = checks.compare_rows(
        checks.row_digests({"fig3": {"crc32": 0.61, "sha": 0.9}}),
        reference)
    assert mismatches == ["fig3/sha"]


def test_fidelity_tolerates_summation_order_only():
    reference = {"ipc_err_pct": 7.381014390366734}
    assert checks.compare_fidelity(
        {"ipc_err_pct": 7.381014390366734 * (1 + 1e-15)}, reference) \
        == (1, [])
    assert checks.compare_fidelity({"ipc_err_pct": 7.3811}, reference) \
        == (1, ["ipc_err_pct"])


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with what the runs print
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_reported_metrics():
    import json
    import re

    path = os.path.join(os.path.dirname(FIXTURE_RUN), "..", "..", "..",
                        "BENCHMARK.json")
    with open(path) as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == report.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == report.PER_LAYER
    names = [m["name"] for key in ("end_to_end", "per_layer", "workloads")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
               for name in names)
