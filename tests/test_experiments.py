"""Integration tests for the experiment harness, on a small workload
subset so the suite stays fast.  The full-corpus runs live in
``benchmarks/`` and EXPERIMENTS.md."""

import json
import multiprocessing
import os
import subprocess

import pytest

from repro.evaluation import (
    base_config_comparison,
    baseline_cache_comparison,
    cache_correlation_study,
    design_change_study,
    stream_count_table,
    stride_coverage_table,
    workload_artifacts,
)
from repro.evaluation import experiments
from repro.evaluation.experiments import clear_artifact_cache
from repro.uarch import BASE_CONFIG, CacheConfig

SUBSET = ["crc32", "sha"]
SMALL_SWEEP = [CacheConfig(256, 1, 32), CacheConfig(1024, 2, 32),
               CacheConfig(4096, 4, 32), CacheConfig(16384, "full", 32)]


class TestArtifacts:
    def test_memoized(self):
        first = workload_artifacts("crc32")
        second = workload_artifacts("crc32")
        assert first is second

    def test_pipeline_products(self):
        artifacts = workload_artifacts("crc32")
        assert artifacts.profile.total_instructions == len(artifacts.trace)
        assert len(artifacts.clone_trace) > 10_000
        assert artifacts.clone.program.name == "crc32.clone"

    def test_cache_clear(self):
        first = workload_artifacts("crc32")
        clear_artifact_cache()
        assert workload_artifacts("crc32") is not first


class TestFig3:
    def test_rows(self):
        rows = stride_coverage_table(SUBSET)
        assert [name for name, _ in rows] == SUBSET
        for _, coverage in rows:
            assert 0.0 <= coverage <= 1.0

    def test_regular_workload_high_coverage(self):
        # The paper's Figure 3 claim for well-behaved kernels.
        rows = dict(stride_coverage_table(["sha", "basicmath"]))
        assert rows["sha"] > 0.9
        assert rows["basicmath"] > 0.95


class TestFig4And5:
    @pytest.fixture(scope="class")
    def study(self):
        return cache_correlation_study(SUBSET, SMALL_SWEEP)

    def test_shapes(self, study):
        assert set(study["correlations"]) == set(SUBSET)
        for name in SUBSET:
            assert len(study["mpi_real"][name]) == len(SMALL_SWEEP)
            assert len(study["mpi_clone"][name]) == len(SMALL_SWEEP)

    def test_correlations_bounded(self, study):
        for value in study["correlations"].values():
            assert -1.0 <= value <= 1.0

    def test_average(self, study):
        expected = sum(study["correlations"].values()) / len(SUBSET)
        assert study["average_correlation"] == pytest.approx(expected)

    def test_mean_ranks_valid(self, study):
        n = len(SMALL_SWEEP)
        for ranks in (study["mean_rank_real"], study["mean_rank_clone"]):
            assert len(ranks) == n
            assert all(1.0 <= rank <= n for rank in ranks)

    def test_ranking_correlation_positive(self, study):
        # Bigger caches rank better for both real and clone.
        assert study["ranking_correlation"] > 0.8


class TestFig6And7:
    @pytest.fixture(scope="class")
    def comparison(self):
        return base_config_comparison(SUBSET, max_instructions=40_000)

    def test_rows_complete(self, comparison):
        assert [row["name"] for row in comparison["rows"]] == SUBSET
        for row in comparison["rows"]:
            assert 0 < row["ipc_real"] <= BASE_CONFIG.width
            assert 0 < row["ipc_clone"] <= BASE_CONFIG.width
            assert row["power_real"] > 0
            assert row["power_clone"] > 0

    def test_errors_reasonable(self, comparison):
        # The paper reports 8.73% / 6.44% on its corpus; allow headroom.
        assert comparison["average_ipc_error"] < 0.30
        assert comparison["average_power_error"] < 0.30


class TestTable3:
    @pytest.fixture(scope="class")
    def study(self):
        changes = [BASE_CONFIG.renamed("2x-width", width=2),
                   BASE_CONFIG.renamed("in-order", in_order=True)]
        return design_change_study(SUBSET, changes=changes,
                                   max_instructions=40_000)

    def test_change_rows(self, study):
        assert [row["change"] for row in study["changes"]] \
            == ["2x-width", "in-order"]
        for row in study["changes"]:
            assert 0.0 <= row["avg_ipc_relative_error"] < 0.5
            assert 0.0 <= row["avg_power_relative_error"] < 0.5

    def test_width_detail_speedups(self, study):
        detail = study["width_detail"]
        assert detail is not None
        for row in detail:
            assert row["speedup_real"] >= 0.9
            assert row["speedup_clone"] >= 0.9
            assert row["power_ratio_real"] > 1.0
            assert row["power_ratio_clone"] > 1.0


class TestAblations:
    def test_baseline_comparison(self):
        # Full 28-config sweep.  The paper's central claim: synthesis
        # tuned to one configuration's miss rate yields large errors when
        # the configuration changes; the microarchitecture-independent
        # clone does not.
        result = baseline_cache_comparison(["qsort", "sha"])
        for row in result["rows"]:
            assert 0.0 <= row["measured_miss_rate"] <= 1.0
            assert -1.0 <= row["baseline_correlation"] <= 1.0
            assert row["clone_mpi_error"] >= 0.0
        assert result["avg_clone_mpi_error"] \
            < 0.5 * result["avg_baseline_mpi_error"]

    def test_stream_count_table_sorted(self):
        rows = stream_count_table(SUBSET)
        streams = [row[1] for row in rows]
        assert streams == sorted(streams, reverse=True)


class TestJobsIgnored:
    """Studies run in-process; ``jobs=`` is accepted and ignored, so a
    caller passing a worker count (perfbench does) starts no process and
    gets the same result as a plain call."""

    STUDIES = [
        ("stride_coverage_table", {}),
        ("cache_correlation_study", {"configs": SMALL_SWEEP}),
        ("base_config_comparison", {"max_instructions": 20_000}),
        ("design_change_study", {"max_instructions": 20_000}),
        ("baseline_cache_comparison", {"configs": SMALL_SWEEP}),
        ("stream_count_table", {}),
    ]

    @staticmethod
    def _forbid_process_creation(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a study started a process")
        for name in ("fork", "forkpty", "posix_spawn", "posix_spawnp"):
            if hasattr(os, name):
                monkeypatch.setattr(os, name, refuse)
        monkeypatch.setattr(subprocess.Popen, "_execute_child", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)

    @pytest.mark.parametrize("study,kwargs", STUDIES,
                             ids=[name for name, _ in STUDIES])
    def test_jobs_starts_no_process(self, study, kwargs, monkeypatch):
        run = getattr(experiments, study)
        # Two workloads: a pool would fan out over them.
        expected = run(SUBSET, jobs=None, **kwargs)
        self._forbid_process_creation(monkeypatch)
        got = run(SUBSET, jobs=2, **kwargs)
        assert json.dumps(got, sort_keys=True, default=str) \
            == json.dumps(expected, sort_keys=True, default=str)
