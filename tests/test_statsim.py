"""Tests for the statistical-simulation module (prior-art lineage)."""

import hashlib

import pytest

from repro.evaluation import workload_artifacts
from repro.statsim import (
    StatisticalSimulator,
    statistical_ipc_estimate,
    synthesize_trace,
)
from repro.uarch import BASE_CONFIG, simulate_pipeline


class TestTraceSynthesis:
    def test_trace_length_near_target(self, loop_nest_profile):
        trace = synthesize_trace(loop_nest_profile, n_instructions=20_000)
        assert 20_000 <= len(trace) <= 21_000  # may overshoot one block

    def test_trace_is_deterministic(self, loop_nest_profile):
        a = synthesize_trace(loop_nest_profile, 10_000, seed=5)
        b = synthesize_trace(loop_nest_profile, 10_000, seed=5)
        assert (a.pcs == b.pcs).all()
        assert (a.addrs == b.addrs).all()
        assert (a.taken == b.taken).all()

    def test_seeds_differ(self, loop_nest_profile):
        a = synthesize_trace(loop_nest_profile, 10_000, seed=1)
        b = synthesize_trace(loop_nest_profile, 10_000, seed=2)
        assert not (a.pcs.shape == b.pcs.shape
                    and (a.pcs == b.pcs).all())

    def test_memory_fraction_matches_profile(self, loop_nest_profile):
        trace = synthesize_trace(loop_nest_profile, 30_000)
        summary = trace.summary()
        real_fraction = (loop_nest_profile.total_memory_ops
                         / loop_nest_profile.total_instructions)
        synthetic = summary["memory_ops"] / summary["instructions"]
        assert synthetic == pytest.approx(real_fraction, abs=0.08)

    def test_branch_fraction_matches_profile(self, loop_nest_profile):
        trace = synthesize_trace(loop_nest_profile, 30_000)
        summary = trace.summary()
        real_fraction = (loop_nest_profile.total_branches
                         / loop_nest_profile.total_instructions)
        synthetic = summary["branches"] / summary["instructions"]
        assert synthetic == pytest.approx(real_fraction, abs=0.08)

    def test_taken_rate_tracks_profile(self, loop_nest_profile):
        trace = synthesize_trace(loop_nest_profile, 30_000)
        summary = trace.summary()
        synthetic = summary["taken_branches"] / summary["branches"]
        weighted = sum(b.taken_rate * b.count
                       for b in loop_nest_profile.branches.values())
        weighted /= sum(b.count for b in loop_nest_profile.branches.values())
        assert synthetic == pytest.approx(weighted, abs=0.2)

    def test_addresses_are_strided(self, loop_nest_profile):
        trace = synthesize_trace(loop_nest_profile, 20_000)
        addresses = trace.memory_addresses()
        assert len(addresses) > 0
        assert (addresses >= 0).all()


class TestEstimation:
    def test_ipc_estimate_in_ballpark(self, loop_nest_trace,
                                      loop_nest_profile):
        real = simulate_pipeline(loop_nest_trace, BASE_CONFIG)
        estimate = statistical_ipc_estimate(loop_nest_profile, BASE_CONFIG,
                                            n_instructions=40_000)
        assert estimate == pytest.approx(real.ipc, rel=0.35)

    def test_repeated_estimates_are_equal(self, loop_nest_profile):
        simulator = StatisticalSimulator(loop_nest_profile)
        first = simulator.estimate(BASE_CONFIG, 30_000)
        second = simulator.estimate(BASE_CONFIG, 30_000)
        assert second.ipc == first.ipc
        assert second.cycles == first.cycles

    def test_estimate_tracks_width_direction(self, loop_nest_profile):
        # Both configs time the same trace: estimates do not depend on
        # earlier calls.
        simulator = StatisticalSimulator(loop_nest_profile)
        base = simulator.estimate(BASE_CONFIG, 30_000)
        wide = simulator.estimate(BASE_CONFIG.renamed("w2", width=2),
                                  30_000)
        assert wide.ipc >= base.ipc * 0.98

    def test_estimate_tracks_predictor_direction(self, loop_nest_profile):
        simulator = StatisticalSimulator(loop_nest_profile)
        base = simulator.estimate(BASE_CONFIG, 30_000)
        worse = simulator.estimate(
            BASE_CONFIG.renamed("nt", predictor="nottaken"), 30_000)
        assert worse.ipc < base.ipc


# ----------------------------------------------------------------------
# Pinned traces: the per-block expansion writes exactly what the
# per-instruction walk wrote, array for array and dtype for dtype
# ----------------------------------------------------------------------
def trace_digest(trace):
    digest = hashlib.sha256()
    for array in (trace.pcs, trace.addrs, trace.taken):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


#: Ablation C's kernels -> digest of ``synthesize_trace(50_000)``,
#: recorded with the per-instruction walk.
ABLATION_C_TRACES = {
    "adpcm": "6bf4bb7ffc220831",
    "crc32": "926e57eacd89b8ff",
    "dijkstra": "8a945f9fc69422cf",
    "fft": "2341650a2059cc2c",
    "qsort": "41e63924e3d77160",
    "rijndael": "e46b660b5a969a75",
    "sha": "3918960acc04b630",
    "susan": "f3528595651359ad",
}

#: Digest of a simulator's first 20k trace per seed.
LOOP_NEST_TRACES = {
    7: "f6e85780010589df",
    42: "3b5e4cbece476de9",
}


@pytest.mark.parametrize("name", sorted(ABLATION_C_TRACES))
def test_ablation_c_traces_are_pinned(name):
    simulator = StatisticalSimulator(workload_artifacts(name).profile)
    assert trace_digest(simulator.synthesize_trace(50_000)) \
        == ABLATION_C_TRACES[name]


@pytest.mark.parametrize("seed", sorted(LOOP_NEST_TRACES))
def test_loop_nest_traces_are_pinned(seed, loop_nest_profile):
    simulator = StatisticalSimulator(loop_nest_profile, seed=seed)
    first = simulator.synthesize_trace(20_000)
    second = simulator.synthesize_trace(20_000)
    assert trace_digest(first) == LOOP_NEST_TRACES[seed]
    # Every call starts each stream at its base.
    assert trace_digest(second) == trace_digest(first)
