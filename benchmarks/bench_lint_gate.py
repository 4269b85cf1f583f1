"""Wall-time overhead of the post-synthesis lint gate.

Measures ``CloneSynthesizer.synthesize()`` with the gate off and on
over the default corpus, plus the full clone pipeline (functional sim →
profile → synthesize) the gate actually rides in.  The acceptance
target is gate overhead under 5% of a workload's cloning cost; the
synthesize-only ratio is reported alongside because the gate proves the
clone safe and predicts its whole profile to check the contract, the
same order of work as emission itself.
"""

import time

from _shared import emit, run_once
from repro.core import profile_trace
from repro.core.synthesizer import CloneSynthesizer, SynthesisParameters
from repro.sim import run_program
from repro.workloads import build_workload

#: A cross-domain slice of the corpus (consumer, network, auto, telecom).
WORKLOADS = ("crc32", "dijkstra", "qsort", "sha", "fft", "jpeg")
ROUNDS = 5


def _best_of(func, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def test_lint_gate_overhead(benchmark):
    def experiment():
        rows = []
        for name in WORKLOADS:
            program = build_workload(name)
            # One untimed run each first, so a fresh cache directory's
            # one-off engine compile is billed to no workload.
            trace = run_program(program)
            sim_s = _best_of(lambda: run_program(program), rounds=1)
            profile = profile_trace(trace)
            profile_s = _best_of(lambda: profile_trace(trace), rounds=1)

            def synth(gate):
                parameters = SynthesisParameters(
                    dynamic_instructions=120_000, lint_gate=gate)
                return lambda: CloneSynthesizer(profile,
                                                parameters).synthesize()

            off_s = _best_of(synth("off"))
            on_s = _best_of(synth("error"))
            gate_s = max(0.0, on_s - off_s)
            pipeline_s = sim_s + profile_s + on_s
            rows.append({
                "workload": name,
                "synthesize_ms": round(off_s * 1e3, 3),
                "gate_ms": round(gate_s * 1e3, 3),
                "pipeline_ms": round(pipeline_s * 1e3, 3),
                "of_synthesize_pct": round(100 * gate_s / off_s, 1),
                "of_pipeline_pct": round(100 * gate_s / pipeline_s, 1),
            })
        return rows

    rows = run_once(benchmark, experiment)

    total_gate = sum(row["gate_ms"] for row in rows)
    total_pipeline = sum(row["pipeline_ms"] for row in rows)
    total_synth = sum(row["synthesize_ms"] for row in rows)
    lines = [f"{'workload':<14}{'synth ms':>10}{'gate ms':>10}"
             f"{'pipe ms':>10}{'%synth':>8}{'%pipe':>8}"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14}{row['synthesize_ms']:>10.3f}"
            f"{row['gate_ms']:>10.3f}{row['pipeline_ms']:>10.3f}"
            f"{row['of_synthesize_pct']:>8.1f}{row['of_pipeline_pct']:>8.1f}")
    pipeline_pct = 100 * total_gate / total_pipeline
    synth_pct = 100 * total_gate / total_synth
    lines.append(f"{'total':<14}{total_synth:>10.3f}{total_gate:>10.3f}"
                 f"{total_pipeline:>10.3f}{synth_pct:>8.1f}"
                 f"{pipeline_pct:>8.1f}")
    emit("lint_gate_overhead", "\n".join(lines),
         data={"rows": rows,
               "gate_of_pipeline_pct": round(pipeline_pct, 2),
               "gate_of_synthesize_pct": round(synth_pct, 2)})

    # Acceptance: the gate must stay under 5% of the cloning pipeline.
    assert pipeline_pct < 5.0, (
        f"lint gate costs {pipeline_pct:.1f}% of the clone pipeline")
    # Guardrail against pathological regression of the passes themselves.
    assert synth_pct < 60.0, (
        f"lint gate costs {synth_pct:.1f}% of synthesize() alone")
