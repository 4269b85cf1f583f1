"""Tier-1 telemetry smoke test.

Runs a real end-to-end ``repro compare <small-workload> --instructions
20000 --json`` and validates the emitted manifest against the schema, so
a regression anywhere in the telemetry path (spans not recorded, metrics
missing, manifest shape drift) fails the ordinary test run.
"""

import json

from repro.cli import main
from repro.obs import validate_manifest


def test_compare_json_manifest_validates(capsys, monkeypatch):
    # Force a cold pipeline: a warm artifact-cache hit would (correctly)
    # skip the profiler/synthesizer/sim spans this test asserts on.
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert main(["compare", "crc32", "--instructions", "20000",
                 "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    manifest = data["manifest"]

    assert validate_manifest(manifest) == []

    # The acceptance-criteria fields: seed, config hash, per-phase wall
    # times, and simulation throughput.
    assert manifest["seed"] == 42
    assert isinstance(manifest["config_hash"], str) and manifest["config_hash"]
    for phase in ("cli.compare",
                  "cli.compare/core.profiler/core.profiler.sfg_build",
                  "cli.compare/core.profiler/core.profiler.stride_mining",
                  "cli.compare/core.synthesizer/core.synthesizer.codegen",
                  "cli.compare/sim.run", "cli.compare/uarch.sweep"):
        assert manifest["phases"][phase]["wall_s"] >= 0.0
    assert manifest["metrics"]["sim.mips"]["value"] > 0.0
    assert manifest["metrics"]["pipeline.sim_mips"]["value"] > 0.0
    assert manifest["headline"]["sim_mips_real"] > 0.0
    assert manifest["wall_seconds"] > 0.0
