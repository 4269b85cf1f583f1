"""Run manifests: round-trip, schema validation, config hashing."""

import json

import pytest

from repro.obs.runinfo import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    provenance,
    validate_manifest,
)
from repro.uarch import BASE_CONFIG
from repro.uarch.config import MachineConfig


class TestConfigHash:
    def test_stable_for_equal_configs(self):
        assert config_hash(MachineConfig()) == config_hash(MachineConfig())

    def test_differs_when_a_field_changes(self):
        assert (config_hash(BASE_CONFIG)
                != config_hash(BASE_CONFIG.renamed("wide", width=4)))

    def test_non_dataclass_values_hash_too(self):
        assert config_hash({"a": 1}) == config_hash({"a": 1})


class TestProvenance:
    def test_block_has_required_keys(self):
        block = provenance()
        for key in ("python", "platform", "created_at", "git_rev"):
            assert key in block


class TestManifestRoundTrip:
    def _manifest(self):
        return RunManifest(
            command="compare", target="crc32", seed=7,
            config_hash=config_hash(BASE_CONFIG), wall_seconds=1.25,
            headline={"ipc_real": 0.9},
            phases={"core.profiler": {"count": 1, "wall_s": 0.1, "cpu_s": 0.1}},
            metrics={"sim.mips": {"type": "gauge", "value": 3.0}})

    def test_save_load_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = manifest.save(tmp_path / "run")
        assert path.endswith("manifest.json")
        loaded = RunManifest.load(tmp_path / "run")  # by directory
        assert loaded == manifest
        assert RunManifest.load(path) == manifest  # by file path

    def test_to_dict_is_json_serializable(self):
        json.dumps(self._manifest().to_dict())

    def test_validate_accepts_round_trip(self, tmp_path):
        path = self._manifest().save(tmp_path)
        with open(path) as handle:
            assert validate_manifest(json.load(handle)) == []

    def test_load_rejects_invalid(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"command": 3}')
        with pytest.raises(ValueError):
            RunManifest.load(tmp_path)

    def test_collect_pulls_global_telemetry(self):
        from repro.obs import REGISTRY, reset_telemetry, span
        reset_telemetry()
        REGISTRY.counter("t.count").inc(2)
        with span("t.phase"):
            pass
        manifest = RunManifest.collect("test", target="x", seed=1,
                                       config=BASE_CONFIG)
        assert manifest.metrics["t.count"]["value"] == 2
        assert "t.phase" in manifest.phases
        assert manifest.config_hash == config_hash(BASE_CONFIG)
        assert validate_manifest(manifest.to_dict()) == []
        reset_telemetry()


class TestValidateManifest:
    def test_not_a_dict(self):
        assert validate_manifest([]) == ["manifest is not an object"]

    def test_missing_required_keys_reported(self):
        errors = validate_manifest({})
        assert any("command" in error for error in errors)
        assert any("schema_version" in error for error in errors)

    def test_newer_schema_rejected(self, tmp_path):
        data = RunManifest(command="x").to_dict()
        data["schema_version"] = MANIFEST_SCHEMA_VERSION + 1
        assert any("newer" in error for error in validate_manifest(data))

    def test_malformed_phase_reported(self):
        data = RunManifest(command="x").to_dict()
        data["phases"] = {"p": {"count": 1}}
        assert any("phase" in error for error in validate_manifest(data))

    def test_negative_wall_time_reported(self):
        data = RunManifest(command="x").to_dict()
        data["wall_seconds"] = -1
        assert any("negative" in error for error in validate_manifest(data))
