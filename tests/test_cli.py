"""Tests for the command-line interface."""

import json
import os

from repro.cli import (EXIT_BAD_TARGET, EXIT_ERROR, EXIT_LINT_FAILED,
                       EXIT_LOAD_FAILED, main)


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("qsort", "sha", "mpeg2dec"):
            assert name in out
        assert "automotive" in out


class TestProfile:
    def test_profile_workload_to_json(self, tmp_path, capsys):
        output = tmp_path / "p.json"
        assert main(["profile", "crc32", "-o", str(output)]) == 0
        assert output.exists()
        out = capsys.readouterr().out
        assert "instructions" in out

    def test_profile_assembly_file(self, tmp_path, capsys):
        source = tmp_path / "tiny.s"
        source.write_text("""
    .data
buf: .space 64
    .text
main:
    la r4, buf
    li r1, 0
    li r2, 50
loop:
    lw r3, 0(r4)
    addi r1, r1, 1
    blt r1, r2, loop
    halt
""")
        output = tmp_path / "tiny.json"
        assert main(["profile", str(source), "-o", str(output)]) == 0
        assert output.exists()

    def test_unknown_target_distinct_exit_code(self, capsys):
        assert main(["profile", "not-a-workload"]) == EXIT_BAD_TARGET

    def test_corrupt_profile_json_distinct_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["estimate", str(bad)]) == EXIT_LOAD_FAILED

    def test_unparseable_assembly_distinct_exit_code(self, tmp_path):
        bad = tmp_path / "bad.s"
        bad.write_text("    .text\nmain:\n    frobnicate r1, r2\n")
        assert main(["profile", str(bad)]) == EXIT_LOAD_FAILED


class TestClone:
    def test_clone_from_workload(self, tmp_path, capsys):
        outdir = tmp_path / "out"
        assert main(["clone", "bitcount", "-o", str(outdir),
                     "--instructions", "30000"]) == 0
        files = os.listdir(outdir)
        assert any(name.endswith(".clone.s") for name in files)
        assert any(name.endswith(".clone.c") for name in files)

    def test_clone_from_json_profile(self, tmp_path, capsys):
        profile_path = tmp_path / "p.json"
        main(["profile", "bitcount", "-o", str(profile_path)])
        outdir = tmp_path / "out2"
        assert main(["clone", str(profile_path), "-o", str(outdir),
                     "--instructions", "30000"]) == 0
        assert os.listdir(outdir)

    def test_clone_artifacts_reassemble(self, tmp_path):
        from repro.isa import assemble
        outdir = tmp_path / "out3"
        main(["clone", "bitcount", "-o", str(outdir),
              "--instructions", "20000"])
        asm_file = [name for name in os.listdir(outdir)
                    if name.endswith(".s")][0]
        with open(outdir / asm_file) as handle:
            program = assemble(handle.read())
        assert len(program) > 50


class TestAnalysis:
    def test_compare(self, capsys):
        assert main(["compare", "bitcount",
                     "--instructions", "30000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "power" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "bitcount",
                     "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "statistical IPC estimate" in out


class TestObservability:
    def test_json_output_parses_and_carries_manifest(self, capsys):
        assert main(["compare", "bitcount",
                     "--instructions", "20000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["command"] == "compare"
        assert data["rows"]
        manifest = data["manifest"]
        assert manifest["seed"] == 42
        assert manifest["config_hash"]
        assert manifest["phases"]  # per-phase wall times present
        assert manifest["headline"]["sim_mips_clone"] >= 0

    def test_list_json(self, capsys):
        assert main(["list", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        names = [row["workload"] for row in data["workloads"]]
        assert "qsort" in names

    def test_report_on_fresh_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["estimate", "bitcount", "--instructions", "20000",
                     "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "manifest.json").exists()
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "run: estimate bitcount" in out
        assert "phases:" in out
        assert "ipc_estimate" in out

    def test_report_missing_dir(self, tmp_path):
        assert main(["report", str(tmp_path / "nope")]) == EXIT_BAD_TARGET

    def test_report_corrupt_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text('{"command": 7}')
        assert main(["report", str(run_dir)]) == EXIT_LOAD_FAILED

    def test_quiet_disables_telemetry(self, capsys):
        from repro.obs import phase_table, telemetry_enabled
        assert main(["estimate", "bitcount", "--instructions", "20000",
                     "--quiet"]) == 0
        assert not telemetry_enabled()
        assert phase_table() == {}
        # Re-enable for the rest of the test session.
        from repro.obs import set_telemetry_enabled
        set_telemetry_enabled(True)

    def test_global_flag_position_before_subcommand(self, capsys):
        assert main(["--json", "estimate", "bitcount",
                     "--instructions", "20000"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "ipc_estimate" in data

class TestExecIntegration:
    def test_json_carries_artifact_cache_provenance(self, capsys):
        args = ["compare", "bitcount", "--instructions", "20000", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        cache = first["artifact_cache"]
        assert set(cache) >= {"root", "enabled", "hits", "misses", "writes"}
        assert "artifact_cache_hits" in first["manifest"]["headline"]
        # The second identical invocation must be served from the store.
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["artifact_cache"]["hits"] >= 1
        assert second["rows"] == first["rows"]


BROKEN_SOURCE = """
    .data
buf:    .word 0
    .text
main:
    add  r6, r5, r7
    la   r4, buf
    sw   r6, 640(r4)
    halt
"""


class TestLint:
    def test_lint_clean_workload(self, capsys):
        assert main(["lint", "crc32"]) == 0
        out = capsys.readouterr().out
        assert "lint PASS" in out

    def test_lint_broken_assembly_fails(self, tmp_path, capsys):
        source = tmp_path / "broken.s"
        source.write_text(BROKEN_SOURCE)
        assert main(["lint", str(source)]) == EXIT_LINT_FAILED
        out = capsys.readouterr().out
        assert "SR106" in out
        assert "lint FAIL" in out

    def test_lint_strict_promotes_warnings(self, tmp_path, capsys):
        source = tmp_path / "warny.s"
        source.write_text("""
    .text
main:
    add  r6, r5, r0
    halt
""")
        assert main(["lint", str(source)]) == 0
        assert main(["lint", "--strict", str(source)]) == EXIT_LINT_FAILED
        assert "SR104" in capsys.readouterr().out

    def test_lint_requires_a_target(self, capsys):
        assert main(["lint"]) == EXIT_BAD_TARGET

    def test_lint_unknown_target(self, capsys):
        assert main(["lint", "no-such-workload"]) == EXIT_BAD_TARGET

    def test_lint_clone_mode(self, capsys):
        assert main(["lint", "--clone", "crc32",
                     "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "lint PASS" in out

    def test_lint_clone_mode_runs_the_contract(self, capsys):
        assert main(["lint", "--clone", "crc32", "--instructions", "20000",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        codes = payload["summary"]["codes"]
        assert "SR112" in codes  # the contract's safety proofs ran
        assert not any(code.startswith("CF") for code in codes)

    def test_severity_rejects_retired_code(self, capsys):
        # CF200-CF205 are retired; an override naming one is an error,
        # like any unknown code.
        assert main(["lint", "crc32", "--severity",
                     "CF202=error"]) == EXIT_ERROR
        assert main(["lint", "crc32", "--severity",
                     "CF212=error"]) == 0

    def test_lint_json_payload(self, tmp_path, capsys):
        source = tmp_path / "broken.s"
        source.write_text(BROKEN_SOURCE)
        assert main(["lint", "--json", str(source)]) == EXIT_LINT_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert payload["summary"]["codes"].get("SR106") == 1
        codes = [diag["code"] for report in payload["reports"]
                 for diag in report["diagnostics"]]
        assert "SR106" in codes

    def test_lint_verdict_lands_in_manifest_and_report(self, tmp_path,
                                                       capsys):
        run_dir = tmp_path / "run"
        assert main(["lint", "crc32", "--run-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["lint"]["ok"] is True
        assert manifest["lint"]["programs"] == 1
        capsys.readouterr()
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "lint: PASS" in out

    def test_clone_gate_failure_exits_with_lint_code(self, tmp_path,
                                                     capsys):
        # A clone command on a workload succeeds (gate passes)...
        assert main(["clone", "crc32", "--instructions", "20000"]) == 0
        assert "lint:" in capsys.readouterr().out


FLEET_RECIPE = {
    "name": "cli-grid",
    "kernels": ["crc32"],
    "pipeline_cap": 20_000,
    "axes": {"width": [1, 2]},
}


class TestFleet:
    def write_recipe(self, tmp_path, payload=None):
        path = tmp_path / "recipe.json"
        path.write_text(json.dumps(payload or FLEET_RECIPE))
        return str(path)

    def test_expand_previews_cells(self, tmp_path, capsys):
        recipe = self.write_recipe(tmp_path)
        assert main(["fleet", "expand", recipe]) == 0
        out = capsys.readouterr().out
        assert out.count("crc32-s0-") == 2
        assert "width=1" in out and "width=2" in out

    def test_run_status_resume_cycle(self, tmp_path, capsys):
        recipe = self.write_recipe(tmp_path)
        run_dir = str(tmp_path / "run")
        assert main(["fleet", "run", recipe, "--dir", run_dir]) == 0
        out = capsys.readouterr().out
        assert "2/2 cells complete" in out
        assert os.path.exists(os.path.join(run_dir, "matrix.json"))

        assert main(["fleet", "status", run_dir]) == 0
        assert "matrix.json exported" in capsys.readouterr().out

        assert main(["fleet", "resume", run_dir]) == 0
        assert "2 resumed as done" in capsys.readouterr().out

    def test_run_json_payload(self, tmp_path, capsys):
        recipe = self.write_recipe(tmp_path)
        run_dir = str(tmp_path / "run")
        assert main(["fleet", "run", recipe, "--dir", run_dir,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fleet"]["complete"] is True
        assert payload["fleet"]["cells"] == 2

    def test_tail_follows_fleet_run_dir(self, tmp_path, capsys):
        recipe = self.write_recipe(tmp_path)
        run_dir = str(tmp_path / "run")
        main(["fleet", "run", recipe, "--dir", run_dir])
        capsys.readouterr()
        assert main(["tail", run_dir]) == 0
        assert "cells" in capsys.readouterr().out

    def test_incomplete_run_exits_nonzero_then_resumes(self, tmp_path,
                                                       capsys):
        recipe = self.write_recipe(tmp_path)
        run_dir = str(tmp_path / "run")
        code = main(["fleet", "run", recipe, "--dir", run_dir,
                     "--workers", "1", "--chaos-kill", "0:1"])
        assert code == 1
        assert "repro fleet resume" in capsys.readouterr().out
        assert main(["fleet", "resume", run_dir]) == 0
        assert "2/2 cells complete" in capsys.readouterr().out

    def test_missing_recipe_bad_target(self, tmp_path):
        assert main(["fleet", "run",
                     str(tmp_path / "nope.json")]) == EXIT_BAD_TARGET

    def test_invalid_recipe_load_failed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "kernels": ["crc32"],
                                   "axes": {"not_a_knob": [1]}}))
        assert main(["fleet", "run", str(bad)]) == EXIT_LOAD_FAILED

    def test_resume_missing_dir_bad_target(self, tmp_path):
        assert main(["fleet", "resume",
                     str(tmp_path / "absent")]) == EXIT_BAD_TARGET
