"""CLI observability: journaled runs, trace/tail views, degradation."""

import json
import os

import pytest

from repro.cli import EXIT_BAD_TARGET, EXIT_LOAD_FAILED, main
from repro.obs.journal import (JOURNAL_DIR_ENV, configure_journal,
                               read_journal)
from repro.obs.trace import (build_span_tree, reset_trace_state,
                             span_coverage)


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    monkeypatch.delenv(JOURNAL_DIR_ENV, raising=False)
    reset_trace_state()
    yield
    configure_journal(None)
    reset_trace_state()


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """One compare run with a journal, shared across tests."""
    run_dir = tmp_path_factory.mktemp("obs") / "run"
    code = main(["compare", "crc32", "--instructions", "20000",
                 "--run-dir", str(run_dir)])
    assert code == 0
    configure_journal(None)
    reset_trace_state()
    return run_dir


@pytest.fixture(scope="module")
def journaled_fleet_run(tmp_path_factory):
    """A 2-worker fleet run journaled through ``--run-dir``: one trace
    group per worker.  The clones' synthesis seed is used by no other
    test, so each worker first synthesizes its clone, long enough for
    the sibling to claim its own block before anything is stealable."""
    root = tmp_path_factory.mktemp("obs-fleet")
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps({
        "name": "obs-grid", "kernels": ["crc32", "sha"],
        "subject": "clone", "seeds": [1901],
        "pipeline_cap": 20_000, "axes": {"width": [1, 2]}}))
    run_dir = root / "run"
    code = main(["fleet", "run", str(recipe), "--dir", str(root / "fleet"),
                 "--workers", "2", "--run-dir", str(run_dir)])
    assert code == 0
    configure_journal(None)
    reset_trace_state()
    return run_dir


class TestJournaledRun:
    def test_run_dir_grows_journal_files(self, journaled_run):
        names = sorted(os.listdir(journaled_run))
        assert "manifest.json" in names
        assert any(name.startswith("journal-") for name in names)

    def test_journal_has_run_envelope_and_spans(self, journaled_run):
        merged = read_journal(str(journaled_run))
        assert merged.skipped == 0
        begin, end = merged.run_info()
        assert begin["command"] == "compare"
        assert end["exit_code"] == 0
        kinds = {event["kind"] for event in merged.events}
        assert {"span_open", "span_close", "metrics"} <= kinds

    def test_span_tree_covers_at_least_95_percent_of_wall(
            self, journaled_run):
        merged = read_journal(str(journaled_run))
        _, end = merged.run_info()
        roots = build_span_tree(merged.events)
        assert span_coverage(roots, end["wall_seconds"]) >= 0.95

    def test_compare_runs_in_process(self, journaled_run):
        merged = read_journal(str(journaled_run))
        roots = build_span_tree(merged.events)
        assert [root.name for root in roots] == ["cli.compare"]
        nodes = list(roots[0].walk())
        assert {node.pid for node in nodes} == {roots[0].pid}
        sweeps = [node for node in nodes if node.name == "uarch.sweep"]
        assert len(sweeps) == 2  # real, then clone
        assert all(node.parent == roots[0].sid for node in sweeps)

    def test_worker_spans_attach_under_cli_root(self, journaled_fleet_run):
        merged = read_journal(str(journaled_fleet_run))
        roots = build_span_tree(merged.events)
        assert [root.name for root in roots] == ["cli.fleet"]
        root = roots[0]
        cells = [node for node in root.walk() if node.name == "fleet.cell"]
        assert len(cells) == 4
        # Forked workers inherit the open-span stack: their cells stitch
        # under the CLI root from processes other than the CLI's own.
        cell_pids = {node.pid for node in cells}
        assert len(cell_pids) == 2
        assert root.pid not in cell_pids

    def test_quiet_suppresses_journaling(self, tmp_path, capsys):
        run_dir = tmp_path / "quiet-run"
        assert main(["profile", "crc32", "-o",
                     str(tmp_path / "p.json"), "--run-dir", str(run_dir),
                     "--quiet"]) == 0
        assert not any(name.startswith("journal-")
                       for name in os.listdir(run_dir))


class TestTraceCommand:
    def test_renders_all_views(self, journaled_run, capsys):
        assert main(["trace", str(journaled_run)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "critical path" in out
        assert "span path" in out  # flame table header
        assert "cli.compare" in out

    def test_single_view_selection(self, journaled_run, capsys):
        assert main(["trace", str(journaled_run), "--view", "flame"]) == 0
        out = capsys.readouterr().out
        assert "span path" in out
        assert "critical path" not in out

    def test_chrome_export_writes_loadable_json(self, journaled_run,
                                                tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["trace", str(journaled_run),
                     "--chrome", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]
        phases = {entry["ph"] for entry in payload["traceEvents"]}
        assert "X" in phases

    def test_missing_run_dir_distinct_exit(self, tmp_path):
        assert main(["trace", str(tmp_path / "nope")]) == EXIT_BAD_TARGET

    def test_empty_run_dir_distinct_exit(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["trace", str(empty)]) == EXIT_LOAD_FAILED

    def test_json_mode_emits_summary(self, journaled_run, capsys):
        assert main(["--json", "trace", str(journaled_run)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "trace"
        assert payload["events"] > 0
        assert payload["pids"]


class TestTailCommand:
    def test_one_shot_snapshot_of_finished_run(self, journaled_run,
                                               capsys):
        assert main(["tail", str(journaled_run)]) == 0
        out = capsys.readouterr().out
        assert "finished" in out
        assert "run: compare crc32" in out

    def test_tail_of_running_run_shows_open_spans(self, tmp_path, capsys):
        run_dir = str(tmp_path / "live")
        configure_journal(run_dir)
        from repro.obs.journal import emit_event
        from repro.obs.trace import begin_span
        emit_event("run_begin", command="compare", target="crc32")
        begin_span("cli.compare")
        emit_event("progress", done=3, total=9, unit="configs",
                   label="base")
        configure_journal(None)
        reset_trace_state()
        assert main(["tail", run_dir]) == 0
        out = capsys.readouterr().out
        assert "running" in out
        assert "cli.compare" in out
        assert "3/9" in out

    def test_missing_run_dir_distinct_exit(self, tmp_path):
        assert main(["tail", str(tmp_path / "nope")]) == EXIT_BAD_TARGET


class TestReportDegradation:
    def test_corrupt_manifest_without_journal_still_fails(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text('{"command": 7}')
        assert main(["report", str(run_dir)]) == EXIT_LOAD_FAILED

    def test_corrupt_manifest_with_journal_degrades(self, journaled_run,
                                                    capsys):
        manifest = journaled_run / "manifest.json"
        saved = manifest.read_text()
        try:
            manifest.write_text("{truncated")
            assert main(["report", str(journaled_run)]) == 0
            out = capsys.readouterr().out
            assert "degraded" in out or "journal" in out
        finally:
            manifest.write_text(saved)

    def test_partial_manifest_fields_salvaged(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        configure_journal(str(run_dir))
        from repro.obs.journal import emit_event
        emit_event("run_begin", command="compare")
        emit_event("run_end", exit_code=0, wall_seconds=0.5)
        configure_journal(None)
        (run_dir / "manifest.json").write_text(
            '{"command": "compare", "target": 42}')
        assert main(["report", str(run_dir)]) == 0

    def test_report_timeline_renders_journal_views(self, journaled_run,
                                                   capsys):
        assert main(["report", str(journaled_run), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "span path" in out


class TestSelfProfileFlag:
    def test_profile_block_lands_in_manifest(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["compare", "crc32", "--instructions", "60000",
                     "--profile", "--run-dir", str(run_dir)]) == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema_version"] >= 3
        profile = manifest["profile"]
        assert profile is not None
        assert "samples" in profile and "top" in profile
        out = capsys.readouterr().out
        assert "profile:" in out

    def test_profile_absent_by_default(self, journaled_run):
        manifest = json.loads(
            (journaled_run / "manifest.json").read_text())
        assert manifest.get("profile") is None
