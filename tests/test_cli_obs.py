"""CLI observability: journaled runs, trace/tail views, degradation."""

import contextlib
import io
import json
import os

import pytest

from perfbench.spans import LAYERS
from repro.cli import EXIT_BAD_TARGET, EXIT_LOAD_FAILED, main
from repro.fleet import FleetQueue, init_run
from repro.fleet.recipe import load_recipe
from repro.fleet.scheduler import recipe_blocks
from repro.obs import logging as obslog
from repro.obs.journal import (JOURNAL_DIR_ENV, configure_journal,
                               read_journal)
from repro.obs.trace import (build_span_tree, flame_summary,
                             reset_trace_state, set_tracing_enabled, span,
                             span_coverage)
from tests.test_fleet_run import dead_pid


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


@pytest.fixture(scope="module")
def journaled_json_run(tmp_path_factory):
    """``compare --run-dir D --json``: the manifest beside its journal."""
    run_dir = tmp_path_factory.mktemp("obs-json") / "run"
    capture = io.StringIO()
    with contextlib.redirect_stdout(capture):
        code = main(["compare", "crc32", "--instructions", "20000",
                     "--run-dir", str(run_dir), "--json"])
    assert code == 0
    configure_journal(None)
    reset_trace_state()
    return run_dir, json.loads(capture.getvalue())["manifest"]


def _opened_names(run_dir):
    return {event["name"] for event in read_journal(str(run_dir)).events
            if event["kind"] == "span_open"}


#: In-tree spans below no perfbench layer.  perfbench does not wrap
#: the assembler, so it files this time under the caller's layer.
UNWRAPPED_SPANS = {"isa.assemble"}


def _is_layer_name(name):
    return name in UNWRAPPED_SPANS or any(
        name == layer or name.startswith(layer + ".") for layer in LAYERS)


class TestLayerNamedSpans:
    def test_manifest_phases_are_the_journal_flame_rows(
            self, journaled_json_run):
        run_dir, manifest = journaled_json_run
        rows = flame_summary(build_span_tree(
            read_journal(str(run_dir)).events))
        assert {row["path"]: row["count"] for row in rows} == {
            path: entry["count"]
            for path, entry in manifest["phases"].items()}
        assert "cli.compare" in manifest["phases"]

    def test_every_span_is_cli_root_or_a_perfbench_layer(
            self, journaled_json_run, journaled_fleet_run):
        for run_dir, command in ((journaled_json_run[0], "compare"),
                                 (journaled_fleet_run, "fleet")):
            names = _opened_names(run_dir)
            assert f"cli.{command}" in names
            strays = {name for name in names - {f"cli.{command}"}
                      if not _is_layer_name(name)}
            assert strays == set()

    def test_warm_hit_times_store_reads_apart_from_assembly(
            self, tmp_path):
        for attempt in ("cold-or-warm", "warm"):
            run_dir = tmp_path / attempt
            assert main(["compare", "crc32", "--instructions", "20000",
                         "--run-dir", str(run_dir)]) == 0
            configure_journal(None)
            reset_trace_state()
        nodes = list(build_span_tree(
            read_journal(str(run_dir)).events)[0].walk())
        by_sid = {node.sid: node for node in nodes}
        loads = [node for node in nodes if node.name == "exec.store.load"]
        assembles = [node for node in nodes if node.name == "isa.assemble"]
        assert len(loads) == len(assembles) == 1
        assert assembles[0].attrs["lines"] > 100  # the stored clone
        assert by_sid[assembles[0].parent].name == "cli.compare"
        assert not [node for node in nodes
                    if node.parent == loads[0].sid]

    def test_fleet_journals_per_block_never_per_config(
            self, journaled_fleet_run):
        recipe = load_recipe(str(journaled_fleet_run.parent
                                 / "recipe.json"))
        blocks = recipe_blocks(recipe, recipe.expand())
        events = read_journal(str(journaled_fleet_run)).events
        block_spans = [event["attrs"]["block"] for event in events
                       if event["kind"] == "span_open"
                       and event["name"] == "fleet.block"]
        assert sorted(block_spans) == sorted(
            block.block_id for block in blocks)
        assert "uarch.pipeline" not in _opened_names(journaled_fleet_run)
        assert not [event for event in events
                    if event["kind"] == "progress"
                    and event.get("unit") == "configs"]


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
        blocks = [node for node in root.walk()
                  if node.name == "fleet.block"]
        assert len(blocks) == 2  # one 2-cell block per trace
        assert sum(node.attrs["cells"] for node in blocks) == 4
        # Forked workers inherit the open-span stack: their blocks stitch
        # under the CLI root from processes other than the CLI's own.
        block_pids = {node.pid for node in blocks}
        assert len(block_pids) == 2
        assert root.pid not in block_pids

    def test_fleet_journals_into_its_dir_without_run_dir(self, tmp_path):
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({
            "name": "dir-journal", "kernels": ["crc32", "sha"],
            "pipeline_cap": 20_000, "axes": {"width": [1, 2]}}))
        fleet_dir = str(tmp_path / "fleet")
        assert main(["fleet", "run", str(recipe), "--dir", fleet_dir,
                     "--workers", "2"]) == 0
        merged = read_journal(fleet_dir)
        roots = build_span_tree(merged.events)
        assert [root.name for root in roots] == ["cli.fleet"]
        blocks = [node for node in roots[0].walk()
                  if node.name == "fleet.block"]
        assert sorted(node.attrs["cells"] for node in blocks) == [2, 2]
        begin, end = merged.run_info()
        assert begin["command"] == "fleet"
        assert end["exit_code"] == 0
        # A resume appends its own envelope and tree to the same journal.
        assert main(["fleet", "resume", fleet_dir]) == 0
        merged = read_journal(fleet_dir)
        assert [root.name for root in build_span_tree(merged.events)] == \
            ["cli.fleet", "cli.fleet"]
        assert len(merged.of_kind("run_begin")) == 2
        assert len(merged.of_kind("run_end")) == 2

    def test_quiet_suppresses_journaling(self, tmp_path, capsys):
        run_dir = tmp_path / "quiet-run"
        assert main(["profile", "crc32", "-o",
                     str(tmp_path / "p.json"), "--run-dir", str(run_dir),
                     "--quiet"]) == 0
        assert not any(name.startswith("journal-")
                       for name in os.listdir(run_dir))


def _summed_deltas(run_dir, name):
    return sum(event["deltas"].get(name, 0)
               for event in read_journal(str(run_dir)).of_kind("metrics"))


def _fleet_events(run_dir, *names):
    return [event for event in read_journal(str(run_dir)).of_kind("fleet")
            if event.get("event") in names]


def _grid_recipe(path):
    path.write_text(json.dumps({
        "name": "count-grid", "kernels": ["crc32", "sha"],
        "pipeline_cap": 20_000, "axes": {"width": [1, 2]}}))
    return str(path)


@pytest.fixture
def quiet_restored():
    """Undo what a ``--quiet`` run leaves behind in this process."""
    level = obslog.current_level()
    yield
    obslog.configure(level=level)
    set_tracing_enabled(True)


class TestCountersAlwaysCount:
    """``--quiet`` stops spans and the journal, never a count."""

    def test_quiet_compare_reports_the_same_headline(
            self, capsys, quiet_restored):
        def headline(*flags):
            assert main(["compare", "crc32", "--json", *flags]) == 0
            manifest = json.loads(capsys.readouterr().out)["manifest"]
            # Host speed and cache warmth are not results.
            return manifest, {
                key: value for key, value in manifest["headline"].items()
                if not key.startswith(("sim_mips_", "artifact_cache_"))}

        loud_manifest, loud = headline()
        quiet_manifest, quiet = headline("--quiet")
        assert quiet == loud
        assert loud["rob_stalls_real"] > 0 and loud["rob_stalls_clone"] > 0
        assert quiet_manifest["phases"] == {}
        assert quiet_manifest["metrics"]["pipeline.runs"]["value"] \
            == loud_manifest["metrics"]["pipeline.runs"]["value"]
        assert set(quiet_manifest["sweep"]) == set(loud_manifest["sweep"])
        assert quiet_manifest["sweep"]["configs"] \
            == loud_manifest["sweep"]["configs"] > 0

    def test_quiet_fleet_journals_its_claims(
            self, tmp_path, quiet_restored):
        fleet_dir = tmp_path / "fleet"
        assert main(["fleet", "run", _grid_recipe(tmp_path / "r.json"),
                     "--dir", str(fleet_dir), "--workers", "2", "-q"]) == 0
        claimed = _fleet_events(fleet_dir, "claim", "steal")
        assert claimed
        assert _summed_deltas(fleet_dir, "fleet.claims") == len(claimed)

    def test_resume_journals_one_reclaim_per_reclaimed_lease(
            self, tmp_path):
        # The orchestrator reclaims a dead pid's lease, then forks two
        # workers: only the process that reclaimed journals the count.
        fleet_dir = str(tmp_path / "fleet")
        recipe = load_recipe(_grid_recipe(tmp_path / "r.json"))
        init_run(fleet_dir, recipe)
        queue = FleetQueue(fleet_dir)
        block = recipe_blocks(recipe, recipe.expand())[0]
        with open(queue.lease_path(block.block_id), "w") as handle:
            json.dump({"worker": "gone", "pid": dead_pid(),
                       "host": queue.host, "ts": 0.0}, handle)
        assert main(["fleet", "resume", fleet_dir, "--workers", "2"]) == 0
        assert len(_fleet_events(fleet_dir, "reclaim")) == 1
        assert _summed_deltas(fleet_dir, "fleet.reclaims") == 1
        assert _summed_deltas(fleet_dir, "fleet.claims") \
            == len(_fleet_events(fleet_dir, "claim", "steal"))


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

    def test_header_has_one_line_per_invocation(self, tmp_path, capsys):
        # A fleet run then a resume journal into the fleet dir; the
        # header must not pair the run's start with the resume's end.
        recipe = tmp_path / "recipe.json"
        recipe.write_text(json.dumps({
            "name": "two-runs", "kernels": ["crc32"],
            "pipeline_cap": 20_000, "axes": {"width": [1, 2]}}))
        fleet_dir = str(tmp_path / "fleet")
        assert main(["fleet", "run", str(recipe), "--dir", fleet_dir,
                     "--workers", "1"]) == 0
        assert main(["fleet", "resume", fleet_dir]) == 0
        walls = [end["wall_seconds"]
                 for end in read_journal(fleet_dir).of_kind("run_end")]
        capsys.readouterr()
        assert main(["trace", fleet_dir, "--view", "critical"]) == 0
        runs = [line.strip() for line in capsys.readouterr().out.splitlines()
                if line.startswith("  run: ")]
        assert runs == [f"run: fleet {target}: exit 0 after {wall:.3f}s"
                        for target, wall in zip((str(recipe), fleet_dir),
                                                walls)]

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
        emit_event("run_begin", command="compare", target="crc32")
        live = span("cli.compare")
        live.__enter__()  # never exited: the run is still in flight
        emit_event("progress", done=3, total=9, unit="configs",
                   label="base")
        configure_journal(None)
        reset_trace_state()
        assert main(["tail", run_dir]) == 0
        out = capsys.readouterr().out
        assert "running" in out
        assert "cli.compare" in out
        assert "3/9" in out

    def test_tail_follows_the_latest_invocation(self, tmp_path, capsys):
        # A resume in flight after a finished run is still running.
        run_dir = str(tmp_path / "resumed")
        configure_journal(run_dir)
        from repro.obs.journal import emit_event
        emit_event("run_begin", command="fleet", target="run")
        emit_event("run_end", exit_code=0, wall_seconds=1.6)
        emit_event("run_begin", command="fleet", target="resume")
        configure_journal(None)
        assert main(["tail", run_dir]) == 0
        out = capsys.readouterr().out
        assert "run: fleet resume" in out
        assert "running" in out
        assert "finished" not in out

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
