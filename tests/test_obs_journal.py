"""Event journal: per-pid files, concurrent writers, merged reads."""

import json
import multiprocessing
import os

import pytest

from repro.obs.journal import (
    JOURNAL_DIR_ENV,
    Journal,
    active_journal,
    configure_journal,
    emit_event,
    emit_metric_deltas,
    read_journal,
    suspend_journal,
)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import reset_trace_state


@pytest.fixture(autouse=True)
def _clean_journal_state():
    yield
    configure_journal(None)
    reset_trace_state()
    os.environ.pop(JOURNAL_DIR_ENV, None)


class TestJournalWriter:
    def test_emit_and_read_round_trip(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("run_begin", command="test")
        emit_event("progress", done=3, total=10, unit="configs")
        configure_journal(None)
        merged = read_journal(run_dir)
        assert [event["kind"] for event in merged.events] \
            == ["run_begin", "progress"]
        assert merged.events[0]["command"] == "test"
        assert merged.events[1]["done"] == 3
        assert merged.skipped == 0

    def test_one_file_per_pid(self, tmp_path):
        run_dir = str(tmp_path / "run")
        journal = configure_journal(run_dir)
        emit_event("run_begin")
        assert os.path.basename(journal.path) \
            == f"journal-{os.getpid()}.jsonl"
        assert os.path.exists(journal.path)

    def test_envelope_fields_present_and_monotonic_seq(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        for index in range(5):
            emit_event("progress", done=index)
        configure_journal(None)
        merged = read_journal(run_dir)
        for event in merged.events:
            assert {"ts", "pid", "seq", "kind"} <= set(event)
        assert [event["seq"] for event in merged.events] == [1, 2, 3, 4, 5]

    def test_zero_cost_when_off(self, tmp_path, monkeypatch):
        monkeypatch.delenv(JOURNAL_DIR_ENV, raising=False)
        configure_journal(None)
        assert active_journal() is None
        emit_event("progress", done=1)  # must not raise or write

    def test_fresh_removes_stale_journals(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        stale = run_dir / "journal-99999.jsonl"
        stale.write_text('{"ts": 1, "pid": 99999, "seq": 1, '
                         '"kind": "run_begin"}\n')
        configure_journal(str(run_dir), fresh=True)
        emit_event("run_begin")
        configure_journal(None)
        assert not stale.exists()
        merged = read_journal(str(run_dir))
        assert merged.pids() == [os.getpid()]

    def test_worker_resolves_journal_from_environment(self, tmp_path,
                                                      monkeypatch):
        run_dir = str(tmp_path / "run")
        configure_journal(None)
        monkeypatch.setenv(JOURNAL_DIR_ENV, run_dir)
        # Simulates a pool worker: nobody called configure_journal here.
        journal = active_journal()
        assert journal is not None
        assert journal.run_dir == run_dir
        configure_journal(None)

    def test_suspend_journal_hides_env_and_active(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("run_begin")
        with suspend_journal():
            assert active_journal() is None
            assert os.environ.get(JOURNAL_DIR_ENV) is None
            emit_event("progress", done=1)  # dropped
        emit_event("run_end")
        configure_journal(None)
        kinds = [event["kind"] for event in read_journal(run_dir).events]
        assert kinds == ["run_begin", "run_end"]

    def test_emit_survives_unwritable_directory(self, tmp_path):
        journal = Journal(str(tmp_path / "missing" / "deeper"))
        journal.emit("run_begin")  # creates the directory
        assert os.path.exists(journal.path)


class TestMergedReads:
    def test_torn_final_line_skipped_and_counted(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        good = {"ts": 1.0, "pid": 1, "seq": 1, "kind": "run_begin"}
        (run_dir / "journal-1.jsonl").write_text(
            json.dumps(good) + "\n" + '{"ts": 2.0, "pid": 1, "se')
        merged = read_journal(str(run_dir))
        assert len(merged.events) == 1
        assert merged.skipped == 1

    def test_non_envelope_lines_skipped(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "journal-1.jsonl").write_text(
            '{"kind": "run_begin"}\n[1, 2]\n')
        merged = read_journal(str(run_dir))
        assert len(merged.events) == 0
        assert merged.skipped == 2

    def test_missing_run_dir_is_empty_not_error(self, tmp_path):
        merged = read_journal(str(tmp_path / "nope"))
        assert len(merged.events) == 0
        assert merged.files == []

    def test_merge_orders_by_time_then_pid_then_seq(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "journal-2.jsonl").write_text("\n".join(
            json.dumps({"ts": ts, "pid": 2, "seq": seq, "kind": "progress"})
            for seq, ts in enumerate([1.0, 3.0], start=1)) + "\n")
        (run_dir / "journal-1.jsonl").write_text("\n".join(
            json.dumps({"ts": ts, "pid": 1, "seq": seq, "kind": "progress"})
            for seq, ts in enumerate([2.0, 4.0], start=1)) + "\n")
        merged = read_journal(str(run_dir))
        assert [(event["ts"], event["pid"]) for event in merged.events] \
            == [(1.0, 2), (2.0, 1), (3.0, 2), (4.0, 1)]

    def test_run_info(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("run_begin", command="compare")
        emit_event("run_end", exit_code=0, wall_seconds=1.5)
        configure_journal(None)
        merged = read_journal(run_dir)
        begin, end = merged.run_info()
        assert begin["command"] == "compare"
        assert end["exit_code"] == 0

    def test_invocations_pair_each_begin_with_its_own_end(self, tmp_path):
        # A run then a resume append to one journal: each invocation
        # keeps its own envelope, and run_info() is the latest one.
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("run_begin", command="fleet", argv=["run"])
        emit_event("run_end", exit_code=0, wall_seconds=1.6)
        emit_event("run_begin", command="fleet", argv=["resume"])
        emit_event("run_end", exit_code=0, wall_seconds=0.03)
        emit_event("run_begin", command="fleet", argv=["resume"])
        configure_journal(None)
        merged = read_journal(run_dir)
        pairs = merged.invocations()
        assert [(begin["argv"], end and end["wall_seconds"])
                for begin, end in pairs] == [
            (["run"], 1.6), (["resume"], 0.03), (["resume"], None)]
        assert merged.run_info() == pairs[-1]

    def test_open_spans_tracks_unclosed_only(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        events = [
            {"ts": 1.0, "pid": 7, "seq": 1, "kind": "span_open",
             "span": "7-1", "parent": None, "name": "outer"},
            {"ts": 2.0, "pid": 7, "seq": 2, "kind": "span_open",
             "span": "7-2", "parent": "7-1", "name": "inner"},
            {"ts": 3.0, "pid": 7, "seq": 3, "kind": "span_close",
             "span": "7-2", "parent": "7-1", "name": "inner",
             "wall_s": 1.0},
        ]
        (run_dir / "journal-7.jsonl").write_text(
            "".join(json.dumps(event) + "\n" for event in events))
        open_spans = read_journal(str(run_dir)).open_spans()
        assert list(open_spans) == [7]
        assert [event["name"] for event in open_spans[7]] == ["outer"]

    def test_latest_progress_per_pid_and_unit(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("progress", done=1, total=9, unit="configs")
        emit_event("progress", done=5, total=9, unit="configs")
        configure_journal(None)
        latest = read_journal(run_dir).latest_progress()
        ((_, unit), event), = latest.items()
        assert unit == "configs"
        assert event["done"] == 5


def _hammer(run_dir, worker, count):
    configure_journal(run_dir)
    for index in range(count):
        emit_event("progress", done=index, worker=worker)
    configure_journal(None)


class TestConcurrentWriters:
    def test_concurrent_processes_never_tear_lines(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        emit_event("run_begin")
        configure_journal(None)
        workers = [multiprocessing.Process(target=_hammer,
                                           args=(run_dir, worker, 200))
                   for worker in range(2)]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=60)
            assert process.exitcode == 0
        merged = read_journal(run_dir)
        assert merged.skipped == 0
        assert len(merged.events) == 1 + 2 * 200
        assert len(merged.pids()) == 3
        # Each writer's own sequence survives the merge in order.
        for pid in merged.pids():
            seqs = [event["seq"] for event in merged.events
                    if event["pid"] == pid]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs))


class TestMetricDeltas:
    def test_deltas_emitted_once_per_change(self, tmp_path):
        run_dir = str(tmp_path / "run")
        configure_journal(run_dir)
        counter = REGISTRY.counter("test.journal.delta")
        base = counter.value
        counter.inc(3)
        emit_metric_deltas()
        emit_metric_deltas()  # no change since baseline: no second event
        counter.inc(2)
        emit_metric_deltas()
        configure_journal(None)
        metrics = read_journal(run_dir).of_kind("metrics")
        deltas = [event["deltas"].get("test.journal.delta")
                  for event in metrics
                  if "test.journal.delta" in event["deltas"]]
        assert deltas == ([base + 3, 2] if base else [3, 2])
