"""Fleet orchestration: end-to-end runs, crash/resume byte-identity."""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.fleet import (
    FleetError,
    FleetQueue,
    FleetWorker,
    Recipe,
    collect_matrix,
    fleet_status,
    init_run,
    matrix_bytes,
    run_fleet,
    scheduler,
)
from repro.fleet.worker import worker_entry
from repro.obs.journal import configure_journal
from repro.uarch import IncrementalSession


def dead_pid():
    """A pid that provably does not exist right now."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid

PAIR = Recipe(name="pair", kernels=["crc32"], pipeline_cap=20_000,
              axes={"width": [1, 2]})

GRID = Recipe(name="grid", kernels=["crc32", "sha"], pipeline_cap=20_000,
              axes={"width": [1, 2], "predictor": ["gap", "nottaken"]})


@pytest.fixture
def two_cell_blocks(monkeypatch):
    """Cut GRID's 4-cell trace groups into two 2-cell blocks each
    (forked workers inherit the patched size)."""
    monkeypatch.setattr(scheduler, "BLOCK_INSTRUCTIONS",
                        2 * GRID.pipeline_cap)


def journal_events(run_dir):
    events = []
    for name in os.listdir(run_dir):
        if name.startswith("journal-") and name.endswith(".jsonl"):
            with open(os.path.join(run_dir, name)) as handle:
                events.extend(json.loads(line) for line in handle
                              if line.strip())
    return events


def summed_deltas(events, name):
    return sum(event["deltas"].get(name, 0) for event in events
               if event.get("kind") == "metrics")


def publish_legacy(queue, cell_id, payload):
    """Write one cell's result file the way the per-cell fleet did."""
    with open(queue.result_path(cell_id), "w") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def result_snapshot(run_dir):
    """(bytes, mtime_ns) of every published result file."""
    results_dir = os.path.join(run_dir, "results")
    snapshot = {}
    for name in sorted(os.listdir(results_dir)):
        path = os.path.join(results_dir, name)
        with open(path, "rb") as handle:
            snapshot[name] = (handle.read(), os.stat(path).st_mtime_ns)
    return snapshot


class TestRun:
    def test_single_worker_completes_and_exports(self, tmp_path):
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, PAIR)
        assert summary["complete"] is True
        assert summary["cells"] == summary["completed"] == 2
        assert summary["executed"] == 2 and summary["skipped"] == 0
        assert os.path.exists(os.path.join(run_dir, "matrix.json"))
        matrix = collect_matrix(run_dir)
        assert [row["config"] for row in matrix["cells"]] == \
            ["width=1", "width=2"]
        for row in matrix["cells"]:
            metrics = row["metrics"]
            assert metrics["instructions"] > 0
            assert metrics["cycles"] > 0
            assert metrics["power"] > 0
        # One block, one result file, holding both cells.
        [block] = FleetWorker(run_dir, 0, 1).blocks
        assert sorted(os.listdir(os.path.join(run_dir, "results"))) == \
            [f"{block.block_id}.json"]
        assert not os.path.exists(os.path.join(run_dir, "cells.json"))

    def test_one_sweep_call_per_block(self, tmp_path, monkeypatch,
                                      two_cell_blocks):
        calls = []
        original = IncrementalSession.run

        def counted(session, configs):
            calls.append([config.name for config in configs])
            return original(session, configs)
        monkeypatch.setattr(IncrementalSession, "run", counted)
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, GRID)
        blocks = FleetWorker(run_dir, 0, 1).blocks
        assert sorted(calls) == sorted(
            [cell.config.name for cell in block.cells] for block in blocks)

    def test_matrix_export_reads_each_block_file_once(self, tmp_path,
                                                      monkeypatch,
                                                      two_cell_blocks):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, GRID)
        reads = []
        original = FleetQueue._read

        def counted(queue, stem):
            reads.append(stem)
            return original(queue, stem)
        monkeypatch.setattr(FleetQueue, "_read", counted)
        matrix_bytes(run_dir)
        assert sorted(reads) == sorted(
            block.block_id for block in FleetWorker(run_dir, 0, 1).blocks)

    def test_finished_block_is_never_claimed_again(self, tmp_path,
                                                   two_cell_blocks):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, GRID, workers=2)
        queue = FleetQueue(run_dir)
        for block in FleetWorker(run_dir, 0, 1).blocks:
            assert queue.claim(block.block_id, "late") is False
            assert queue.has_result(block.block_id)
        assert queue.leased_ids() == set()

    def test_torn_block_file_is_rerun_on_resume(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, GRID)
        torn, whole = FleetWorker(run_dir, 0, 1).blocks
        path = FleetQueue(run_dir).result_path(torn.block_id)
        with open(path, "r+") as handle:
            handle.truncate(40)
        os.remove(os.path.join(run_dir, "matrix.json"))
        kept = result_snapshot(run_dir)[f"{whole.block_id}.json"]
        summary = run_fleet(run_dir)
        assert summary["complete"] is True
        assert summary["skipped"] == 4 and summary["executed"] == 4
        assert result_snapshot(run_dir)[f"{whole.block_id}.json"] == kept
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_finished_block_lease_is_swept_not_reclaimed(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, GRID)
        block = FleetWorker(run_dir, 0, 1).blocks[0]
        # A lease left behind on a block that has its result (its owner
        # died between publishing and releasing).
        record = {"worker": "gone", "pid": dead_pid(),
                  "host": FleetQueue(run_dir).host, "ts": 0.0}
        with open(FleetQueue(run_dir).lease_path(block.block_id),
                  "w") as handle:
            json.dump(record, handle)
        summary = run_fleet(run_dir)
        assert summary["executed"] == 0
        assert FleetQueue(run_dir).leased_ids() == set()
        begin = [event for event in journal_events(run_dir)
                 if event.get("event") == "run_begin"][-1]
        assert begin["reclaimed"] == 0
        assert not any(event.get("event") == "reclaim"
                       for event in journal_events(run_dir))

    def test_resume_skips_completed_byte_for_byte(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        before = result_snapshot(run_dir)
        matrix_before = open(os.path.join(run_dir, "matrix.json"),
                             "rb").read()
        summary = run_fleet(run_dir)  # recipe=None: the resume path
        assert summary["executed"] == 0
        assert summary["skipped"] == 2
        assert result_snapshot(run_dir) == before  # bytes AND mtimes
        assert open(os.path.join(run_dir, "matrix.json"),
                    "rb").read() == matrix_before

    def test_two_workers_match_one_worker_bytes(self, tmp_path):
        solo = str(tmp_path / "solo")
        duo = str(tmp_path / "duo")
        run_fleet(solo, GRID, workers=1)
        summary = run_fleet(duo, GRID, workers=2)
        assert summary["complete"] is True
        assert matrix_bytes(duo) == matrix_bytes(solo)

    def test_run_dir_bound_to_one_recipe(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="refusing"):
            init_run(run_dir, GRID)

    def test_incomplete_matrix_refuses_collection(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        with pytest.raises(FleetError, match="incomplete"):
            collect_matrix(run_dir)

    def test_journal_lands_in_run_dir(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        kinds = {event.get("event") for event in events
                 if event.get("kind") == "fleet"}
        assert {"run_begin", "claim", "complete", "run_end"} <= kinds
        assert any(event.get("kind") == "progress"
                   and event.get("unit") == "cells" for event in events)


class TestStoreReads:
    """A fleet run reads the artifact store like any other run: it
    leaves nothing in the cache but its trace entries, and an entry
    evicted mid-run costs a rebuild, never a different result."""

    def test_run_leaves_no_pins_dir(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        run_fleet(str(tmp_path / "run"), PAIR)
        assert not (cache / "pins").exists()
        # PAIR's one trace entry is all the run wrote.
        assert len(os.listdir(cache / "artifacts")) == 1

    def test_budgeted_store_matrix_matches_unbudgeted(
            self, tmp_path, monkeypatch):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)
        # A fresh cache dir re-resolves the default store, with a budget
        # under which every write evicts everything, itself included.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "budgeted"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1")
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID, workers=2)
        assert summary["complete"] is True
        assert summary["dead_workers"] == 0
        assert summed_deltas(journal_events(run_dir),
                             "exec.store.eviction") >= 2
        assert matrix_bytes(run_dir) == matrix_bytes(reference)


class TestStatus:
    def test_fresh_dir_status(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["cells"] == 2 and status["completed"] == 0
        assert status["pending"] == 2 and not status["complete"]
        assert status["matrix"] is False

    def test_complete_status_carries_worker_summaries(self, tmp_path):
        run_dir = str(tmp_path / "run")
        run_fleet(run_dir, PAIR)
        status = fleet_status(run_dir)
        assert status["complete"] is True and status["matrix"] is True
        assert status["leased"] == 0
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 2

    def test_held_block_lease_counts_its_pending_cells(
            self, tmp_path, two_cell_blocks):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        worker = FleetWorker(run_dir, 0, 1)
        block = worker.blocks[1]
        assert len(worker.blocks) == 4 and len(block) == 2
        # One of the block's cells was published by the per-cell fleet,
        # the other is still running under the block's lease.
        publish_legacy(worker.queue, block.cells[0].cell_id,
                       {"metrics": {}})
        assert worker.queue.claim(block.block_id, worker.worker_id)
        status = fleet_status(run_dir)
        assert status["cells"] == 8
        assert status["completed"] == 1
        assert status["leased"] == 1
        assert status["pending"] == 7
        worker.queue.release(block.block_id)
        assert fleet_status(run_dir)["leased"] == 0

    def test_not_a_run_dir(self, tmp_path):
        with pytest.raises(FleetError, match="not a fleet run"):
            fleet_status(str(tmp_path / "nope"))


class TestCrashResume:
    """The acceptance scenario: SIGKILL a worker mid-block, resume, and
    get a byte-identical matrix with completed cells skipped."""

    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        # GRID's two traces are one 4-cell block each: the kill lands in
        # the second block, after its timing and before its publication.
        crashed = run_fleet(run_dir, GRID, workers=1, chaos="0:4")
        assert crashed["complete"] is False
        assert crashed["dead_workers"] == 1
        assert crashed["completed"] == 4  # the first block only
        # The stranded block lease was reclaimed by the orchestrator.
        queue = FleetQueue(run_dir)
        assert queue.leased_ids() == set()

        survivors = result_snapshot(run_dir)
        resumed = run_fleet(run_dir)
        assert resumed["complete"] is True
        assert resumed["skipped"] == 4
        assert resumed["executed"] == 4
        # Surviving results were never rewritten (bytes and mtimes)...
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        # ...no duplicates appeared (one file per block)...
        assert len(survivors) == 1 and len(after) == 2
        # ...and the final matrix is byte-identical to the
        # never-interrupted reference run.
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_sibling_reclaims_dead_workers_cell_live(self, tmp_path):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID)

        run_dir = str(tmp_path / "chaotic")
        # Worker 0 dies mid-block after 1 cell; worker 1 must pick up the
        # stranded lease (dead-pid fast path) and finish the whole
        # matrix in this single invocation.
        summary = run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        assert summary["dead_workers"] == 1
        assert summary["complete"] is True
        assert matrix_bytes(run_dir) == matrix_bytes(reference)

    def test_reclaim_event_journaled(self, tmp_path):
        run_dir = str(tmp_path / "chaotic")
        run_fleet(run_dir, GRID, workers=2, chaos="0:1")
        events = journal_events(run_dir)
        reclaims = [event for event in events
                    if event.get("kind") == "fleet"
                    and event.get("event") == "reclaim"]
        assert reclaims
        assert any(event.get("reason") == "dead_pid"
                   for event in reclaims)
        # The journaled counters match the events, the killed worker's
        # claim included.
        claims = [event for event in events
                  if event.get("event") in ("claim", "steal")]
        assert summed_deltas(events, "fleet.claims") == len(claims)
        assert summed_deltas(events, "fleet.reclaims") == len(reclaims)

    def test_external_sigkill_keeps_claim_counts(self, tmp_path,
                                                 monkeypatch):
        """A worker SIGKILLed from outside while it holds a block (no
        flush first, unlike the chaos drill) keeps its claim count: the
        increment is journaled with the claim event itself."""
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        holding = str(tmp_path / "holding")

        def hang(worker, cells):
            with open(holding, "w"):
                pass
            time.sleep(600)

        monkeypatch.setattr(FleetWorker, "_time_block", hang)
        configure_journal(run_dir)
        try:
            victim = multiprocessing.Process(target=worker_entry,
                                             args=(run_dir, 0, 1))
            victim.start()
            deadline = time.monotonic() + 120
            while not os.path.exists(holding):
                assert victim.is_alive() and time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
        finally:
            configure_journal(None)
        monkeypatch.undo()
        assert victim.exitcode == -signal.SIGKILL
        assert FleetQueue(run_dir).leased_ids()  # killed holding it

        assert run_fleet(run_dir)["complete"] is True
        events = journal_events(run_dir)
        fleet = [event for event in events if event.get("kind") == "fleet"]
        claims = [event for event in fleet
                  if event.get("event") in ("claim", "steal")]
        reclaims = [event for event in fleet
                    if event.get("event") == "reclaim"]
        assert any(event["pid"] == victim.pid for event in claims)
        assert len(reclaims) == 1
        assert summed_deltas(events, "fleet.claims") == len(claims)
        assert summed_deltas(events, "fleet.reclaims") == len(reclaims)

    def test_resume_journals_each_reclaim_once(self, tmp_path):
        # The orchestrator reclaims before it forks: the workers must
        # not journal the count they inherit.
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        queue = FleetQueue(run_dir)
        block = FleetWorker(run_dir, 0, 1).blocks[0]
        record = {"worker": "gone", "pid": dead_pid(), "host": queue.host,
                  "ts": 0.0}
        with open(queue.lease_path(block.block_id), "w") as handle:
            json.dump(record, handle)
        assert run_fleet(run_dir, workers=2)["complete"] is True
        assert summed_deltas(journal_events(run_dir), "fleet.reclaims") == 1

    def test_dead_thief_own_shard_lease_recovered(self, tmp_path):
        """Regression: a dead thief's lease on an own-shard block must
        be re-run by the shard owner, not livelock the poll loop
        (thieves never steal from their own shard, so after the reclaim
        the owner can be the only worker able to claim it)."""
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1)
        target = worker.shards[0][0]
        record = {"worker": "thief", "pid": dead_pid(),
                  "host": worker.queue.host, "ts": 9_999_999_999.0}
        with open(worker.queue.lease_path(target.block_id), "w") as fh:
            json.dump(record, fh)
        done = {}
        thread = threading.Thread(
            target=lambda: done.setdefault("summary", worker.run()),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert "summary" in done, "worker livelocked on own-shard cell"
        assert done["summary"]["executed"] == 2
        assert FleetQueue(run_dir).completed_ids() == \
            {cell.cell_id for cell in worker.cells}


class TestHeartbeat:
    def test_lease_refreshed_while_cell_runs(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1, lease_ttl=0.2)
        block = worker.shards[0][0]
        assert worker.queue.claim(block.block_id, worker.worker_id)
        before = worker.queue.lease_info(block.block_id)["ts"]
        with worker._heartbeat, worker._heartbeat.holding(block.block_id):
            time.sleep(0.5)
        assert worker.queue.lease_info(block.block_id)["ts"] > before
        worker.queue.release(block.block_id)

    def test_released_lease_is_never_beaten_back(self, tmp_path):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1, lease_ttl=0.01)
        block = worker.shards[0][0]
        with worker._heartbeat:
            assert worker.queue.claim(block.block_id, worker.worker_id)
            with worker._heartbeat.holding(block.block_id):
                time.sleep(0.2)
            worker.queue.release(block.block_id)
            time.sleep(0.2)
        assert worker.queue.leased_ids() == set()

    def test_slow_cells_never_expiry_stolen_from_live_workers(
            self, tmp_path):
        """With a TTL far below cell runtime, live same-host leases must
        survive (no 'expired' reclaims, no duplicated execution)."""
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID, workers=2, lease_ttl=0.01)
        assert summary["complete"] is True
        status = fleet_status(run_dir)
        assert sum(worker["executed"]
                   for worker in status["workers"]) == 8
        events = []
        for name in os.listdir(run_dir):
            if name.startswith("journal-") and name.endswith(".jsonl"):
                with open(os.path.join(run_dir, name)) as handle:
                    events.extend(json.loads(line) for line in handle
                                  if line.strip())
        assert not any(event.get("event") == "reclaim"
                       and event.get("reason") == "expired"
                       for event in events
                       if event.get("kind") == "fleet")


class TestBlocks:
    """Claims, timing and results are per block of same-trace cells."""

    def test_blocks_independent_of_worker_count(self, tmp_path,
                                                two_cell_blocks):
        run_dir = str(tmp_path / "run")
        init_run(run_dir, GRID)
        reference = FleetWorker(run_dir, 0, 1).blocks
        assert len(reference) == 4
        for n_workers in (1, 2, 3):
            for index in range(n_workers):
                worker = FleetWorker(run_dir, index, n_workers)
                assert worker.blocks == reference
                flat = [block for shard in worker.shards for block in shard]
                assert sorted(block.block_id for block in flat) == \
                    sorted(block.block_id for block in reference)
        for block in reference:
            assert len({cell.trace_key for cell in block.cells}) == 1
        cells = [cell.cell_id for block in reference for cell in block.cells]
        assert sorted(cells) == sorted(cell.cell_id for cell in GRID.expand())

    def test_block_with_published_tail_runs_its_head(self, tmp_path):
        # A run dir the per-cell fleet left mid-block: its missing head
        # cells are still claimed and run, and the tail's per-cell
        # result file is left as it was.
        run_dir = str(tmp_path / "run")
        init_run(run_dir, PAIR)
        worker = FleetWorker(run_dir, 0, 1)
        [block] = worker.blocks
        head, tail = block.cells
        publish_legacy(worker.queue, tail.cell_id, {"metrics": {}})
        before = result_snapshot(run_dir)
        done = {}
        thread = threading.Thread(
            target=lambda: done.setdefault("summary", worker.run()),
            daemon=True)
        thread.start()
        thread.join(timeout=120)
        assert "summary" in done, "worker livelocked on a partial block"
        assert done["summary"]["executed"] == 1
        after = result_snapshot(run_dir)
        assert after[f"{tail.cell_id}.json"] == \
            before[f"{tail.cell_id}.json"]
        assert sorted(after) == sorted([f"{tail.cell_id}.json",
                                        f"{block.block_id}.json"])
        assert set(worker.queue.read_result(head.cell_id)) == \
            {"schema", "cell", "metrics", "meta"}
        assert worker.queue.completed_ids() == {head.cell_id, tail.cell_id}

    def test_one_claim_per_block(self, tmp_path, two_cell_blocks):
        run_dir = str(tmp_path / "run")
        summary = run_fleet(run_dir, GRID)
        assert summary["complete"] is True
        claims = [event for event in journal_events(run_dir)
                  if event.get("kind") == "fleet"
                  and event.get("event") in ("claim", "steal")]
        assert len(claims) == 4
        progress = [event for event in journal_events(run_dir)
                    if event.get("kind") == "progress"
                    and event.get("unit") == "cells"
                    and event.get("label", "").endswith(".b2")]
        assert [event["done"] for event in progress] == [2, 4, 6, 8]

    def test_more_workers_than_cores_run_each_cell_once(
            self, tmp_path, two_cell_blocks):
        solo = str(tmp_path / "solo")
        crowd = str(tmp_path / "crowd")
        run_fleet(solo, GRID, workers=1)
        workers = (os.cpu_count() or 1) + 2
        summary = run_fleet(crowd, GRID, workers=workers)
        assert summary["complete"] is True
        assert summary["dead_workers"] == 0
        status = fleet_status(crowd)
        assert len(status["workers"]) == workers
        assert sum(worker["executed"] for worker in status["workers"]) == 8
        assert matrix_bytes(crowd) == matrix_bytes(solo)

    def test_mid_block_kill_then_resume_is_byte_identical(
            self, tmp_path, two_cell_blocks):
        reference = str(tmp_path / "reference")
        run_fleet(reference, GRID, workers=1)

        run_dir = str(tmp_path / "chaotic")
        # The kill lands inside the second block (three cells would end
        # half-way through it), after its timing and before its
        # publication: that block leaves no result file at all.
        crashed = run_fleet(run_dir, GRID, workers=1, chaos="0:3")
        assert crashed["complete"] is False
        assert crashed["completed"] == 2
        queue = FleetQueue(run_dir)
        assert queue.leased_ids() == set()  # reclaimed as a whole
        first, killed = FleetWorker(run_dir, 0, 1).shards[0][:2]
        [chaos] = [event for event in journal_events(run_dir)
                   if event.get("event") == "chaos_kill"]
        assert chaos["block"] == killed.block_id
        assert not queue.has_result(killed.block_id)

        survivors = result_snapshot(run_dir)
        assert list(survivors) == [f"{first.block_id}.json"]
        resumed = run_fleet(run_dir, workers=2)
        assert resumed["complete"] is True
        assert resumed["skipped"] == 2 and resumed["executed"] == 6
        after = result_snapshot(run_dir)
        assert {name: after[name] for name in survivors} == survivors
        assert len(after) == 4  # one file per block
        with open(os.path.join(run_dir, "matrix.json"), "rb") as handle:
            resumed_bytes = handle.read()
        with open(os.path.join(reference, "matrix.json"), "rb") as handle:
            assert resumed_bytes == handle.read()
