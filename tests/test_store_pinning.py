"""Pin-while-leased: live fleet runs protect their inputs from LRU."""

import json
import os
import time

import pytest

from repro.exec import ArtifactStore
from repro.exec.store import PIN_TTL_SECONDS


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(root=str(tmp_path / "cache"), enabled=True)


def put(store, key, payload=b"x" * 1024, age=None):
    def writer(path):
        with open(path, "wb") as handle:
            handle.write(payload)
    store.save(key, {"kind": "test"}, {"blob.bin": writer})
    if age is not None:
        stamp = time.time() - age
        os.utime(store.entry_dir(key), (stamp, stamp))


class TestPinning:
    def test_pinned_entries_survive_prune(self, store):
        put(store, "old-pinned", age=300)
        put(store, "old-loose", age=200)
        put(store, "young", age=0)
        store.pin("run-a", ["old-pinned"])
        evicted = store.prune(max_bytes=2500)
        assert evicted == ["old-loose"]
        assert store.has("old-pinned") and store.has("young")
        assert store.pin_skips == 1
        assert store.stats()["pin_skips"] == 1

    def test_unpin_restores_evictability(self, store):
        put(store, "old", age=300)
        put(store, "young", age=0)
        store.pin("run-a", ["old"])
        store.unpin("run-a")
        assert store.prune(max_bytes=1500) == ["old"]

    def test_empty_pin_list_unpins(self, store):
        put(store, "old", age=300)
        store.pin("run-a", ["old"])
        store.pin("run-a", [])
        assert store.pinned_keys() == frozenset()

    def test_pins_union_across_owners(self, store):
        store.pin("run-a", ["k1", "k2"])
        store.pin("run-b", ["k2", "k3"])
        assert store.pinned_keys() == {"k1", "k2", "k3"}
        store.unpin("run-a")
        assert store.pinned_keys() == {"k2", "k3"}

    def test_repin_replaces_owner_keys(self, store):
        store.pin("run-a", ["k1"])
        store.pin("run-a", ["k2"])
        assert store.pinned_keys() == {"k2"}

    def test_disabled_store_pins_are_noops(self, tmp_path):
        disabled = ArtifactStore(root=str(tmp_path / "off"), enabled=False)
        disabled.pin("run-a", ["k1"])
        assert disabled.pinned_keys() == frozenset()


class TestStalePins:
    def write_pin(self, store, owner, keys, pid, host, ts):
        os.makedirs(store.pins_dir, exist_ok=True)
        with open(os.path.join(store.pins_dir, f"{owner}.json"),
                  "w") as handle:
            json.dump({"owner": owner, "pid": pid, "host": host,
                       "ts": ts, "keys": keys}, handle)

    def dead_pid(self):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        return pid

    def test_dead_owner_pin_collected(self, store):
        import socket
        self.write_pin(store, "dead", ["k1"], self.dead_pid(),
                       socket.gethostname(), time.time())
        assert store.pinned_keys() == frozenset()
        assert not os.path.exists(
            os.path.join(store.pins_dir, "dead.json"))

    def test_foreign_host_pin_honoured_until_ttl(self, store):
        self.write_pin(store, "faraway", ["k1"], 1234, "elsewhere",
                       time.time())
        assert store.pinned_keys() == {"k1"}
        self.write_pin(store, "faraway", ["k1"], 1234, "elsewhere",
                       time.time() - PIN_TTL_SECONDS - 10)
        assert store.pinned_keys() == frozenset()

    def test_corrupt_pin_file_collected(self, store):
        os.makedirs(store.pins_dir, exist_ok=True)
        path = os.path.join(store.pins_dir, "broken.json")
        with open(path, "w") as handle:
            handle.write("{nope")
        assert store.pinned_keys() == frozenset()
        assert not os.path.exists(path)


class TestFleetIntegration:
    def test_run_fleet_pins_then_unpins(self, tmp_path, monkeypatch):
        from repro.exec import default_store, reset_default_store
        from repro.fleet import Recipe, run_fleet

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_default_store()
        try:
            recipe = Recipe(name="pin", kernels=["crc32"],
                            pipeline_cap=20_000)
            observed = {}
            store = default_store()
            original = store.pin

            def spy(owner, keys):
                observed[owner] = list(keys)
                return original(owner, keys)

            monkeypatch.setattr(store, "pin", spy)
            from repro.fleet.run import _pin_owner
            run_dir = str(tmp_path / "run")
            run_fleet(run_dir, recipe)
            # The orchestrator pinned its pending trace key up front;
            # the (in-process) worker reads nothing else from the
            # store, so it pins nothing.
            assert set(observed) == {_pin_owner(run_dir)}
            assert len(observed[_pin_owner(run_dir)]) == 1
            assert not any(key.startswith("sweep-")
                           for key, _, _ in store.entries())
            # ...and every pin was dropped on the way out.
            assert store.pinned_keys() == frozenset()
        finally:
            monkeypatch.undo()
            reset_default_store()
