"""Persistent, content-addressed artifact store (``repro.exec``).

Every entry is one pipeline run's worth of artifacts for a (program
source, synthesis parameters) pair: the real dynamic trace, the
microarchitecture-independent profile, the clone assembly, and the
clone's dynamic trace.  The key is a hash of everything that determines
those artifacts — the assembly source (which embeds the data image), the
``repr`` of the synthesis parameters, the functional-simulation cap, and
the store schema version — so a hit is *guaranteed* to reproduce the
cold pipeline bit for bit, and any change to inputs or layout misses
cleanly instead of serving stale data.

Layout on disk (``REPRO_CACHE_DIR``, default ``~/.cache/repro``)::

    <root>/artifacts/<name>-<digest>/
        meta.json        schema version, key material, clone stats
        trace.npz        real DynamicTrace arrays
        clone_trace.npz  clone DynamicTrace arrays
        profile.json     WorkloadProfile
        clone.s          clone assembly source

Trace-only entries (``trace_artifacts``) hold just ``trace.npz``;
baseline entries (``baseline_program``) just ``baseline.s``.
Nothing derived from a trace is stored: the sweep rebuilds its digests
and outcome banks in memory, where a rebuild costs less than a load.
Entries an older version wrote under ``sweep-*`` keys are never read
again and age out under LRU eviction.

Writes are atomic (temp directory + ``os.replace``-style rename), so
concurrent processes — e.g. fleet workers — can
share one store without locks: the first writer wins and later writers
discard their duplicate.  Hit/miss/write/evict counts feed the
``exec.store.*`` telemetry counters, which run manifests pick up
automatically.

Set ``REPRO_CACHE=off`` (or ``0``/``false``) to disable persistence
entirely; ``REPRO_CACHE_MAX_BYTES`` bounds the store, evicting
least-recently-used entries after each write.  Eviction may remove an
entry another process is about to read, even mid fleet run; the reader
then rebuilds it (:mod:`repro.exec.artifacts`), so an eviction costs a
rebuild and never changes a result.
"""

import contextlib
import hashlib
import json
import os
import shutil
import tempfile

from repro.obs.journal import emit_event
from repro.obs.logging import get_logger
from repro.obs.metrics import REGISTRY

_LOG = get_logger("repro.exec.store")

#: Bump to invalidate every existing entry (changes the key, not just
#: the validation) whenever trace/profile/clone serialization, the
#: functional simulator, the profiler, or the synthesizer changes in a
#: way that affects artifact content.
ARTIFACT_SCHEMA_VERSION = 6  # v6: per-column (streamable) trace digests

META_FILENAME = "meta.json"

_FALSY = {"0", "off", "false", "no", "disabled"}


def cache_enabled(environ=None):
    """Whether persistence is on (``REPRO_CACHE`` env, default on)."""
    environ = os.environ if environ is None else environ
    return environ.get("REPRO_CACHE", "").strip().lower() not in _FALSY


def cache_max_bytes(environ=None):
    """The store's byte budget (``REPRO_CACHE_MAX_BYTES``), else None."""
    environ = os.environ if environ is None else environ
    raw = environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    return int(raw) if raw else None


def default_cache_dir(environ=None):
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    environ = os.environ if environ is None else environ
    configured = environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def artifact_key(name, source, parameters, max_instructions,
                 sim_backend="interp"):
    """Content hash identifying one pipeline run's artifacts.

    ``sim_backend`` is the *resolved* functional-simulator backend
    (``native``/``interp``, never ``auto``) that produced the traces.
    The backends are bit-identical by contract, but keying on the
    backend means a cached trace always says exactly which engine made
    it and a backend bug can never alias into the other backend's
    entries.
    """
    material = "\x1f".join([
        f"schema={ARTIFACT_SCHEMA_VERSION}",
        f"name={name}",
        f"max_instructions={max_instructions}",
        f"sim_backend={sim_backend}",
        f"parameters={parameters!r}",
        source,
    ])
    digest = hashlib.sha256(material.encode()).hexdigest()[:24]
    safe = "".join(ch if ch.isalnum() or ch in "._-" else "_"
                   for ch in name)[:48]
    return f"{safe}-{digest}"


class ArtifactStore:
    """On-disk artifact cache with LRU eviction and telemetry counters."""

    def __init__(self, root=None, enabled=None, max_bytes=None):
        self.root = root if root is not None else default_cache_dir()
        self.enabled = cache_enabled() if enabled is None else bool(enabled)
        self.max_bytes = (cache_max_bytes() if max_bytes is None
                          else max_bytes)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.evicted_bytes = 0

    # ------------------------------------------------------------------
    @property
    def artifacts_dir(self):
        return os.path.join(self.root, "artifacts")

    def entry_dir(self, key):
        return os.path.join(self.artifacts_dir, key)

    def has(self, key):
        """Whether an entry exists (its meta manifest is present).

        Entries declare their own payload files in ``meta["files"]``
        (validated by :meth:`load`), so presence of the meta manifest
        is the existence test — the store holds classic pipeline
        entries and single-file trace entries alike.
        """
        return os.path.exists(
            os.path.join(self.entry_dir(key), META_FILENAME))

    # ------------------------------------------------------------------
    def load(self, key):
        """Return ``(meta, entry_dir)`` on hit, ``None`` on miss.

        A structurally invalid entry (missing files, unreadable or
        schema-mismatched meta) counts as a miss and is removed so the
        next write can repopulate it.
        """
        if not self.enabled:
            return None
        entry = self.entry_dir(key)
        if not self.has(key):
            self._record("miss", key=key)
            return None
        try:
            with open(os.path.join(entry, META_FILENAME)) as handle:
                meta = json.load(handle)
            if meta.get("schema_version") != ARTIFACT_SCHEMA_VERSION:
                raise ValueError(
                    f"schema {meta.get('schema_version')} != "
                    f"{ARTIFACT_SCHEMA_VERSION}")
            for filename in meta["files"]:
                if not os.path.exists(os.path.join(entry, filename)):
                    raise ValueError(f"missing payload file {filename}")
        except (OSError, ValueError, KeyError) as exc:
            _LOG.warning("store.corrupt", key=key, error=str(exc))
            shutil.rmtree(entry, ignore_errors=True)
            self._record("miss", key=key)
            return None
        with contextlib.suppress(OSError):  # LRU freshness for eviction
            os.utime(entry)
        self._record("hit", key=key)
        return meta, entry

    def save(self, key, meta, files):
        """Atomically publish one entry.

        ``files`` maps entry filenames to writer callables taking the
        destination path.  Returns the entry directory (the winner's, if
        a concurrent process published first).
        """
        if not self.enabled:
            return None
        entry = self.entry_dir(key)
        os.makedirs(self.artifacts_dir, exist_ok=True)
        staging = tempfile.mkdtemp(prefix=f".tmp-{key}-",
                                   dir=self.artifacts_dir)
        try:
            meta = dict(meta)
            meta["schema_version"] = ARTIFACT_SCHEMA_VERSION
            meta["key"] = key
            meta["files"] = sorted(files)
            for filename, writer in files.items():
                writer(os.path.join(staging, filename))
            with open(os.path.join(staging, META_FILENAME), "w") as handle:
                json.dump(meta, handle, indent=2, default=str)
                handle.write("\n")
            try:
                os.rename(staging, entry)
            except OSError:
                # Concurrent writer won the rename; ours is redundant.
                shutil.rmtree(staging, ignore_errors=True)
                return entry
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._record("write", key=key)
        _LOG.debug("store.write", key=key)
        if self.max_bytes is not None:
            self.prune(self.max_bytes)
        return entry

    # ------------------------------------------------------------------
    def entries(self):
        """(key, mtime, bytes) per entry, least recently used first."""
        if not os.path.isdir(self.artifacts_dir):
            return []
        rows = []
        for key in os.listdir(self.artifacts_dir):
            entry = os.path.join(self.artifacts_dir, key)
            if key.startswith(".tmp-") or not os.path.isdir(entry):
                continue
            size = 0
            for filename in os.listdir(entry):
                with contextlib.suppress(OSError):
                    size += os.path.getsize(os.path.join(entry, filename))
            try:
                mtime = os.path.getmtime(entry)
            except OSError:
                mtime = 0.0
            rows.append((key, mtime, size))
        rows.sort(key=lambda row: row[1])
        return rows

    def total_bytes(self):
        return sum(size for _, _, size in self.entries())

    def prune(self, max_bytes):
        """Evict LRU entries until the store fits; returns evicted keys."""
        rows = self.entries()
        total = sum(size for _, _, size in rows)
        evicted = []
        for key, _, size in rows:
            if total <= max_bytes:
                break
            shutil.rmtree(self.entry_dir(key), ignore_errors=True)
            total -= size
            evicted.append(key)
            self._record("eviction", key=key, bytes=size)
            self.evicted_bytes += size
            REGISTRY.counter("exec.store.evicted_bytes").inc(size)
        if evicted:
            _LOG.info("store.pruned", evicted=len(evicted),
                      remaining_bytes=total)
        return evicted

    def clear(self):
        """Remove every entry (counters are left alone)."""
        shutil.rmtree(self.artifacts_dir, ignore_errors=True)

    # ------------------------------------------------------------------
    _EVENT_ATTRS = {"hit": "hits", "miss": "misses", "write": "writes",
                    "eviction": "evictions"}

    def _record(self, event, **journal_fields):
        attribute = self._EVENT_ATTRS[event]
        setattr(self, attribute, getattr(self, attribute) + 1)
        REGISTRY.counter(f"exec.store.{event}").inc()
        emit_event("store", event=event, **journal_fields)

    def reset_counters(self):
        """Zero the per-instance event counts (per-command accounting)."""
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.evicted_bytes = 0

    def stats(self):
        """Provenance block for manifests and benchmark envelopes."""
        return {"root": self.root, "enabled": self.enabled,
                "hits": self.hits, "misses": self.misses,
                "writes": self.writes, "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes}


_DEFAULT_STORE = None


def default_store():
    """The process-wide store, re-resolved when the env changes."""
    global _DEFAULT_STORE
    root = default_cache_dir()
    enabled = cache_enabled()
    max_bytes = cache_max_bytes()
    if (_DEFAULT_STORE is None or _DEFAULT_STORE.root != root
            or _DEFAULT_STORE.enabled != enabled
            or _DEFAULT_STORE.max_bytes != max_bytes):
        _DEFAULT_STORE = ArtifactStore(root=root, enabled=enabled,
                                       max_bytes=max_bytes)
    return _DEFAULT_STORE


def reset_default_store():
    """Forget the cached default store (tests and CLI teardown)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = None
