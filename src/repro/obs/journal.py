"""Append-only JSONL event journal, one per run directory.

Every instrumented process of a run — the CLI entry process and each
fleet worker — appends events to its **own** file,
``journal-<pid>.jsonl``, inside the run directory.  One file per pid
means concurrent writers can never interleave or tear each other's
lines; :func:`read_journal` merges the per-pid streams back into one
time-ordered event list.

Event records are one JSON object per line with a common envelope::

    {"ts": 1722950000.123456, "pid": 4242, "seq": 17, "kind": "...", ...}

``ts`` is :func:`time.time` (comparable across processes), ``seq`` is a
per-process monotonic counter (so a single writer's order is recoverable
even at equal timestamps).  Kinds in use: ``run_begin`` / ``run_end``,
``span_open`` / ``span_close`` (see :mod:`repro.obs.trace`), ``metrics``
(counter deltas), ``store`` (artifact-cache hit/miss/write/evict),
``lint`` (gate verdicts), ``progress`` (live ``repro tail`` fodder)
and ``fleet`` (claims, reclaims, run begin/end).

The journal is configured per run (:func:`configure_journal`), exported
to child processes through the ``REPRO_JOURNAL_DIR`` environment
variable, and **zero-cost when off**: :func:`emit_event` is a single
``None`` check when no journal is configured.
"""

import json
import os
import time
from contextlib import contextmanager, suppress

from repro.obs.logging import get_logger

_LOG = get_logger("repro.obs.journal")

#: Environment variable carrying the journal directory to worker processes.
JOURNAL_DIR_ENV = "REPRO_JOURNAL_DIR"

#: Filename pattern of per-process journal files.
JOURNAL_PREFIX = "journal-"
JOURNAL_SUFFIX = ".jsonl"


class Journal:
    """One process's append-only event stream in a run directory.

    The backing file is opened lazily on first emit and re-opened if
    the pid changes (a forked fleet worker inherits its parent's
    ``Journal`` object but must never share its file handle).
    """

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self._handle = None
        self._pid = None
        self._seq = 0

    @property
    def path(self):
        """This process's journal file path."""
        return os.path.join(
            self.run_dir, f"{JOURNAL_PREFIX}{os.getpid()}{JOURNAL_SUFFIX}")

    def _ensure_open(self):
        pid = os.getpid()
        if self._handle is not None and self._pid == pid:
            return self._handle
        if self._handle is not None:
            # Forked child: abandon (don't close) the inherited handle —
            # closing could flush parent-buffered bytes twice.
            self._handle = None
        os.makedirs(self.run_dir, exist_ok=True)
        self._handle = open(self.path, "a")  # noqa: SIM115 — lives past this scope
        self._pid = pid
        self._seq = 0
        return self._handle

    def emit(self, kind, **fields):
        """Append one event; each line is written and flushed whole."""
        try:
            handle = self._ensure_open()
            self._seq += 1
            record = {"ts": round(time.time(), 6), "pid": self._pid,
                      "seq": self._seq, "kind": kind}
            record.update(fields)
            handle.write(json.dumps(record, default=str) + "\n")
            handle.flush()
        except OSError as exc:  # journaling must never fail the run
            _LOG.warning("journal.emit_failed", error=str(exc))

    def close(self):
        if self._handle is not None and self._pid == os.getpid():
            with suppress(OSError):
                self._handle.close()
        self._handle = None


# ----------------------------------------------------------------------
# Process-wide active journal
# ----------------------------------------------------------------------
_ACTIVE = None
_ENV_MISSED = False  # cached "env var not set" so emit_event stays cheap
_PREVIOUS_ENV = None


def configure_journal(run_dir, fresh=False):
    """Activate (or with ``None`` deactivate) journaling for this process.

    Sets ``REPRO_JOURNAL_DIR`` so worker processes created afterwards
    inherit the journal; deactivating restores the variable's previous
    value.  ``fresh=True`` removes existing ``journal-*.jsonl`` files so
    a re-used run directory starts a clean stream.
    """
    global _ACTIVE, _ENV_MISSED, _PREVIOUS_ENV
    if _ACTIVE is not None:
        _ACTIVE.close()
        _ACTIVE = None
        if _PREVIOUS_ENV is None:
            os.environ.pop(JOURNAL_DIR_ENV, None)
        else:
            os.environ[JOURNAL_DIR_ENV] = _PREVIOUS_ENV
        _PREVIOUS_ENV = None
    _ENV_MISSED = False
    reset_metric_baseline()
    if run_dir is None:
        return None
    if fresh:
        for name in _journal_files(run_dir):
            with suppress(OSError):
                os.remove(os.path.join(run_dir, name))
    _PREVIOUS_ENV = os.environ.get(JOURNAL_DIR_ENV)
    os.environ[JOURNAL_DIR_ENV] = run_dir
    _ACTIVE = Journal(run_dir)
    return _ACTIVE


def active_journal():
    """The process's journal, lazily resolved from the environment.

    Worker processes never call :func:`configure_journal`; they find the run
    directory through the inherited ``REPRO_JOURNAL_DIR`` variable.  The
    negative result is cached so uninstrumented runs pay one environment
    lookup total.
    """
    global _ACTIVE, _ENV_MISSED
    if _ACTIVE is not None:
        return _ACTIVE
    if _ENV_MISSED:
        return None
    run_dir = os.environ.get(JOURNAL_DIR_ENV)
    if not run_dir:
        _ENV_MISSED = True
        return None
    _ACTIVE = Journal(run_dir)
    return _ACTIVE


@contextmanager
def suspend_journal():
    """Disable journaling entirely for a block, then restore it.

    Unlike ``configure_journal(None)`` this also hides the inherited
    ``REPRO_JOURNAL_DIR`` variable, so code inside the block sees a true
    journal-off world even in a journaled run — used by the benchmark
    harness to measure instrumentation overhead against a clean
    baseline.
    """
    global _ACTIVE, _ENV_MISSED
    saved_active = _ACTIVE
    saved_env = os.environ.pop(JOURNAL_DIR_ENV, None)
    _ACTIVE = None
    _ENV_MISSED = True
    try:
        yield
    finally:
        if saved_env is not None:
            os.environ[JOURNAL_DIR_ENV] = saved_env
        _ACTIVE = saved_active
        _ENV_MISSED = False


def emit_event(kind, **fields):
    """Append one event to the active journal; no-op when journaling is
    off (a single ``None`` check)."""
    journal = active_journal()
    if journal is None:
        return
    journal.emit(kind, **fields)


# ----------------------------------------------------------------------
# Metric deltas
# ----------------------------------------------------------------------
_METRIC_BASELINE = {}


def reset_metric_baseline():
    _METRIC_BASELINE.clear()


def emit_metric_deltas():
    """Journal the change in every counter since the last call.

    Emitted at run end and after each fleet block, so the journal carries
    each process's metric contribution (per-process registries are never
    merged back across processes).
    """
    journal = active_journal()
    if journal is None:
        return
    from repro.obs.metrics import REGISTRY, Counter
    deltas = {}
    for name in REGISTRY.names():
        instrument = REGISTRY.get(name)
        if not isinstance(instrument, Counter):
            continue
        delta = instrument.value - _METRIC_BASELINE.get(name, 0)
        if delta:
            deltas[name] = delta
            _METRIC_BASELINE[name] = instrument.value
    if deltas:
        journal.emit("metrics", deltas=deltas)


# ----------------------------------------------------------------------
# Merged reads
# ----------------------------------------------------------------------
def _journal_files(run_dir):
    try:
        names = os.listdir(run_dir)
    except OSError:
        return []
    return sorted(name for name in names
                  if name.startswith(JOURNAL_PREFIX)
                  and name.endswith(JOURNAL_SUFFIX))


class MergedJournal:
    """All of a run directory's journal events, merged and time-ordered.

    ``events`` is sorted by ``(ts, pid, seq)`` — globally monotonic in
    time, with each single writer's own order preserved exactly.
    ``skipped`` counts unparseable lines (a torn final line from a
    killed process is expected, not an error).
    """

    def __init__(self, run_dir, events, skipped, files):
        self.run_dir = run_dir
        self.events = events
        self.skipped = skipped
        self.files = files

    def __len__(self):
        return len(self.events)

    def of_kind(self, kind):
        return [event for event in self.events if event.get("kind") == kind]

    def pids(self):
        return sorted({event["pid"] for event in self.events})

    def run_info(self):
        """(run_begin event or None, run_end event or None)."""
        begins = self.of_kind("run_begin")
        ends = self.of_kind("run_end")
        return (begins[0] if begins else None, ends[-1] if ends else None)

    def open_spans(self):
        """Per-pid stack of spans opened but never closed, in open order."""
        open_by_pid = {}
        for event in self.events:
            kind = event.get("kind")
            if kind == "span_open":
                open_by_pid.setdefault(event["pid"], {})[
                    event["span"]] = event
            elif kind == "span_close":
                open_by_pid.get(event["pid"], {}).pop(event["span"], None)
        return {pid: sorted(spans.values(),
                            key=lambda ev: (ev["ts"], ev["seq"]))
                for pid, spans in open_by_pid.items() if spans}

    def latest_progress(self):
        """Most recent ``progress`` event per (pid, unit)."""
        latest = {}
        for event in self.of_kind("progress"):
            latest[(event["pid"], event.get("unit"))] = event
        return latest



def read_journal(run_dir):
    """Merge every per-pid journal file in ``run_dir``.

    Unreadable files and unparseable (torn) lines are skipped and
    counted, never raised: the reader must work on the journal of a
    crashed or still-running run.
    """
    events = []
    skipped = 0
    files = _journal_files(run_dir)
    for name in files:
        try:
            with open(os.path.join(run_dir, name)) as handle:
                lines = handle.read().splitlines()
        except OSError:
            skipped += 1
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if (not isinstance(event, dict)
                    or not {"ts", "pid", "seq", "kind"} <= set(event)):
                skipped += 1
                continue
            events.append(event)
    events.sort(key=lambda ev: (ev["ts"], ev["pid"], ev["seq"]))
    return MergedJournal(run_dir, events, skipped, files)
