"""Fleet run orchestration: init, run, resume, status, matrix export.

A run directory is the whole state of one matrix execution::

    <run>/recipe.json    canonical recipe (digest-checked on resume)
    <run>/leases/        live block claims (FleetQueue)
    <run>/results/       published per-cell results
    <run>/workers/       per-worker summaries
    <run>/matrix.json    canonical matrix, written when complete
    <run>/journal-*.jsonl  run journal (claims, progress, spans)

:func:`run_fleet` expands the recipe, pins every pending cell's trace
artifacts in the store, reclaims abandoned leases, and fans the shards
out to worker processes; each worker additionally pins the digest/bank
entries of its live sessions once it holds the trace content needed to
key them.  Pinning is best-effort — it guards future prunes only, so
an eviction racing the pin write just costs a re-derivation — but it
keeps a long matrix from routinely LRU-evicting its own warm inputs
mid-run.  Invoking it again on the same directory *is* the
resume path: completed cells are skipped byte-for-byte (their result
files are never rewritten), only pending cells execute.  When the last
cell lands the canonical matrix — deterministic metrics only, sorted
keys — is exported, so an interrupted-then-resumed run produces a
``matrix.json`` byte-identical to an uninterrupted one.
"""

import json
import multiprocessing
import os
import time

from repro.exec.artifacts import trace_artifact_key
from repro.exec.store import artifact_key, default_store
from repro.fleet.queue import FleetQueue
from repro.fleet.recipe import (
    Recipe,
    RecipeError,
    load_recipe,
    recipe_from_dict,
    save_recipe,
)
from repro.fleet.scheduler import recipe_blocks
from repro.fleet.worker import (
    CELLS_FILENAME,
    RECIPE_FILENAME,
    WORKERS_DIR,
    FleetWorker,
    parse_chaos,
    worker_entry,
)
from repro.obs.journal import active_journal, configure_journal, emit_event
from repro.obs.logging import get_logger

_LOG = get_logger("repro.fleet.run")

#: Canonical matrix layout version.
MATRIX_SCHEMA_VERSION = 1

MATRIX_FILENAME = "matrix.json"


class FleetError(RuntimeError):
    """A run directory in a state the fleet cannot proceed from."""


# ----------------------------------------------------------------------
# Run directory state
# ----------------------------------------------------------------------
def init_run(run_dir, recipe, cells=None):
    """Create (or validate) a run directory for ``recipe``.

    Re-initializing with a *different* recipe is refused — a run
    directory is bound to one matrix for its whole life, which is what
    makes resume and the byte-identical export sound.  ``cells`` is
    ``recipe.expand()`` when the caller already has it.
    """
    os.makedirs(run_dir, exist_ok=True)
    recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
    if os.path.exists(recipe_path):
        existing = load_recipe(recipe_path)
        if existing.digest() != recipe.digest():
            raise FleetError(
                f"run directory {run_dir} was initialized for recipe "
                f"{existing.name!r} ({existing.digest()}); refusing to "
                f"run {recipe.name!r} ({recipe.digest()}) in it")
    else:
        save_recipe(recipe, recipe_path)
        if cells is None:
            cells = recipe.expand()
        text = json.dumps({"schema": MATRIX_SCHEMA_VERSION,
                           "recipe_digest": recipe.digest(),
                           "cells": [cell.to_dict() for cell in cells]},
                          indent=2, sort_keys=True)
        with open(os.path.join(run_dir, CELLS_FILENAME), "w") as handle:
            handle.write(text + "\n")
    FleetQueue(run_dir).ensure_dirs()


def load_run_recipe(run_dir):
    recipe_path = os.path.join(run_dir, RECIPE_FILENAME)
    if not os.path.exists(recipe_path):
        raise FleetError(f"{run_dir} is not a fleet run directory "
                         f"(no {RECIPE_FILENAME})")
    return load_recipe(recipe_path)


# ----------------------------------------------------------------------
# Pin-while-leased: a live run's inputs are not LRU fodder
# ----------------------------------------------------------------------
def _pending_artifact_keys(recipe, cells, queue):
    """Store keys the pending cells will read (trace entries only).

    The derived digest/bank entries are keyed by trace *content*, which
    the orchestrator does not have; each worker pins those itself via
    :meth:`~repro.fleet.worker.FleetWorker._pin_sessions` as its
    sessions go live.
    """
    from repro.core.synthesizer import SynthesisParameters
    from repro.sim.functional import resolve_backend
    from repro.isa.assembler import assemble
    from repro.workloads import get_workload

    completed = queue.completed_ids()
    pending_traces = {cell.trace_key for cell in cells
                      if cell.cell_id not in completed}
    keys = set()
    for kernel, subject, seed in sorted(pending_traces):
        try:
            source = get_workload(kernel).source()
            program = assemble(source, name=kernel)
            backend = resolve_backend(None, program)
        except Exception as exc:  # pin is best-effort, never fatal
            _LOG.warning("fleet.pin_key_failed", kernel=kernel,
                         error=str(exc))
            continue
        if subject == "clone":
            keys.add(artifact_key(kernel, source,
                                  SynthesisParameters(seed=seed),
                                  recipe.functional_cap,
                                  sim_backend=backend))
        else:
            keys.add(trace_artifact_key(kernel, source,
                                        recipe.functional_cap, backend))
    return sorted(keys)


def _pin_owner(run_dir):
    return "fleet-" + "".join(
        ch if ch.isalnum() or ch in "._-" else "_"
        for ch in os.path.abspath(run_dir))[-80:]


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def run_fleet(run_dir, recipe=None, workers=1, lease_ttl=None,
              chaos=None):
    """Execute (or resume) a fleet run; returns a summary dict.

    ``recipe`` may be a :class:`Recipe`, a recipe dict, or ``None`` to
    load the run directory's own recipe (the resume path).  ``workers``
    is the process count; ``chaos`` is the fault-injection spec passed
    through to :class:`FleetWorker` (tests / CI smoke only).
    """
    if recipe is None:
        recipe = load_run_recipe(run_dir)
    elif isinstance(recipe, dict):
        recipe = recipe_from_dict(recipe)
    elif not isinstance(recipe, Recipe):
        raise RecipeError(f"not a recipe: {recipe!r}")
    # The one expansion this process makes: everything below that needs
    # the cell list (init, pinning, the in-process worker, the matrix
    # export) takes it from here.
    cells = recipe.expand()
    init_run(run_dir, recipe, cells)
    workers = max(1, int(workers))
    chaos = parse_chaos(chaos)
    lease_kwargs = {} if lease_ttl is None else {"lease_ttl": lease_ttl}
    queue = FleetQueue(run_dir, **lease_kwargs)

    own_journal = active_journal() is None
    if own_journal:
        # Journal into the run directory itself (never fresh: resumed
        # runs append to the same stream) so `repro tail <run_dir>`
        # follows progress with no extra flags.
        configure_journal(run_dir)
    started = time.perf_counter()
    store = default_store()
    pin_owner = _pin_owner(run_dir)
    pinned = _pending_artifact_keys(recipe, cells, queue)
    store.pin(pin_owner, pinned)
    try:
        reclaimed = queue.reclaim(worker="orchestrator")
        completed_before = len(queue.completed_ids())
        emit_event("fleet", event="run_begin", recipe=recipe.name,
                   recipe_digest=recipe.digest(), cells=len(cells),
                   completed=completed_before, workers=workers,
                   reclaimed=len(reclaimed), resumed=completed_before > 0)
        emit_event("progress", done=completed_before, total=len(cells),
                   unit="cells", label=recipe.name)
        summaries = []
        dead_workers = 0
        if completed_before < len(cells):
            if workers == 1 and chaos is None:
                summaries.append(FleetWorker(
                    run_dir, 0, 1, lease_ttl=lease_ttl, recipe=recipe,
                    cells=cells).run())
            else:
                dead_workers = _spawn_workers(run_dir, workers,
                                              lease_ttl, chaos)
        # A chaos-killed (or crashed) worker strands its in-flight
        # lease; siblings usually reclaim it live, but if *they* exited
        # first the run ends incomplete — exactly what resume is for.
        queue.reclaim(worker="orchestrator")
        completed = len(queue.completed_ids())
        complete = completed >= len(cells)
        if complete:
            export_matrix(run_dir, recipe, cells)
        summary = {
            "run_dir": run_dir,
            "recipe": recipe.name,
            "recipe_digest": recipe.digest(),
            "cells": len(cells),
            "completed": completed,
            "skipped": completed_before,
            "executed": completed - completed_before,
            "workers": workers,
            "dead_workers": dead_workers,
            "complete": complete,
            "wall_seconds": round(time.perf_counter() - started, 6),
            "worker_summaries": summaries,
        }
        emit_event("fleet", event="run_end", **{
            key: value for key, value in summary.items()
            if key != "worker_summaries"})
        return summary
    finally:
        store.unpin(pin_owner)
        if own_journal:
            configure_journal(None)


def _spawn_workers(run_dir, workers, lease_ttl, chaos):
    """Fan out worker processes; returns how many died abnormally.

    Plain ``multiprocessing.Process`` rather than a pool: a SIGKILL-ed
    worker must not poison its siblings (a broken pool would), and the
    queue on disk *is* the work distribution — processes share nothing.
    """
    processes = []
    for index in range(workers):
        process = multiprocessing.Process(
            target=worker_entry,
            args=(run_dir, index, workers, lease_ttl, chaos),
            name=f"fleet-w{index}")
        process.start()
        processes.append(process)
    dead = 0
    for process in processes:
        process.join()
        if process.exitcode != 0:
            dead += 1
            _LOG.warning("fleet.worker_died", worker=process.name,
                         exitcode=process.exitcode)
    return dead


# ----------------------------------------------------------------------
# Status / export
# ----------------------------------------------------------------------
def fleet_status(run_dir):
    """Queue/progress snapshot of a run directory (read-only)."""
    recipe = load_run_recipe(run_dir)
    cells = recipe.expand()
    queue = FleetQueue(run_dir)
    completed = queue.completed_ids()
    # Leases name blocks; report the pending cells the held ones cover.
    blocks = {block.block_id: block
              for block in recipe_blocks(recipe, cells)}
    leased = {cell.cell_id
              for lease_id in queue.leased_ids() if lease_id in blocks
              for cell in blocks[lease_id].cells
              if cell.cell_id not in completed}
    workers = []
    workers_dir = os.path.join(run_dir, WORKERS_DIR)
    if os.path.isdir(workers_dir):
        for name in sorted(os.listdir(workers_dir)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(workers_dir, name)) as handle:
                    workers.append(json.load(handle))
            except (OSError, ValueError):
                continue
    return {
        "run_dir": run_dir,
        "recipe": recipe.name,
        "recipe_digest": recipe.digest(),
        "cells": len(cells),
        "completed": len(completed),
        "leased": len(leased),
        "pending": len(cells) - len(completed),
        "complete": len(completed) >= len(cells),
        "matrix": os.path.exists(os.path.join(run_dir, MATRIX_FILENAME)),
        "workers": workers,
    }


def collect_matrix(run_dir, recipe=None, cells=None):
    """The canonical matrix dict (raises FleetError if incomplete).

    Strictly deterministic content: recipe identity plus each cell's
    id/coordinates and :func:`~repro.fleet.worker.cell_metrics` block,
    in expansion order.  Worker attribution, timestamps, and wall times
    stay in the per-cell result files and are excluded here.  The run
    directory's own recipe and its expansion are read unless passed.
    """
    if recipe is None:
        recipe = load_run_recipe(run_dir)
    if cells is None:
        cells = recipe.expand()
    queue = FleetQueue(run_dir)
    rows = []
    missing = []
    for cell in cells:
        payload = queue.read_result(cell.cell_id)
        if payload is None:
            missing.append(cell.cell_id)
            continue
        rows.append({
            "cell_id": cell.cell_id,
            "kernel": cell.kernel,
            "subject": cell.subject,
            "seed": cell.seed,
            "config": cell.config.name,
            "metrics": payload["metrics"],
        })
    if missing:
        raise FleetError(
            f"matrix incomplete: {len(missing)} of {len(cells)} cells "
            f"missing (first: {missing[0]})")
    return {
        "schema": MATRIX_SCHEMA_VERSION,
        "recipe": recipe.name,
        "recipe_digest": recipe.digest(),
        "cells": rows,
    }


def matrix_bytes(run_dir, recipe=None, cells=None):
    """The canonical matrix serialization (the byte-identity contract)."""
    matrix = collect_matrix(run_dir, recipe, cells)
    return (json.dumps(matrix, indent=2, sort_keys=True) + "\n").encode()


def export_matrix(run_dir, recipe=None, cells=None):
    """Write ``matrix.json`` atomically; returns its path."""
    payload = matrix_bytes(run_dir, recipe, cells)
    path = os.path.join(run_dir, MATRIX_FILENAME)
    staging = path + f".tmp-{os.getpid()}"
    with open(staging, "wb") as handle:
        handle.write(payload)
    os.rename(staging, path)
    return path
