"""Fleet-scale experiment engine (``repro.fleet``).

The one way to fan an experiment grid out over worker processes (the
Section 5 studies, ``repro compare`` and ``repro sweep`` run
in-process): an orchestrated, resumable system for large
kernel × config × seed matrices:

* :mod:`repro.fleet.recipe` — declarative experiment recipes expanding
  to deterministic cell lists with stable content-hashed cell ids;
* :mod:`repro.fleet.queue` — file-backed work-stealing job queue
  (atomic lockfile leases, heartbeats, dead-pid/TTL reclaim) shared by
  any number of worker processes or hosts;
* :mod:`repro.fleet.scheduler` — reuse-affinity blocks and sharding
  that keep cells sharing a trace digest, outcome bank, or compiled
  kernel on one worker back-to-back, claimed a block at a time;
* :mod:`repro.fleet.worker` — the worker loop routing consecutive cells
  through :class:`~repro.uarch.incremental.IncrementalSession` instead
  of cold sweeps;
* :mod:`repro.fleet.run` — run/resume/status orchestration with a
  byte-identical canonical matrix export.

CLI: ``repro fleet run/status/resume`` (live progress via
``repro tail <run-dir>``).
"""

from repro.fleet.queue import DEFAULT_LEASE_TTL, FleetQueue
from repro.fleet.recipe import (
    RECIPE_SCHEMA_VERSION,
    Cell,
    Recipe,
    RecipeError,
    load_recipe,
    recipe_from_dict,
    save_recipe,
)
from repro.fleet.run import (
    MATRIX_SCHEMA_VERSION,
    FleetError,
    collect_matrix,
    export_matrix,
    fleet_status,
    init_run,
    matrix_bytes,
    run_fleet,
)
from repro.fleet.scheduler import (
    Block,
    affinity_key,
    build_blocks,
    build_shards,
    order_cells,
    steal_candidates,
)
from repro.fleet.worker import FleetWorker, cell_metrics, worker_entry

__all__ = [
    "Block",
    "DEFAULT_LEASE_TTL",
    "Cell",
    "FleetError",
    "FleetQueue",
    "FleetWorker",
    "MATRIX_SCHEMA_VERSION",
    "RECIPE_SCHEMA_VERSION",
    "Recipe",
    "RecipeError",
    "affinity_key",
    "build_blocks",
    "build_shards",
    "cell_metrics",
    "collect_matrix",
    "export_matrix",
    "fleet_status",
    "init_run",
    "load_recipe",
    "matrix_bytes",
    "order_cells",
    "recipe_from_dict",
    "run_fleet",
    "save_recipe",
    "steal_candidates",
    "worker_entry",
]
