"""Output checks: study-row digests and sampled fleet cells.

Every reproduction study's output is split into one row per kernel, and
each row is hashed.  A row depends only on its kernel, so the cold run
on the kernel slice and the warm run on the whole corpus must produce
the same digest for every kernel they share; both are compared against
the digests recorded in ``reference.json``.  The aggregate accuracy
figures are compared with a relative tolerance of 1e-9, because their
float sums depend on the (seeded) kernel order.
"""

import hashlib
import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

#: Relative tolerance for the aggregate accuracy figures.
FIDELITY_RTOL = 1e-9


def row_digest(row):
    """Exact digest of one output row (floats keep every digit)."""
    material = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


def row_digests(rows):
    """``{study: {kernel: row}}`` -> ``{study: {kernel: digest}}``."""
    return {study: {kernel: row_digest(row)
                    for kernel, row in sorted(per_kernel.items())}
            for study, per_kernel in sorted(rows.items())}


def load_reference(path=REFERENCE_PATH):
    with open(path) as handle:
        return json.load(handle)


def compare_rows(digests, reference):
    """``(attempted, mismatches)`` of row digests against the reference.

    A kernel the reference does not know counts as a mismatch.
    """
    attempted = 0
    mismatches = []
    for study, per_kernel in sorted(digests.items()):
        expected = reference.get(study, {})
        for kernel, digest in sorted(per_kernel.items()):
            attempted += 1
            if expected.get(kernel) != digest:
                mismatches.append(f"{study}/{kernel}")
    return attempted, mismatches


def compare_fidelity(values, reference):
    """``(attempted, mismatches)`` of the accuracy figures."""
    mismatches = [name for name, value in sorted(values.items())
                  if name not in reference
                  or not math.isclose(value, reference[name],
                                      rel_tol=FIDELITY_RTOL)]
    return len(values), mismatches


def check_cells(run_dir, sample, seed):
    """Re-time ``sample`` seeded cells of a finished fleet run directly.

    Each sampled cell's trace is reloaded from the store and timed with
    :func:`simulate_pipeline_sweep` against a disabled store (fresh
    digest and banks) plus :func:`shared_power_model`; its canonical
    metrics must equal the published ones.  Returns ``(attempted,
    mismatches)`` where every recipe cell is attempted and a missing or
    differing cell is a mismatch.
    """
    import random

    from repro.core.synthesizer import SynthesisParameters
    from repro.exec.artifacts import pipeline_artifacts
    from repro.exec.store import ArtifactStore
    from repro.fleet.queue import FleetQueue
    from repro.fleet.run import load_run_recipe
    from repro.fleet.worker import cell_metrics
    from repro.uarch.power import shared_power_model
    from repro.uarch.sweep import simulate_pipeline_sweep
    from repro.workloads import get_workload

    recipe = load_run_recipe(run_dir)
    cells = recipe.expand()
    queue = FleetQueue(run_dir)
    published = {}
    mismatches = []
    for cell in cells:
        payload = queue.read_result(cell.cell_id)
        if payload is None:
            mismatches.append(f"missing {cell.cell_id}")
        else:
            published[cell.cell_id] = payload["metrics"]
    picked = random.Random(seed).sample(cells, min(sample, len(cells)))
    unpersisted = ArtifactStore(enabled=False)
    for cell in picked:
        if cell.cell_id not in published:
            continue
        trace = pipeline_artifacts(
            cell.kernel, get_workload(cell.kernel).source(),
            SynthesisParameters(seed=cell.seed),
            max_instructions=recipe.functional_cap).clone_trace
        [result] = simulate_pipeline_sweep(
            trace, [cell.config], max_instructions=recipe.pipeline_cap,
            store=unpersisted)
        power = shared_power_model(cell.config).evaluate(result).total
        expected = json.loads(json.dumps(cell_metrics(result, power)))
        if expected != published[cell.cell_id]:
            mismatches.append(f"differs {cell.cell_id}")
    return len(cells), mismatches
