"""Old import path for :func:`repro.sim.functional.resolve_backend`.

Backend resolution lives in :mod:`repro.sim.functional`.  This module
stays only because the end-to-end benchmark harness
(``perfbench/workloads.py``) imports ``resolve_backend`` from here, and
the benchmark's own files are kept fixed so that runs before and after
a change measure the same harness.
"""

from repro.sim.functional import resolve_backend

__all__ = ["resolve_backend"]
