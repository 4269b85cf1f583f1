"""Run manifests: provenance + headline stats for every pipeline run.

A manifest answers "what exactly produced this result?" — seed,
microarchitecture config hash, git revision, python/platform versions,
per-phase wall/CPU times, metric values, and a small per-command
``headline`` block (IPC, miss rates, throughput...).  The CLI writes one
``manifest.json`` per run directory and ``repro report`` renders it
back; benchmark result JSONs embed the same :func:`provenance` block.

The schema is versioned (:data:`MANIFEST_SCHEMA_VERSION`) and checkable
with :func:`validate_manifest`, which the tier-1 smoke test runs against
a real ``repro compare --json`` emission so telemetry regressions fail
fast.
"""

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

MANIFEST_SCHEMA_VERSION = 4  # v4: optional safety-certificate block
MANIFEST_FILENAME = "manifest.json"


def config_hash(config):
    """Short stable hash of a machine (or any dataclass) configuration."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = repr(sorted(dataclasses.asdict(config).items()))
    else:
        payload = repr(config)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def git_revision(repo_dir=None):
    """The checked-out git revision, or None outside a repo / sans git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def provenance():
    """The environment block shared by manifests and benchmark JSONs."""
    return {
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
        # Functional-simulator backend selection (``auto`` resolves
        # per-program; concrete trace provenance lives in the artifact
        # store's per-entry ``sim_backend``).
        "sim_backend": os.environ.get("REPRO_SIM_BACKEND", "auto"),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


@dataclasses.dataclass
class RunManifest:
    """Everything needed to interpret (and re-run) one pipeline run."""

    command: str
    target: str = None
    seed: int = None
    config_hash: str = None
    wall_seconds: float = 0.0
    headline: dict = dataclasses.field(default_factory=dict)
    phases: dict = dataclasses.field(default_factory=dict)
    metrics: dict = dataclasses.field(default_factory=dict)
    #: Static-analysis verdict summary (``repro.lint``): ``ok``/``errors``
    #: /``warnings``/``codes`` counts, or None when no lint ran.
    lint: dict = None
    #: Multi-config sweep reuse accounting
    #: (:func:`repro.uarch.sweep.sweep_stats_snapshot`): digest/bank
    #: cache hits, distinct hierarchies/predictors per grid, per-config
    #: wall time.  None when the run swept nothing.
    sweep: dict = None
    #: Sampling self-profiler digest (:mod:`repro.obs.selfprof`):
    #: interval, sample count, and top (span, function) pairs.  None
    #: unless the run was started with ``--profile``.
    profile: dict = None
    #: Machine-readable safety certificate for the run's clone
    #: (:func:`repro.lint.safety_certificate`): termination verdict,
    #: per-loop trip bounds, and the proven footprint interval.  None
    #: when the run synthesized nothing (or the gate was off).
    certificate: dict = None
    provenance: dict = dataclasses.field(default_factory=provenance)
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def collect(cls, command, target=None, seed=None, config=None,
                wall_seconds=0.0, headline=None, lint=None, profile=None,
                certificate=None):
        """Build a manifest from the global span/registry state."""
        from repro.obs.metrics import REGISTRY
        from repro.obs.trace import phase_table
        from repro.uarch.sweep import sweep_stats_snapshot
        sweep = sweep_stats_snapshot()
        return cls(command=command, target=target, seed=seed,
                   config_hash=config_hash(config) if config is not None
                   else None,
                   wall_seconds=wall_seconds, headline=dict(headline or {}),
                   phases=phase_table(), metrics=REGISTRY.snapshot(),
                   lint=dict(lint) if lint else None,
                   sweep=sweep if sweep.get("grids") else None,
                   profile=dict(profile) if profile else None,
                   certificate=dict(certificate) if certificate else None)

    # ------------------------------------------------------------------
    def to_dict(self):
        return dataclasses.asdict(self)

    def save(self, run_dir):
        """Write ``manifest.json`` into ``run_dir``; returns the path."""
        os.makedirs(run_dir, exist_ok=True)
        path = os.path.join(run_dir, MANIFEST_FILENAME)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        """Load from a manifest file or a run directory containing one."""
        if os.path.isdir(path):
            path = os.path.join(path, MANIFEST_FILENAME)
        with open(path) as handle:
            data = json.load(handle)
        errors = validate_manifest(data)
        if errors:
            raise ValueError(f"invalid manifest {path}: " + "; ".join(errors))
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items()
                      if key in known})


def validate_manifest(data):
    """Check a manifest dict against the schema; returns a list of errors."""
    errors = []
    if not isinstance(data, dict):
        return ["manifest is not an object"]

    def expect(key, kinds, required=True, nullable=False):
        if key not in data:
            if required:
                errors.append(f"missing key {key!r}")
            return None
        value = data[key]
        if value is None and nullable:
            return None
        if not isinstance(value, kinds):
            errors.append(f"{key!r} has type {type(value).__name__}")
            return None
        return value

    version = expect("schema_version", int)
    if version is not None and version > MANIFEST_SCHEMA_VERSION:
        errors.append(f"schema_version {version} is newer than supported "
                      f"{MANIFEST_SCHEMA_VERSION}")
    expect("command", str)
    expect("target", str, required=False, nullable=True)
    expect("seed", int, required=False, nullable=True)
    expect("config_hash", str, required=False, nullable=True)
    wall = expect("wall_seconds", (int, float))
    if wall is not None and wall < 0:
        errors.append("wall_seconds is negative")
    expect("headline", dict)
    expect("lint", dict, required=False, nullable=True)
    expect("sweep", dict, required=False, nullable=True)
    prof = expect("profile", dict, required=False, nullable=True)
    if prof is not None and "samples" not in prof:
        errors.append("profile missing 'samples'")
    cert = expect("certificate", dict, required=False, nullable=True)
    if cert is not None and "terminates" not in cert:
        errors.append("certificate missing 'terminates'")
    prov = expect("provenance", dict)
    if prov is not None:
        for key in ("python", "platform", "created_at"):
            if key not in prov:
                errors.append(f"provenance missing {key!r}")
    phases = expect("phases", dict)
    if phases is not None:
        for path, entry in phases.items():
            if not isinstance(entry, dict) or not {
                    "count", "wall_s", "cpu_s"} <= set(entry):
                errors.append(f"phase {path!r} malformed")
    metrics = expect("metrics", dict)
    if metrics is not None:
        for name, entry in metrics.items():
            if not isinstance(entry, dict) or "type" not in entry:
                errors.append(f"metric {name!r} malformed")
    return errors
