"""Command-line interface: ``python -m repro <command>``.

Commands mirror the vendor/architect workflow:

* ``list``      — show the workload corpus (Table 1);
* ``profile``   — profile a workload (or ``.s`` file) to a JSON profile;
* ``clone``     — synthesize a clone from a workload or a JSON profile,
  writing the ``.s`` and C-with-asm artifacts;
* ``compare``   — real vs clone IPC/power/miss rates on the base machine;
* ``sweep``     — the 28-configuration cache study for one workload;
* ``estimate``  — statistical-simulation IPC estimate from a profile;
* ``lint``      — static verification of a workload/assembly file (or,
  with ``--clone``, of its clone against the synthesis contract: safety
  proofs SR11x and the CF21x checks on a simulation-free profile
  prediction); ``--static-profile`` adds the safety proofs for programs
  and the certificates (and, for clones, the predicted profile) to
  ``--json`` output, ``--audit`` the disclosure audit (DL3xx), and
  ``--severity CODE=LEVEL`` reclassifies individual diagnostics;
* ``report``    — render the manifest/metrics of a prior run directory;
* ``trace``     — timeline / flame / critical-path views of a run
  directory's event journal, with Chrome trace-event export;
* ``tail``      — live status of an in-flight run (per-worker spans,
  progress, ETA) from the same journal.

Runs started with ``--run-dir`` record an append-only event journal
(``journal-<pid>.jsonl``, one file per process) next to the manifest:
hierarchical spans from ``cli.<command>`` down to individual fleet
blocks, artifact-store hits/misses, lint verdicts, metric deltas, and
progress heartbeats.  ``fleet run``/``fleet resume`` without
``--run-dir`` journal into the fleet directory instead, appending
across resumes.  ``--profile`` additionally samples the main
thread and attributes hot code to the enclosing span (off by default;
zero cost when disabled).

Global flags (valid before or after the subcommand): ``--verbose`` /
``--quiet`` control the structured log level (also settable via the
``REPRO_LOG_LEVEL`` environment variable; ``--quiet`` additionally
records no spans, phase table or journal, while counters and results
are the same as without it), ``--json`` switches the command's output
to a single JSON object including the run manifest, and ``--run-dir``
persists that manifest to disk for later ``repro report``.

``compare`` and ``sweep`` run in-process (``repro fleet run --workers N``
is the one way to fan a grid out over worker processes), and both are
backed by the persistent ``repro.exec`` artifact cache
(``REPRO_CACHE_DIR``, disable with ``REPRO_CACHE=off``): a warm cache
skips the functional simulations entirely and the run manifest records
the cache hits/misses that produced the result.

The host picks every simulation engine: the native C engines whenever
a C compiler is present and ``REPRO_NATIVE`` is not off, the Python
specs otherwise.  No flag selects one; the functional backend that
produced a trace is part of its artifact cache key.

Exit codes: 0 success, 1 runtime failure, 2 bad target, 3 load failure,
4 lint findings (error severity, or any finding under ``lint --strict``),
5 disclosure-audit findings (DL3xx errors take precedence over exit 4 so
CI can tell a leak from a structural/contract failure).
"""

import argparse
import json
import os
import sys
import time

from repro.core import (
    SynthesisParameters,
    WorkloadProfile,
    emit_c_source,
    make_clone,
    profile_trace,
)
from repro.evaluation import format_table, pearson, rank_vector
from repro.exec import default_store, pipeline_artifacts
from repro.isa import AssemblerError
from repro.isa.assembler import assemble_shared
from repro.lint import (
    CODES,
    LintGateError,
    StaticPredictionError,
    lint_clone,
    lint_program,
    predict_profile,
    safety_certificate,
)
from repro.obs import (
    DEBUG,
    WARNING,
    RunManifest,
    SamplingProfiler,
    build_span_tree,
    configure_journal,
    configure_logging,
    critical_path_text,
    emit_event,
    emit_metric_deltas,
    export_chrome_trace,
    flame_summary,
    flame_text,
    format_profile,
    get_logger,
    read_journal,
    reset_telemetry,
    set_tracing_enabled,
    span,
    timeline_text,
)
from repro.sim import SimulationError, run_program
from repro.uarch import (
    BASE_CONFIG,
    CACHE_SWEEP,
    estimate_power,
    simulate_cache_sweep,
    simulate_pipeline_sweep,
)
from repro.workloads import all_workloads, get_workload, workload_names

_LOG = get_logger("repro.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BAD_TARGET = 2
EXIT_LOAD_FAILED = 3
EXIT_LINT_FAILED = 4
EXIT_AUDIT_FAILED = 5

#: Version of the ``repro lint --json`` payload (the ``"schema"`` key),
#: mirroring the manifest/benchmark schema versioning so downstream
#: tooling can detect format changes.  v1: reports + summary; v2 adds
#: the static-analysis layers (SR11x/CF21x/DL3xx findings, optional
#: ``static_profile`` and ``certificates`` blocks).
LINT_SCHEMA_VERSION = 2


class CliError(Exception):
    """A user-facing failure with a distinct process exit code."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


class RunContext:
    """Collects one command's output: human text, JSON payload, headline.

    Handlers append renderable text via :meth:`emit`; in ``--json`` mode
    the collected ``payload`` (plus the run manifest) is printed instead.
    ``headline`` feeds the manifest's summary block.
    """

    def __init__(self, args):
        self.args = args
        self.json_mode = bool(getattr(args, "json", False))
        self.payload = {}
        self.headline = {}
        self.lines = []
        self.config = None  # machine config hashed into the manifest
        self.lint = None  # lint verdict summary recorded in the manifest
        self.certificate = None  # clone safety certificate (manifest)

    def emit(self, text):
        self.lines.append(text)

    def table(self, headers, rows, float_format="{:.4f}", key=None):
        self.emit(format_table(headers, rows, float_format=float_format))
        if key is not None:
            self.payload[key] = [dict(zip(headers, row)) for row in rows]


# ----------------------------------------------------------------------
def _load_program(target):
    """A workload name, or a path to an SRISC assembly file."""
    name, source = _target_source(target)
    try:
        return assemble_shared(source, name)
    except AssemblerError as exc:
        raise CliError(EXIT_LOAD_FAILED,
                       f"failed to assemble {target}: {exc}") from exc


def _load_profile(target):
    """A workload name, or a path to a saved profile JSON."""
    if target.endswith(".json") and os.path.exists(target):
        try:
            return WorkloadProfile.load(target)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            raise CliError(EXIT_LOAD_FAILED,
                           f"failed to load profile {target}: {exc}") from exc
    program = _load_program(target)
    return profile_trace(run_program(program))


#: Functional-simulation cap for compare/sweep (run_program's default).
_CLI_MAX_FUNCTIONAL = 50_000_000


def _target_source(target):
    """(name, assembly source) for a workload name or a ``.s`` file."""
    if target in workload_names():
        return target, get_workload(target).source()
    if os.path.exists(target):
        with open(target) as handle:
            return os.path.basename(target), handle.read()
    raise CliError(EXIT_BAD_TARGET,
                   f"{target!r} is neither a workload name nor "
                   "an assembly file (see `repro list`)")


def _pipeline_for(args):
    """Cache-backed full cloning pipeline for the command's target."""
    name, source = _target_source(args.target)
    parameters = SynthesisParameters(
        dynamic_instructions=args.instructions, seed=args.seed)
    try:
        return pipeline_artifacts(name, source, parameters,
                                  max_instructions=_CLI_MAX_FUNCTIONAL)
    except AssemblerError as exc:
        raise CliError(EXIT_LOAD_FAILED,
                       f"failed to assemble {args.target}: {exc}") from exc


def _note_cache(ctx):
    """Record artifact-cache provenance in payload and manifest."""
    stats = default_store().stats()
    ctx.headline.update(artifact_cache_hits=stats["hits"],
                        artifact_cache_misses=stats["misses"])
    ctx.payload["artifact_cache"] = stats


# ----------------------------------------------------------------------
def cmd_list(args, ctx):
    rows = [[spec.name, spec.domain, spec.suite, spec.description]
            for spec in all_workloads()]
    ctx.table(["workload", "domain", "suite", "description"], rows,
              key="workloads")
    return EXIT_OK


def cmd_profile(args, ctx):
    profile = _load_profile(args.target)
    output = args.output or f"{profile.name}.profile.json"
    profile.save(output)
    _LOG.info("cli.wrote", path=output)
    summary = {
        "instructions": profile.total_instructions,
        "memory_ops": profile.total_memory_ops,
        "branches": profile.total_branches,
        "footprint_bytes": profile.data_footprint_bytes,
        "stride_coverage": profile.stride_coverage,
    }
    ctx.payload.update(output=output, profile=summary)
    ctx.headline.update(summary)
    ctx.emit("\n".join([
        f"wrote {output}",
        f"  instructions: {profile.total_instructions}",
        f"  memory ops:   {profile.total_memory_ops}",
        f"  branches:     {profile.total_branches}",
        f"  footprint:    {profile.data_footprint_bytes} bytes",
        f"  stride cov.:  {profile.stride_coverage:.3f}",
    ]))
    return EXIT_OK


def cmd_clone(args, ctx):
    profile = _load_profile(args.target)
    parameters = SynthesisParameters(
        dynamic_instructions=args.instructions, seed=args.seed,
        footprint_scale=args.footprint_scale)
    result = make_clone(profile, parameters)
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    asm_path = os.path.join(outdir, f"{profile.name}.clone.s")
    c_path = os.path.join(outdir, f"{profile.name}.clone.c")
    with open(asm_path, "w") as handle:
        handle.write(result.asm_source)
    with open(c_path, "w") as handle:
        handle.write(emit_c_source(result.program, stats=result.stats))
    _LOG.info("cli.wrote", asm=asm_path, c=c_path)
    stats = result.stats
    ctx.payload.update(artifacts=[asm_path, c_path], stats=stats)
    ctx.headline.update(
        block_instances=stats["block_instances"],
        iterations=stats["iterations"],
        footprint_bytes=stats["footprint_bytes"])
    ctx.lint = stats.get("lint")
    ctx.certificate = stats.get("certificate")
    lines = [
        f"wrote {asm_path} and {c_path}",
        f"  block instances: {stats['block_instances']}",
        f"  loop iterations: {stats['iterations']}",
        f"  footprint:       {stats['footprint_bytes']} bytes "
        f"(target {stats['footprint_target']})",
    ]
    if ctx.lint is not None:
        lines.append(
            f"  lint:            "
            f"{'pass' if ctx.lint['ok'] else 'FAIL'} "
            f"({ctx.lint['errors']} error(s), "
            f"{ctx.lint['warnings']} warning(s))")
    ctx.emit("\n".join(lines))
    return EXIT_OK


def cmd_compare(args, ctx):
    artifacts = _pipeline_for(args)
    ctx.lint = artifacts.clone.stats.get("lint")
    ctx.certificate = artifacts.clone.stats.get("certificate")
    # One-config grids through the sweep path: its digest and outcome
    # banks live in memory on each trace, and the run manifest picks up
    # the sweep's build/reuse accounting.
    [real] = simulate_pipeline_sweep(artifacts.trace, [BASE_CONFIG])
    [clone] = simulate_pipeline_sweep(artifacts.clone_trace, [BASE_CONFIG])
    ctx.config = BASE_CONFIG
    rows = [
        ["IPC", real.ipc, clone.ipc],
        ["power", estimate_power(real), estimate_power(clone)],
        ["L1D miss rate", real.dcache_miss_rate, clone.dcache_miss_rate],
        ["bpred miss rate", real.branch_misprediction_rate,
         clone.branch_misprediction_rate],
    ]
    ctx.table(["metric", "real", "clone"], rows, key="rows")
    ctx.headline.update(
        ipc_real=real.ipc, ipc_clone=clone.ipc,
        dcache_miss_rate_real=real.dcache_miss_rate,
        dcache_miss_rate_clone=clone.dcache_miss_rate,
        sim_mips_real=real.simulated_mips,
        sim_mips_clone=clone.simulated_mips,
        rob_stalls_real=real.rob_stalls, rob_stalls_clone=clone.rob_stalls,
        sim_backend=artifacts.sim_backend)
    _note_cache(ctx)
    return EXIT_OK


def cmd_sweep(args, ctx):
    artifacts = _pipeline_for(args)
    ctx.lint = artifacts.clone.stats.get("lint")
    ctx.certificate = artifacts.clone.stats.get("certificate")
    real_trace = artifacts.trace
    clone_trace = artifacts.clone_trace
    real_addresses = real_trace.memory_addresses()
    clone_addresses = clone_trace.memory_addresses()
    ctx.config = BASE_CONFIG
    real_stats = simulate_cache_sweep(real_addresses, CACHE_SWEEP)
    clone_stats = simulate_cache_sweep(clone_addresses, CACHE_SWEEP)
    real_mpi, clone_mpi, rows = [], [], []
    for config, real_cache, clone_cache in zip(CACHE_SWEEP, real_stats,
                                               clone_stats):
        real_value = real_cache.misses / len(real_trace)
        clone_value = clone_cache.misses / len(clone_trace)
        real_mpi.append(real_value)
        clone_mpi.append(clone_value)
        rows.append([config.label(), real_value, clone_value])
    ctx.table(["config", "real MPI", "clone MPI"], rows,
              float_format="{:.5f}", key="rows")
    correlation = pearson([v - real_mpi[0] for v in real_mpi[1:]],
                          [v - clone_mpi[0] for v in clone_mpi[1:]])
    ranks = pearson(rank_vector(real_mpi), rank_vector(clone_mpi))
    ctx.headline.update(pearson_relative_mpi=correlation,
                        ranking_correlation=ranks,
                        sim_backend=artifacts.sim_backend)
    ctx.emit(f"\npearson R (relative MPI): {correlation:+.3f}\n"
             f"ranking correlation:      {ranks:+.3f}")
    _note_cache(ctx)
    return EXIT_OK


def cmd_estimate(args, ctx):
    from repro.statsim import statistical_ipc_estimate
    profile = _load_profile(args.target)
    ipc = statistical_ipc_estimate(profile, BASE_CONFIG,
                                   n_instructions=args.instructions)
    ctx.config = BASE_CONFIG
    ctx.payload["ipc_estimate"] = ipc
    ctx.headline["ipc_estimate"] = ipc
    ctx.emit(f"statistical IPC estimate (base config): {ipc:.3f}")
    return EXIT_OK


def _parse_severity_overrides(pairs):
    """``["CF212=error", ...]`` → ``{code: severity}`` (validated)."""
    if not pairs:
        return None
    overrides = {}
    for pair in pairs:
        code, sep, level = pair.partition("=")
        code = code.strip().upper()
        level = level.strip().lower()
        if not sep or code not in CODES:
            raise CliError(EXIT_ERROR,
                           f"--severity wants CODE=LEVEL with a known "
                           f"code (got {pair!r}; see the SR/CF/DL "
                           f"registry in repro.lint.diagnostics)")
        if level not in ("error", "warning", "info"):
            raise CliError(EXIT_ERROR,
                           f"--severity level must be error, warning, "
                           f"or info (got {level!r})")
        overrides[code] = level
    return overrides


def cmd_lint(args, ctx):
    """Static verification: structural passes, plus the contract for clones."""
    if args.all:
        targets = list(workload_names())
    elif args.target:
        targets = [args.target]
    else:
        raise CliError(EXIT_BAD_TARGET,
                       "give a target or --all (see `repro list`)")
    overrides = _parse_severity_overrides(args.severity)
    reports = []
    certificates = []
    predictions = []
    for target in targets:
        if args.clone:
            profile = _load_profile(target)
            parameters = SynthesisParameters(
                dynamic_instructions=args.instructions, seed=args.seed,
                lint_gate="off")  # the point here is the report, not a raise
            clone = make_clone(profile, parameters)
            report = lint_clone(clone, severity_overrides=overrides,
                                audit=args.audit)
            program = clone.program
            if args.static_profile:
                try:
                    prediction = predict_profile(program)
                except StaticPredictionError as error:
                    predictions.append({"program": program.name,
                                        "declined": error.reason})
                else:
                    predicted = prediction.profile
                    predictions.append({
                        "program": program.name,
                        "instructions": predicted.total_instructions,
                        "memory_ops": predicted.total_memory_ops,
                        "branches": predicted.total_branches,
                        "footprint_bytes": predicted.data_footprint_bytes,
                    })
        else:
            program = _load_program(target)
            report = lint_program(program, overrides,
                                  safety=args.static_profile,
                                  audit=args.audit)
        if args.static_profile:
            certificates.append(safety_certificate(program))
        reports.append(report)
        ctx.emit(report.render_text())

    failed = [report for report in reports
              if not report.ok or (args.strict and report.warnings())]
    audit_failed = any(
        diagnostic.code.startswith("DL")
        for report in failed for diagnostic in report.errors())
    codes = {}
    for report in reports:
        for code, count in report.codes().items():
            codes[code] = codes.get(code, 0) + count
    summary = {
        "ok": not failed,
        "programs": len(reports),
        "failed": len(failed),
        "errors": sum(len(report.errors()) for report in reports),
        "warnings": sum(len(report.warnings()) for report in reports),
        "codes": dict(sorted(codes.items())),
    }
    ctx.payload.update(schema=LINT_SCHEMA_VERSION,
                       reports=[report.to_dict() for report in reports],
                       summary=summary)
    if certificates:
        ctx.payload["certificates"] = certificates
    if predictions:
        ctx.payload["static_profile"] = predictions
    ctx.headline.update(programs=summary["programs"],
                        lint_errors=summary["errors"],
                        lint_warnings=summary["warnings"])
    ctx.lint = summary
    ctx.emit(f"\nlint {'FAIL' if failed else 'PASS'}: "
             f"{summary['programs']} program(s), "
             f"{summary['errors']} error(s), "
             f"{summary['warnings']} warning(s)")
    if not failed:
        return EXIT_OK
    return EXIT_AUDIT_FAILED if audit_failed else EXIT_LINT_FAILED


def _best_effort_manifest(target):
    """Whatever salvageable dict a partial/corrupt manifest holds."""
    path = target
    if os.path.isdir(path):
        path = os.path.join(path, "manifest.json")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _report_degraded(args, ctx, error):
    """Partial render for a run dir whose manifest is unusable.

    A killed run leaves a corrupt or missing manifest but usually a
    readable journal; render what exists instead of refusing.  Without
    any journal events there is nothing to show, so the historical
    ``EXIT_LOAD_FAILED`` contract holds.
    """
    target = args.target
    run_dir = target if os.path.isdir(target) else (
        os.path.dirname(target) or ".")
    merged = read_journal(run_dir)
    if not merged.events:
        raise CliError(EXIT_LOAD_FAILED, f"cannot read manifest: {error}")
    _LOG.warning("report.manifest_unreadable", target=target,
                 error=str(error))
    ctx.emit(f"warning: manifest unreadable ({error}); "
             "rendering journal instead")
    raw = _best_effort_manifest(target)
    if isinstance(raw.get("command"), str):
        line = f"run: {raw['command']}"
        if isinstance(raw.get("target"), str):
            line += f" {raw['target']}"
        ctx.emit(line + "  [from partial manifest]")
    begin, end = merged.run_info()
    if begin is not None:
        ctx.emit(f"run_begin: {begin.get('command')} "
                 f"{begin.get('target') or ''}".rstrip())
    if end is None:
        ctx.emit("no run_end event — run was killed or is still in flight")
    roots = build_span_tree(merged.events)
    ctx.emit("")
    ctx.emit(flame_text(roots))
    ctx.emit("")
    ctx.emit(critical_path_text(roots))
    ctx.payload.update(degraded=True, events=len(merged.events),
                       skipped=merged.skipped)
    return EXIT_OK


def cmd_report(args, ctx):
    """Render the manifest of a prior run directory (or manifest file)."""
    target = args.target
    if not os.path.exists(target):
        raise CliError(EXIT_BAD_TARGET,
                       f"no run directory or manifest at {target!r}")
    try:
        manifest = RunManifest.load(target)
    except (ValueError, OSError) as exc:
        return _report_degraded(args, ctx, exc)
    data = manifest.to_dict()
    ctx.payload = data
    prov = data.get("provenance") or {}
    ctx.emit("\n".join(filter(None, [
        f"run: {data['command']}"
        + (f" {data['target']}" if data.get("target") else ""),
        f"  schema:      v{data['schema_version']}",
        f"  seed:        {data['seed']}" if data.get("seed") is not None
        else None,
        f"  config hash: {data['config_hash']}" if data.get("config_hash")
        else None,
        f"  git rev:     {prov.get('git_rev')}" if prov.get("git_rev")
        else None,
        f"  python:      {prov.get('python')}",
        f"  created:     {prov.get('created_at')}",
        f"  wall time:   {data['wall_seconds']:.3f} s",
    ])))
    if data.get("headline"):
        rows = [[key, value] for key, value in
                sorted(data["headline"].items())]
        ctx.emit("\nheadline:\n" + format_table(
            ["stat", "value"], rows, float_format="{:.4f}"))
    if data.get("phases"):
        rows = [[path, entry["count"], entry["wall_s"] * 1e3,
                 entry["cpu_s"] * 1e3]
                for path, entry in sorted(data["phases"].items())]
        ctx.emit("\nphases:\n" + format_table(
            ["phase", "count", "wall ms", "cpu ms"], rows,
            float_format="{:.2f}"))
    if data.get("sweep"):
        sweep = data["sweep"]
        rows = [[key, sweep[key]] for key in sorted(sweep)]
        ctx.emit("\nuarch sweep reuse:\n" + format_table(
            ["stat", "value"], rows, float_format="{:.4f}"))
    if data.get("lint"):
        lint = data["lint"]
        verdict = "PASS" if not lint.get("errors") else "FAIL"
        scope = (f"{lint['programs']} program(s), " if "programs" in lint
                 else "")
        ctx.emit(f"\nlint: {verdict} — {scope}"
                 f"{lint.get('errors', 0)} error(s), "
                 f"{lint.get('warnings', 0)} warning(s)")
        if lint.get("codes"):
            rows = [[code, count]
                    for code, count in sorted(lint["codes"].items())]
            ctx.emit(format_table(["code", "count"], rows))
    if data.get("certificate"):
        cert = data["certificate"]
        footprint = cert.get("footprint")
        bounded = (f"footprint [{footprint['lo']:#x}, {footprint['hi']:#x}) "
                   f"({footprint['bytes']} bytes)" if footprint
                   else "footprint unbounded")
        verdict = ("terminates" if cert.get("terminates")
                   else "termination unproven")
        ctx.emit(f"\nsafety certificate: {verdict}"
                 + (f" within {cert['instruction_bound']} instructions"
                    if cert.get("instruction_bound") else "")
                 + f"; {bounded}; {len(cert.get('loops', []))} loop(s) "
                   "analyzed")
    if data.get("metrics"):
        rows = []
        for name, entry in sorted(data["metrics"].items()):
            value = entry.get("value")
            if isinstance(value, float):
                value = f"{value:.4f}"  # seconds counters, rate gauges
            rows.append([name, entry.get("type"), value])
        ctx.emit("\nmetrics:\n" + format_table(
            ["metric", "type", "value"], rows))
    if data.get("profile"):
        ctx.emit("\n" + format_profile(data["profile"]))
    if getattr(args, "timeline", False):
        run_dir = target if os.path.isdir(target) else (
            os.path.dirname(target) or ".")
        merged = read_journal(run_dir)
        if merged.events:
            roots = build_span_tree(merged.events)
            ctx.emit("\n" + timeline_text(roots))
            ctx.emit("\n" + flame_text(roots))
        else:
            ctx.emit("\ntimeline: no journal in run dir "
                     "(re-run with --run-dir to record one)")
    return EXIT_OK


# ----------------------------------------------------------------------
def _journal_or_fail(run_dir):
    """Load a run dir's merged journal; distinct exits match report's."""
    if not os.path.isdir(run_dir):
        raise CliError(EXIT_BAD_TARGET, f"no run directory at {run_dir!r}")
    merged = read_journal(run_dir)
    if not merged.events:
        raise CliError(EXIT_LOAD_FAILED,
                       f"no journal events in {run_dir!r} — record one by "
                       "running a command with --run-dir")
    return merged


def cmd_trace(args, ctx):
    """Render a run journal: timeline, flame summary, critical path."""
    merged = _journal_or_fail(args.target)
    roots = build_span_tree(merged.events)
    header = [f"journal: {len(merged.events)} events from "
              f"{len(merged.files)} process(es)"]
    if merged.skipped:
        header.append(f"  skipped: {merged.skipped} torn/unreadable "
                      "line(s)")
    invocations = merged.invocations() or [(None, None)]
    for begin, end in invocations:
        command = (f"{begin.get('command')} {begin.get('target') or ''}"
                   .rstrip() if begin is not None else "(no run_begin)")
        outcome = (f"exit {end.get('exit_code')} after "
                   f"{end.get('wall_seconds', 0.0):.3f}s"
                   if end is not None
                   else "no run_end — in flight or killed")
        header.append(f"  run: {command}: {outcome}")
    ctx.emit("\n".join(header))
    if args.view in ("timeline", "all"):
        ctx.emit("\n" + timeline_text(roots))
    if args.view in ("flame", "all"):
        ctx.emit("\n" + flame_text(roots, limit=args.limit))
    if args.view in ("critical", "all"):
        ctx.emit("\n" + critical_path_text(roots))
    ctx.payload.update(events=len(merged.events), pids=merged.pids(),
                       skipped=merged.skipped,
                       flame=flame_summary(roots, limit=args.limit))
    if args.chrome:
        written = export_chrome_trace(merged.events, args.chrome)
        ctx.emit(f"\nwrote {args.chrome} ({written} trace events) — "
                 "load in chrome://tracing or Perfetto")
        ctx.payload["chrome_trace"] = args.chrome
    return EXIT_OK


def _tail_snapshot(merged):
    """One live-status frame: run state, workers, progress, ETA."""
    lines = []
    begin, end = merged.run_info()
    last_ts = merged.events[-1]["ts"]
    if begin is not None:
        started = f"{begin.get('command')} {begin.get('target') or ''}"
        lines.append(f"run: {started.rstrip()}")
    if end is not None:
        lines.append(f"state: finished (exit {end.get('exit_code')}, "
                     f"{end.get('wall_seconds', 0.0):.3f}s)")
    else:
        age = last_ts - (begin["ts"] if begin else merged.events[0]["ts"])
        lines.append(f"state: running ({age:.1f}s, "
                     f"last event {time.strftime('%H:%M:%S', time.localtime(last_ts))})")
    open_spans = merged.open_spans()
    for pid in sorted(open_spans):
        stack = open_spans[pid]
        chain = " > ".join(event["name"] for event in stack)
        busy = last_ts - stack[-1]["ts"]
        lines.append(f"pid {pid}: {chain} ({busy:.1f}s in current span)")
    for (pid, unit), event in sorted(merged.latest_progress().items(),
                                     key=lambda item: (item[0][0],
                                                       str(item[0][1]))):
        done_n = event.get("done", 0)
        total = event.get("total")
        line = f"pid {pid}: {done_n}"
        if total:
            line += f"/{total}"
        line += f" {unit or 'units'}"
        label = event.get("label")
        if label:
            line += f" [{label}]"
        start_ts = begin["ts"] if begin else merged.events[0]["ts"]
        elapsed = event["ts"] - start_ts
        if end is None and total and done_n and elapsed > 0:
            rate = done_n / elapsed
            eta = (total - done_n) / rate
            line += f" — ETA {eta:.1f}s"
        lines.append(line)
    if merged.skipped:
        lines.append(f"(skipped {merged.skipped} torn line(s))")
    return "\n".join(lines)


def _worker_time_split(worker):
    """`` (acquire 1.2s, timing 3.4s)`` from a worker summary dict, or
    empty for summaries written before those fields existed."""
    acquire = worker.get("sim_acquire_seconds")
    timing = worker.get("uarch_time_seconds")
    if acquire is None and timing is None:
        return ""
    return (f" (acquire {acquire or 0.0:.2f}s, "
            f"timing {timing or 0.0:.2f}s)")


def _fleet_run_dir(args, recipe):
    """Where ``fleet run`` works: ``--dir``, else ``fleet-<recipe>``."""
    return args.dir or f"fleet-{recipe.name}"


def cmd_fleet(args, ctx):
    """Fleet-scale experiment matrices: run / resume / status / expand."""
    from repro import fleet as _fleet

    def _load_recipe_or_fail(path):
        if not os.path.exists(path):
            raise CliError(EXIT_BAD_TARGET, f"no recipe file at {path!r}")
        try:
            return _fleet.load_recipe(path)
        except _fleet.RecipeError as exc:
            raise CliError(EXIT_LOAD_FAILED,
                           f"bad recipe {path}: {exc}") from exc

    if args.action == "expand":
        recipe = _load_recipe_or_fail(args.target)
        cells = recipe.expand()
        ctx.table(["cell_id", "kernel", "subject", "seed", "config"],
                  [[cell.cell_id, cell.kernel, cell.subject, cell.seed,
                    cell.config.name] for cell in cells], key="cells")
        ctx.headline.update(recipe=recipe.name, cells=len(cells))
        ctx.payload.update(recipe=recipe.name,
                           recipe_digest=recipe.digest())
        return EXIT_OK

    if args.action == "status":
        try:
            status = _fleet.fleet_status(args.target)
        except _fleet.FleetError as exc:
            raise CliError(EXIT_BAD_TARGET, str(exc)) from exc
        ctx.payload.update(status)
        ctx.headline.update(cells=status["cells"],
                            completed=status["completed"])
        ctx.emit(f"recipe {status['recipe']} "
                 f"({status['recipe_digest']}) in {status['run_dir']}")
        ctx.emit(f"  {status['completed']}/{status['cells']} cells "
                 f"complete, {status['leased']} leased, "
                 f"{status['pending']} pending"
                 + (", matrix.json exported" if status["matrix"] else ""))
        for worker in status["workers"]:
            ctx.emit(f"  worker {worker.get('worker')}: "
                     f"{worker.get('executed')} executed "
                     f"({worker.get('stolen')} stolen) in "
                     f"{worker.get('wall_seconds')}s"
                     + _worker_time_split(worker))
        return EXIT_OK

    # run / resume
    if args.action == "run":
        recipe = _load_recipe_or_fail(args.target)
        run_dir = _fleet_run_dir(args, recipe)
    else:
        recipe = None
        run_dir = args.target
        if not os.path.isdir(run_dir):
            raise CliError(EXIT_BAD_TARGET,
                           f"no fleet run directory at {run_dir!r}")
    try:
        summary = _fleet.run_fleet(run_dir, recipe, workers=args.workers,
                                   lease_ttl=args.lease_ttl,
                                   chaos=args.chaos_kill)
    except (_fleet.FleetError, _fleet.RecipeError) as exc:
        raise CliError(EXIT_ERROR, str(exc)) from exc
    ctx.payload["fleet"] = {key: value for key, value in summary.items()
                           if key != "worker_summaries"}
    ctx.headline.update(cells=summary["cells"],
                        completed=summary["completed"],
                        executed=summary["executed"],
                        workers=summary["workers"])
    ctx.emit(f"recipe {summary['recipe']} "
             f"({summary['recipe_digest']}): "
             f"{summary['completed']}/{summary['cells']} cells complete "
             f"({summary['executed']} executed, {summary['skipped']} "
             f"resumed as done) with {summary['workers']} worker(s) "
             f"in {summary['wall_seconds']:.2f}s")
    for worker in summary["worker_summaries"]:
        ctx.emit(f"  worker {worker['worker']}: {worker['executed']} "
                 f"executed ({worker['stolen']} stolen)"
                 + _worker_time_split(worker))
    if summary["complete"]:
        ctx.emit(f"matrix: {os.path.join(run_dir, 'matrix.json')}")
        return EXIT_OK
    ctx.emit(f"incomplete ({summary['dead_workers']} worker(s) died); "
             f"finish with: repro fleet resume {run_dir}")
    return EXIT_ERROR


def cmd_tail(args, ctx):
    """Live (or one-shot) status of a run from its journal."""
    if not args.follow:
        merged = _journal_or_fail(args.target)
        ctx.emit(_tail_snapshot(merged))
        ctx.payload.update(events=len(merged.events), pids=merged.pids())
        return EXIT_OK
    if not os.path.isdir(args.target):
        raise CliError(EXIT_BAD_TARGET,
                       f"no run directory at {args.target!r}")
    while True:
        merged = read_journal(args.target)
        try:
            if merged.events:
                print(_tail_snapshot(merged))
                if merged.run_info()[1] is not None:
                    return EXIT_OK
            else:
                print("waiting for journal events...")
            time.sleep(args.interval)
            print("---")
        except KeyboardInterrupt:
            return EXIT_OK
        except BrokenPipeError:
            _detach_broken_stdout()
            return EXIT_OK


# ----------------------------------------------------------------------
def _add_global_flags(parser, suppress):
    default = argparse.SUPPRESS if suppress else False
    parser.add_argument("-v", "--verbose", action="store_true",
                        default=default,
                        help="debug-level structured logs")
    parser.add_argument("-q", "--quiet", action="store_true",
                        default=default,
                        help="warnings only; no spans or journal "
                             "(counters still count; a fleet run still "
                             "journals into its fleet dir, its record)")
    parser.add_argument("--json", action="store_true", default=default,
                        help="emit one JSON object (incl. run manifest)")
    parser.add_argument("--run-dir",
                        default=argparse.SUPPRESS if suppress else None,
                        help="write manifest.json into this directory")
    parser.add_argument("--profile", action="store_true", default=default,
                        help="sample the run and attribute hot code to "
                             "spans (manifest 'profile' block)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Performance cloning (IISWC 2006 reproduction)")
    _add_global_flags(parser, suppress=False)
    # The same flags are accepted after the subcommand; SUPPRESS keeps an
    # omitted sub-flag from clobbering the top-level value.
    parent = argparse.ArgumentParser(add_help=False)
    _add_global_flags(parent, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", parents=[parent],
                   help="show the workload corpus")

    def common(p, with_output_dir=False):
        p.add_argument("target",
                       help="workload name, .s file, or profile .json")
        p.add_argument("--instructions", type=int, default=120_000,
                       help="clone/synthetic dynamic instruction target")
        p.add_argument("--seed", type=int, default=42)
        if with_output_dir:
            p.add_argument("-o", "--output-dir", default="clone_out")

    p = sub.add_parser("profile", parents=[parent],
                       help="save a JSON workload profile")
    p.add_argument("target")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("clone", parents=[parent],
                       help="synthesize a benchmark clone")
    common(p, with_output_dir=True)
    p.add_argument("--footprint-scale", type=float, default=1.0)

    common(sub.add_parser("compare", parents=[parent],
                          help="real vs clone on the base machine"))
    common(sub.add_parser("sweep", parents=[parent],
                          help="28-config cache design study"))
    common(sub.add_parser("estimate", parents=[parent],
                          help="statistical-simulation IPC estimate"))

    p = sub.add_parser("lint", parents=[parent],
                       help="static verification / clone contract")
    p.add_argument("target", nargs="?", default=None,
                   help="workload name, .s file, or profile .json")
    p.add_argument("--all", action="store_true",
                   help="lint every workload in the corpus")
    p.add_argument("--clone", action="store_true",
                   help="synthesize the target's clone and lint that "
                        "(adds the CF21x clone contract and SR11x "
                        "safety proofs)")
    p.add_argument("--strict", action="store_true",
                   help="warnings also fail (exit 4)")
    p.add_argument("--static-profile", action="store_true",
                   help="run the safety proofs (SR11x) on programs; "
                        "adds safety certificates (and, with --clone, "
                        "the predicted profile) to --json output")
    p.add_argument("--audit", action="store_true",
                   help="run the disclosure audit (DL3xx); exit 5 on "
                        "audit errors")
    p.add_argument("--severity", action="append", metavar="CODE=LEVEL",
                   help="override one diagnostic's severity (repeatable; "
                        "e.g. --severity CF212=error)")
    p.add_argument("--instructions", type=int, default=120_000,
                   help="clone dynamic instruction target (with --clone)")
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("report", parents=[parent],
                       help="render a prior run's manifest/metrics")
    p.add_argument("target", help="run directory or manifest.json path")
    p.add_argument("--timeline", action="store_true",
                   help="append journal timeline + flame views")

    p = sub.add_parser("trace", parents=[parent],
                       help="render a run's event journal "
                            "(timeline/flame/critical path)")
    p.add_argument("target", help="run directory with journal-*.jsonl")
    p.add_argument("--view", choices=("timeline", "flame", "critical",
                                      "all"), default="all")
    p.add_argument("--limit", type=int, default=12,
                   help="max flame-summary rows")
    p.add_argument("--chrome", default=None, metavar="PATH",
                   help="also export Chrome trace-event JSON here")

    p = sub.add_parser("tail", parents=[parent],
                       help="status of an in-flight run from its journal")
    p.add_argument("target", help="run directory with journal-*.jsonl")
    p.add_argument("-f", "--follow", action="store_true",
                   help="keep polling until the run ends")
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll interval in seconds (with --follow)")

    p = sub.add_parser("fleet", parents=[parent],
                       help="fleet-scale experiment matrices "
                            "(work-stealing workers, resumable)")
    p.add_argument("action", choices=("run", "resume", "status", "expand"),
                   help="run a recipe, resume/inspect a run dir, or "
                        "preview a recipe's cell expansion")
    p.add_argument("target",
                   help="recipe .json (run/expand) or run directory "
                        "(resume/status)")
    p.add_argument("--dir", default=None, metavar="RUN_DIR",
                   help="run directory for `run` "
                        "(default: fleet-<recipe name>)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker process count (default 1)")
    p.add_argument("--lease-ttl", type=float, default=None,
                   help="seconds before an unrefreshed block lease is "
                        "considered abandoned")
    p.add_argument("--chaos-kill", default=None, metavar="W:N",
                   help="fault injection for tests/CI: worker W SIGKILLs "
                        "itself mid-block after executing N cells")
    return parser


_HANDLERS = {
    "list": cmd_list, "profile": cmd_profile, "clone": cmd_clone,
    "compare": cmd_compare, "sweep": cmd_sweep, "estimate": cmd_estimate,
    "lint": cmd_lint, "report": cmd_report, "trace": cmd_trace,
    "tail": cmd_tail, "fleet": cmd_fleet,
}

#: Commands that *read* run dirs: they never journal, collect a
#: manifest, or overwrite what they are inspecting.
_READONLY_COMMANDS = ("report", "trace", "tail")


def _journal_target(args):
    """``(directory, fresh)`` this command journals into, or ``None``.

    A ``--run-dir`` starts a clean journal there.  Without one, ``fleet
    run`` and ``fleet resume`` journal into the fleet directory itself
    and append, so a resume continues the run's journal and every
    worker's cells nest under the command's root span.  A fleet target
    the handler will reject (a missing directory, an unreadable recipe)
    gets no journal: the handler reports the error.
    """
    if args.quiet or args.command in _READONLY_COMMANDS:
        return None
    if args.run_dir:
        return args.run_dir, True
    if args.command != "fleet" or args.action not in ("run", "resume"):
        return None
    if args.action == "resume":
        return (args.target, False) if os.path.isdir(args.target) else None
    from repro import fleet as _fleet
    try:
        recipe = _fleet.load_recipe(args.target)
    except _fleet.RecipeError:
        return None
    return _fleet_run_dir(args, recipe), False


def _dispatch(args, ctx):
    """Run the command's handler; ``(exit code, failed)``."""
    try:
        return _HANDLERS[args.command](args, ctx), False
    except CliError as exc:
        _LOG.error("cli.error", command=args.command, message=str(exc))
        if ctx.json_mode:
            print(json.dumps({"command": args.command,
                              "error": str(exc),
                              "exit_code": exc.code}))
        return exc.code, True
    except SimulationError as exc:
        _LOG.error("cli.simulation_error", command=args.command,
                   message=str(exc), pc=exc.pc,
                   instructions=exc.instructions, block=exc.block)
        if ctx.json_mode:
            print(json.dumps({"command": args.command,
                              "error": str(exc),
                              "exit_code": EXIT_ERROR}))
        return EXIT_ERROR, True
    except LintGateError as exc:
        _LOG.error("cli.lint_gate", command=args.command,
                   codes=exc.report.codes())
        if ctx.json_mode:
            print(json.dumps({"command": args.command,
                              "error": "post-synthesis lint gate failed",
                              "lint": exc.report.to_dict(),
                              "exit_code": EXIT_LINT_FAILED}))
        else:
            print(exc.report.render_text(), file=sys.stderr)
        return EXIT_LINT_FAILED, True


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.quiet:
        configure_logging(level=WARNING)
    elif args.verbose:
        configure_logging(level=DEBUG)
    # Counters always count; --quiet only stops spans and the journal.
    set_tracing_enabled(not args.quiet)
    reset_telemetry()
    default_store().reset_counters()

    # Runs that persist a run dir (or a fleet dir) also record an event
    # journal there, opened before the root span so the span tree has
    # one root; read-only commands never clobber the journal they
    # inspect.
    target = _journal_target(args)
    journaling = target is not None
    if journaling:
        configure_journal(*target)
        emit_event("run_begin", command=args.command,
                   target=getattr(args, "target", None),
                   argv=list(argv) if argv is not None else sys.argv[1:])
    profiler = None
    if getattr(args, "profile", False) and not args.quiet:
        profiler = SamplingProfiler().start()

    ctx = RunContext(args)
    code = None
    failed = False
    wall_start = time.perf_counter()
    try:
        with span(f"cli.{args.command}", command=args.command):
            code, failed = _dispatch(args, ctx)
    finally:
        wall = time.perf_counter() - wall_start
        if profiler is not None:
            profiler.stop()
        if journaling:
            emit_metric_deltas()
            emit_event("run_end",
                       exit_code=EXIT_ERROR if code is None else code,
                       wall_seconds=round(wall, 6))
            configure_journal(None)
    profile_summary = None
    if profiler is not None:
        profile_summary = profiler.summary()
        if not ctx.json_mode and not failed:
            ctx.emit("\n" + format_profile(profile_summary))
    if failed:
        return code

    manifest = None
    # Manifest collection (incl. a git-rev subprocess) only happens when
    # something will consume it, so plain/--quiet runs pay nothing.
    if (args.command not in _READONLY_COMMANDS
            and (ctx.json_mode or args.run_dir)):
        manifest = RunManifest.collect(
            command=args.command, target=getattr(args, "target", None),
            seed=getattr(args, "seed", None), config=ctx.config,
            wall_seconds=wall, headline=ctx.headline, lint=ctx.lint,
            profile=profile_summary, certificate=ctx.certificate)
        if args.run_dir:
            path = manifest.save(args.run_dir)
            _LOG.info("cli.manifest", path=path)

    try:
        if ctx.json_mode:
            output = dict(ctx.payload)
            output.setdefault("command", args.command)
            if manifest is not None:
                output["manifest"] = manifest.to_dict()
            print(json.dumps(output, indent=2, default=str))
        else:
            for text in ctx.lines:
                print(text)
    except BrokenPipeError:
        _detach_broken_stdout()
    return code


def _detach_broken_stdout():
    """Downstream pager/head closed the pipe; not our error.  Point
    stdout at /dev/null so interpreter shutdown doesn't raise again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
