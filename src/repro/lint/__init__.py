"""repro.lint — static verification for SRISC programs and clones.

Two layers over one diagnostics vocabulary
(:mod:`repro.lint.diagnostics`):

* **Structural** (:mod:`repro.lint.cfg`, :mod:`repro.lint.dataflow`):
  CFG well-formedness, reachability, register dataflow, and static
  memory bounds for *any* assembled :class:`repro.isa.Program` —
  hand-written kernel or synthesized clone alike (``SR10x`` codes).
  The structural layer runs no value analysis of its own: ``SR106``
  reads the address intervals the abstract interpreter proves, over
  the one CFG that interpreter builds.
* **Static analysis** (:mod:`repro.lint.absint`,
  :mod:`repro.lint.staticprof`, :mod:`repro.lint.disclosure`): an
  abstract interpreter proves safety (trip bounds, termination, a
  footprint interval — ``SR11x``), predicts the clone's dynamic profile
  without simulation and checks the paper's synthesis contract — mix,
  dependency distances, branch machinery, streams, footprint, in
  aggregate and per generated block — against the source profile
  (``CF21x``), and the disclosure audit proves no emitted constant
  derives from raw values of the profiled application (``DL3xx``).

Entry points: :func:`lint_program` for any program,
:func:`lint_clone` for a synthesis result, and :class:`LintGateError`,
which the post-synthesis gate raises on error-severity findings.
"""

from repro.lint.absint import (CERTIFICATE_SCHEMA_VERSION, analyze_program,
                               check_memory_bounds, check_safety,
                               safety_certificate)
from repro.lint.cfg import (ControlFlowGraph, check_branch_targets,
                            check_fallthrough_end, check_reachability)
from repro.lint.dataflow import check_register_writes, check_use_before_def
from repro.lint.diagnostics import (CODES, ERROR, INFO, WARNING, Diagnostic,
                                    LintReport, make_diagnostic,
                                    merge_reports)
from repro.lint.disclosure import (audit_disclosure, audit_program,
                                   profile_secrets)
from repro.lint.staticprof import (ConformanceTolerances, StaticPrediction,
                                   StaticPredictionError,
                                   check_static_conformance, predict_profile)
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

__all__ = [
    "CERTIFICATE_SCHEMA_VERSION", "CODES", "ERROR", "INFO", "WARNING",
    "ConformanceTolerances", "ControlFlowGraph", "Diagnostic",
    "LintGateError", "LintReport", "StaticPrediction",
    "StaticPredictionError", "analyze_program", "audit_disclosure",
    "audit_program", "check_branch_targets", "check_fallthrough_end",
    "check_memory_bounds", "check_reachability", "check_register_writes",
    "check_safety", "check_static_conformance", "check_use_before_def",
    "lint_clone", "lint_program", "make_diagnostic", "merge_reports",
    "predict_profile", "profile_secrets", "safety_certificate",
]


class LintGateError(Exception):
    """Error-severity findings stopped a gated pipeline stage.

    Carries the full :class:`LintReport` as ``.report`` so callers can
    render or serialize the findings.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(report.render_text())


def lint_program(program, severity_overrides=None, safety=False,
                 audit=False, profile=None):
    """Run every structural pass over one program; returns a report.

    ``safety=True`` additionally runs the abstract-interpretation
    safety proofs (``SR11x``); ``audit=True`` runs the disclosure audit
    in its degraded (no-provenance) mode, screening against ``profile``
    when one is supplied.
    """
    with span("lint.program"):
        result = analyze_program(program)
        cfg = result.cfg
        report = merge_reports(
            program.name,
            check_branch_targets(program, severity_overrides),
            check_reachability(cfg, severity_overrides),
            check_fallthrough_end(cfg, severity_overrides),
            check_use_before_def(cfg, severity_overrides),
            check_register_writes(program, severity_overrides),
            check_memory_bounds(program, severity_overrides, result),
        )
        if safety:
            report = merge_reports(
                program.name, report,
                check_safety(program, severity_overrides, result))
        if audit:
            report = merge_reports(
                program.name, report,
                audit_program(program, profile=profile,
                              severity_overrides=severity_overrides))
    REGISTRY.counter("lint.programs").inc()
    REGISTRY.counter("lint.diagnostics").inc(len(report))
    if not report.ok:
        REGISTRY.counter("lint.failures").inc()
    return report


def lint_clone(clone, tolerances=None, severity_overrides=None,
               contract=True, audit=True):
    """Structural passes plus the clone contract for one clone.

    ``contract`` adds the abstract-interpretation layer: safety proofs
    (``SR11x``) plus the synthesis contract checked on the static
    profile prediction (``CF21x``).  ``audit`` adds the disclosure audit
    (``DL3xx``), using the provenance annotations the synthesizer
    recorded in ``clone.stats``.  Everything here is analysis — no pass
    simulates the clone.
    """
    with span("lint.clone"):
        report = lint_program(clone.program, severity_overrides)
        if contract:
            static_report, _ = check_static_conformance(
                clone, tolerances, severity_overrides)
            report = merge_reports(
                clone.program.name, report,
                check_safety(clone.program, severity_overrides),
                static_report)
        if audit:
            report = merge_reports(
                clone.program.name, report,
                audit_disclosure(clone, severity_overrides))
    REGISTRY.counter("lint.clones").inc()
    return report
