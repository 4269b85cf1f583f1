"""Shared diagnostics engine for the static-analysis subsystem.

Every lint pass — structural (``SR1xx``), clone contract (``CF21x``),
and disclosure (``DL3xx``) — reports through one
vocabulary: a stable *code* drawn from the :data:`CODES` registry, a
*severity*, a human message, and an optional source location
(instruction index, basic block, virtual pc).  Stability matters: codes
appear in run manifests, benchmark provenance, and CI logs, so
downstream tooling can count and compare them across revisions.

Severities:

* ``error``   — the program is malformed or violates the synthesis
  contract; the post-synthesis gate raises on these.
* ``warning`` — suspicious but well-defined behaviour (the SRISC machine
  zero-initializes registers, so e.g. use-before-def executes fine).
* ``info``    — observations that carry no judgement.

Severity precedence (most to least specific, applied uniformly across
every pass and every code family):

1. an explicit ``severity=`` argument to :func:`make_diagnostic` (used
   when one code covers situations of genuinely different weight);
2. a per-run ``severity_overrides`` mapping (``{code: severity}``),
   threaded from the CLI's repeatable ``--severity CODE=LEVEL`` flag
   and from ``SynthesisParameters.severity_overrides`` through every
   structural, safety, clone-contract, and disclosure check;
3. the registry default recorded in :data:`CODES`.
"""

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Ordering for "is at least as severe as" comparisons.
SEVERITY_RANK = {INFO: 0, WARNING: 1, ERROR: 2}


@dataclass(frozen=True)
class CodeSpec:
    """Registry entry for one stable diagnostic code."""

    code: str
    slug: str
    severity: str  # default severity; overridable per run
    summary: str


#: The full diagnostic vocabulary.  ``SR`` = structural verification,
#: ``CF`` = clone/profile conformance.  Codes are never renumbered or
#: reused: CF200–CF205 (the shape-recovery conformance passes) are
#: retired — the CF21x contract checks everything they did — and stay
#: unassigned.
CODES = {spec.code: spec for spec in (
    CodeSpec("SR101", "unreachable-block", WARNING,
             "basic block cannot be reached from the entry point"),
    CodeSpec("SR102", "bad-branch-target", ERROR,
             "branch or jump target is outside the program"),
    CodeSpec("SR103", "fallthrough-end", ERROR,
             "control can fall through past the last instruction"),
    CodeSpec("SR104", "use-before-def", WARNING,
             "register may be read before any write reaches it"),
    CodeSpec("SR105", "write-to-zero", WARNING,
             "instruction writes the hardwired zero register"),
    CodeSpec("SR106", "oob-memory", ERROR,
             "memory operand statically addresses outside the data "
             "image and stack"),
    # --- Safety proofs (abstract interpretation, repro.lint.absint) ---
    CodeSpec("SR110", "loop-bound", INFO,
             "loop trip count is statically bounded"),
    CodeSpec("SR111", "loop-unbounded", WARNING,
             "loop trip count cannot be statically bounded"),
    CodeSpec("SR112", "termination", INFO,
             "program provably terminates within a bounded instruction "
             "count"),
    CodeSpec("SR113", "footprint-interval", INFO,
             "every dynamic memory access stays within a proven address "
             "interval"),
    CodeSpec("SR114", "footprint-unbounded", WARNING,
             "some memory access address cannot be statically bounded"),
    # --- Static profile prediction (repro.lint.staticprof) ---
    CodeSpec("CF210", "static-shape", ERROR,
             "static analysis cannot recover a bounded single-loop "
             "execution structure for the clone"),
    CodeSpec("CF211", "static-mix", ERROR,
             "statically predicted instruction mix (or one generated "
             "block's mix) diverges from the target profile"),
    CodeSpec("CF212", "static-dep", WARNING,
             "statically predicted dependency-distance histogram "
             "diverges from the target profile"),
    CodeSpec("CF213", "static-branch", ERROR,
             "statically predicted branch behaviour (or one generated "
             "block's machinery) diverges from the target profile"),
    CodeSpec("CF214", "static-stream", ERROR,
             "statically derived stream strides diverge from the memory "
             "plan"),
    CodeSpec("CF215", "static-footprint", ERROR,
             "statically predicted data footprint diverges from the "
             "profiled footprint"),
    # --- Disclosure audit (repro.lint.disclosure) ---
    CodeSpec("DL300", "unaccounted-literal", ERROR,
             "immediate has no recorded provenance in the synthesis "
             "statistics"),
    CodeSpec("DL301", "raw-literal", ERROR,
             "constant derives from a raw address/data value of the "
             "profiled application"),
    CodeSpec("DL302", "missing-provenance", WARNING,
             "clone carries no provenance annotations; audit degraded "
             "to raw-value screening"),
    CodeSpec("DL303", "disclosure-audit", INFO,
             "disclosure audit summary"),
)}


@dataclass
class Diagnostic:
    """One finding: code + severity + message + optional location."""

    code: str
    severity: str
    message: str
    index: int = None  # instruction index, when the finding has one
    block: int = None  # basic block id
    pc: int = None  # virtual address of ``index``
    data: dict = field(default_factory=dict)

    @property
    def slug(self):
        return CODES[self.code].slug

    def location(self):
        """Render the most precise location available (may be empty)."""
        if self.index is not None:
            return f"@{self.index}"
        if self.block is not None:
            return f"bb{self.block}"
        return ""

    def render(self, program_name=""):
        where = self.location()
        prefix = ":".join(part for part in (program_name, where) if part)
        head = f"{prefix}: " if prefix else ""
        return f"{head}{self.severity} {self.code} [{self.slug}] {self.message}"

    def to_dict(self):
        payload = {"code": self.code, "slug": self.slug,
                   "severity": self.severity, "message": self.message}
        for key in ("index", "block", "pc"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        if self.data:
            payload["data"] = dict(self.data)
        return payload


def make_diagnostic(code, message, severity=None, severity_overrides=None,
                    **location):
    """Build a diagnostic with the code's default (or overridden) severity."""
    spec = CODES[code]
    if severity is None:
        severity = (severity_overrides or {}).get(code, spec.severity)
    if severity not in SEVERITY_RANK:
        raise ValueError(f"unknown severity {severity!r}")
    return Diagnostic(code=code, severity=severity, message=message,
                      **location)


class LintReport:
    """An ordered collection of diagnostics for one program.

    ``ok`` means *no error-severity findings* — warnings do not fail a
    report (the CLI's ``--strict`` tightens that at the edge).
    """

    def __init__(self, program_name="<program>", diagnostics=None):
        self.program_name = program_name
        self.diagnostics = list(diagnostics or [])

    def add(self, diagnostic):
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics):
        self.diagnostics.extend(diagnostics)

    def __len__(self):
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    # ------------------------------------------------------------------
    def errors(self):
        return [d for d in self.diagnostics if d.severity == ERROR]

    def warnings(self):
        return [d for d in self.diagnostics if d.severity == WARNING]

    @property
    def ok(self):
        return not self.errors()

    def codes(self):
        """``{code: count}`` over every finding (stable across runs)."""
        counts = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    # ------------------------------------------------------------------
    def summary(self):
        """Compact verdict block for manifests and artifact metadata."""
        return {"ok": self.ok, "errors": len(self.errors()),
                "warnings": len(self.warnings()), "codes": self.codes()}

    def to_dict(self):
        payload = self.summary()
        payload["program"] = self.program_name
        payload["diagnostics"] = [d.to_dict() for d in self.diagnostics]
        return payload

    def render_text(self):
        """Human-readable block: one line per finding plus a verdict."""
        lines = [d.render(self.program_name) for d in self.diagnostics]
        verdict = "clean" if not self.diagnostics else (
            f"{len(self.errors())} error(s), {len(self.warnings())} "
            f"warning(s)")
        lines.append(f"{self.program_name}: {verdict}")
        return "\n".join(lines)


def merge_reports(program_name, *reports):
    """Concatenate several passes' reports into one."""
    merged = LintReport(program_name)
    for report in reports:
        merged.extend(report.diagnostics)
    return merged
