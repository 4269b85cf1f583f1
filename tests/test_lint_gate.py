"""The post-synthesis lint gate inside CloneSynthesizer.synthesize()."""

import dataclasses

import pytest

from repro.core.baseline import MicroarchDependentSynthesizer
from repro.core.synthesizer import (CloneResult, CloneSynthesizer,
                                    SynthesisParameters)
from repro.isa import assemble
from repro.lint import LintGateError


class _SabotagedSynthesizer(CloneSynthesizer):
    """Inverts the clone's first always-taken branch after synthesis —
    the profile promises "taken", the emitted machinery says never."""

    def _synthesize(self):
        result = super()._synthesize()
        source = result.asm_source.replace(
            "    beq r0, r0, ", "    bne r0, r0, ", 1)
        assert source != result.asm_source
        return CloneResult(
            program=assemble(source, name=result.program.name),
            asm_source=source, profile=result.profile,
            parameters=result.parameters, stats=result.stats)


def _params(**overrides):
    return SynthesisParameters(dynamic_instructions=30_000, **overrides)


def test_clean_synthesis_records_verdict(loop_nest_clone):
    # conftest builds the session clone with the default gate ("error"),
    # so reaching here at all means the gate passed it.
    verdict = loop_nest_clone.stats["lint"]
    assert verdict["ok"] is True
    assert verdict["errors"] == 0


def test_error_mode_raises_on_divergent_clone(loop_nest_profile):
    synthesizer = _SabotagedSynthesizer(loop_nest_profile, _params())
    with pytest.raises(LintGateError) as excinfo:
        synthesizer.synthesize()
    report = excinfo.value.report
    assert not report.ok
    assert "CF213" in report.codes()
    assert "CF213" in str(excinfo.value)


def test_warn_mode_records_failure_without_raising(loop_nest_profile):
    synthesizer = _SabotagedSynthesizer(loop_nest_profile,
                                        _params(lint_gate="warn"))
    result = synthesizer.synthesize()
    assert result.stats["lint"]["ok"] is False
    assert "CF213" in result.stats["lint"]["codes"]


def test_off_mode_skips_linting(loop_nest_profile):
    synthesizer = _SabotagedSynthesizer(loop_nest_profile,
                                        _params(lint_gate="off"))
    result = synthesizer.synthesize()
    assert "lint" not in result.stats


def test_invalid_gate_mode_rejected(loop_nest_profile):
    with pytest.raises(ValueError):
        CloneSynthesizer(loop_nest_profile, _params(lint_gate="nope"))


def test_gate_verdict_survives_parameter_copy(loop_nest_clone):
    # stats ride along when results are rebuilt (exec store round trip)
    copied = dataclasses.replace(loop_nest_clone)
    assert copied.stats["lint"]["ok"] is True


def test_baseline_synthesizer_skips_conformance(loop_nest_profile):
    # The baseline deliberately breaks the synthesis contract (hash
    # branches, cache-sized footprint); only structural passes gate it.
    synthesizer = MicroarchDependentSynthesizer(
        loop_nest_profile, target_miss_rate=0.05,
        target_mispredict_rate=0.05, parameters=_params())
    assert synthesizer.lint_conformance is False
    result = synthesizer.synthesize()
    assert result.stats["lint"]["ok"] is True
