"""The shared native toolchain: what a machine compiles, and when.

From an empty compile cache, a functional run and a sweep that times
configs in lane passes build exactly three libraries: the probe (which
also reports the host's lane width), ``simfunc``, and ``sweep`` (the
sweep's scalar kernels plus the lane kernel at that width).  With
``REPRO_NATIVE=0`` nothing is built, the probe included.  A
``native.compile`` span times a build, never a cache hit.
"""

import os

import pytest

from repro.isa import assemble
from repro.native import toolchain
from repro.obs.journal import configure_journal, read_journal
from repro.obs.metrics import REGISTRY
from repro.obs.trace import build_span_tree
from repro.sim import run_program
from repro.uarch import BASE_CONFIG, native, simulate_pipeline_sweep
from repro.uarch.sweep import sweep_stats_snapshot

#: Three same-shape configs: one lane pass where the host has lanes.
CONFIGS = [BASE_CONFIG] + [BASE_CONFIG.renamed(f"width-{width}",
                                               width=width)
                           for width in (2, 4)]

#: A loop of some 8,000 instructions with loads, stores and branches.
SOURCE = """
    .data
buf: .space 64
    .text
main:
    li   r5, 0
    li   r6, 1000
    la   r8, buf
loop:
    lw   r7, 0(r8)
    addi r7, r7, 3
    sw   r7, 0(r8)
    addi r5, r5, 1
    blt  r5, r6, loop
    halt
"""


@pytest.fixture()
def cache(monkeypatch, tmp_path):
    """An empty repro cache dir, with every loaded library forgotten."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    toolchain.reset()
    yield tmp_path / "cache"
    monkeypatch.undo()
    toolchain.reset()


def simulate_and_sweep():
    """One functional run and one sweep over its trace; the sweep's
    lane-pass config count."""
    trace = run_program(assemble(SOURCE, name="loop"))
    REGISTRY.reset()
    simulate_pipeline_sweep(trace, CONFIGS)
    return sweep_stats_snapshot()["lane_configs"]


def stems(directory):
    return sorted(name.rsplit("-", 1)[0] for name in os.listdir(directory))


def test_three_libraries_per_machine(cache):
    if not native.available():
        pytest.skip("no working C toolchain")
    lanes = simulate_and_sweep()
    assert lanes == (len(CONFIGS) if native.lane_width() else 0)
    assert stems(toolchain.cache_dir()) == ["probe", "simfunc", "sweep"]


def test_gated_off_builds_nothing(cache, monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE", "0")
    assert simulate_and_sweep() == 0
    assert not native.available() and native.lane_width() == 0
    assert not os.path.exists(cache / "native")


def test_compile_span_only_when_cc_runs(cache, tmp_path):
    if not native.available():
        pytest.skip("no working C toolchain")
    toolchain.reset()
    configure_journal(str(tmp_path / "journal"))
    try:
        native.available()  # a stat each: both libraries are built
        toolchain.reset()
        [probe] = [name for name in os.listdir(toolchain.cache_dir())
                   if name.startswith("probe-")]
        os.remove(os.path.join(toolchain.cache_dir(), probe))
        native.available()  # rebuilds the probe only
    finally:
        configure_journal(None)
    spans = [node for root in build_span_tree(
        read_journal(str(tmp_path / "journal")).events)
        for node in root.walk() if node.name == "native.compile"]
    assert [node.attrs["stem"] for node in spans] == ["probe"]
