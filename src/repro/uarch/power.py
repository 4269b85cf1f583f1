"""Activity-based power model (the Wattch analog).

Energy per event scales with structure geometry the way CACTI-style
models do to first order: array energies grow ~sqrt(size), multi-ported
and superscalar structures grow with width, and idle structures burn a
conditional-clocking fraction of their active power (Wattch's ``cc3``
style).  Units are arbitrary "energy units per cycle"; the paper's power
results are used relatively, and so are ours.
"""

from dataclasses import dataclass

from repro.isa.instructions import IClass
from repro.obs.metrics import REGISTRY
from repro.obs.trace import span

#: Fraction of a structure's active energy consumed when idle
#: (conditional clocking with leakage, as in Wattch cc3).
IDLE_FRACTION = 0.10


def _array_energy(size_bytes, assoc_ways=1):
    """Per-access energy of a RAM/CAM array, CACTI-flavoured scaling."""
    return (size_bytes ** 0.5) * (1.0 + 0.15 * (assoc_ways - 1)) / 40.0


@dataclass
class PowerBreakdown:
    """Per-structure average power (energy units / cycle)."""

    fetch: float = 0.0
    dispatch_window: float = 0.0
    regfile: float = 0.0
    functional_units: float = 0.0
    dcache: float = 0.0
    icache: float = 0.0
    l2: float = 0.0
    branch_predictor: float = 0.0
    lsq: float = 0.0
    clock: float = 0.0

    @property
    def total(self):
        return (self.fetch + self.dispatch_window + self.regfile
                + self.functional_units + self.dcache + self.icache
                + self.l2 + self.branch_predictor + self.lsq + self.clock)


#: Per-operation execution energies by instruction class.
_UNIT_ENERGY = {
    IClass.IALU: 1.0, IClass.IMUL: 3.2, IClass.IDIV: 4.5,
    IClass.FALU: 2.4, IClass.FMUL: 3.6, IClass.FDIV: 5.0,
    IClass.LOAD: 0.6, IClass.STORE: 0.6,
    IClass.BRANCH: 0.8, IClass.JUMP: 0.6, IClass.OTHER: 0.2,
}

_PREDICTOR_TABLE_BYTES = {
    "gap": 2 ** 14 // 4, "gshare": 2 ** 10 // 4, "bimodal": 2048 // 4,
    "taken": 16, "nottaken": 16,
}


class PowerModel:
    """Maps a :class:`PipelineResult` to average power."""

    def __init__(self, config):
        self.config = config
        width = config.width
        self.e_fetch = 0.5 * width ** 1.1
        self.e_dispatch = (0.4 * (config.rob_size ** 0.5)
                           * (1.0 + 0.5 * (width - 1)))
        self.e_commit = self.e_dispatch * 0.6
        self.e_regfile = 0.35 * (1.0 + 0.6 * (width - 1))
        self.e_lsq = 0.3 * (config.lsq_size ** 0.5)
        self.e_icache = _array_energy(config.l1i.size, config.l1i.ways)
        self.e_dcache = _array_energy(config.l1d.size, config.l1d.ways)
        self.e_l2 = (_array_energy(config.l2.size, config.l2.ways)
                     if config.l2 else 0.0)
        predictor_bytes = _PREDICTOR_TABLE_BYTES.get(config.predictor, 256)
        self.e_bpred = _array_energy(predictor_bytes)
        # Peak (per-cycle) power per structure, used for idle charging and
        # the clock network.
        self.peak = {
            "fetch": self.e_fetch * width,
            "dispatch_window": self.e_dispatch * width * 1.6,
            "regfile": self.e_regfile * 3 * width,
            "functional_units": (config.n_int_alu * 1.0
                                 + config.n_int_mul * 3.2
                                 + config.n_fp_alu * 2.4
                                 + config.n_fp_mul * 3.6),
            "dcache": self.e_dcache * config.n_mem_ports,
            "icache": self.e_icache,
            "l2": self.e_l2,
            "branch_predictor": self.e_bpred,
            "lsq": self.e_lsq * width,
        }
        self.clock_power = 0.8 + 0.25 * sum(self.peak.values())

    # ------------------------------------------------------------------
    def evaluate(self, result):
        """Average power for one pipeline run (returns PowerBreakdown)."""
        cycles = max(1, result.cycles)
        instructions = result.instructions
        counts = result.class_counts
        mem_ops = counts[IClass.LOAD] + counts[IClass.STORE]

        energies = {
            "fetch": self.e_fetch * instructions,
            "dispatch_window": self.e_dispatch * instructions
            + self.e_commit * instructions,
            "regfile": self.e_regfile * 3 * instructions,
            "functional_units": sum(
                _UNIT_ENERGY[iclass] * counts[iclass]
                for iclass in range(IClass.COUNT)),
            "dcache": self.e_dcache * result.dcache_accesses,
            "icache": self.e_icache * result.icache_accesses,
            "l2": self.e_l2 * result.l2_accesses * 1.8,
            "branch_predictor": self.e_bpred * result.branch_lookups * 2,
            "lsq": self.e_lsq * mem_ops * 2,
        }

        breakdown = PowerBreakdown()
        for name, energy in energies.items():
            active = energy / cycles
            idle_floor = IDLE_FRACTION * self.peak[name]
            setattr(breakdown, name, max(active, idle_floor)
                    if self.peak[name] else active)
        breakdown.clock = self.clock_power
        return breakdown


# ----------------------------------------------------------------------
# Shared models: one PowerModel per distinct geometry per process
# ----------------------------------------------------------------------
def power_key(config):
    """The config subset a :class:`PowerModel`'s energies depend on.

    Geometry only — widths, queue/array sizes, FU and port counts,
    cache shapes, predictor kind.  Latency and penalty knobs never
    enter the energy tables, so configs differing only in those share
    one model (the power analog of the sweep engine's bank keys).
    """
    return (config.width, config.rob_size, config.lsq_size,
            config.n_int_alu, config.n_int_mul, config.n_fp_alu,
            config.n_fp_mul, config.n_mem_ports,
            config.l1i, config.l1d, config.l2, config.predictor)


_SHARED_MODELS = {}


def shared_power_model(config):
    """The process-wide :class:`PowerModel` for ``config``'s geometry.

    Evaluation is pure (``evaluate`` never mutates the model), so
    sharing is safe; construction cost — the CACTI-style energy
    derivations — is paid once per distinct geometry instead of once
    per (workload × config) cell.  Reuse feeds the sweep stats
    (``power_models_built`` / ``power_models_reused``) surfaced by
    ``repro report``.
    """
    key = power_key(config)
    model = _SHARED_MODELS.get(key)
    if model is None:
        with span("uarch.power.build"):
            model = _SHARED_MODELS[key] = PowerModel(config)
        REGISTRY.counter("uarch.sweep.power_models_built").inc()
    else:
        REGISTRY.counter("uarch.sweep.power_models_reused").inc()
    return model


def reset_shared_power_models():
    """Drop the shared-model cache (tests)."""
    _SHARED_MODELS.clear()


def estimate_power(result, config=None):
    """Total average power for a pipeline result (convenience).

    Routed through :func:`shared_power_model`, so repeated estimates
    across a grid reuse one model per geometry.
    """
    model = shared_power_model(
        config if config is not None else result.config)
    return model.evaluate(result).total
