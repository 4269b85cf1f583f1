"""Branch direction predictors.

The base machine uses the paper's 2-level GAp predictor (global history
register, per-address pattern history tables); design change 4 swaps it
for always-not-taken.  Bimodal and gshare are included for wider studies.
All predictors share the ``predict(pc) -> bool`` / ``update(pc, taken)``
protocol and track their own accuracy.

:func:`predictor_outcome_bank` resolves a whole ``(pc, taken)`` branch
stream at once: the static predictors by one array expression, the
table predictors by one C loop over their 2-bit counters and global
history (``repro_predict_counters`` in :mod:`repro.uarch.native`).
:func:`simulate_predictor` is a one-spec
:func:`repro.uarch.sweep.simulate_predictor_sweep` over those banks;
the scalar loop is kept as :func:`simulate_predictor_reference`, the
spec, and equality-tested.
"""

import numpy as np

from repro.uarch import native


class _PredictorStats:
    __slots__ = ("lookups", "mispredictions")

    def __init__(self):
        self.lookups = 0
        self.mispredictions = 0

    @property
    def misprediction_rate(self):
        if self.lookups == 0:
            return 0.0
        return self.mispredictions / self.lookups


class BranchPredictorBase:
    """Shared bookkeeping; subclasses implement _predict/_update."""

    def __init__(self):
        self.stats = _PredictorStats()

    def predict(self, pc):
        return self._predict(pc)

    def update(self, pc, taken):
        self.stats.lookups += 1
        if self._predict(pc) != taken:
            self.stats.mispredictions += 1
        self._update(pc, taken)

    def _predict(self, pc):
        raise NotImplementedError

    def _update(self, pc, taken):
        raise NotImplementedError


class AlwaysNotTaken(BranchPredictorBase):
    def _predict(self, pc):
        return False

    def _update(self, pc, taken):
        pass


class AlwaysTaken(BranchPredictorBase):
    def _predict(self, pc):
        return True

    def _update(self, pc, taken):
        pass


class Bimodal(BranchPredictorBase):
    """PC-indexed 2-bit saturating counters."""

    def __init__(self, entries=2048):
        super().__init__()
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.counters = [1] * entries  # weakly not-taken

    def _index(self, pc):
        return pc & (self.entries - 1)

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)


class TwoLevelGAp(BranchPredictorBase):
    """2-level GAp: one Global history register, per-Address PHTs.

    The pattern-history-table index concatenates low PC bits with the
    global history, i.e. each static branch gets its own history-indexed
    table slice.
    """

    def __init__(self, history_bits=8, pc_bits=6):
        super().__init__()
        self.history_bits = history_bits
        self.pc_bits = pc_bits
        self.history = 0
        self.counters = [1] * (1 << (history_bits + pc_bits))

    def _index(self, pc):
        return ((pc & ((1 << self.pc_bits) - 1)) << self.history_bits) \
            | self.history

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)


class GShare(BranchPredictorBase):
    """Global history XOR-ed into the PC index."""

    def __init__(self, history_bits=10):
        super().__init__()
        self.history_bits = history_bits
        self.history = 0
        self.counters = [1] * (1 << history_bits)

    def _index(self, pc):
        return (pc ^ self.history) & ((1 << self.history_bits) - 1)

    def _predict(self, pc):
        return self.counters[self._index(pc)] >= 2

    def _update(self, pc, taken):
        index = self._index(pc)
        counter = self.counters[index]
        if taken:
            self.counters[index] = min(3, counter + 1)
        else:
            self.counters[index] = max(0, counter - 1)
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)


_PREDICTORS = {
    "nottaken": AlwaysNotTaken,
    "taken": AlwaysTaken,
    "bimodal": Bimodal,
    "gap": TwoLevelGAp,
    "gshare": GShare,
}


def make_predictor(kind, **kwargs):
    """Instantiate a predictor by name (see keys of ``_PREDICTORS``)."""
    try:
        cls = _PREDICTORS[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}") from None
    return cls(**kwargs)


# ----------------------------------------------------------------------
# Outcome banks (the sweep engine's predictor side)
# ----------------------------------------------------------------------
def _table_layout(model):
    """``(pc_mask, pc_shift, history_bits, table_bits)`` of a table
    predictor: its counter index is ``((pc & pc_mask) << pc_shift) ^
    history`` over ``2**table_bits`` counters."""
    if isinstance(model, Bimodal):
        return model.entries - 1, 0, 0, model.entries.bit_length() - 1
    if isinstance(model, TwoLevelGAp):
        return ((1 << model.pc_bits) - 1, model.history_bits,
                model.history_bits, model.history_bits + model.pc_bits)
    return -1, 0, model.history_bits, model.history_bits  # GShare


def predictor_outcome_bank(pcs, taken, kind="gap", **kwargs):
    """Per-branch mispredict flags for one ``(pc, outcome)`` stream.

    Equal to replaying the stream through ``make_predictor(kind,
    **kwargs)`` and recording each update's mispredict outcome.  The
    static predictors need no replay; the table predictors run in C
    (:func:`repro.uarch.native.predict_counters`), or, without the
    native library, through that replay itself.  ``pcs`` and ``taken``
    are parallel arrays (any int / bool dtypes).
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    taken = np.asarray(taken, dtype=bool)
    model = make_predictor(kind, **kwargs)
    if isinstance(model, AlwaysNotTaken):
        return taken.copy()
    if isinstance(model, AlwaysTaken):
        return ~taken
    if native.available():
        return native.predict_counters(pcs, taken, *_table_layout(model))
    flags = np.empty(len(pcs), dtype=bool)
    for position, (pc, outcome) in enumerate(zip(pcs.tolist(),
                                                 taken.tolist())):
        flags[position] = model.predict(pc) != outcome
        model.update(pc, outcome)
    return flags


def simulate_predictor(trace, kind="gap", **kwargs):
    """Replay all conditional branches of a trace through a predictor.

    A one-spec predictor sweep: returns the predictor, whose ``stats``
    hold the exact misprediction counts, from the sweep's cached
    outcome bank for this trace.  Its internal table state is not
    replayed.  :func:`simulate_predictor_reference` is the scalar
    specification this is equality-tested against.
    """
    # Imported here: repro.uarch.sweep imports this module.
    from repro.uarch.sweep import simulate_predictor_sweep
    return simulate_predictor_sweep(trace, [(kind, kwargs)])[0]


def simulate_predictor_reference(trace, kind="gap", **kwargs):
    """The original per-branch loop, kept as the executable spec for
    :func:`simulate_predictor` (differential tests compare both)."""
    predictor = make_predictor(kind, **kwargs)
    update = predictor.update
    branch_positions = trace.branch_indices()
    pcs = trace.pcs[branch_positions].tolist()
    outcomes = (trace.taken[branch_positions] == 1).tolist()
    for pc, taken in zip(pcs, outcomes):
        update(pc, taken)
    return predictor
