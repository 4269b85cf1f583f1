"""Compact dynamic-trace representation.

A trace is three parallel arrays over the dynamic instruction stream:

* ``pcs``   — static instruction index executed (int32);
* ``addrs`` — effective data address for loads/stores, ``-1`` otherwise
  (int64);
* ``taken`` — ``1``/``0`` for taken/not-taken conditional branches, ``-1``
  otherwise (int8).

Together with the static :class:`repro.isa.Program` (which supplies opcode
class and register operands per pc), this is the complete input to both
the microarchitecture-independent profiler and the timing models — the
same information SimpleScalar's functional simulator feeds its tools.
"""

import numpy as np


class DynamicTrace:
    """Immutable dynamic instruction trace bound to its static program."""

    def __init__(self, program, pcs, addrs, taken):
        if not (len(pcs) == len(addrs) == len(taken)):
            raise ValueError("trace arrays must have equal length")
        self.program = program
        self.pcs = np.asarray(pcs, dtype=np.int32)
        self.addrs = np.asarray(addrs, dtype=np.int64)
        self.taken = np.asarray(taken, dtype=np.int8)
        self._memory_mask = None

    def __len__(self):
        return len(self.pcs)

    @property
    def length(self):
        return len(self.pcs)

    def _mem_mask(self):
        """The ``addrs >= 0`` load/store mask, computed once per trace.

        Every consumer below needs it and the trace is immutable, so it
        is cached on first use instead of being recomputed per call.
        """
        mask = self._memory_mask
        if mask is None:
            mask = self._memory_mask = self.addrs >= 0
        return mask

    def memory_indices(self):
        """Dynamic positions of all loads/stores."""
        return np.nonzero(self._mem_mask())[0]

    def memory_addresses(self):
        """Effective addresses of all loads/stores, in dynamic order."""
        return self.addrs[self._mem_mask()]

    def branch_indices(self):
        """Dynamic positions of all conditional branches."""
        return np.nonzero(self.taken >= 0)[0]

    def data_footprint(self, granularity=4):
        """Number of unique ``granularity``-byte data blocks touched."""
        addresses = self.memory_addresses()
        if len(addresses) == 0:
            return 0
        return int(len(np.unique(addresses // granularity)))

    def summary(self):
        """Human-oriented counts used in reports and tests."""
        mem = int(np.count_nonzero(self._mem_mask()))
        branches = int(np.count_nonzero(self.taken >= 0))
        taken = int(np.count_nonzero(self.taken == 1))
        return {
            "instructions": len(self.pcs),
            "memory_ops": mem,
            "branches": branches,
            "taken_branches": taken,
        }

    def save(self, path):
        """Persist to a compressed ``.npz`` (program is *not* saved; see
        ``load``): traces are highly repetitive and shrink 5-10x."""
        np.savez_compressed(path, pcs=self.pcs, addrs=self.addrs,
                            taken=self.taken)

    @classmethod
    def load(cls, path, program):
        """Load arrays saved by :meth:`save`, rebinding to ``program``."""
        with np.load(path) as blob:
            return cls(program, blob["pcs"], blob["addrs"], blob["taken"])
