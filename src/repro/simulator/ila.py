"""Integrated Logic Analyzer (ILA) capture cores.

MATADOR's auto-debug flow inserts Xilinx ILA cores to poll AXI-stream
transactions on the implemented design (Section IV).  The simulation
equivalent attaches named probes to arbitrary nets of a compiled design,
samples them every cycle into a ring buffer, and supports the same
trigger-and-capture usage: arm a trigger condition, then read the capture
window around the trigger.

Because the paper's designs keep the model in logic (no BRAM), adding
debug cores does not steal memory from the accelerator; our resource
model reflects that by accounting ILA buffers separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ILACore", "ILAWaveform"]


@dataclass
class ILAWaveform:
    """Captured samples for one probe."""

    name: str
    cycles: np.ndarray
    values: np.ndarray

    def transitions(self):
        """Cycles at which the value changed."""
        if len(self.values) < 2:
            return []
        change = np.flatnonzero(np.diff(self.values.astype(np.int64)) != 0) + 1
        return [int(self.cycles[i]) for i in change]


class ILACore:
    """Ring-buffer probe bank over a :class:`CompiledNetlist`.

    Parameters
    ----------
    sim:
        The compiled design being observed (lane 0 is probed).
    probes:
        Mapping of probe name -> net id (or list of net ids for a bus).
    depth:
        Ring buffer depth in samples (hardware ILAs are typically 1-8 K).
    """

    def __init__(self, sim, probes, depth=1024):
        if depth < 2:
            raise ValueError("depth must be >= 2")
        self.sim = sim
        self.depth = int(depth)
        self.probes = {}
        for name, nets in probes.items():
            if isinstance(nets, (list, tuple)):
                self.probes[name] = list(nets)
            else:
                self.probes[name] = [nets]
        self._cycles = []
        self._data = {name: [] for name in self.probes}
        self.trigger_cycle = None
        self._trigger = None

    def arm(self, probe, value):
        """Arm a trigger: capture notes the first cycle ``probe == value``."""
        if probe not in self.probes:
            raise KeyError(f"no probe named {probe!r}")
        self._trigger = (probe, int(value))
        self.trigger_cycle = None

    def _read_probe(self, name):
        bits = self.sim.lanes(self.probes[name])[:, 0]
        return sum(int(bit) << i for i, bit in enumerate(bits))

    def sample(self):
        """Record one cycle of all probes (call once per clock)."""
        cycle = self.sim.cycle
        self._cycles.append(cycle)
        for name in self.probes:
            value = self._read_probe(name)
            self._data[name].append(value)
            if (
                self._trigger is not None
                and self.trigger_cycle is None
                and name == self._trigger[0]
                and value == self._trigger[1]
            ):
                self.trigger_cycle = cycle
        if len(self._cycles) > self.depth:
            self._cycles.pop(0)
            for name in self.probes:
                self._data[name].pop(0)

    def waveform(self, probe):
        """The captured :class:`ILAWaveform` for one probe."""
        if probe not in self.probes:
            raise KeyError(f"no probe named {probe!r}")
        return ILAWaveform(
            name=probe,
            cycles=np.asarray(self._cycles, dtype=np.int64),
            values=np.asarray(self._data[probe], dtype=np.int64),
        )

    def pulse_cycles(self, probe):
        """Cycles where a 1-bit probe was high (AXI handshake polling)."""
        wf = self.waveform(probe)
        return [int(c) for c, v in zip(wf.cycles, wf.values) if v]

    def buffer_bits(self):
        """Storage the core would occupy in hardware (for reporting)."""
        probe_bits = sum(len(nets) for nets in self.probes.values())
        return probe_bits * self.depth
