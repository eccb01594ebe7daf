"""Cycle-accurate execution of a generated MATADOR accelerator.

Two complementary drive modes:

* :meth:`AcceleratorSimulator.run_batch` — evaluate many datapoints in
  parallel, one per batch lane (each lane is an independent copy of the
  design).  This is how software/RTL equivalence is checked at scale.
* :meth:`AcceleratorSimulator.run_stream` — stream datapoints
  back-to-back through a single design instance, exactly like the SoC
  host does, and measure initiation interval and first-result latency in
  cycles (the Fig. 7 quantities).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accelerator.packetizer import packetize
from .axis import AxiStreamMaster, AxiStreamMonitor
from .core import CompiledNetlist

__all__ = ["AcceleratorSimulator", "StreamReport", "BatchReport"]


@dataclass
class BatchReport:
    """Result of a batched (parallel lanes) run."""

    predictions: np.ndarray
    class_sums_of_winner: np.ndarray
    first_result_cycle: int
    cycles_run: int


@dataclass
class StreamReport:
    """Result of a sequential streaming run."""

    predictions: np.ndarray
    result_cycles: list
    first_result_cycle: int
    initiation_interval: float
    cycles_run: int
    beats_accepted: int = 0
    monitor: AxiStreamMonitor = field(default=None, repr=False)

    def throughput_inf_per_s(self, clock_mhz):
        if self.initiation_interval <= 0:
            return 0.0
        return clock_mhz * 1e6 / self.initiation_interval


class AcceleratorSimulator:
    """Compile a design once, then drive it under different stimuli.

    Parameters
    ----------
    design:
        The :class:`~repro.accelerator.generator.AcceleratorDesign` to run.
    batch:
        The row count :meth:`run_batch` must be given, or ``None``
        (default) to let every run take its lane count from ``X``.  The
        one compiled program serves any width either way.
    compiled:
        A :class:`~repro.simulator.core.CompiledNetlist` of
        ``design.netlist`` to run on (it is reset), or ``None`` (default)
        to compile one.
    """

    def __init__(self, design, batch=None, compiled=None):
        self.design = design
        self.batch = None if batch is None else int(batch)
        lanes = 1 if batch is None else batch
        if compiled is None:
            compiled = CompiledNetlist(design.netlist, batch=lanes)
        elif compiled.netlist is not design.netlist:
            raise ValueError("compiled netlist is not the design's netlist")
        else:
            compiled.reset(batch=lanes)
        self.sim = compiled

    # ------------------------------------------------------------------
    def run_batch(self, X, extra_cycles=8):
        """One datapoint per batch lane; returns a :class:`BatchReport`."""
        packets = packetize(X, self.design.schedule)  # (n, P)
        if self.batch is not None and len(packets) != self.batch:
            raise ValueError(
                f"batch mismatch: simulator has {self.batch} lanes, "
                f"X has {len(packets)} rows"
            )
        sim = self.sim
        sim.reset(batch=len(packets))
        predictions = np.full(sim.batch, -1, dtype=np.int64)
        winner_sums = np.zeros(sim.batch, dtype=np.int64)
        first_valid = None

        n_packets = self.design.schedule.n_packets
        total_cycles = n_packets + self.design.latency.result_stage_count + extra_cycles
        for cycle in range(total_cycles):
            if cycle < n_packets:
                out = sim.step(
                    s_data=packets[:, cycle], s_valid=1, rst=0, stall=0
                )
            else:
                out = sim.step(s_data=0, s_valid=0, rst=0, stall=0)
            if out["result_valid"].any():
                if first_valid is None:
                    first_valid = cycle
                lanes = out["result_valid"] == 1
                predictions[lanes] = sim.output_bus("result")[lanes]
                winner_sums[lanes] = sim.output_bus("result_sum", signed=True)[lanes]
        return BatchReport(
            predictions=predictions,
            class_sums_of_winner=winner_sums,
            first_result_cycle=first_valid if first_valid is not None else -1,
            cycles_run=total_cycles,
        )

    # ------------------------------------------------------------------
    def run_stream(self, X, gap=0, extra_cycles=16):
        """Stream datapoints sequentially through lane 0.

        Parameters
        ----------
        X:
            ``(n, features)`` datapoints, sent back to back.
        gap:
            Idle cycles the host inserts between beats (bandwidth model).
        """
        if self.batch not in (None, 1):
            raise ValueError("run_stream requires a simulator with batch=1")
        rows = packetize(X, self.design.schedule)
        packets = rows.reshape(-1)  # flat words
        master = AxiStreamMaster(packets, gap=gap)
        monitor = AxiStreamMonitor()
        sim = self.sim
        sim.reset(batch=1)

        predictions = []
        result_cycles = []
        max_cycles = len(packets) * (gap + 1) + self.design.latency.latency_cycles + extra_cycles
        for cycle in range(max_cycles):
            data, valid = master.present()
            sim.set_bus("s_data", data)
            sim.set_input("s_valid", valid)
            sim.set_input("rst", 0)
            sim.set_input("stall", 0)
            sim.settle()
            ready = int(sim.output("s_ready")[0])
            if int(sim.output("result_valid")[0]):
                predictions.append(int(sim.output_bus("result")[0]))
                result_cycles.append(cycle)
            monitor.observe(cycle, int(data[0]), valid, ready)
            master.advance(ready)
            sim.clock()
            if master.exhausted() and len(predictions) >= len(rows):
                break
        diffs = np.diff(result_cycles) if len(result_cycles) > 1 else np.array([0])
        return StreamReport(
            predictions=np.asarray(predictions, dtype=np.int64),
            result_cycles=result_cycles,
            first_result_cycle=result_cycles[0] if result_cycles else -1,
            initiation_interval=float(diffs.mean()) if len(result_cycles) > 1 else 0.0,
            cycles_run=sim.cycle,
            beats_accepted=monitor.n_beats,
            monitor=monitor,
        )
