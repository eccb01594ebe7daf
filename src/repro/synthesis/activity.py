"""Simulation-driven switching-activity analysis.

The power model's default toggle rate is a calibrated constant; this
module replaces it with *measured* activity: run real stimulus through
the compiled netlist, count transitions per net per cycle, and feed the
observed rates into the dynamic power estimate — the vectorless vs
vector-based power analysis distinction of real implementation tools.

The measured rates also quantify the paper's energy argument directly:
sparse TM logic barely toggles (most partial clauses are 0 and stay 0),
which is why MATADOR's dynamic power sits so far below dense dataflow
engines'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rtl.netlist import GATE_KINDS
from .power import PowerModel, estimate_power

__all__ = ["ActivityReport", "measure_activity", "power_from_activity"]


@dataclass
class ActivityReport:
    """Per-design switching statistics from simulation."""

    cycles: int
    mean_toggle_rate: float
    gate_toggle_rate: float
    register_toggle_rate: float
    per_block_toggle: dict = field(default_factory=dict)
    busiest_nets: list = field(default_factory=list)

    def summary(self):
        return (
            f"activity over {self.cycles} cycles: mean toggle "
            f"{self.mean_toggle_rate:.4f}/cycle (gates "
            f"{self.gate_toggle_rate:.4f}, regs {self.register_toggle_rate:.4f})"
        )


def measure_activity(sim, drive, n_cycles, top_k=10):
    """Count net transitions while ``drive(sim, cycle)`` stimulates.

    Parameters
    ----------
    sim:
        A :class:`repro.simulator.core.CompiledNetlist` (freshly reset or
        mid-stream; counting starts from its current state).
    drive:
        Callback invoked before each cycle to set inputs.
    n_cycles:
        How many clock cycles to observe.
    top_k:
        How many busiest nets to report.

    Returns an :class:`ActivityReport`; rates are transitions per net per
    cycle, averaged over the batch lanes.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    netlist = sim.netlist
    n = netlist.n_nodes()
    every_net = np.arange(n)
    toggles = np.zeros(n, dtype=np.float64)
    prev = sim.lanes(every_net)
    for cycle in range(n_cycles):
        drive(sim, cycle)
        sim.settle()
        sim.clock()
        values = sim.lanes(every_net)
        toggles += (values != prev).mean(axis=1)
        prev = values

    rates = toggles / n_cycles
    gate_ids = [i for i, node in enumerate(netlist.nodes) if node.kind in GATE_KINDS]
    reg_ids = [i for i, node in enumerate(netlist.nodes) if node.kind == "dff"]
    logic_ids = gate_ids + reg_ids

    per_block = {}
    counts = {}
    for nid in logic_ids:
        block = netlist.nodes[nid].block
        per_block[block] = per_block.get(block, 0.0) + rates[nid]
        counts[block] = counts.get(block, 0) + 1
    per_block = {b: per_block[b] / counts[b] for b in per_block}

    busiest = sorted(logic_ids, key=lambda i: -rates[i])[:top_k]
    return ActivityReport(
        cycles=n_cycles,
        mean_toggle_rate=float(rates[logic_ids].mean()) if logic_ids else 0.0,
        gate_toggle_rate=float(rates[gate_ids].mean()) if gate_ids else 0.0,
        register_toggle_rate=float(rates[reg_ids].mean()) if reg_ids else 0.0,
        per_block_toggle=per_block,
        busiest_nets=[(int(i), float(rates[i])) for i in busiest],
    )


def power_from_activity(resources, clock_mhz, activity, base_model=None):
    """Dynamic power with the measured (not assumed) toggle rate."""
    if base_model is None:
        base_model = PowerModel()
    model = PowerModel(
        p_static_pl_w=base_model.p_static_pl_w,
        p_ps_w=base_model.p_ps_w,
        toggle_rate=max(activity.mean_toggle_rate, 1e-6),
        c_lut_w_per_mhz=base_model.c_lut_w_per_mhz,
        c_ff_w_per_mhz=base_model.c_ff_w_per_mhz,
        c_bram_w_per_mhz=base_model.c_bram_w_per_mhz,
        c_io_w_per_mhz=base_model.c_io_w_per_mhz,
    )
    return estimate_power(resources, clock_mhz, model)
