"""Auto-generated testbench — the auto-debug flow of Fig. 6(b).

``build_testbench`` assembles, for a generated design, a self-checking
testbench that (1) streams a stimulus set through the cycle-accurate
simulator with an ILA core attached to the AXI-stream handshake and the
result port, (2) checks predictions against the reference software
semantics, and (3) checks measured latency and initiation interval
against the analytic :class:`~repro.accelerator.latency.LatencyModel`.

``emit_verilog_testbench`` additionally renders a standalone Verilog
testbench file for the emitted module, so the generated RTL can also be
driven by an external simulator (Icarus/Verilator/XSim) outside this
environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accelerator.packetizer import packetize
from .design_sim import AcceleratorSimulator
from .ila import ILACore

__all__ = ["TestbenchReport", "build_testbench", "Testbench", "emit_verilog_testbench"]


@dataclass
class TestbenchReport:
    """Outcome of one auto-debug run."""

    n_datapoints: int
    predictions_match: bool
    mismatches: int
    measured_first_latency: int
    expected_first_latency: int
    latency_match: bool
    measured_ii: float
    expected_ii: int
    ii_match: bool
    handshake_beats: int
    expected_beats: int
    beats_match: bool
    ila_result_pulses: list = field(default_factory=list)

    @property
    def passed(self):
        return (
            self.predictions_match
            and self.latency_match
            and self.ii_match
            and self.beats_match
        )

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.n_datapoints} datapoints, "
            f"mismatches={self.mismatches}, "
            f"latency {self.measured_first_latency}/{self.expected_first_latency}, "
            f"II {self.measured_ii:.1f}/{self.expected_ii}, "
            f"beats {self.handshake_beats}/{self.expected_beats}"
        )


class Testbench:
    """A runnable, self-checking testbench bound to one design.

    ``compiled`` is an optional
    :class:`~repro.simulator.core.CompiledNetlist` of the design's
    netlist that :meth:`run` drives (one lane) instead of compiling its
    own.
    """

    def __init__(self, design, X, y=None, compiled=None):
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        self.design = design
        self.X = X
        self.y = np.asarray(y) if y is not None else None
        self.compiled = compiled

    def run(self):
        design = self.design
        sim = AcceleratorSimulator(design, batch=1, compiled=self.compiled)
        netlist = design.netlist
        ila = ILACore(
            sim.sim,
            probes={
                "result_valid": netlist.outputs["result_valid"],
                "s_ready": netlist.outputs["s_ready"],
                "busy": netlist.outputs["busy"],
            },
            depth=4096,
        )
        ila.arm("result_valid", 1)

        # Stream with per-cycle ILA sampling.
        packets = packetize(self.X, design.schedule).reshape(-1)
        core = sim.sim
        core.reset()
        predictions = []
        result_cycles = []
        beats = 0
        idx = 0
        max_cycles = len(packets) + design.latency.latency_cycles + 16
        for cycle in range(max_cycles):
            if idx < len(packets):
                core.set_bus("s_data", np.array([packets[idx]], dtype=np.uint64))
                core.set_input("s_valid", 1)
            else:
                core.set_input("s_valid", 0)
            core.set_input("rst", 0)
            core.set_input("stall", 0)
            core.settle()
            ila.sample()
            ready = int(core.output("s_ready")[0])
            valid = 1 if idx < len(packets) else 0
            if valid and ready:
                beats += 1
                idx += 1
            if int(core.output("result_valid")[0]):
                predictions.append(int(core.output_bus("result")[0]))
                result_cycles.append(cycle)
            core.clock()

        predictions = np.asarray(predictions[: len(self.X)], dtype=np.int64)
        sw = design.model.predict(self.X)
        mismatches = int(np.count_nonzero(predictions != sw[: len(predictions)]))
        lat = design.latency
        measured_first = result_cycles[0] if result_cycles else -1
        measured_ii = (
            float(np.diff(result_cycles).mean()) if len(result_cycles) > 1 else 0.0
        )
        expected_beats = len(self.X) * design.schedule.n_packets
        return TestbenchReport(
            n_datapoints=len(self.X),
            predictions_match=(mismatches == 0 and len(predictions) == len(self.X)),
            mismatches=mismatches,
            measured_first_latency=measured_first,
            expected_first_latency=lat.first_result_cycle,
            latency_match=(measured_first == lat.first_result_cycle),
            measured_ii=measured_ii,
            expected_ii=lat.initiation_interval,
            ii_match=(
                len(self.X) < 2 or abs(measured_ii - lat.initiation_interval) < 1e-9
            ),
            handshake_beats=beats,
            expected_beats=expected_beats,
            beats_match=(beats == expected_beats),
            ila_result_pulses=ila.pulse_cycles("result_valid"),
        )


def build_testbench(design, X, y=None):
    """Construct the auto-debug :class:`Testbench` for a design."""
    return Testbench(design, X, y)


def emit_verilog_testbench(design, X, max_datapoints=4):
    """Render a standalone Verilog testbench for external simulators."""
    X = np.asarray(X, dtype=np.uint8)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    X = X[:max_datapoints]
    packets = packetize(X, design.schedule)
    w = design.config.bus_width
    name = design.netlist.name
    lines = [
        f"// Auto-generated testbench for {name}",
        "`timescale 1ns/1ps",
        f"module {name}_tb;",
        "  reg clk = 0;",
        "  reg rst = 1;",
        "  reg stall = 0;",
        f"  reg [{w - 1}:0] s_data = 0;",
        "  reg s_valid = 0;",
        "  wire s_ready;",
        f"  wire [{design.index_width - 1}:0] result;",
        "  wire result_valid;",
        f"  wire [{design.sum_width - 1}:0] result_sum;",
        "  wire busy;",
        f"  {name} dut (.clk(clk), .rst(rst), .stall(stall), .s_data(s_data),",
        "    .s_valid(s_valid), .s_ready(s_ready), .result(result),",
        "    .result_valid(result_valid), .result_sum(result_sum), .busy(busy));",
        "  always #5 clk = ~clk;",
        "  initial begin",
        "    repeat (2) @(posedge clk);",
        "    rst = 0;",
    ]
    for n in range(len(X)):
        for p in range(design.schedule.n_packets):
            word = int(packets[n, p])
            lines.append(f"    s_data = {w}'h{word:x}; s_valid = 1; @(posedge clk);")
    lines += [
        "    s_valid = 0;",
        f"    repeat ({design.latency.latency_cycles + 8}) @(posedge clk);",
        "    $finish;",
        "  end",
        "  always @(posedge clk) begin",
        "    if (result_valid) $display(\"result=%0d sum=%0d cycle=%0t\", result, $signed(result_sum), $time);",
        "  end",
        "endmodule",
    ]
    return "\n".join(lines) + "\n"
