"""Auto-generated testbench — the auto-debug flow of Fig. 6(b).

:class:`Testbench` checks a generated design end to end: it streams a
stimulus set back to back through one lane of the cycle-accurate
simulator (:meth:`~repro.simulator.design_sim.AcceleratorSimulator.run_stream`),
then checks the predictions against the reference software semantics and
the measured first-result latency, initiation interval and AXI-stream
beat count against the analytic
:class:`~repro.accelerator.latency.LatencyModel`.

``emit_verilog_testbench`` additionally renders a standalone Verilog
testbench file for the emitted module, so the generated RTL can also be
driven by an external simulator (Icarus/Verilator/XSim) outside this
environment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accelerator.packetizer import packetize
from ..tsetlin.inference import check_features
from .design_sim import AcceleratorSimulator

__all__ = ["TestbenchReport", "Testbench", "emit_verilog_testbench"]


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

    >>> import numpy as np
    >>> from repro.accelerator import AcceleratorConfig, generate_accelerator
    >>> from repro.model import TMModel
    >>> from repro.simulator import Testbench
    >>> include = np.zeros((2, 1, 4), dtype=bool)
    >>> include[0, 0, 0] = True; include[1, 0, 2] = True
    >>> model = TMModel(include=include, n_features=2, weights=[[1], [1]])
    >>> design = generate_accelerator(model, AcceleratorConfig())
    >>> X = [[1, 0], [0, 1], [1, 1]]
    >>> Testbench(design, X).run().summary()
    '[PASS] 3 datapoints, mismatches=0, latency 3/3, II 1.0/1, beats 3/3'
    >>> nl = design.netlist                      # flip the result's low bit
    >>> nl.set_output("result[0]", nl.g_not(nl.outputs["result[0]"]))
    >>> report = Testbench(design, X).run()
    >>> report.passed, report.mismatches
    (False, 3)
    """

    __test__ = False  # a design testbench, not a pytest test class

    def __init__(self, design, X, compiled=None):
        self.design = design
        self.X = check_features(X, design.schedule.n_features)
        self.compiled = compiled

    def run(self):
        design = self.design
        n = len(self.X)
        stream = AcceleratorSimulator(
            design, batch=1, compiled=self.compiled
        ).run_stream(self.X)
        predictions = stream.predictions[:n]
        sw = design.model.predict(self.X)
        mismatches = int(np.count_nonzero(predictions != sw[: len(predictions)]))
        lat = design.latency
        expected_beats = n * design.schedule.n_packets
        return TestbenchReport(
            n_datapoints=n,
            predictions_match=(mismatches == 0 and len(predictions) == n),
            mismatches=mismatches,
            measured_first_latency=stream.first_result_cycle,
            expected_first_latency=lat.first_result_cycle,
            latency_match=(stream.first_result_cycle == lat.first_result_cycle),
            measured_ii=stream.initiation_interval,
            expected_ii=lat.initiation_interval,
            ii_match=(
                n < 2 or abs(stream.initiation_interval - lat.initiation_interval) < 1e-9
            ),
            handshake_beats=stream.beats_accepted,
            expected_beats=expected_beats,
            beats_match=(stream.beats_accepted == expected_beats),
        )


def emit_verilog_testbench(design, X, max_datapoints=4):
    """Render a standalone Verilog testbench for external simulators."""
    X = check_features(X, design.schedule.n_features)[:max_datapoints]
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
