"""Cycle-accurate simulation: kernel, AXI-stream models, ILA, testbench."""

from .axis import AxiStreamMaster, AxiStreamMonitor, Beat
from .core import CompiledNetlist
from .design_sim import AcceleratorSimulator, BatchReport, StreamReport
from .ila import ILACore, ILAWaveform
from .vcd import VcdTracer, vcd_from_ila
from .testbench import (
    Testbench,
    TestbenchReport,
    emit_verilog_testbench,
)

__all__ = [
    "AxiStreamMaster",
    "AxiStreamMonitor",
    "Beat",
    "CompiledNetlist",
    "AcceleratorSimulator",
    "BatchReport",
    "StreamReport",
    "ILACore",
    "ILAWaveform",
    "Testbench",
    "TestbenchReport",
    "emit_verilog_testbench",
    "VcdTracer",
    "vcd_from_ila",
]
