"""Accelerator generation parameters.

These are the knobs the MATADOR GUI exposes (Fig. 6a): channel bandwidth,
pipelining of the class-sum/argmax stages, and the optimization switches
used for the paper's ablations (logic sharing on/off for Fig. 8,
pass-through register pruning for the sparsity discussion).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["AcceleratorConfig"]


@dataclass
class AcceleratorConfig:
    """Parameters of a generated MATADOR inference accelerator.

    Attributes
    ----------
    bus_width:
        AXI-stream channel width in bits between the processor and the
        fabric (the paper's evaluation uses 64).
    pipeline_class_sum:
        Insert a register bank after the class-sum adders (Section III:
        "The MATADOR tool allows users to pipeline these adders").  Adds a
        cycle of latency, shortens the critical path.
    pipeline_argmax:
        Register the argmax result (a second pipeline stage).
    share_logic:
        Build the netlist with structural hashing (logic sharing).  Setting
        this False reproduces the DON'T TOUCH configuration of Fig. 8.
    prune_passthrough:
        Skip the clause-state register in HCBs where a clause has no
        includes (exploiting model sparsity).  Setting this False keeps a
        register per clause per HCB, as a naive streaming design would.
    name:
        Module name stem for the generated RTL.
    target:
        FPGA device model used by the synthesis estimator.
    """

    bus_width: int = 64
    pipeline_class_sum: bool = True
    pipeline_argmax: bool = True
    share_logic: bool = True
    prune_passthrough: bool = True
    name: str = "matador_accel"
    target: str = "xc7z020"
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bus_width < 1:
            raise ValueError("bus_width must be >= 1")
        if self.bus_width > 1024:
            raise ValueError("bus_width beyond 1024 bits is not a realistic channel")
