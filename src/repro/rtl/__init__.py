"""RTL infrastructure: netlist IR, arithmetic, Verilog emit and parse.

Logic sharing is structural hashing as :class:`Netlist` builds gates
(``share=True``); there is no separate optimization pass.
"""

from .arith import (
    Bus,
    bus_const,
    bus_dff,
    bus_input,
    equals_const,
    full_adder,
    mux_bus,
    negate,
    popcount,
    ripple_add,
    sign_extend,
    signed_ge,
    subtract,
)
from .netlist import GATE_KINDS, SEQ_KINDS, Netlist, Node
from .parser import VerilogSyntaxError, parse_verilog
from .verilog import emit_verilog, port_groups

__all__ = [
    "Bus",
    "bus_const",
    "bus_dff",
    "bus_input",
    "equals_const",
    "full_adder",
    "mux_bus",
    "negate",
    "popcount",
    "ripple_add",
    "sign_extend",
    "signed_ge",
    "subtract",
    "GATE_KINDS",
    "SEQ_KINDS",
    "Netlist",
    "Node",
    "VerilogSyntaxError",
    "parse_verilog",
    "emit_verilog",
    "port_groups",
]
