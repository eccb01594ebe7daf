"""Tests for the Verilog emitter and parser (round-trip verification)."""

import random

import pytest

from repro.flow.verify import netlists_equivalent
from repro.rtl import (
    Netlist,
    bus_dff,
    bus_input,
    emit_verilog,
    parse_verilog,
    popcount,
    port_groups,
    subtract,
)
from repro.rtl.parser import VerilogSyntaxError
from repro.rtl.parser import _tokenize
from _fixtures import assert_parsers_agree, random_model, respace, scan_lexemes


def small_design(share=True):
    nl = Netlist("unit", share=share)
    a = bus_input(nl, "a", 4)
    b = bus_input(nl, "b", 4)
    en = nl.add_input("en")
    rst = nl.add_input("rst")
    diff = subtract(nl, a, b)
    reg = bus_dff(nl, diff, en=en, rst=rst, name="r")
    pc = popcount(nl, list(a))
    for i, bit in enumerate(reg):
        nl.set_output(f"d[{i}]", bit)
    for i, bit in enumerate(pc):
        nl.set_output(f"p[{i}]", bit)
    low, high = nl.g_or(a[0], a[1]), nl.g_or(a[2], a[3])
    nl.set_output("any", nl.g_or(low, high))
    return nl


class TestPortGroups:
    def test_bus_and_scalar(self):
        groups = port_groups(["d[0]", "d[1]", "d[2]", "go"])
        assert groups == {"d": 3, "go": None}

    def test_gap_rejected(self):
        with pytest.raises(ValueError):
            port_groups(["d[0]", "d[2]"])

    def test_collision_rejected(self):
        with pytest.raises(ValueError):
            port_groups(["d[0]", "d"])


class TestEmit:
    def test_module_header(self):
        src = emit_verilog(small_design())
        assert "module unit (" in src
        assert "input  wire [3:0] a" in src
        assert "output wire [4:0] d" in src
        assert src.strip().endswith("endmodule")

    def test_dont_touch_attribute_when_unshared(self):
        src = emit_verilog(small_design(share=False))
        assert '(* DONT_TOUCH = "yes" *)' in src
        assert '(* DONT_TOUCH = "yes" *)' not in emit_verilog(small_design())

    def test_clock_port_only_with_registers(self):
        nl = Netlist("comb")
        a = nl.add_input("a")
        nl.set_output("o", nl.g_not(a))
        src = emit_verilog(nl)
        assert "clk" not in src

    def test_block_banners(self):
        nl = Netlist("blocks")
        a = nl.add_input("a")
        b = nl.add_input("b")
        with nl.block("hcb0"):
            g = nl.g_and(a, b)
        nl.set_output("o", g)
        assert "block: hcb0" in emit_verilog(nl)


class TestRoundTrip:
    def test_equivalence(self):
        nl = small_design()
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=32, seed=1)

    def test_equivalence_unshared(self):
        nl = small_design(share=False)
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=32, seed=2)

    def test_register_init_preserved(self):
        nl = Netlist("init")
        a = nl.add_input("a")
        r = nl.dff(a, init=1, name="r0")
        nl.set_output("o", r)
        re = parse_verilog(emit_verilog(nl))
        regs = [n for n in re.nodes if n.kind == "dff"]
        assert len(regs) == 1
        assert regs[0].init == 1

    def test_enable_only_register(self):
        nl = Netlist("en_only")
        a = nl.add_input("a")
        en = nl.add_input("en")
        nl.set_output("o", nl.dff(a, en=en))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=24, seed=3)

    def test_rst_only_register(self):
        nl = Netlist("rst_only")
        a = nl.add_input("a")
        rst = nl.add_input("rst")
        nl.set_output("o", nl.dff(a, rst=rst, init=1))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=24, seed=4)

    def test_free_running_register(self):
        nl = Netlist("free")
        a = nl.add_input("a")
        nl.set_output("o", nl.dff(a))
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=16, seed=5)

    def test_chain_deeper_than_the_recursion_limit(self):
        """Lowering walks wires from a stack, not by recursion."""
        nl = Netlist("chain")
        a, b = nl.add_input("a"), nl.add_input("b")
        net = a
        for i in range(3000):
            net = nl.g_xor(net, b if i % 2 else a)
        nl.set_output("y", net)
        re = parse_verilog(emit_verilog(nl))
        assert netlists_equivalent(nl, re, n_cycles=8, seed=6)


class TestParserErrors:
    def test_undefined_signal(self):
        src = (
            "module m (\n    input  wire a,\n    output wire o\n);\n"
            "  assign o = a & ghost;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_double_assignment(self):
        src = (
            "module m (\n    input  wire a,\n    output wire o\n);\n"
            "  wire w;\n  assign w = a & a;\n  assign w = ~a;\n"
            "  assign o = w;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_undriven_output(self):
        src = "module m (\n    input  wire a,\n    output wire o\n);\nendmodule\n"
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_garbage_rejected(self):
        with pytest.raises(VerilogSyntaxError):
            parse_verilog("module m (input wire a); %%% endmodule")

    def test_always_for_undeclared_reg(self):
        src = (
            "module m (\n    input  wire clk,\n    input  wire a,\n"
            "    output wire o\n);\n"
            "  always @(posedge clk) begin\n    r0 <= a;\n  end\n"
            "  assign o = a;\nendmodule\n"
        )
        with pytest.raises(VerilogSyntaxError):
            parse_verilog(src)

    def test_cross_reference_wire_and_reg(self):
        """Wires may read registers defined textually later and vice versa."""
        src = (
            "module m (\n    input  wire clk,\n    input  wire a,\n"
            "    output wire o\n);\n"
            "  wire w;\n  reg r0 = 1'b0;\n"
            "  assign w = r0 & a;\n"
            "  always @(posedge clk) begin\n    r0 <= w;\n  end\n"
            "  assign o = w;\nendmodule\n"
        )
        nl = parse_verilog(src)
        assert nl.register_count() == 1


def _module(body, ports="input  wire a,\n    output wire y"):
    return f"module m (\n    {ports}\n);\n{body}endmodule\n"


class TestParserRejectsOutsideSubset:
    """Sources the emitter never writes must raise, not parse quietly."""

    def test_output_assigned_twice(self):
        src = _module("  assign y = a;\n  assign y = ~a;\n")
        with pytest.raises(VerilogSyntaxError, match="assigned twice"):
            parse_verilog(src)

    def test_input_assigned(self):
        src = _module("  assign a = 1'b1;\n  assign y = a;\n")
        with pytest.raises(VerilogSyntaxError, match="input 'a'"):
            parse_verilog(src)

    def test_register_without_always_block(self):
        src = _module("  reg r = 1'b1;\n  assign y = r;\n",
                      ports="input  wire clk,\n    output wire y")
        with pytest.raises(VerilogSyntaxError, match="never driven"):
            parse_verilog(src)

    def test_register_also_assigned(self):
        src = _module(
            "  reg r = 1'b0;\n  assign r = a;\n"
            "  always @(posedge clk) begin\n    r <= a;\n  end\n"
            "  assign y = r;\n",
            ports="input  wire clk,\n    input  wire a,\n    output wire y")
        with pytest.raises(VerilogSyntaxError, match="assigned twice"):
            parse_verilog(src)

    def test_non_numeric_bus_range(self):
        src = _module("  assign y = a[0];\n",
                      ports="input  wire [x:0] a,\n    output wire y")
        with pytest.raises(VerilogSyntaxError, match="expected a number"):
            parse_verilog(src)

    def test_truncated_input_reports_end_of_input(self):
        src = emit_verilog(small_design())
        with pytest.raises(VerilogSyntaxError,
                           match="unexpected end of input"):
            parse_verilog(src[: src.rindex("endmodule")])

    def test_garbage_reports_its_offset(self):
        with pytest.raises(VerilogSyntaxError,
                           match="cannot tokenize at offset 25: '%%% endmodule'"):
            parse_verilog("module m (input wire a); %%% endmodule")

    def test_comment_cannot_hide_garbage(self):
        src = emit_verilog(small_design())
        head, tail = src.split("\n", 1)
        bad = f"{head} (* a *)\n%\n// (* b *)\n{tail}"
        with pytest.raises(VerilogSyntaxError, match="cannot tokenize"):
            parse_verilog(bad)


def _emitted_netlists():
    """Every netlist shape this module round-trips."""
    yield small_design()
    yield small_design(share=False)
    for en, rst, init in ((False, False, 1), (True, False, 0),
                          (False, True, 1), (False, False, 0)):
        nl = Netlist("regs")
        a = nl.add_input("a")
        kwargs = {"init": init}
        if en:
            kwargs["en"] = nl.add_input("en")
        if rst:
            kwargs["rst"] = nl.add_input("rst")
        nl.set_output("o", nl.dff(a, **kwargs))
        yield nl
    nl = Netlist("comb")
    nl.set_output("o", nl.g_not(nl.add_input("a")))
    yield nl


class TestTokenizer:
    @pytest.mark.parametrize("nl", list(_emitted_netlists()))
    def test_two_pass_tokens_equal_the_scanner(self, nl):
        src = emit_verilog(nl)
        assert _tokenize(src) == scan_lexemes(src)

    @pytest.mark.parametrize("bad", [
        "module m (input wire a); %%% endmodule",
        "module m (* a *) # (* b *)",
        "(* never closed",
        "  \n\t`",
        "a 1'b2",
    ])
    def test_error_offset_equals_the_scanner(self, bad):
        with pytest.raises(VerilogSyntaxError) as want:
            scan_lexemes(bad)
        with pytest.raises(VerilogSyntaxError) as got:
            _tokenize(bad)
        assert str(got.value) == str(want.value)


def _accelerator_sources():
    from repro.accelerator import AcceleratorConfig, generate_accelerator

    model = random_model(n_classes=3, n_clauses=6, n_features=12, seed=5)
    for share in (True, False):
        design = generate_accelerator(
            model, AcceleratorConfig(bus_width=8, share_logic=share))
        yield emit_verilog(design.netlist)


_NEAR_MISSES = {
    "non-constant reset arm then else": (
        "  reg r = 1'b0;\n  always @(posedge clk) begin\n"
        "    if (rst) begin\n      r <= a;\n    end else begin\n"
        "      r <= b;\n    end\n  end\n  assign y = r;\n"),
    "register names differ across arms": (
        "  reg r = 1'b0;\n  reg q = 1'b0;\n  always @(posedge clk) begin\n"
        "    if (rst) begin\n      r <= 1'b0;\n    end else begin\n"
        "      q <= a;\n    end\n  end\n  assign y = r;\n"),
    "enable arm names another register": (
        "  reg r = 1'b0;\n  reg q = 1'b0;\n  always @(posedge clk) begin\n"
        "    if (rst) begin\n      r <= 1'b0;\n    end else begin\n"
        "      if (b) begin\n        q <= a;\n      end\n    end\n  end\n"
        "  assign y = r;\n"),
    "missing end": (
        "  reg r = 1'b0;\n  always @(posedge clk) begin\n    r <= a;\n"
        "  assign y = r;\n"),
    "assign with two operators": "  assign y = a & b | rst;\n",
    "combinational cycle": (
        "  wire w;\n  wire v;\n  assign w = a & v;\n  assign v = ~w;\n"
        "  assign y = w;\n"),
    "negation of a binary operation": "  assign y = ~a & b;\n",
    "keyword glued to its name": "  wire w;\n  assignw = a;\n  assign y = a;\n",
    "register named if": (
        "  reg if = 1'b0;\n  always @(posedge clk) begin\n    if <= a;\n"
        "  end\n  assign y = a;\n"),
    "reset value from a signal": (
        "  reg r = a;\n  always @(posedge clk) begin\n    r <= a;\n  end\n"
        "  assign y = r;\n"),
    "nonblocking assign outside always": "  assign y <= a;\n",
    "tokens after endmodule": "  assign y = a;\nendmodule wire ; (* c *)\n",
    "garbage after endmodule": "  assign y = a;\nendmodule %\n",
}
_NEAR_MISS_PORTS = ("input  wire clk,\n    input  wire rst,\n    input  wire a,\n"
                    "    input  wire b,\n    output wire y")


class TestStatementParserMatchesTheCursorParser:
    """The statement-level parser against the token-cursor parser it
    replaced (kept in ``_fixtures`` as the reference)."""

    @pytest.mark.parametrize("src", [
        *(emit_verilog(nl) for nl in _emitted_netlists()),
        *_accelerator_sources(),
    ])
    def test_emitted_sources_as_written_and_respaced(self, src):
        """Every emitted shape and a generated accelerator (shared and
        DON'T TOUCH), then with whitespace, comments and attributes
        between any two tokens."""
        assert assert_parsers_agree(src) == "accepted"
        rnd = random.Random(0)
        for _ in range(3):
            assert assert_parsers_agree(respace(src, rnd)) == "accepted"

    @pytest.mark.parametrize("body", list(_NEAR_MISSES.values()),
                             ids=list(_NEAR_MISSES))
    def test_near_misses(self, body):
        src = _module(body, ports=_NEAR_MISS_PORTS)
        if "endmodule" in body:
            src = src[: src.rindex("endmodule")]
        assert_parsers_agree(src)

    def test_combinational_cycle_names_a_wire_on_it(self):
        src = _module(_NEAR_MISSES["combinational cycle"], ports=_NEAR_MISS_PORTS)
        with pytest.raises(VerilogSyntaxError,
                           match="combinational cycle through 'w'"):
            parse_verilog(src)

    def test_truncated_bodies(self):
        src = emit_verilog(small_design())
        for cut in range(len(src) - 12, 0, -7):
            assert assert_parsers_agree(src[:cut]) == "rejected"

    @pytest.mark.parametrize("bad", [
        "module m (input wire a); %%% endmodule",
        "module m (* a *) # (* b *)",
        "(* never closed",
        "  \n\t`",
        "a 1'b2",
    ])
    def test_sources_that_do_not_scan(self, bad):
        assert assert_parsers_agree(bad) == "rejected"
