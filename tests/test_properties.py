"""Property-based tests over randomly generated netlists and designs.

A hypothesis strategy builds arbitrary well-formed sequential netlists;
two toolchain invariants are then checked on every sample:

1. emit -> parse round-trips preserve behavior;
2. greedy LUT mapping covers every live gate with supports within k.

Plus stall-correctness: arbitrary stall/valid patterns on the stream
interface never corrupt an accelerator's predictions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerator import AcceleratorConfig, generate_accelerator
from repro.accelerator.packetizer import packetize
from repro.flow.verify import netlists_equivalent
from repro.rtl import Netlist, emit_verilog, parse_verilog
from repro.rtl.netlist import GATE_KINDS
from repro.rtl.parser import _tokenize
from repro.simulator.core import CompiledNetlist
from repro.synthesis import map_greedy
from _fixtures import random_model
from _fixtures import assert_parsers_agree, respace, scan_lexemes


@st.composite
def netlists(draw, max_inputs=5, max_ops=25):
    """Random well-formed netlist with at least one output."""
    n_inputs = draw(st.integers(1, max_inputs))
    nl = Netlist("prop", share=draw(st.booleans()))
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    nets.append(nl.const(0))
    nets.append(nl.const(1))
    n_ops = draw(st.integers(1, max_ops))
    for _ in range(n_ops):
        op = draw(st.sampled_from(["and", "or", "xor", "not", "mux", "dff"]))
        a = nets[draw(st.integers(0, len(nets) - 1))]
        b = nets[draw(st.integers(0, len(nets) - 1))]
        c = nets[draw(st.integers(0, len(nets) - 1))]
        if op == "and":
            nets.append(nl.g_and(a, b))
        elif op == "or":
            nets.append(nl.g_or(a, b))
        elif op == "xor":
            nets.append(nl.g_xor(a, b))
        elif op == "not":
            nets.append(nl.g_not(a))
        elif op == "mux":
            nets.append(nl.g_mux(a, b, c))
        else:
            en = nets[draw(st.integers(0, len(nets) - 1))]
            init = draw(st.integers(0, 1))
            nets.append(nl.dff(a, en=en, init=init))
    n_outputs = draw(st.integers(1, 3))
    for k in range(n_outputs):
        nl.set_output(f"o{k}", nets[draw(st.integers(0, len(nets) - 1))])
    return nl


@settings(max_examples=40, deadline=None)
@given(nl=netlists())
def test_verilog_roundtrip_property(nl):
    reparsed = parse_verilog(emit_verilog(nl))
    assert netlists_equivalent(nl, reparsed, n_cycles=12, batch=4, seed=3)


@settings(max_examples=40, deadline=None)
@given(nl=netlists(), k=st.integers(3, 6))
def test_lut_mapping_covers_live_gates_property(nl, k):
    mapping = map_greedy(nl, k=k)
    for lut in mapping.luts:
        assert lut.n_inputs <= k
    # Every gate feeding an output or register must be inside some cone:
    # either a LUT root itself or absorbed (fanout-1 gates only).
    roots = {lut.root for lut in mapping.luts}
    fanout = nl.fanout_counts()
    for nid, node in enumerate(nl.nodes):
        if node.kind not in GATE_KINDS or node.kind == "not":
            continue
        if fanout[nid] > 1 or any(
            nid in n.fanins for n in nl.nodes if n.kind == "dff"
        ) or nid in nl.outputs.values():
            # Multi-fanout and boundary gates are always roots.
            assert nid in roots


class TestStallCorrectness:
    """The paper's 'stall' control: backpressure must never corrupt data."""

    def run_with_stalls(self, design, X, stall_pattern, seed=0):
        packets = packetize(X, design.schedule).reshape(-1)
        sim = CompiledNetlist(design.netlist, batch=1)
        rng = np.random.default_rng(seed)
        predictions = []
        idx = 0
        cycle = 0
        limit = len(packets) * 6 + 40
        while idx < len(packets) or len(predictions) < len(X):
            stall = stall_pattern(cycle, rng)
            if idx < len(packets):
                sim.set_bus("s_data", np.array([packets[idx]], dtype=np.uint64))
                sim.set_input("s_valid", 1)
                valid = 1
            else:
                sim.set_input("s_valid", 0)
                valid = 0
            sim.set_input("rst", 0)
            sim.set_input("stall", stall)
            sim.settle()
            ready = int(sim.output("s_ready")[0])
            if valid and ready:
                idx += 1
            if int(sim.output("result_valid")[0]):
                predictions.append(int(sim.output_bus("result")[0]))
            sim.clock()
            cycle += 1
            if cycle > limit:
                break
        return np.asarray(predictions[: len(X)])

    def test_random_stalls_preserve_predictions(self):
        model = random_model(seed=31, density=0.18)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(5, model.n_features)).astype(np.uint8)
        got = self.run_with_stalls(
            design, X, lambda cycle, r: int(r.random() < 0.4), seed=2
        )
        assert np.array_equal(got, model.predict(X))

    def test_long_stall_burst_preserves_predictions(self):
        model = random_model(seed=32, density=0.18)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        rng = np.random.default_rng(3)
        X = rng.integers(0, 2, size=(3, model.n_features)).astype(np.uint8)
        got = self.run_with_stalls(
            design, X, lambda cycle, r: 1 if 4 <= cycle < 14 else 0
        )
        assert np.array_equal(got, model.predict(X))

    def test_valid_gaps_preserve_predictions(self):
        """Host-side gaps (s_valid low) instead of fabric stalls."""
        from repro.simulator import AcceleratorSimulator

        model = random_model(seed=33, density=0.18)
        design = generate_accelerator(model, AcceleratorConfig(bus_width=8))
        rng = np.random.default_rng(4)
        X = rng.integers(0, 2, size=(4, model.n_features)).astype(np.uint8)
        sim = AcceleratorSimulator(design, batch=1)
        report = sim.run_stream(X, gap=3)
        assert np.array_equal(report.predictions, model.predict(X))


@settings(max_examples=40, deadline=None)
@given(nl=netlists())
def test_two_pass_tokens_equal_the_scanner_property(nl):
    src = emit_verilog(nl)
    assert _tokenize(src) == scan_lexemes(src)


_EDIT_TOKENS = ("wire", "reg", "assign", "always", "if", "else", "begin", "end",
                "endmodule", "1'b0", "1'b1", "&", "|", "^", "~", "?", ":", ";",
                "=", "<=", "(", ")", "[", "]", "@", "posedge", "clk", "i0", "0")


@settings(max_examples=40, deadline=None)
@given(nl=netlists(), rnd=st.randoms(use_true_random=False))
def test_statement_parser_reads_any_spacing_property(nl, rnd):
    """Whitespace, comments and attributes between any two tokens: the
    statement-level parser builds the netlist the cursor parser builds."""
    assert assert_parsers_agree(respace(emit_verilog(nl), rnd)) == "accepted"


@settings(max_examples=60, deadline=None)
@given(nl=netlists(max_ops=10), rnd=st.randoms(use_true_random=False))
def test_statement_parser_rejects_what_the_cursor_parser_rejects(nl, rnd):
    """One token deleted, repeated, replaced or swapped with its
    neighbour: both parsers accept or reject the edited source alike."""
    tokens = _tokenize(emit_verilog(nl))
    i = rnd.randrange(len(tokens) - 1)
    edit = rnd.choice(("delete", "repeat", "replace", "swap"))
    if edit == "delete":
        del tokens[i]
    elif edit == "repeat":
        tokens.insert(i, tokens[i])
    elif edit == "replace":
        tokens[i] = rnd.choice(_EDIT_TOKENS)
    else:
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    assert_parsers_agree(" ".join(tokens))
