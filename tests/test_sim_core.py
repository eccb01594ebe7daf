"""Tests for the batched cycle-simulation kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtl import Netlist, bus_input
from repro.simulator.core import CompiledNetlist


class TestCombinational:
    def test_gates(self):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.set_output("and", nl.g_and(a, b))
        nl.set_output("or", nl.g_or(a, b))
        nl.set_output("xor", nl.g_xor(a, b))
        nl.set_output("not", nl.g_not(a))
        sim = CompiledNetlist(nl, batch=4)
        sim.set_input("a", np.array([0, 0, 1, 1], dtype=np.uint8))
        sim.set_input("b", np.array([0, 1, 0, 1], dtype=np.uint8))
        sim.settle()
        assert sim.output("and").tolist() == [0, 0, 0, 1]
        assert sim.output("or").tolist() == [0, 1, 1, 1]
        assert sim.output("xor").tolist() == [0, 1, 1, 0]
        assert sim.output("not").tolist() == [1, 1, 0, 0]

    def test_mux(self):
        nl = Netlist()
        s = nl.add_input("s")
        a = nl.add_input("a")
        b = nl.add_input("b")
        nl.set_output("o", nl.g_mux(s, a, b))
        sim = CompiledNetlist(nl, batch=2)
        sim.set_input("s", np.array([1, 0], dtype=np.uint8))
        sim.set_input("a", 1)
        sim.set_input("b", 0)
        sim.settle()
        assert sim.output("o").tolist() == [1, 0]

    def test_deep_chain_settles_one_pass(self):
        nl = Netlist()
        x = nl.add_input("x")
        net = x
        for _ in range(50):
            net = nl.g_not(nl.g_not(nl.g_xor(net, nl.const(1))))
        nl.set_output("o", net)
        sim = CompiledNetlist(nl, batch=1)
        sim.set_input("x", 1)
        sim.settle()
        assert sim.output("o")[0] in (0, 1)

    def test_unknown_names_raise(self):
        nl = Netlist()
        nl.add_input("a")
        sim = CompiledNetlist(nl, batch=1)
        with pytest.raises(KeyError):
            sim.set_input("zzz", 1)
        with pytest.raises(KeyError):
            sim.output("zzz")
        with pytest.raises(KeyError):
            sim.set_bus("zzz", 3)


class TestSequential:
    def test_dff_basic_delay(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d))
        sim = CompiledNetlist(nl, batch=1)
        out0 = sim.step(d=1)
        assert out0["q"][0] == 0  # init value visible before first edge
        out1 = sim.step(d=0)
        assert out1["q"][0] == 1  # captured the 1

    def test_dff_enable(self):
        nl = Netlist()
        d = nl.add_input("d")
        en = nl.add_input("en")
        nl.set_output("q", nl.dff(d, en=en))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=1, en=0)
        assert sim.output("q")[0] == 0  # enable low: held
        sim.step(d=1, en=1)
        assert sim.output("q")[0] == 1

    def test_dff_sync_reset_wins(self):
        nl = Netlist()
        d = nl.add_input("d")
        rst = nl.add_input("rst")
        nl.set_output("q", nl.dff(d, rst=rst, init=1))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=0, rst=0)
        assert sim.output("q")[0] == 0
        sim.step(d=1, rst=1)  # reset and data both asserted
        assert sim.output("q")[0] == 1  # reset wins, back to init

    def test_reset_restores_init(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d, init=1))
        sim = CompiledNetlist(nl, batch=1)
        sim.step(d=0)
        assert sim.output("q")[0] == 0
        sim.reset()
        assert sim.output("q")[0] == 1
        assert sim.cycle == 0

    def test_counter(self):
        """2-bit counter built from xor/and counts clock edges."""
        nl = Netlist()
        b0 = nl.dff(nl.const(0), name="b0")
        b1 = nl.dff(nl.const(0), name="b1")
        nl.nodes[b0].fanins = (nl.g_not(b0), nl.const(1), nl.const(0))
        nl.nodes[b1].fanins = (nl.g_xor(b1, b0), nl.const(1), nl.const(0))
        nl.set_output("v[0]", b0)
        nl.set_output("v[1]", b1)
        sim = CompiledNetlist(nl, batch=1)
        seen = []
        for _ in range(6):
            seen.append(int(sim.output_bus("v")[0]))
            sim.clock()
        assert seen == [0, 1, 2, 3, 0, 1]


class TestBatch:
    def test_lanes_independent(self):
        nl = Netlist()
        d = nl.add_input("d")
        nl.set_output("q", nl.dff(d))
        sim = CompiledNetlist(nl, batch=3)
        sim.step(d=np.array([1, 0, 1], dtype=np.uint8))
        assert sim.output("q").tolist() == [1, 0, 1]

    def test_bus_io(self):
        nl = Netlist()
        a = bus_input(nl, "a", 8)
        for i, bit in enumerate(a):
            nl.set_output(f"o[{i}]", bit)
        sim = CompiledNetlist(nl, batch=4)
        vals = np.array([0, 1, 170, 255], dtype=np.uint64)
        sim.set_bus("a", vals)
        sim.settle()
        assert np.array_equal(sim.output_bus("o"), vals.astype(np.int64))

    def test_signed_bus_read(self):
        nl = Netlist()
        a = bus_input(nl, "a", 4)
        for i, bit in enumerate(a):
            nl.set_output(f"o[{i}]", bit)
        sim = CompiledNetlist(nl, batch=2)
        sim.set_bus("a", np.array([15, 7], dtype=np.uint64))
        sim.settle()
        assert sim.output_bus("o", signed=True).tolist() == [-1, 7]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            CompiledNetlist(Netlist(), batch=0)

    def test_outputs_dict_mixes_scalars_and_buses(self):
        nl = Netlist()
        a = bus_input(nl, "a", 2)
        nl.set_output("o[0]", a[0])
        nl.set_output("o[1]", a[1])
        nl.set_output("flag", nl.g_and(a[0], a[1]))
        sim = CompiledNetlist(nl, batch=1)
        out = sim.step(a=3)
        assert out["o"][0] == 3
        assert out["flag"][0] == 1


# ----------------------------------------------------------------------
# Property: the packed simulator equals a per-gate reference at any width
# ----------------------------------------------------------------------
WIDTHS = (1, 63, 64, 65, 130)
_BUS = 3  # bits of the ``ib`` input bus


def _random_netlist(reg_pins, ops, n_outputs):
    """A netlist with every node kind: 1 scalar + 3 bus inputs, one
    register per ``reg_pins`` entry fed back from the gates, and a random
    gate cloud."""
    nl = Netlist(share=False)
    ins = [nl.add_input("s")] + [nl.add_input(f"ib[{i}]") for i in range(_BUS)]
    regs = [nl.dff(nl.const(0), init=init) for _, _, _, init in reg_pins]
    nets = [nl.const(0), nl.const(1)] + ins + regs
    # One gate of each kind up front, so every netlist uses them all.
    nets += [nl.g_and(ins[0], ins[1]), nl.g_or(ins[1], ins[2]),
             nl.g_xor(ins[0], ins[3]), nl.g_not(ins[2]),
             nl.g_mux(ins[0], ins[1], regs[0])]
    build = {"and": nl.g_and, "or": nl.g_or, "xor": nl.g_xor,
             "not": lambda a, *_: nl.g_not(a), "mux": nl.g_mux}
    for kind, i, j, k in ops:
        nets.append(build[kind](nets[i % len(nets)], nets[j % len(nets)],
                                nets[k % len(nets)])
                    if kind == "mux" else
                    build[kind](nets[i % len(nets)], nets[j % len(nets)]))
    for q, (d, en, rst, _) in zip(regs, reg_pins):
        nl.nodes[q].fanins = (
            nets[d % len(nets)],
            nl.const(1) if en is None else nets[en % len(nets)],
            nl.const(0) if rst is None else nets[rst % len(nets)],
        )
    tail = nets[-n_outputs:]
    nl.set_output("flag", tail[0])
    for i, net in enumerate(tail[1:]):
        nl.set_output(f"ob[{i}]", net)
    return nl


class _Reference:
    """Scalar per-gate interpreter: one lane and one node at a time."""

    def __init__(self, nl, batch):
        self.nl = nl
        self.batch = batch
        self.names = {nid: name for name, nid in nl.inputs.items()}
        self.inputs = {name: [0] * batch for name in nl.inputs}
        self.q = [{i: node.init for i, node in enumerate(nl.nodes)
                   if node.kind == "dff"} for _ in range(batch)]
        self._v = None

    def drive(self, name, bits):
        self.inputs[name] = [int(b) for b in np.broadcast_to(bits, self.batch)]
        self._v = None

    def _lane(self, j):
        v = []
        for i, node in enumerate(self.nl.nodes):
            f = node.fanins
            if node.kind == "const0":
                x = 0
            elif node.kind == "const1":
                x = 1
            elif node.kind == "input":
                x = self.inputs[self.names[i]][j]
            elif node.kind == "dff":
                x = self.q[j][i]
            elif node.kind == "and":
                x = v[f[0]] & v[f[1]]
            elif node.kind == "or":
                x = v[f[0]] | v[f[1]]
            elif node.kind == "xor":
                x = v[f[0]] ^ v[f[1]]
            elif node.kind == "not":
                x = 1 - v[f[0]]
            else:
                x = v[f[1]] if v[f[0]] else v[f[2]]
            v.append(x)
        return v

    def settle(self):
        """Every node's value, ``(n_nodes, batch)``."""
        if self._v is None:
            self._v = np.array([self._lane(j) for j in range(self.batch)],
                               dtype=np.uint8).T
        return self._v

    def clock(self):
        v = self.settle()
        for j, regs in enumerate(self.q):
            for i in regs:
                d, en, rst = self.nl.nodes[i].fanins
                if v[rst, j]:
                    regs[i] = self.nl.nodes[i].init
                elif v[en, j]:
                    regs[i] = int(v[d, j])
        self._v = None

    def outputs(self):
        v = self.settle()
        outs = self.nl.outputs
        bus = np.zeros(self.batch, np.int64)
        for i in range(len(outs) - 1):
            bus |= v[outs[f"ob[{i}]"]].astype(np.int64) << i
        return v[outs["flag"]], bus


def _assert_matches(sim, ref):
    every = np.arange(sim.netlist.n_nodes())
    want = ref.settle()
    got = sim.lanes(every)
    assert got.shape == (len(every), ref.batch)
    assert np.array_equal(got, want)
    flag, bus = ref.outputs()
    assert np.array_equal(sim.output("flag"), flag)
    assert np.array_equal(sim.output_bus("ob"), bus)
    assert np.array_equal(sim.peek(sim.netlist.outputs["flag"]), flag)
    spare = ref.batch % 64
    if spare:  # bits past the last lane never reach a reader
        assert not np.any(sim.packed(every)[-1] >> np.uint64(spare))


_kinds = st.sampled_from(["and", "or", "xor", "not", "mux"])
_pin = st.integers(0, 10_000)


@settings(max_examples=25, deadline=None)
@given(
    reg_pins=st.lists(st.tuples(_pin, st.none() | _pin, st.none() | _pin,
                                st.integers(0, 1)), min_size=1, max_size=4),
    ops=st.lists(st.tuples(_kinds, _pin, _pin, _pin), max_size=24),
    n_outputs=st.integers(2, 6),
    seed=st.integers(0, 2**16),
)
def test_packed_lanes_match_reference_interpreter(reg_pins, ops, n_outputs,
                                                  seed):
    nl = _random_netlist(reg_pins, ops, n_outputs)
    sim = CompiledNetlist(nl, batch=1)
    rng = np.random.default_rng(seed)
    for batch in WIDTHS:
        for use_step in (True, False):
            sim.reset(batch=batch)
            ref = _Reference(nl, batch)
            for cycle in range(5):
                s = (rng.integers(0, 2, batch, dtype=np.uint8) if cycle % 2
                     else int(rng.integers(0, 2)))
                ib = rng.integers(0, 2 ** _BUS, batch)
                ref.drive("s", s)
                for i in range(_BUS):
                    ref.drive(f"ib[{i}]", (ib >> i) & 1)
                if use_step:
                    out = sim.step(s=s, ib=ib)
                    flag, bus = ref.outputs()
                    assert np.array_equal(out["flag"], flag)
                    assert np.array_equal(out["ob"], bus)
                    ref.clock()
                    _assert_matches(sim, ref)  # settled after a bare clock
                else:
                    sim.set_input("s", s)
                    sim.set_bus("ib", ib)
                    sim.settle()
                    _assert_matches(sim, ref)
                    sim.clock()
                    ref.clock()
                assert sim.cycle == cycle + 1
