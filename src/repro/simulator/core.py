"""Cycle-accurate, bit-parallel netlist simulation kernel.

The generated MATADOR accelerator is verified and characterized by
executing its gate-level netlist cycle by cycle.  A naive per-gate Python
loop would be far too slow for MNIST-scale designs (tens of thousands of
gates x thousands of cycles), so :class:`CompiledNetlist` compiles the
netlist once into a levelized, kind-grouped schedule and evaluates each
group with vectorized numpy — and evaluates a whole *batch* of independent
stimulus streams ("lanes") in parallel.

Lanes are packed 64 to a ``uint64`` word (parallel-pattern logic
simulation): node state is a word-major ``(words, n_nodes)`` array, lane
``j`` living in bit ``j % 64`` of row ``j // 64``.  Gates are plain word
operations — ``&``, ``|``, ``^``, ``~`` and ``(s & a) | (~s & b)`` for a
mux — so one gather/scatter per schedule group advances 64 lanes at once.
Bits past the last lane in the top word hold don't-care values; every
reader masks or drops them.

The schedule is compiled once per netlist; the lane count is a run-time
argument (:meth:`CompiledNetlist.reset` with ``batch=``).

Two-phase clocking: within a cycle, combinational logic settles
(:meth:`CompiledNetlist.settle`), then registers commit on
:meth:`CompiledNetlist.clock`.  Settling is lazy: driving an input or
clocking marks the state dirty, and the next read (or clock) settles it,
so :meth:`CompiledNetlist.step` costs one settle per cycle.
"""

from __future__ import annotations

import re

import numpy as np

from ..rtl.netlist import GATE_KINDS

__all__ = ["CompiledNetlist"]

_WORD = np.dtype("<u8")
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_BUS_BIT = re.compile(r"^(.*)\[(\d+)\]$")
# Schedule groups of at most this many words run as one scalar op per word
# (the deep, narrow tail of adder and comparator chains).
_SCALAR_GROUP = 4


def _buses(ports):
    """``{base: node ids of base[0], base[1], ...}`` for every port bus."""
    bits = {}
    for name, nid in ports.items():
        m = _BUS_BIT.match(name)
        if m:
            bits.setdefault(m.group(1), {})[int(m.group(2))] = nid
    buses = {}
    for base, by_index in bits.items():
        width = 0
        while width in by_index:
            width += 1
        if width:
            buses[base] = np.array([by_index[i] for i in range(width)],
                                   dtype=np.int64)
    return buses


class CompiledNetlist:
    """A netlist compiled for fast bit-parallel cycle simulation.

    Parameters
    ----------
    netlist:
        The :class:`repro.rtl.netlist.Netlist` to simulate.
    batch:
        Number of independent stimulus streams (lanes) evaluated in
        parallel; change it later with ``reset(batch=...)``.
    """

    def __init__(self, netlist, batch=1):
        self.netlist = netlist
        nodes = netlist.nodes
        self._n = len(nodes)
        fan = np.zeros((self._n, 3), dtype=np.int64)
        for i, node in enumerate(nodes):
            fan[i, : len(node.fanins)] = node.fanins
        kinds = [node.kind for node in nodes]
        self._const1 = np.array(
            [i for i, k in enumerate(kinds) if k == "const1"], dtype=np.int64)
        dff = np.array([i for i, k in enumerate(kinds) if k == "dff"],
                       dtype=np.int64)
        self._dff = (dff, fan[dff, 0], fan[dff, 1], fan[dff, 2])
        self._dff_init = np.array(
            [_ONES if nodes[i].init else 0 for i in dff], dtype=_WORD)
        self._schedule = self._build_schedule(fan)
        self._programs = {}  # words -> schedule in flat state indices
        self._input_ids = dict(netlist.inputs)
        self._output_ids = dict(netlist.outputs)
        self._input_buses = _buses(self._input_ids)
        self._output_buses = _buses(self._output_ids)
        # outputs() reads every port in one gather: scalars, then buses.
        scalars = {name: nid for name, nid in self._output_ids.items()
                   if "[" not in name}
        self._scalar_names = list(scalars)
        self._port_ids = np.concatenate(
            [np.array(list(scalars.values()), dtype=np.int64),
             *self._output_buses.values()])
        self.batch = None
        self.cycle = 0
        self.reset(batch)

    # ------------------------------------------------------------------
    def _build_schedule(self, fan):
        """Group combinational gates into (kind, ids, fanins) runs by level."""
        levels = self.netlist.levelize()
        groups = {}
        for nid, node in enumerate(self.netlist.nodes):
            if node.kind in GATE_KINDS:
                groups.setdefault((levels[nid], node.kind), []).append(nid)
        schedule = []
        for (_, kind), ids in sorted(groups.items()):
            ids = np.asarray(ids, dtype=np.int64)
            schedule.append((kind, ids, fan[ids, 0], fan[ids, 1], fan[ids, 2]))
        return schedule

    def _program(self, words):
        """The schedule and dff pins as indices into the flat state."""
        prog = self._programs.get(words)
        if prog is None:
            offsets = (np.arange(words, dtype=np.int64) * self._n)[:, None]

            def flat(ids):
                return (offsets + ids[None, :]).reshape(-1)

            gates = []
            for kind, *arrays in self._schedule:
                arrays = [flat(ids) for ids in arrays]
                if len(arrays[0]) > _SCALAR_GROUP:
                    gates.append((kind, *arrays))
                else:  # scalar indexing beats a tiny fancy-index gather
                    gates.extend((kind, *map(int, pins))
                                 for pins in zip(*arrays))
            dff = tuple(flat(ids) for ids in self._dff)
            prog = self._programs[words] = (gates, dff,
                                            np.tile(self._dff_init, words))
        return prog

    # ------------------------------------------------------------------
    # State control
    # ------------------------------------------------------------------
    def reset(self, batch=None):
        """Power-on state: registers at their init values, inputs at 0.

        ``batch`` changes the number of lanes; the compiled schedule is
        reused at any width.
        """
        if batch is not None and batch != self.batch:
            if batch < 1:
                raise ValueError("batch must be >= 1")
            self.batch = int(batch)
            self._words = -(-self.batch // 64)
            self._state = np.zeros((self._words, self._n), dtype=_WORD)
            self._flat = self._state.reshape(-1)
            mask = np.full(self._words, _ONES, dtype=_WORD)
            if self.batch % 64:
                mask[-1] = np.uint64((1 << (self.batch % 64)) - 1)
            self._lane_mask = mask
        state = self._state
        state[:] = 0
        state[:, self._const1] = _ONES
        state[:, self._dff[0]] = self._dff_init
        self.cycle = 0
        self._dirty = True

    def _pack(self, bits):
        """``(k, batch)`` 0/1 rows -> ``(k, words)`` packed lane words."""
        packed = np.packbits(bits, axis=1, bitorder="little")
        if packed.shape[1] % 8:
            whole = np.zeros((len(bits), self._words * 8), dtype=np.uint8)
            whole[:, : packed.shape[1]] = packed
            packed = whole
        return packed.view(_WORD)

    def _drive(self, ids, bits):
        """Write ``(k,)`` broadcast or ``(k, batch)`` lane bits onto nodes."""
        if bits.ndim == 1:
            self._state[:, ids] = np.where(bits.astype(bool), _ONES,
                                           np.uint64(0))
        else:
            self._state[:, ids] = self._pack(bits).T
        self._dirty = True

    def set_input(self, name, value):
        """Drive a scalar input (broadcast or per-batch array of 0/1)."""
        if name not in self._input_ids:
            raise KeyError(f"no input named {name!r}")
        nid = self._input_ids[name]
        value = np.asarray(value)
        if value.ndim:
            self._drive(np.array([nid]), value.reshape(1, -1) & 1)
        else:
            self._state[:, nid] = _ONES if value & 1 else 0
            self._dirty = True

    def set_inputs(self, names, bits):
        """Drive scalar inputs from ``(len(names), batch)`` 0/1 rows in one
        packed write."""
        ids = np.array([self._input_ids[name] for name in names],
                       dtype=np.int64)
        self._drive(ids, np.asarray(bits).reshape(len(ids), self.batch) & 1)

    def set_bus(self, name, value):
        """Drive a bus input ``name[i]`` from integer word(s).

        ``value`` may be a scalar int or an array of ``batch`` ints.
        """
        ids = self._input_buses.get(name)
        if ids is None:
            raise KeyError(f"no bus input named {name!r}")
        value = np.asarray(value, dtype=np.uint64)
        shifts = np.arange(len(ids), dtype=np.uint64)
        if value.ndim:
            shifts = shifts[:, None]
        self._drive(ids, (value >> shifts) & np.uint64(1))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def settle(self):
        """Propagate combinational logic (one levelized pass) if stale."""
        if not self._dirty:
            return
        v = self._flat
        for kind, out, a, b, c in self._program(self._words)[0]:
            if kind == "and":
                v[out] = v[a] & v[b]
            elif kind == "or":
                v[out] = v[a] | v[b]
            elif kind == "xor":
                v[out] = v[a] ^ v[b]
            elif kind == "not":
                v[out] = ~v[a]
            else:  # mux: sel ? a : b
                s = v[a]
                v[out] = (s & v[b]) | (~s & v[c])
        self._dirty = False

    def clock(self):
        """Advance one clock edge: commit registers from settled logic.

        Re-settling is deferred to the next read or cycle.
        """
        self.settle()
        _, (q, d, en, rst), init = self._program(self._words)
        if len(q):
            v = self._flat
            e, r = v[en], v[rst]
            nxt = (e & v[d]) | (~e & v[q])
            v[q] = (r & init) | (~r & nxt)
        self.cycle += 1
        self._dirty = True

    def step(self, **inputs):
        """Drive inputs, settle, return sampled outputs, then clock.

        The returned output values are those visible *before* the clock
        edge, i.e. what a registered downstream consumer would capture.
        """
        for name, value in inputs.items():
            if name in self._input_ids:
                self.set_input(name, value)
            else:
                self.set_bus(name, value)
        sampled = self.outputs()
        self.clock()
        return sampled

    # ------------------------------------------------------------------
    # Observation (every read settles first)
    # ------------------------------------------------------------------
    def packed(self, node_ids):
        """Packed lane words ``(words, k)`` of nodes, bits past the last
        lane cleared — compare two simulations without unpacking."""
        self.settle()
        ids = np.asarray(node_ids, dtype=np.int64)
        return self._state[:, ids] & self._lane_mask[:, None]

    def lanes(self, node_ids):
        """Per-lane values ``uint8 (k, batch)`` of a list of nets."""
        self.settle()
        ids = np.asarray(node_ids, dtype=np.int64)
        words = np.ascontiguousarray(self._state[:, ids].T)
        return np.unpackbits(words.view(np.uint8), axis=1, count=self.batch,
                             bitorder="little")

    def peek(self, net_id):
        """Current value array (batch,) of an arbitrary net."""
        return self.lanes([net_id])[0]

    def output(self, name):
        if name not in self._output_ids:
            raise KeyError(f"no output named {name!r}")
        return self.peek(self._output_ids[name])

    @staticmethod
    def _word(bits, signed):
        """``(width, batch)`` little-endian bit rows -> int64 per lane."""
        width = len(bits)
        shifts = np.arange(width, dtype=np.int64)[:, None]
        words = (bits.astype(np.int64) << shifts).sum(axis=0)
        if signed:
            sign_bit = 1 << (width - 1)
            words = (words ^ sign_bit) - sign_bit
        return words

    def output_bus(self, name, signed=False):
        """Read a bus output ``name[i]`` as integer word(s) per batch lane."""
        ids = self._output_buses.get(name)
        if ids is None:
            raise KeyError(f"no bus output named {name!r}")
        return self._word(self.lanes(ids), signed)

    def outputs(self):
        """All scalar outputs plus reconstructed buses as a dict."""
        bits = self.lanes(self._port_ids)
        out = dict(zip(self._scalar_names, bits))
        row = len(out)
        for name, ids in self._output_buses.items():
            out[name] = self._word(bits[row: row + len(ids)], False)
            row += len(ids)
        return out
