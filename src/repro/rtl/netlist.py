"""Gate-level netlist IR.

Everything MATADOR generates — partial-clause AND trees, class-sum adders,
the argmax comparison tree and the control FSM — is represented in this one
flat, bit-level IR.  Downstream consumers:

* :mod:`repro.rtl.verilog` emits synthesizable Verilog from it;
* :mod:`repro.rtl.parser` parses that Verilog back (round-trip check);
* :mod:`repro.simulator` executes it cycle-accurately;
* :mod:`repro.synthesis` maps it onto LUT6s and reports resources/timing.

Node kinds
----------
``const0 const1 input and or xor not mux dff``

``mux`` fanins are ``(sel, a, b)`` meaning ``sel ? a : b``.  ``dff`` fanins
are ``(d, en, rst)``: on a clock edge, if ``rst`` the register returns to
``init``, else if ``en`` it captures ``d`` (``en``/``rst`` default to
constants).

Logic sharing
-------------
Gate builders constant-fold and, when ``share=True``, structurally hash
(commutative-input-normalized) so identical subexpressions become one node.
``share=False`` models the paper's DON'T TOUCH experiment (Fig. 8):
every requested gate is instantiated verbatim.

Nodes carry a ``block`` tag (e.g. ``"hcb3"``) so per-block resource
reporting matches the paper's per-HCB breakdown.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["Node", "Netlist", "GATE_KINDS", "SEQ_KINDS"]

GATE_KINDS = ("and", "or", "xor", "not", "mux")
SEQ_KINDS = ("dff",)
_COMMUTATIVE = {"and", "or", "xor"}


@dataclass
class Node:
    """One netlist node; ``fanins`` are indexes of other nodes."""

    kind: str
    fanins: tuple = ()
    name: str = None
    block: str = None
    init: int = 0


class Netlist:
    """A flat gate-level netlist with named inputs and outputs.

    Parameters
    ----------
    name:
        Module name used in emitted Verilog.
    share:
        Enable structural hashing of combinational gates (logic sharing).
    """

    def __init__(self, name="top", share=True):
        self.name = name
        self.share = bool(share)
        self.nodes = []
        self.inputs = {}   # name -> node id
        self.outputs = {}  # name -> node id
        self._cache = {}
        self._block = None
        self._const = {}
        # Constants are always nodes 0 and 1 for predictability.
        self._const[0] = self._new_node("const0")
        self._const[1] = self._new_node("const1")

    # ------------------------------------------------------------------
    # Node creation
    # ------------------------------------------------------------------
    def _new_node(self, kind, fanins=(), name=None, init=0):
        node = Node(kind=kind, fanins=tuple(fanins), name=name,
                    block=self._block, init=init)
        self.nodes.append(node)
        return len(self.nodes) - 1

    @contextmanager
    def block(self, label):
        """Tag nodes created inside the context with a block label."""
        prev = self._block
        self._block = label
        try:
            yield
        finally:
            self._block = prev

    def const(self, value):
        """Net id of constant 0 or 1."""
        return self._const[1 if value else 0]

    def add_input(self, name):
        """Declare a primary input; names must be unique."""
        if name in self.inputs:
            raise ValueError(f"duplicate input {name!r}")
        nid = self._new_node("input", name=name)
        self.inputs[name] = nid
        return nid

    def set_output(self, name, net):
        """Declare/overwrite a primary output driven by ``net``."""
        self._check(net)
        self.outputs[name] = net

    def _check(self, nid):
        if not 0 <= nid < len(self.nodes):
            raise ValueError(f"invalid net id {nid}")

    def is_const(self, nid, value=None):
        kind = self.nodes[nid].kind
        if value is None:
            return kind in ("const0", "const1")
        return kind == ("const1" if value else "const0")

    # ------------------------------------------------------------------
    # Gate builders (constant folding + optional structural hashing)
    # ------------------------------------------------------------------
    def _build(self, kind, fanins):
        # Structural hashing is global (across block tags): MATADOR exploits
        # logic sharing both within and between HCBs (Section III).  A shared
        # node is attributed to the block that first created it.
        if self.share:
            key = (kind, fanins)
            hit = self._cache.get(key)
            if hit is not None:
                return hit
            nid = self._new_node(kind, fanins)
            self._cache[key] = nid
            return nid
        return self._new_node(kind, fanins)

    def g_not(self, a):
        self._check(a)
        if self.is_const(a, 0):
            return self.const(1)
        if self.is_const(a, 1):
            return self.const(0)
        # double negation elimination
        node = self.nodes[a]
        if node.kind == "not":
            return node.fanins[0]
        return self._build("not", (a,))

    def _binary(self, kind, a, b):
        self._check(a)
        self._check(b)
        if kind in _COMMUTATIVE and b < a:
            a, b = b, a
        return self._build(kind, (a, b))

    def _complementary(self, a, b):
        """True if one operand is the NOT of the other."""
        na, nb = self.nodes[a], self.nodes[b]
        return (na.kind == "not" and na.fanins[0] == b) or (
            nb.kind == "not" and nb.fanins[0] == a
        )

    def g_and(self, a, b):
        if self.is_const(a, 0) or self.is_const(b, 0):
            return self.const(0)
        if self.is_const(a, 1):
            return b
        if self.is_const(b, 1):
            return a
        if a == b:
            return a
        if self._complementary(a, b):
            return self.const(0)
        return self._binary("and", a, b)

    def g_or(self, a, b):
        if self.is_const(a, 1) or self.is_const(b, 1):
            return self.const(1)
        if self.is_const(a, 0):
            return b
        if self.is_const(b, 0):
            return a
        if a == b:
            return a
        if self._complementary(a, b):
            return self.const(1)
        return self._binary("or", a, b)

    def g_xor(self, a, b):
        if self.is_const(a, 0):
            return b
        if self.is_const(b, 0):
            return a
        if self.is_const(a, 1):
            return self.g_not(b)
        if self.is_const(b, 1):
            return self.g_not(a)
        if a == b:
            return self.const(0)
        return self._binary("xor", a, b)

    def g_mux(self, sel, a, b):
        """``sel ? a : b``."""
        self._check(sel)
        if self.is_const(sel, 1):
            return a
        if self.is_const(sel, 0):
            return b
        if a == b:
            return a
        if self.is_const(a, 1) and self.is_const(b, 0):
            return sel
        if self.is_const(a, 0) and self.is_const(b, 1):
            return self.g_not(sel)
        self._check(a)
        self._check(b)
        return self._build("mux", (sel, a, b))

    def g_and_tree(self, nets):
        """Balanced AND tree (empty input -> constant 1)."""
        nets = list(nets)
        if not nets:
            return self.const(1)
        while len(nets) > 1:
            nxt = [
                self.g_and(nets[i], nets[i + 1]) if i + 1 < len(nets) else nets[i]
                for i in range(0, len(nets), 2)
            ]
            nets = nxt
        return nets[0]

    def dff(self, d, en=None, rst=None, init=0, name=None):
        """Clocked register (never shared/merged)."""
        self._check(d)
        en = self.const(1) if en is None else en
        rst = self.const(0) if rst is None else rst
        self._check(en)
        self._check(rst)
        return self._new_node("dff", (d, en, rst), name=name, init=1 if init else 0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def n_nodes(self):
        return len(self.nodes)

    def count_by_kind(self):
        counts = {}
        for node in self.nodes:
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    def gate_count(self):
        """Number of combinational gates (excludes const/input/dff)."""
        return sum(1 for n in self.nodes if n.kind in GATE_KINDS)

    def register_count(self):
        return sum(1 for n in self.nodes if n.kind == "dff")

    def blocks(self):
        """Distinct block labels present in the netlist."""
        return sorted({n.block for n in self.nodes if n.block is not None})

    def fanout_counts(self):
        """Fanout (number of reader nodes + output taps) per node."""
        fanout = [0] * len(self.nodes)
        for node in self.nodes:
            for f in node.fanins:
                fanout[f] += 1
        for net in self.outputs.values():
            fanout[net] += 1
        return fanout

    def topological_order(self):
        """Combinational topological order; dff outputs count as sources.

        Returns a list of node ids such that every combinational gate
        appears after all of its fanins (dff/const/input nodes are sources
        and appear first).  Raises on combinational cycles.
        """
        n = len(self.nodes)
        order = []
        state = [0] * n  # 0 unvisited, 1 in stack, 2 done
        for root in range(n):
            if state[root] == 2:
                continue
            stack = [(root, 0)]
            while stack:
                nid, phase = stack.pop()
                if phase == 0:
                    if state[nid] == 2:
                        continue
                    if state[nid] == 1:
                        raise ValueError("combinational cycle detected")
                    state[nid] = 1
                    stack.append((nid, 1))
                    if self.nodes[nid].kind in GATE_KINDS:
                        for f in self.nodes[nid].fanins:
                            if state[f] == 0:
                                stack.append((f, 0))
                            elif state[f] == 1 and self.nodes[f].kind in GATE_KINDS:
                                raise ValueError("combinational cycle detected")
                else:
                    state[nid] = 2
                    order.append(nid)
        return order

    def levelize(self):
        """Combinational depth per node (sources at level 0)."""
        levels = [0] * len(self.nodes)
        for nid in self.topological_order():
            node = self.nodes[nid]
            if node.kind in GATE_KINDS and node.fanins:
                levels[nid] = 1 + max(levels[f] for f in node.fanins)
        return levels

    def depth(self):
        """Maximum combinational depth (gates between registers/IO)."""
        levels = self.levelize()
        return max(levels) if levels else 0

    def stats(self):
        """One-line structural summary used by reports."""
        counts = self.count_by_kind()
        return {
            "nodes": self.n_nodes(),
            "gates": self.gate_count(),
            "registers": self.register_count(),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "depth": self.depth(),
            "kinds": counts,
        }

    def __repr__(self):
        return (
            f"Netlist(name={self.name!r}, nodes={self.n_nodes()}, "
            f"gates={self.gate_count()}, regs={self.register_count()})"
        )
