"""Hard-Coded Clause Block (HCB) generation — Fig. 5 of the paper.

Each packet index owns one HCB.  The HCB for packet ``i`` hard-codes, for
every clause in every class, the partial conjunction over the include
decisions whose features travel in packet ``i``:

* an include of feature ``f`` contributes the bus bit ``lane(f)``;
* an include of ``~f`` contributes the inverted bus bit;
* the partial clause output is ANDed with the incoming clause state from
  HCB ``i-1`` (constant 1 for HCB 0) and captured in a clause-state
  register when the controller routes packet ``i`` into this block.

Sparsity exploitation: when a clause has **no** includes in packet ``i``'s
feature range, its partial clause is the constant 1 and the register would
only copy its input — with ``prune_passthrough`` the register is elided
and the clause state is forwarded as a wire alias.  This is safe because
HCB registers are written at distinct cycles and read one cycle after the
last packet, before any overwrite by the next datapoint can occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factor import factor_cubes

__all__ = ["HCBInfo", "build_hcbs"]


@dataclass
class HCBInfo:
    """Structural metadata for one generated HCB (used by Fig. 8 bench)."""

    index: int
    feature_lo: int
    feature_hi: int
    n_active_clauses: int = 0
    n_passthrough_clauses: int = 0
    n_registers: int = 0
    n_include_terms: int = 0
    block_label: str = ""

    @property
    def n_features(self):
        return self.feature_hi - self.feature_lo


def build_hcbs(nl, model, schedule, data_bus, packet_enables, config):
    """Instantiate the HCB chain for a model onto a netlist.

    Parameters
    ----------
    nl:
        Target :class:`repro.rtl.netlist.Netlist` (built with the config's
        sharing mode).
    model:
        :class:`repro.model.TMModel`.
    schedule:
        :class:`repro.accelerator.packetizer.PacketSchedule`.
    data_bus:
        :class:`repro.rtl.arith.Bus` of the stream data input.
    packet_enables:
        List of nets, one per packet index: high when that packet is being
        accepted (controller output).
    config:
        :class:`repro.accelerator.config.AcceleratorConfig`.

    Returns
    -------
    ``(clause_nets, hcb_infos)`` where ``clause_nets[c][k]`` is the net id
    of the final clause output (net of the last HCB that touches it) and
    ``hcb_infos`` is a list of :class:`HCBInfo`.
    """
    n_packets = schedule.n_packets
    if len(packet_enables) != n_packets:
        raise ValueError("need one enable net per packet")
    if len(data_bus) != schedule.bus_width:
        raise ValueError("data bus width mismatch with schedule")

    include = model.include  # (C, K, 2f)

    # clause_state[c][k]: net holding the clause value after the most recent
    # HCB that owns includes of the clause.  Starts as constant 1 (the
    # paper's HCB 0 initialization).
    clause_state = [
        [nl.const(1) for _ in range(model.n_clauses)] for _ in range(model.n_classes)
    ]
    infos = []
    # Register dedup: two clauses whose next-state nets coincide (identical
    # sub-models, e.g. the replicated pool of a Coalesced TM) can share one
    # clause-state register because their enables are the same packet pulse.
    reg_cache = {}

    def clause_reg(d, en, name, info):
        if config.share_logic:
            key = (d, en)
            hit = reg_cache.get(key)
            if hit is not None:
                return hit
            nid = nl.dff(d, en=en, name=name, init=1)
            reg_cache[key] = nid
            info.n_registers += 1
            return nid
        info.n_registers += 1
        return nl.dff(d, en=en, name=name, init=1)

    for p in range(n_packets):
        lo, hi = schedule.feature_range(p)
        label = f"hcb{p}"
        info = HCBInfo(index=p, feature_lo=lo, feature_hi=hi, block_label=label)
        en = packet_enables[p]
        with nl.block(label):
            cube_index, cubes = _literal_cubes(nl, include, lo, hi, data_bus)
            info.n_active_clauses = len(cubes)
            info.n_include_terms = sum(map(len, cubes))
            info.n_passthrough_clauses = (model.n_classes * model.n_clauses
                                          - len(cubes))

            partial_nets = _build_partials(nl, cubes, config)

            for c in range(model.n_classes):
                for k in range(model.n_clauses):
                    pos = cube_index.get((c, k))
                    if pos is None:
                        if not config.prune_passthrough:
                            clause_state[c][k] = clause_reg(
                                clause_state[c][k], en, f"hcb{p}_c{c}_k{k}", info
                            )
                        continue
                    nxt = nl.g_and(clause_state[c][k], partial_nets[pos])
                    clause_state[c][k] = clause_reg(
                        nxt, en, f"hcb{p}_c{c}_k{k}", info
                    )
        infos.append(info)

    return clause_state, infos


def _literal_cubes(nl, include, lo, hi, data_bus):
    """Literal nets of every clause with includes in features ``[lo, hi)``.

    Returns ``(cube_index, cubes)``: one list of literal nets per such
    clause, and ``cube_index[(c, k)]`` its position in ``cubes``.  Code
    bit 0 includes ``x_f`` and bit 1 ``~x_f``; ``nonzero`` walks clauses
    in (class, clause) order and each clause's features in ascending
    order, so the literal nets (and the netlist) come out in the order of
    a plain per-feature loop.
    """
    n_features = include.shape[2] // 2
    codes = (include[:, :, lo:hi].view(np.uint8)
             | include[:, :, n_features + lo:n_features + hi].view(np.uint8) << 1)
    hits = np.nonzero(codes)
    cube_index = {}
    cubes = []
    for c, k, lane, code in zip(*(a.tolist() for a in hits),
                                codes[hits].tolist()):
        if (c, k) not in cube_index:
            cube_index[(c, k)] = len(cubes)
            terms = []
            cubes.append(terms)
        if code & 1:  # plain literal x_f
            terms.append(data_bus[lane])
        if code & 2:  # negated literal ~x_f
            terms.append(nl.g_not(data_bus[lane]))
    return cube_index, cubes


def _build_partials(nl, cubes, config):
    """Lower literal cubes into partial-clause nets.

    With logic sharing enabled the cubes first pass through greedy
    common-pair extraction (:func:`repro.accelerator.factor.factor_cubes`),
    our model of synthesis logic absorption: shared literal groups become
    one gate feeding many clauses.  Without sharing every clause gets its
    own verbatim AND tree (the DON'T TOUCH configuration).
    """
    if not cubes:
        return []
    if not config.share_logic:
        return [nl.g_and_tree(terms) for terms in cubes]
    factored = factor_cubes(cubes)
    symbol_nets = {}

    def net_of(symbol):
        if isinstance(symbol, tuple) and symbol and symbol[0] == "f":
            return symbol_nets[symbol]
        return symbol

    for sym, a, b in factored.steps:
        symbol_nets[sym] = nl.g_and(net_of(a), net_of(b))
    return [
        nl.g_and_tree([net_of(s) for s in symbols])
        for symbols in factored.cubes
    ]
