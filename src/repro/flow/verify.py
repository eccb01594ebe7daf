"""Automated design verification — the dark-pink flow of Fig. 6(b).

Three independent checks gate a generated design:

1. **Functional equivalence**: the cycle-accurate simulation of the
   netlist must predict exactly what the reference software semantics
   predict, on user data plus adversarial random vectors.
2. **Verilog round-trip**: the emitted Verilog is parsed back and the
   re-built netlist simulated against the original on random stimulus —
   a codegen/emitter bug cannot pass.
3. **Timing protocol**: measured first-result latency, initiation
   interval and AXI beat counts must match the analytic latency model.

The design's netlist is compiled once; all three checks run on that one
:class:`~repro.simulator.core.CompiledNetlist`, each resetting it to the
lane count it needs.  Only the reparsed netlist gets a compile of its
own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..rtl.parser import parse_verilog
from ..rtl.verilog import emit_verilog
from ..simulator.core import CompiledNetlist
from ..simulator.design_sim import AcceleratorSimulator
from ..simulator.testbench import Testbench

__all__ = ["VerificationReport", "verify_design", "netlists_equivalent"]


@dataclass
class VerificationReport:
    """Combined verdict of the auto-debug checks."""

    functional_ok: bool
    functional_samples: int
    roundtrip_ok: bool
    roundtrip_cycles: int
    protocol_ok: bool
    testbench_summary: str
    notes: list = field(default_factory=list)

    @property
    def passed(self):
        return self.functional_ok and self.roundtrip_ok and self.protocol_ok

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] functional({self.functional_samples} samples)="
            f"{self.functional_ok} roundtrip({self.roundtrip_cycles} cycles)="
            f"{self.roundtrip_ok} protocol={self.protocol_ok}"
        )


def _compiled(net, batch):
    """``net`` as a :class:`CompiledNetlist` of ``batch`` lanes, reusing
    (and resetting) one that is already compiled."""
    if isinstance(net, CompiledNetlist):
        net.reset(batch=batch)
        return net
    return CompiledNetlist(net, batch=batch)


def netlists_equivalent(a, b, n_cycles=64, seed=0, batch=16):
    """Randomized sequential equivalence check between two netlists.

    Drives identical random stimulus into both and compares every output
    every cycle, as packed lane words.  Inputs are matched by name; both
    netlists must expose the same input and output sets.  Either side may
    be a :class:`CompiledNetlist`, which is reset and run instead of
    compiling the netlist again.

    >>> from repro.rtl import Netlist, emit_verilog, parse_verilog
    >>> nl = Netlist("demo")
    >>> a, b = nl.add_input("a"), nl.add_input("b")
    >>> nl.set_output("y", nl.g_and(a, b))
    >>> src = emit_verilog(nl)
    >>> netlists_equivalent(nl, parse_verilog(src))
    True
    >>> netlists_equivalent(nl, parse_verilog(src.replace(" & ", " | ")))
    False
    """
    sim_a = _compiled(a, batch)
    sim_b = _compiled(b, batch)
    a, b = sim_a.netlist, sim_b.netlist
    if set(a.inputs) != set(b.inputs) or set(a.outputs) != set(b.outputs):
        return False
    inputs = list(a.inputs)
    out_a = list(a.outputs.values())
    out_b = [b.outputs[name] for name in a.outputs]
    rng = np.random.default_rng(seed)
    for _ in range(n_cycles):
        # One (inputs, batch) draw is the same stimulus as one draw of
        # `batch` values per input in turn.
        values = rng.integers(0, 2, size=(len(inputs), batch)).astype(np.uint8)
        sim_a.set_inputs(inputs, values)
        sim_b.set_inputs(inputs, values)
        if not np.array_equal(sim_a.packed(out_a), sim_b.packed(out_b)):
            return False
        sim_a.clock()
        sim_b.clock()
    return True


def verify_design(design, X=None, n_random_vectors=32, roundtrip_cycles=48,
                  seed=0):
    """Run the full auto-debug verification on a generated design."""
    notes = []
    rng = np.random.default_rng(seed)

    # --- functional equivalence ------------------------------------------
    vectors = []
    if X is not None:
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[np.newaxis, :]
        vectors.append(X)
    if n_random_vectors:
        vectors.append(
            rng.integers(0, 2, size=(n_random_vectors, design.model.n_features)).astype(
                np.uint8
            )
        )
    stimulus = np.concatenate(vectors, axis=0)
    compiled = CompiledNetlist(design.netlist)
    sim = AcceleratorSimulator(design, batch=len(stimulus), compiled=compiled)
    report = sim.run_batch(stimulus)
    sw = design.model.predict(stimulus)
    functional_ok = bool(np.array_equal(report.predictions, sw))
    if not functional_ok:
        bad = np.flatnonzero(report.predictions != sw)
        notes.append(f"functional mismatch on {len(bad)} vectors, first at {bad[:5]}")

    # --- Verilog round-trip -------------------------------------------------
    src = emit_verilog(design.netlist)
    reparsed = parse_verilog(src)
    roundtrip_ok = netlists_equivalent(
        compiled, reparsed, n_cycles=roundtrip_cycles, seed=seed
    )
    if not roundtrip_ok:
        notes.append("verilog round-trip mismatch")

    # --- protocol/timing ------------------------------------------------------
    tb_vectors = stimulus[: min(4, len(stimulus))]
    tb_report = Testbench(design, tb_vectors, compiled=compiled).run()
    protocol_ok = tb_report.passed
    if not protocol_ok:
        notes.append(f"testbench: {tb_report.summary()}")

    return VerificationReport(
        functional_ok=functional_ok,
        functional_samples=len(stimulus),
        roundtrip_ok=roundtrip_ok,
        roundtrip_cycles=roundtrip_cycles,
        protocol_ok=protocol_ok,
        testbench_summary=tb_report.summary(),
        notes=notes,
    )
