"""VCD (Value Change Dump) export for simulation traces.

The auto-debug flow's ILA captures become genuinely useful when they can
be opened in a waveform viewer; this module renders either an
:class:`~repro.simulator.ila.ILACore` capture or a live
:class:`~repro.simulator.core.CompiledNetlist` trace into standard VCD
(IEEE 1364) text that GTKWave & friends read.

Typical use::

    tracer = VcdTracer(sim, {"result": [...net ids...], "valid": net_id})
    for _ in range(cycles):
        ...drive inputs...
        sim.settle()
        tracer.sample()
        sim.clock()
    Path("debug.vcd").write_text(tracer.render())
"""

from __future__ import annotations

__all__ = ["VcdTracer", "vcd_from_ila"]

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index):
    """Short VCD identifier codes: !, ", #, ... !!, !\", ..."""
    if index < len(_ID_CHARS):
        return _ID_CHARS[index]
    hi, lo = divmod(index, len(_ID_CHARS))
    return _ID_CHARS[hi - 1] + _ID_CHARS[lo]


class VcdTracer:
    """Samples named probes from a compiled netlist into VCD.

    Parameters
    ----------
    sim:
        A :class:`CompiledNetlist`; lane 0 is traced.
    probes:
        Mapping of signal name -> net id (scalar) or list of net ids
        (bus, little-endian).
    timescale:
        VCD timescale string, default one nanosecond per clock tick.
    module:
        Scope name in the VCD hierarchy.
    """

    def __init__(self, sim, probes, timescale="1ns", module="matador"):
        self.sim = sim
        self.timescale = timescale
        self.module = module
        self.probes = {}
        for name, nets in probes.items():
            self.probes[name] = list(nets) if isinstance(nets, (list, tuple)) else [nets]
        self._ids = {name: _identifier(i) for i, name in enumerate(self.probes)}
        self._samples = []  # (cycle, {name: value})

    def sample(self):
        """Record the current value of every probe (call once per cycle)."""
        values = {}
        for name, nets in self.probes.items():
            bits = self.sim.lanes(nets)[:, 0]
            values[name] = sum(int(bit) << i for i, bit in enumerate(bits))
        self._samples.append((self.sim.cycle, values))

    def render(self):
        """Produce the VCD text for everything sampled so far."""
        lines = [
            "$date generated by MATADOR reproduction $end",
            f"$timescale {self.timescale} $end",
            f"$scope module {self.module} $end",
        ]
        for name, nets in self.probes.items():
            width = len(nets)
            ident = self._ids[name]
            ref = name if width == 1 else f"{name} [{width - 1}:0]"
            lines.append(f"$var wire {width} {ident} {ref} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")

        last = {}
        for cycle, values in self._samples:
            changes = []
            for name, value in values.items():
                if last.get(name) == value:
                    continue
                last[name] = value
                ident = self._ids[name]
                width = len(self.probes[name])
                if width == 1:
                    changes.append(f"{value}{ident}")
                else:
                    changes.append(f"b{value:b} {ident}")
            if changes or cycle == 0:
                lines.append(f"#{cycle}")
                lines.extend(changes)
        return "\n".join(lines) + "\n"


def vcd_from_ila(ila, timescale="1ns", module="ila"):
    """Render an :class:`ILACore` capture buffer as VCD text."""
    lines = [
        "$date generated by MATADOR reproduction (ILA capture) $end",
        f"$timescale {timescale} $end",
        f"$scope module {module} $end",
    ]
    idents = {name: _identifier(i) for i, name in enumerate(ila.probes)}
    for name, nets in ila.probes.items():
        width = len(nets)
        ref = name if width == 1 else f"{name} [{width - 1}:0]"
        lines.append(f"$var wire {width} {idents[name]} {ref} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    waveforms = {name: ila.waveform(name) for name in ila.probes}
    cycles = None
    for wf in waveforms.values():
        cycles = wf.cycles
        break
    last = {}
    for i, cycle in enumerate(cycles if cycles is not None else []):
        changes = []
        for name, wf in waveforms.items():
            value = int(wf.values[i])
            if last.get(name) == value:
                continue
            last[name] = value
            width = len(ila.probes[name])
            if width == 1:
                changes.append(f"{value}{idents[name]}")
            else:
                changes.append(f"b{value:b} {idents[name]}")
        if changes or i == 0:
            lines.append(f"#{int(cycle)}")
            lines.extend(changes)
    return "\n".join(lines) + "\n"
