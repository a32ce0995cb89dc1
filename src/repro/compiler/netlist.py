"""Netlist generation: the placed IR as one switch-level circuit.

This lowers any placed design to one switch-level circuit (the Plate 2
prototype is the ``match`` chip at 8 x 2): every instance is built by
its library cell's ``build`` hook on the clock phase its grid parity
dictates, every IR net becomes a chain of always-on wire transistors
joining its endpoint nodes, chip ports get ``pin.<NAME>`` nodes, and the
polarity bookkeeping the twins impose (which pins must be driven
complemented, whether the result emerges complemented) is recorded for
the simulation harness.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuit.clocks import TwoPhaseClock
from ..circuit.netlist import GND, VDD, Circuit
from ..circuit.signals import HIGH, LOW
from ..errors import CompileError
from .ir import CONST_ONE, LogicalDesign, build_net_to_cells
from .library import Library
from .place import Placement

__all__ = ["CompiledNetlist", "elaborate_circuit"]


class CompiledNetlist:
    """The generated chip circuit plus its pin/polarity book-keeping.

    ``pins`` maps chip port name to its ``pin.<NAME>`` node;
    ``in_invert[name]`` says whether a driven input pin takes the
    complemented value (its first sink is a negative twin);
    ``out_invert[name]`` says whether an output pin's electrical level is
    the complement of the logical value (its driver is a positive twin,
    whose output inverter emits the complement);
    ``result_nodes[b]`` is the driver node of ``R_OUT<b>`` (read directly,
    as the host would probe the pad); ``clock`` is the chip's
    :class:`~repro.circuit.clocks.TwoPhaseClock` on the ``phi`` nodes.
    """

    def __init__(self, name: str, retention_ns: float = 1e9):
        self.circuit = Circuit(name, retention_ns=retention_ns)
        self.clock = TwoPhaseClock(self.circuit)
        self.phi: Tuple[str, str] = (self.clock.phi1, self.clock.phi2)
        self.pins: Dict[str, str] = {}
        self.in_invert: Dict[str, bool] = {}
        self.out_invert: Dict[str, bool] = {}
        self.result_nodes: List[str] = []
        self.instance_ports: Dict[str, Dict[str, str]] = {}

    def pulse(self, beat: int) -> None:
        """One beat: the chip's clock pulses the beat's phase."""
        self.clock.pulse(beat)

    def drive_pin(self, name: str, bit: int) -> None:
        """Drive an input pin with a logical bit, honouring twin polarity."""
        v = bool(bit) ^ self.in_invert[name]
        self.circuit.set_input(self.pins[name], HIGH if v else LOW)

    @property
    def n_transistors(self) -> int:
        return self.circuit.n_transistors

    def vcd_probe(self, signals=None, writer=None):
        """A :class:`~repro.obs.vcd.CircuitProbe` over the interesting
        nets, sampled at every clock phase of :meth:`pulse`.

        The default signal set is both clock phases and every chip pin
        under its node name (``pin.P_IN0``, ``pin.LAM_IN``,
        ``pin.R_OUT0``...).  Pass an explicit display-name -> node-name
        mapping for anything else (internal comparator stores, per-cell
        ``eq``...).
        """
        from ..obs.vcd import CircuitProbe  # local: obs is optional here

        if signals is None:
            signals = {"phi1": "phi1", "phi2": "phi2"}
            signals.update((node, node) for node in self.pins.values())
        return CircuitProbe(self.circuit, signals, writer=writer)


def elaborate_circuit(
    design: LogicalDesign,
    placement: Placement,
    library: Library,
    retention_ns: float = 1e9,
) -> CompiledNetlist:
    """Build the whole-chip switch-level circuit for a placed design."""
    net = CompiledNetlist(design.name, retention_ns=retention_ns)
    c = net.circuit
    types = library.cell_types()

    for inst, cell in design.cells.items():
        ct = types[cell["type"]]
        k = placement.phase_index(inst)
        net.instance_ports[inst] = ct.build(
            c, f"{inst}.", net.phi[k], net.phi[1 - k],
            placement.is_positive(inst),
        )

    def node_of(endpoint: Tuple[str, str]) -> str:
        inst, port = endpoint
        return net.instance_ports[inst][port]

    graph = build_net_to_cells(design)
    for name, direction in design.ports.items():
        net.pins[name] = f"pin.{name}"
    for netname, endpoints in graph.items():
        if netname == CONST_ONE:
            # Row 0's hardwired TRUE: each sink sees its own rail.
            for ep in endpoints:
                rail = VDD if placement.is_positive(ep[0]) else GND
                _wire(c, rail, node_of(ep))
            continue
        nodes = [node_of(ep) for ep in endpoints]
        if netname in net.pins:
            nodes.append(net.pins[netname])
        if len(nodes) < 2:
            raise CompileError(f"net {netname!r} has a single endpoint")
        for other in nodes[1:]:
            _wire(c, nodes[0], other)

    # Polarity book-keeping per chip pin: inputs are complemented when the
    # receiving twin is negative; outputs are complemented when the
    # driving twin is positive (its output inverter emits the complement).
    types_outputs = {n: set(t.outputs) for n, t in types.items()}
    for name, direction in design.ports.items():
        eps = graph.get(name, [])
        if not eps:
            raise CompileError(f"chip port {name!r} connects to no cell")
        inst, port = eps[0]
        pos = placement.is_positive(inst)
        if direction == "in":
            net.in_invert[name] = not pos
        else:
            if port not in types_outputs[design.cells[inst]["type"]]:
                raise CompileError(f"chip port {name!r} driven by input {port!r}")
            net.out_invert[name] = pos

    # The result-in pins carry "no result yet": tie each to logical 0.
    R = sum(1 for p in design.ports if p.startswith("R_OUT"))
    for b in range(R):
        net.drive_pin(f"R_IN{b}", 0)
        net.result_nodes.append(
            node_of(next(ep for ep in graph[f"R_OUT{b}"]))
        )
    return net


def _wire(c: Circuit, a: str, b: str) -> None:
    """Join two nodes with a permanent wire (a VDD-gated channel)."""
    c.add_enhancement(VDD, a, b, label=f"wire:{a}={b}")
