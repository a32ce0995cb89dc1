"""Layout extraction: mask geometry back to a transistor netlist.

The inverse of the layout generator, and deliberately independent of it:
extraction believes only the rectangles.  Following the NMOS reading of
Section 3.2.2 --

* a transistor exists wherever polysilicon crosses diffusion (unless a
  contact cut sits on the crossing, which butts the layers instead);
* the crossing interrupts the diffusion: source and drain are the
  diffusion fragments left after subtracting the channel;
* conductors of one layer that touch are one net, and a contact cut
  joins the nets of every conduction layer covering it;
* ion implant over a channel makes the device depletion mode.

The result is a :class:`~repro.circuit.netlist.Circuit` (depletion
devices whose channel reaches the VDD net become
:class:`~repro.circuit.netlist.DepletionLoad` pullups) plus per-device
channel geometry -- length along the current path, width across it -- so
the electrical-rule check can verify the ratioed-logic sizing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuit.netlist import GND, VDD, Circuit
from ..layout.design_rules import gate_channels
from ..layout.geometry import Point, Rect, RectIndex, _UnionFind, subtract_all
from ..layout.layers import Layer

#: Rail port names recognised on a cell boundary.
RAIL_PORTS = {"VDD": VDD, "GND": GND}


@dataclass(frozen=True)
class ChannelGeom:
    """Drawn channel dimensions of one extracted device (lambda)."""

    length: int          # along the current path (gate crossing)
    width: int           # across the current path
    depletion: bool
    bbox: Rect

    @property
    def z(self) -> float:
        """Channel impedance ratio Z = L/W (Mead & Conway convention)."""
        return self.length / self.width


@dataclass
class Extraction:
    """Extraction result: the recovered circuit plus geometry metadata."""

    circuit: Circuit
    net_of_port: Dict[str, str] = field(default_factory=dict)
    device_geom: Dict[str, ChannelGeom] = field(default_factory=dict)
    warnings: List[str] = field(default_factory=list)
    n_nets: int = 0
    #: The net extraction the circuit was read from.
    nets: Optional["ConductorNets"] = None

    @property
    def n_devices(self) -> int:
        return self.circuit.n_transistors

    @property
    def n_loads(self) -> int:
        return len(self.circuit.loads)


class ConductorNets:
    """Net extraction over flat geometry: conductors, contacts, channels.

    Shared between full cell extraction and the chip-assembly audit
    (which only needs net identity and the device census, not a circuit).
    """

    def __init__(self, rects_by_layer: Dict[Layer, Sequence[Rect]]):
        self.poly = list(rects_by_layer.get(Layer.POLY, []))
        self.diff = list(rects_by_layer.get(Layer.DIFFUSION, []))
        self.metal = list(rects_by_layer.get(Layer.METAL, []))
        self.implants = list(rects_by_layer.get(Layer.IMPLANT, []))
        self.contacts = list(rects_by_layer.get(Layer.CONTACT, []))
        self.warnings: List[str] = []

        self.channels = gate_channels(self.poly, self.diff, self.contacts)

        # Source/drain regions: diffusion with the channels cut out.
        ch_index = RectIndex(self.channels)
        self.frags: List[Rect] = []
        for d in self.diff:
            cuts = [
                self.channels[k]
                for k in ch_index.near(d)
                if self.channels[k].intersects(d)
            ]
            self.frags.extend(subtract_all(d, cuts))

        # One conductor per rectangle; same-layer touching rectangles and
        # contact-joined stacks merge into nets via union-find.
        self.conductors: List[Tuple[Layer, Rect]] = (
            [(Layer.DIFFUSION, r) for r in self.frags]
            + [(Layer.POLY, r) for r in self.poly]
            + [(Layer.METAL, r) for r in self.metal]
        )
        self._uf = _UnionFind(len(self.conductors))
        base = 0
        for layer_rects in (self.frags, self.poly, self.metal):
            index = RectIndex(layer_rects)
            for i, r in enumerate(layer_rects):
                for j in index.near(r):
                    if j > i and r.touches_or_intersects(layer_rects[j]):
                        self._uf.union(base + i, base + j)
            base += len(layer_rects)
        self._cond_index = RectIndex([r for _, r in self.conductors])
        for cut in self.contacts:
            covering = [
                k
                for k in self._cond_index.near(cut)
                if self.conductors[k][1].contains(cut)
            ]
            layers_hit = {self.conductors[k][0] for k in covering}
            if len(layers_hit) < 2:
                self.warnings.append(
                    f"contact {cut} joins {len(layers_hit)} conduction "
                    "layer(s); expected 2"
                )
            for k in covering[1:]:
                self._uf.union(covering[0], k)

    # -- net identity ------------------------------------------------------

    def net_id(self, conductor_index: int) -> int:
        return self._uf.find(conductor_index)

    def net_at(self, p: Point, layer: Layer) -> Optional[int]:
        """Net id of the *layer* shape covering point *p* (None if open)."""
        probe = Rect(p.x - 1, p.y - 1, p.x + 1, p.y + 1)
        for k in self._cond_index.near(probe):
            lay, r = self.conductors[k]
            if lay is layer and r.contains_point(p):
                return self.net_id(k)
        return None

    def nets_touching(self, box: Rect, layer: Layer,
                      overlapping: bool = False) -> List[int]:
        """Distinct net ids of *layer* conductors touching *box*."""
        out: List[int] = []
        for k in self._cond_index.near(box, pad=1):
            lay, r = self.conductors[k]
            if lay is not layer:
                continue
            hit = r.intersects(box) if overlapping else r.touches_or_intersects(box)
            if hit:
                nid = self.net_id(k)
                if nid not in out:
                    out.append(nid)
        return out


def _channel_orientation(nets: ConductorNets, ch: Rect) -> Tuple[int, int, List[int]]:
    """(length, width, terminal net ids) for channel *ch*.

    Terminals are the diffusion fragments abutting the channel; the
    current direction follows the side they abut on (fragments above and
    below mean vertical current flow, so length is the channel height).
    """
    vertical = horizontal = 0
    term_nets: List[int] = []
    for k in nets._cond_index.near(ch, pad=1):
        lay, r = nets.conductors[k]
        if lay is not Layer.DIFFUSION or not r.touches_or_intersects(ch):
            continue
        if r.intersects(ch):
            continue  # overlap would mean a mis-subtracted fragment
        if r.y1 <= ch.y0 or r.y0 >= ch.y1:
            vertical += 1
        else:
            horizontal += 1
        nid = nets.net_id(k)
        if nid not in term_nets:
            term_nets.append(nid)
    if vertical >= horizontal:
        return ch.height, ch.width, term_nets
    return ch.width, ch.height, term_nets


def extract(
    rects_by_layer: Dict[Layer, Sequence[Rect]],
    ports: Optional[Dict[str, Tuple[Point, Layer]]] = None,
    name: str = "extracted",
) -> Extraction:
    """Extract a switch-level netlist from flat mask geometry.

    *ports* maps boundary port names to (point, layer) probes, exactly
    the :attr:`~repro.layout.cells.CellLayout.ports` convention; the nets
    under them take the port's name (``VDD``/``GND`` become the rails).
    Anything unnameable becomes ``n<i>``.
    """
    ports = ports or {}
    nets = ConductorNets(rects_by_layer)
    warnings = list(nets.warnings)

    # -- name the nets -----------------------------------------------------
    net_name: Dict[int, str] = {}
    net_of_port: Dict[str, str] = {}
    # Rails first, then plain names, then the "_r" twins of boundary ports
    # (same net as their left-edge partner, so they never win the name).
    order = sorted(
        ports,
        key=lambda p: (p not in RAIL_PORTS, p.endswith("_r"), p),
    )
    for pname in order:
        point, layer = ports[pname]
        nid = nets.net_at(point, layer)
        if nid is None:
            warnings.append(f"port {pname!r} is not on any {layer.value} shape")
            continue
        if pname in RAIL_PORTS:
            net_name.setdefault(nid, RAIL_PORTS[pname])
        else:
            net_name.setdefault(nid, pname)
        net_of_port[pname] = net_name[nid]
    fresh = 0

    def name_of(nid: int) -> str:
        nonlocal fresh
        if nid not in net_name:
            net_name[nid] = f"n{fresh}"
            fresh += 1
        return net_name[nid]

    # -- build the devices -------------------------------------------------
    circuit = Circuit(name)
    device_geom: Dict[str, ChannelGeom] = {}
    implant_index = RectIndex(nets.implants)
    for i, ch in enumerate(nets.channels):
        label = f"M{i}"
        length, width, term_ids = _channel_orientation(nets, ch)
        gate_ids = nets.nets_touching(ch, Layer.POLY, overlapping=True)
        if len(gate_ids) != 1:
            warnings.append(
                f"device {label} at {ch} has {len(gate_ids)} gate nets"
            )
            if not gate_ids:
                continue
        gate = name_of(gate_ids[0])
        if len(term_ids) != 2:
            warnings.append(
                f"device {label} at {ch} has {len(term_ids)} "
                "channel terminals; expected 2"
            )
            if len(term_ids) < 2:
                continue
        a, b = name_of(term_ids[0]), name_of(term_ids[1])
        depletion = any(
            nets.implants[k].contains(ch) for k in implant_index.near(ch)
        )
        if depletion and VDD in (a, b):
            node = b if a == VDD else a
            circuit.add_depletion_load(node, label=label)
            if gate != node:
                warnings.append(
                    f"depletion load {label}: gate net {gate} is not tied "
                    f"to its output {node}"
                )
        else:
            if depletion:
                warnings.append(
                    f"depletion device {label} at {ch} has no VDD terminal; "
                    "treating as a switch"
                )
            circuit.add_enhancement(gate, a, b, label=label)
        device_geom[label] = ChannelGeom(length, width, depletion, ch)

    # Port nets exist even if no device touches them.
    for pname, node in net_of_port.items():
        circuit.node(node)

    return Extraction(
        circuit=circuit,
        net_of_port=net_of_port,
        device_geom=device_geom,
        warnings=warnings,
        n_nets=len({nets.net_id(k) for k in range(len(nets.conductors))}),
        nets=nets,
    )


def extract_cell(layout) -> Extraction:
    """Extract a :class:`~repro.layout.cells.CellLayout` via its ports."""
    return extract(layout.rects, layout.ports, name=f"{layout.name}.extracted")
