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
from typing import Dict, List, Optional, Tuple

from ..circuit.netlist import GND, VDD, Circuit
from ..layout.design_rules import CellGeometry
from ..layout.geometry import Point, Rect, RectIndex, subtract_all, touching_union
from ..layout.layers import Layer

#: Rail port names recognised on a cell boundary.
RAIL_PORTS = {"VDD": VDD, "GND": GND}

#: The conduction layers, in conductor-numbering order.
_CONDUCTORS = (Layer.DIFFUSION, Layer.POLY, Layer.METAL)


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
    Built over a :class:`~repro.layout.design_rules.CellGeometry` (a
    plain per-layer rect dict is wrapped in one): the channels, the poly
    and metal connectivity and the per-layer indexes are the ones DRC
    read.  Conductor ``k`` numbers the diffusion fragments, then poly,
    then metal; its net is :meth:`net_id`.
    """

    def __init__(self, rects_by_layer):
        self.geometry = geom = CellGeometry.of(rects_by_layer)
        self.poly = geom.rects[Layer.POLY]
        self.diff = geom.rects[Layer.DIFFUSION]
        self.metal = geom.rects[Layer.METAL]
        self.implants = geom.rects[Layer.IMPLANT]
        self.contacts = geom.rects[Layer.CONTACT]
        self.warnings: List[str] = []

        self.channels = geom.channels

        # Source/drain regions: diffusion with the channels cut out.
        near_channel = geom.channel_index().near
        self.frags: List[Rect] = []
        for d in self.diff:
            cuts = [
                self.channels[k]
                for k in near_channel(d)
                if self.channels[k].intersects(d)
            ]
            self.frags.extend(subtract_all(d, cuts))
        frag_index = RectIndex(self.frags)

        # One conductor per rectangle; same-layer touching rectangles and
        # contact-joined stacks merge into nets via union-find.  Poly and
        # metal bring the geometry's own connectivity, offset past the
        # fragments.
        n_frags, n_poly = len(self.frags), len(self.poly)
        self._layers = {
            Layer.DIFFUSION: (self.frags, frag_index, 0),
            Layer.POLY: (self.poly, geom.index(Layer.POLY), n_frags),
            Layer.METAL: (self.metal, geom.index(Layer.METAL),
                          n_frags + n_poly),
        }
        self.n_conductors = n_frags + n_poly + len(self.metal)
        self._uf = uf = touching_union(self.frags, frag_index)
        for layer in (Layer.POLY, Layer.METAL):
            base = self._layers[layer][2]
            uf.parent.extend(
                base + p for p in geom.connectivity(layer).parent
            )
        # A cut's covering shapes come from the geometry, but for the
        # fragments: only a cut inside some diffusion shape can lie inside
        # one of its fragments.
        diff_cover = geom.cover(Layer.DIFFUSION)
        shared = [
            (layer, self._layers[layer][2], geom.cover(layer))
            for layer in (Layer.POLY, Layer.METAL)
        ]
        for i, cut in enumerate(self.contacts):
            covering = [
                (Layer.DIFFUSION, k)
                for k, r in self.near(Layer.DIFFUSION, cut) if r.contains(cut)
            ] if diff_cover[i] else []
            for layer, base, cover in shared:
                covering.extend((layer, base + k) for k in cover[i])
            layers_hit = {layer for layer, _k in covering}
            if len(layers_hit) < 2:
                self.warnings.append(
                    f"contact {cut} joins {len(layers_hit)} conduction "
                    "layer(s); expected 2"
                )
            for _layer, k in covering[1:]:
                uf.union(covering[0][1], k)

    # -- shapes ------------------------------------------------------------

    def near(self, layer: Layer, box: Rect,
             pad: int = 0) -> List[Tuple[int, Rect]]:
        """(conductor index, rect) of the *layer* conductors in the index
        cells *box* (grown by *pad*) meets, ascending."""
        rects, index, base = self._layers[layer]
        return [(base + k, rects[k]) for k in index.near(box, pad)]

    def covering(self, cut: Rect) -> List[Tuple[Layer, int]]:
        """(layer, conductor index) of the shapes containing *cut*,
        ascending."""
        return [
            (layer, k) for layer in _CONDUCTORS
            for k, r in self.near(layer, cut) if r.contains(cut)
        ]

    # -- net identity ------------------------------------------------------

    def net_id(self, conductor_index: int) -> int:
        return self._uf.find(conductor_index)

    def net_at(self, p: Point, layer: Layer) -> Optional[int]:
        """Net id of the *layer* shape covering point *p* (None if open)."""
        probe = Rect(p.x - 1, p.y - 1, p.x + 1, p.y + 1)
        for k, r in self.near(layer, probe):
            if r.contains_point(p):
                return self.net_id(k)
        return None

    def nets_touching(self, box: Rect, layer: Layer,
                      overlapping: bool = False) -> List[int]:
        """Distinct net ids of *layer* conductors touching *box*."""
        out: List[int] = []
        for k, r in self.near(layer, box, pad=1):
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
    for k, r in nets.near(Layer.DIFFUSION, ch, pad=1):
        if not r.touches_or_intersects(ch):
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
    rects_by_layer,
    ports: Optional[Dict[str, Tuple[Point, Layer]]] = None,
    name: str = "extracted",
) -> Extraction:
    """Extract a switch-level netlist from flat mask geometry.

    *ports* maps boundary port names to (point, layer) probes, exactly
    the :attr:`~repro.layout.cells.CellLayout.ports` convention; the nets
    under them take the port's name (``VDD``/``GND`` become the rails).
    Anything unnameable becomes ``n<i>``.  The geometry is a per-layer
    rect dict or the :class:`~repro.layout.design_rules.CellGeometry`
    over one (as DRC left it).
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
    near_implant = nets.geometry.index(Layer.IMPLANT).near
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
            nets.implants[k].contains(ch) for k in near_implant(ch)
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
        n_nets=len({nets.net_id(k) for k in range(nets.n_conductors)}),
        nets=nets,
    )


def extract_cell(layout, geometry: Optional[CellGeometry] = None) -> Extraction:
    """Extract a :class:`~repro.layout.cells.CellLayout` via its ports,
    reading *geometry* (the layout's :class:`CellGeometry`) when given."""
    return extract(
        layout.rects if geometry is None else geometry,
        layout.ports,
        name=f"{layout.name}.extracted",
    )
