"""The per-check signoff geometry, frozen: the oracle for ``CellGeometry``.

``DesignRuleChecker`` and ``ConductorNets``/``extract`` exactly as they
were before DRC and extraction shared one :class:`CellGeometry` per cell:
each rule family and the extractor build their own indexes,
connectivity and gate channels over the rectangles.  Test-only, like
``tests/flat_assembly.py``: the shared database must report the same
violations (by ``repr``) and the same ``Extraction``, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuit.netlist import VDD, Circuit
from repro.layout.design_rules import LAMBDA_RULES, Violation
from repro.layout.geometry import (
    Point, Rect, RectIndex, _UnionFind, subtract_all,
)
from repro.layout.layers import Layer
from repro.signoff.extract import RAIL_PORTS, ChannelGeom, Extraction

_WIDTH_RULES = {
    Layer.DIFFUSION: "diffusion-width",
    Layer.POLY: "poly-width",
    Layer.METAL: "metal-width",
}
_SPACING_RULES = {
    Layer.DIFFUSION: "diffusion-spacing",
    Layer.POLY: "poly-spacing",
    Layer.METAL: "metal-spacing",
}


def connected_labels(rects: List[Rect]) -> List[int]:
    """Cluster id per rectangle (touching/overlapping rects share an id)."""
    uf = _UnionFind(len(rects))
    index = RectIndex(rects)
    for i, r in enumerate(rects):
        for j in index.near(r):
            if j > i and r.touches_or_intersects(rects[j]):
                uf.union(i, j)
    roots: Dict[int, int] = {}
    labels = []
    for i in range(len(rects)):
        root = uf.find(i)
        labels.append(roots.setdefault(root, len(roots)))
    return labels


def merge_connected(rects: List[Rect]) -> List[List[Rect]]:
    """Group rectangles into electrically connected clusters (same layer)."""
    labels = connected_labels(rects)
    groups: Dict[int, List[Rect]] = {}
    for label, rect in zip(labels, rects):
        groups.setdefault(label, []).append(rect)
    return [groups[k] for k in sorted(groups)]


def gate_channels(
    poly: Sequence[Rect], diff: Sequence[Rect], contacts: Sequence[Rect] = ()
) -> List[Rect]:
    """Merged poly-over-diffusion regions: the transistor channels.

    Every overlap of a poly shape with a diffusion shape is a channel
    candidate ("Field-effect transistors are created in NMOS by crossing
    a diffusion path with a polysilicon area") unless a contact cut sits
    on the overlap (a butting contact joins the layers instead).
    Overlapping/touching candidates merge into one channel, reported as
    the bounding box of the merged region -- one rectangle per device.
    """
    diff_list = list(diff)
    index = RectIndex(diff_list)
    contact_list = list(contacts)
    contact_index = RectIndex(contact_list)
    candidates: List[Rect] = []
    for p in poly:
        for k in index.near(p):
            overlap = p.intersection(diff_list[k])
            if overlap is None:
                continue
            butted = any(
                contact_list[c].intersects(overlap)
                for c in contact_index.near(overlap)
            )
            if not butted:
                candidates.append(overlap)
    channels = []
    for cluster in merge_connected(candidates):
        box = cluster[0]
        for r in cluster[1:]:
            box = box.union_bbox(r)
        channels.append(box)
    return sorted(channels, key=lambda r: (r.y0, r.x0))


@dataclass
class DesignRuleChecker:
    """Checks a layout given as per-layer rectangle lists.

    ``check`` returns the violation list (empty = clean); ``enforce``
    raises on the first violation, for use in generators that must never
    emit an illegal layout.
    """

    rules: Dict[str, int] = field(default_factory=lambda: dict(LAMBDA_RULES))

    def check(self, rects_by_layer: Dict[Layer, Sequence[Rect]]) -> List[Violation]:
        violations: List[Violation] = []
        violations.extend(self._check_widths(rects_by_layer))
        violations.extend(self._check_spacing(rects_by_layer))
        violations.extend(self._check_contacts(rects_by_layer))
        violations.extend(self._check_poly_diff_spacing(rects_by_layer))
        violations.extend(self._check_gates(rects_by_layer))
        return violations

    def enforce(self, rects_by_layer: Dict[Layer, Sequence[Rect]]) -> None:
        for v in self.check(rects_by_layer):
            v.raise_()

    # -- individual rule families ------------------------------------------

    def _check_widths(self, rbl) -> List[Violation]:
        out = []
        for layer, rule in _WIDTH_RULES.items():
            min_w = self.rules[rule]
            for r in rbl.get(layer, []):
                if r.min_dimension < min_w:
                    out.append(
                        Violation(
                            rule,
                            f"{layer.value} rect {r} narrower than {min_w} lambda",
                        )
                    )
        return out

    def _check_spacing(self, rbl) -> List[Violation]:
        """Spacing between electrically distinct same-layer clusters.

        Touching/overlapping rectangles are one conductor and exempt;
        distinct clusters must keep the layer's minimum gap.  The scan is
        index-accelerated: each rectangle is compared only against
        rectangles within the rule distance, and each close cluster pair
        is reported once.
        """
        out = []
        for layer, rule in _SPACING_RULES.items():
            min_s = self.rules[rule]
            rects = list(rbl.get(layer, []))
            if not rects:
                continue
            labels = connected_labels(rects)
            index = RectIndex(rects)
            reported: Dict[tuple, int] = {}
            for i, r in enumerate(rects):
                for j in index.near(r, pad=min_s):
                    if j <= i or labels[i] == labels[j]:
                        continue
                    gap = r.separation(rects[j])
                    if gap < min_s:
                        pair = (min(labels[i], labels[j]), max(labels[i], labels[j]))
                        if pair in reported:
                            reported[pair] = min(reported[pair], gap)
                        else:
                            reported[pair] = gap
            for gap in reported.values():
                out.append(
                    Violation(
                        rule,
                        f"{layer.value} clusters {gap} lambda apart "
                        f"(need {min_s})",
                    )
                )
        return out

    def _check_contacts(self, rbl) -> List[Violation]:
        """Contacts: exact size, two covering conductors, mutual spacing."""
        out = []
        size = self.rules["contact-size"]
        min_s = self.rules["contact-spacing"]
        conductors = [
            r
            for layer in (Layer.DIFFUSION, Layer.POLY, Layer.METAL)
            for r in rbl.get(layer, [])
        ]
        cover_index = RectIndex(conductors)
        contacts = list(rbl.get(Layer.CONTACT, []))
        contact_index = RectIndex(contacts)
        for i, c in enumerate(contacts):
            if c.width != size or c.height != size:
                out.append(
                    Violation("contact-size", f"contact {c} is not {size}x{size}")
                )
            covering = sum(
                1 for k in cover_index.near(c) if conductors[k].contains(c)
            )
            if covering < 2:
                out.append(
                    Violation(
                        "contact-coverage",
                        f"contact {c} must be covered by two conduction layers",
                    )
                )
            for j in contact_index.near(c, pad=min_s):
                if j <= i:
                    continue
                gap = c.separation(contacts[j])
                if 0 < gap < min_s:
                    out.append(
                        Violation(
                            "contact-spacing",
                            f"contacts {c} and {contacts[j]} are {gap} lambda "
                            f"apart (need {min_s})",
                        )
                    )
        return out

    def _check_poly_diff_spacing(self, rbl) -> List[Violation]:
        """Unrelated polysilicon must keep 1 lambda off diffusion.

        Overlapping poly/diffusion pairs form a transistor channel and are
        exempt; everything else (including touching shapes, which a mask
        shift would merge) must keep the gap.
        """
        out = []
        min_s = self.rules["poly-diff-spacing"]
        diff = list(rbl.get(Layer.DIFFUSION, []))
        index = RectIndex(diff)
        for p in rbl.get(Layer.POLY, []):
            for k in index.near(p, pad=min_s):
                d = diff[k]
                if p.intersects(d):
                    continue  # a channel, handled by the gate rules
                gap = p.separation(d)
                if gap < min_s:
                    out.append(
                        Violation(
                            "poly-diff-spacing",
                            f"poly {p} is {gap} lambda from unrelated "
                            f"diffusion {d} (need {min_s})",
                        )
                    )
        return out

    def _check_gates(self, rbl) -> List[Violation]:
        """Channel-formation rules: implant blanket and poly overhang.

        Every merged poly-over-diffusion region is a channel.  A channel
        touched by implant must be *contained* in implant with the rule
        margin on every side; and some poly shape must extend past the
        channel by the gate-extension margin on both sides of one axis
        (the poly line crossing the diffusion).
        """
        out = []
        overlap = self.rules["implant-gate-overlap"]
        extension = self.rules["gate-extension"]
        poly = list(rbl.get(Layer.POLY, []))
        diff = list(rbl.get(Layer.DIFFUSION, []))
        implants = list(rbl.get(Layer.IMPLANT, []))
        contacts = list(rbl.get(Layer.CONTACT, []))
        channels = gate_channels(poly, diff, contacts)
        poly_index = RectIndex(poly)
        implant_index = RectIndex(implants)
        for ch in channels:
            touching = [
                implants[k]
                for k in implant_index.near(ch)
                if implants[k].intersects(ch)
            ]
            if touching:
                grown = Rect(
                    ch.x0 - overlap, ch.y0 - overlap,
                    ch.x1 + overlap, ch.y1 + overlap,
                )
                if not any(imp.contains(grown) for imp in touching):
                    out.append(
                        Violation(
                            "implant-gate-overlap",
                            f"implant must cover gate {ch} plus {overlap} "
                            "lambda on every side",
                        )
                    )
            extended = False
            for k in poly_index.near(ch):
                p = poly[k]
                if not p.intersects(ch):
                    continue
                if p.x0 <= ch.x0 - extension and p.x1 >= ch.x1 + extension:
                    extended = True
                    break
                if p.y0 <= ch.y0 - extension and p.y1 >= ch.y1 + extension:
                    extended = True
                    break
            if not extended:
                out.append(
                    Violation(
                        "gate-extension",
                        f"no poly shape extends {extension} lambda past "
                        f"gate {ch} on both sides of either axis",
                    )
                )
        return out


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
