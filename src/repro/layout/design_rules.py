"""Lambda-based design rule checking.

"Designing a layout involves choosing electrical parameters for all
transistors, as well as following minimum spacing rules for the intended
fabrication process."  The rules here are the classic Mead & Conway NMOS
lambda rules (the set the prototype was fabricated under at XEROX PARC):

==============================  ======
rule                            lambda
==============================  ======
diffusion width                 2
diffusion spacing               3
poly width                      2
poly spacing                    2
metal width                     3
metal spacing                   3
poly to unrelated diffusion     1
contact size                    2 x 2
contact spacing                 2
implant overlap of gate         1.5 -> 2 (integer-conservative)
poly gate extension past diff   2
==============================  ======

The last four rows were absent from the original checker and were added
in the signoff audit: ``poly-diff-spacing`` keeps a wire of one layer off
an unrelated region of the other (overlapping shapes form a transistor
and are exempt), ``contact-spacing`` keeps cuts apart, and the two gate
rules (``implant-gate-overlap``, ``gate-extension``) guarantee that a
drawn channel really is a well-formed transistor: the implant must
blanket a depletion gate with 2 lambda to spare and the polysilicon must
run 2 lambda past the diffusion edge so mask misalignment cannot open a
diffusion short around the gate.  Conductor *coverage* of a contact is
enforced by the pre-existing ``contact-coverage`` containment rule (the
zero-margin form of the Mead & Conway overlap-of-contact rule).

Every rule family reads one :class:`CellGeometry` per layout -- the
per-layer indexes, one neighbour pass per conductor layer, the gate
channels -- and extraction (:mod:`repro.signoff.extract`) reads the same
one, so a cell's rectangles are indexed and scanned once per signoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import DesignRuleViolation
from .geometry import Rect, RectIndex, _UnionFind, merge_connected
from .layers import Layer


#: Minimum feature width per layer, in lambda.
LAMBDA_RULES: Dict[str, int] = {
    "diffusion-width": 2,
    "diffusion-spacing": 3,
    "poly-width": 2,
    "poly-spacing": 2,
    "metal-width": 3,
    "metal-spacing": 3,
    "poly-diff-spacing": 1,
    "contact-size": 2,
    "contact-spacing": 2,
    "implant-gate-overlap": 2,
    "gate-extension": 2,
}

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


#: The layers a geometric check reads.
_LAYERS = (Layer.DIFFUSION, Layer.POLY, Layer.METAL, Layer.IMPLANT,
           Layer.CONTACT)


class CellGeometry:
    """One cell's mask geometry, read once for every geometric check.

    DRC, extraction and the assembly audit ask the same questions of the
    same rectangles: which shapes of a layer lie close together, which
    of them touch (one conductor), and where poly crosses diffusion (a
    channel).  A ``CellGeometry`` answers each question once, on first
    use, and every reader shares the answer:

    ``rects[layer]``, :meth:`index`
        the per-layer rectangle lists and one :class:`RectIndex` per
        layer;
    :meth:`pairs`
        one neighbour pass per conductor layer, out to that layer's
        spacing rule: every ``(i, j, gap)`` with ``i < j`` and ``gap``
        under the rule, in ascending ``(i, j)`` order.  ``gap == 0`` is
        same-layer connectivity, ``0 < gap < rule`` a spacing candidate;
    :meth:`connectivity`
        the union-find of a layer's touching pairs;
    :meth:`cover`
        per contact cut, the shapes of a layer containing it;
    :attr:`channels`, :meth:`channel_index`
        the gate channels and their index.  Every overlap of a poly shape
        with a diffusion shape is a channel candidate ("Field-effect
        transistors are created in NMOS by crossing a diffusion path with
        a polysilicon area") unless a contact cut sits on the overlap (a
        butting contact joins the layers instead).  Overlapping/touching
        candidates merge into one channel, reported as the bounding box
        of the merged region -- one rectangle per device.

    Nothing is cached beyond the instance, which lives as long as its
    caller keeps it (the signoff of one design).  :meth:`of` passes a
    ``CellGeometry`` through and wraps a plain per-layer dict, so every
    check accepts either.
    """

    def __init__(self, rects_by_layer: Dict[Layer, Sequence[Rect]]):
        self.rects: Dict[Layer, List[Rect]] = {
            layer: list(rects_by_layer.get(layer, ())) for layer in _LAYERS
        }
        self._index: Dict[Layer, RectIndex] = {}
        self._pairs: Dict[Layer, Tuple[int, List[Tuple[int, int, int]]]] = {}
        self._uf: Dict[Layer, _UnionFind] = {}
        self._cover: Dict[Layer, List[List[int]]] = {}
        self._channels: Optional[List[Rect]] = None
        self._channel_index: Optional[RectIndex] = None

    @staticmethod
    def of(geometry) -> "CellGeometry":
        """*geometry* itself, or a new one over a per-layer rect dict."""
        if isinstance(geometry, CellGeometry):
            return geometry
        return CellGeometry(geometry)

    def index(self, layer: Layer) -> RectIndex:
        index = self._index.get(layer)
        if index is None:
            index = self._index[layer] = RectIndex(self.rects[layer])
        return index

    def pairs(
        self, layer: Layer, pad: Optional[int] = None
    ) -> List[Tuple[int, int, int]]:
        """``(i, j, gap)`` for every pair of *layer* shapes (``i < j``)
        less than *pad* apart, touching pairs always included; *pad*
        defaults to the layer's spacing rule.  The pass runs once per
        layer, at the widest pad asked for."""
        if pad is None:
            pad = LAMBDA_RULES[_SPACING_RULES[layer]]
        reach = max(pad, 1)
        done = self._pairs.get(layer)
        if done is None or done[0] < reach:
            rects = self.rects[layer]
            near = self.index(layer).near
            found = []
            for i, r in enumerate(rects):
                x0, y0, x1, y1 = r.x0, r.y0, r.x1, r.y1
                for j in near(r, reach):
                    if j <= i:
                        continue
                    s = rects[j]  # gap is r.separation(s), inlined
                    gap = max(s.x0 - x1, x0 - s.x1, s.y0 - y1, y0 - s.y1, 0)
                    if gap < reach:
                        found.append((i, j, gap))
            done = self._pairs[layer] = (reach, found)
        if done[0] == reach:
            return done[1]
        return [p for p in done[1] if p[2] < reach]

    def connectivity(self, layer: Layer) -> _UnionFind:
        """Union-find over *layer*'s shapes: touching shapes are one
        conductor.  Shared, so callers read it and never union into it."""
        uf = self._uf.get(layer)
        if uf is None:
            uf = self._uf[layer] = _UnionFind(len(self.rects[layer]))
            for i, j, gap in self.pairs(layer):
                if gap == 0:
                    uf.union(i, j)
        return uf

    def cover(self, layer: Layer) -> List[List[int]]:
        """Per contact cut (in ``rects[Layer.CONTACT]`` order), the
        ascending indices of the *layer* shapes containing it."""
        found = self._cover.get(layer)
        if found is None:
            rects = self.rects[layer]
            near = self.index(layer).near
            found = self._cover[layer] = [
                [k for k in near(cut) if rects[k].contains(cut)]
                for cut in self.rects[Layer.CONTACT]
            ]
        return found

    @property
    def channels(self) -> List[Rect]:
        """The gate channels, bottom to top (by ``y0``, then ``x0``)."""
        if self._channels is None:
            diff = self.rects[Layer.DIFFUSION]
            contacts = self.rects[Layer.CONTACT]
            near_diff = self.index(Layer.DIFFUSION).near
            near_cut = self.index(Layer.CONTACT).near
            candidates: List[Rect] = []
            for p in self.rects[Layer.POLY]:
                for k in near_diff(p):
                    overlap = p.intersection(diff[k])
                    if overlap is None:
                        continue
                    butted = any(
                        contacts[c].intersects(overlap)
                        for c in near_cut(overlap)
                    )
                    if not butted:
                        candidates.append(overlap)
            channels = []
            for cluster in merge_connected(candidates):
                box = cluster[0]
                for r in cluster[1:]:
                    box = box.union_bbox(r)
                channels.append(box)
            self._channels = sorted(channels, key=lambda r: (r.y0, r.x0))
        return self._channels

    def channel_index(self) -> RectIndex:
        if self._channel_index is None:
            self._channel_index = RectIndex(self.channels)
        return self._channel_index


@dataclass
class Violation:
    """One recorded rule violation."""

    rule: str
    detail: str

    def raise_(self) -> None:
        raise DesignRuleViolation(self.rule, self.detail)


@dataclass
class DesignRuleChecker:
    """Checks a layout given as per-layer rectangle lists.

    ``check`` returns the violation list (empty = clean); ``enforce``
    raises on the first violation, for use in generators that must never
    emit an illegal layout.  Both take a per-layer rect dict or the
    :class:`CellGeometry` over one (which extraction then reuses).
    """

    rules: Dict[str, int] = field(default_factory=lambda: dict(LAMBDA_RULES))

    def check(self, rects_by_layer) -> List[Violation]:
        geom = CellGeometry.of(rects_by_layer)
        violations: List[Violation] = []
        violations.extend(self._check_widths(geom))
        violations.extend(self._check_spacing(geom))
        violations.extend(self._check_contacts(geom))
        violations.extend(self._check_poly_diff_spacing(geom))
        violations.extend(self._check_gates(geom))
        return violations

    def enforce(self, rects_by_layer) -> None:
        for v in self.check(rects_by_layer):
            v.raise_()

    # -- individual rule families ------------------------------------------

    def _check_widths(self, geom: CellGeometry) -> List[Violation]:
        out = []
        for layer, rule in _WIDTH_RULES.items():
            min_w = self.rules[rule]
            for r in geom.rects[layer]:
                if r.min_dimension < min_w:
                    out.append(
                        Violation(
                            rule,
                            f"{layer.value} rect {r} narrower than {min_w} lambda",
                        )
                    )
        return out

    def _check_spacing(self, geom: CellGeometry) -> List[Violation]:
        """Spacing between electrically distinct same-layer clusters.

        Touching/overlapping rectangles are one conductor and exempt;
        distinct clusters must keep the layer's minimum gap.  The
        geometry's neighbour pass holds every pair closer than the rule;
        each close cluster pair is reported once, at its smallest gap.
        """
        out = []
        for layer, rule in _SPACING_RULES.items():
            min_s = self.rules[rule]
            if not geom.rects[layer]:
                continue
            find = geom.connectivity(layer).find
            reported: Dict[tuple, int] = {}
            for i, j, gap in geom.pairs(layer, min_s):
                a, b = find(i), find(j)
                if a == b:
                    continue
                pair = (a, b) if a < b else (b, a)
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

    def _check_contacts(self, geom: CellGeometry) -> List[Violation]:
        """Contacts: exact size, two covering conductors, mutual spacing."""
        out = []
        size = self.rules["contact-size"]
        min_s = self.rules["contact-spacing"]
        covers = [
            geom.cover(layer)
            for layer in (Layer.DIFFUSION, Layer.POLY, Layer.METAL)
        ]
        contacts = geom.rects[Layer.CONTACT]
        near_cut = geom.index(Layer.CONTACT).near
        for i, c in enumerate(contacts):
            if c.width != size or c.height != size:
                out.append(
                    Violation("contact-size", f"contact {c} is not {size}x{size}")
                )
            covering = sum(len(cover[i]) for cover in covers)
            if covering < 2:
                out.append(
                    Violation(
                        "contact-coverage",
                        f"contact {c} must be covered by two conduction layers",
                    )
                )
            for j in near_cut(c, pad=min_s):
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

    def _check_poly_diff_spacing(self, geom: CellGeometry) -> List[Violation]:
        """Unrelated polysilicon must keep 1 lambda off diffusion.

        Overlapping poly/diffusion pairs form a transistor channel and are
        exempt; everything else (including touching shapes, which a mask
        shift would merge) must keep the gap.
        """
        out = []
        min_s = self.rules["poly-diff-spacing"]
        diff = geom.rects[Layer.DIFFUSION]
        near = geom.index(Layer.DIFFUSION).near
        for p in geom.rects[Layer.POLY]:
            for k in near(p, pad=min_s):
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

    def _check_gates(self, geom: CellGeometry) -> List[Violation]:
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
        poly = geom.rects[Layer.POLY]
        implants = geom.rects[Layer.IMPLANT]
        near_poly = geom.index(Layer.POLY).near
        near_implant = geom.index(Layer.IMPLANT).near
        for ch in geom.channels:
            touching = [
                implants[k]
                for k in near_implant(ch)
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
            for k in near_poly(ch):
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
