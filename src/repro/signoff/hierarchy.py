"""Net identity and device census of an emitted CIF, symbol by symbol.

The assembly audit asks two things of the chip's mask geometry: how many
transistor channels it carries, and which supply probes share a net.
Flattening the CIF and extracting the whole die answers both, but a
compiled chip is a few distinct cells placed many times ("most of the
cells on a chip are copies of a few basic ones"), so
:class:`HierarchicalNets` extracts each emitted symbol once and places
that extraction at every call:

* the channel census is each symbol's channel count, summed over its
  calls;
* a net is an (instance, local net) pair, and a union-find joins pairs
  wherever instances meet: same-layer conductors touching across an
  abutment seam, and contact cuts that land in a neighbour's conductors;
* geometry is compared only where two instances' bounding boxes touch.
  A seam that carries device-forming geometry from both sides (poly over
  the neighbour's diffusion, a cut over its gate, channels that touch)
  changes the devices themselves, so the instances on both sides are
  re-extracted together as one flat unit.

Every answer therefore equals a :class:`ConductorNets` over the
flattened die.  Geometry a symbol holds beside its calls (the pad ring
is one such symbol placed per pad) is one more instance.
"""

from __future__ import annotations

from typing import (
    Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..errors import CIFError
from ..layout.cif import ParsedCIF
from ..layout.design_rules import CellGeometry
from ..layout.geometry import Point, Rect, RectIndex, _UnionFind
from ..layout.layers import Layer
from .extract import ConductorNets

Geometry = Dict[Layer, List[Rect]]

#: The layers that make devices and nets; anything else cannot meet a
#: neighbour electrically.
_CONDUCTING = (Layer.DIFFUSION, Layer.POLY, Layer.METAL, Layer.CONTACT)
_CONDUCTORS = (Layer.DIFFUSION, Layer.POLY, Layer.METAL)


class _Unit:
    """Geometry extracted once: one symbol's boxes, shared by every call
    of it, or the instances merged at a device-forming seam."""

    def __init__(self, rects: Geometry, nets: Optional[ConductorNets] = None):
        self.rects = rects
        self.nets = nets if nets is not None else ConductorNets(rects)
        shapes = [r for layer in _CONDUCTING for r in rects.get(layer, ())]
        self.box = Rect(
            min(r.x0 for r in shapes), min(r.y0 for r in shapes),
            max(r.x1 for r in shapes), max(r.y1 for r in shapes),
        )

    def near(self, key, window: Rect) -> List[Rect]:
        """Shapes touching *window*, both in this unit's own coordinates:
        the conductors of *key* when it is diffusion (the fragments left
        beside the channels), poly or metal; else the contact cuts or, for
        ``"channel"``, the transistor channels."""
        nets = self.nets
        if key in _CONDUCTORS:
            return [
                r for _k, r in nets.near(key, window)
                if r.touches_or_intersects(window)
            ]
        geom = nets.geometry
        index = (geom.channel_index() if key == "channel"
                 else geom.index(Layer.CONTACT))
        rects = index.rects
        return [
            rects[k] for k in index.near(window)
            if rects[k].touches_or_intersects(window)
        ]

    def covering(self, cut: Rect) -> List[int]:
        """Local net ids of the conductors containing *cut*."""
        nets = self.nets
        return [nets.net_id(k) for _layer, k in nets.covering(cut)]


class _Placed:
    """A unit at an offset (lambda)."""

    __slots__ = ("unit", "dx", "dy", "box")

    def __init__(self, unit: _Unit, dx: int, dy: int):
        self.unit, self.dx, self.dy = unit, dx, dy
        self.box = unit.box.translated(dx, dy)

    def near(self, key, window: Rect) -> List[Rect]:
        """:meth:`_Unit.near` in chip coordinates."""
        dx, dy = self.dx, self.dy
        return [
            r.translated(dx, dy)
            for r in self.unit.near(key, window.translated(-dx, -dy))
        ]


def _symbol_calls(parsed: ParsedCIF) -> Iterator[Tuple[int, int, int]]:
    """(symbol id, dx, dy) of every symbol invocation the top-level calls
    reach, offsets in file units, in :meth:`ParsedCIF.flatten` order."""

    def walk(sid: int, dx: int, dy: int, depth: int):
        if depth > 50:
            raise CIFError("call nesting too deep (recursive symbols?)")
        if sid not in parsed.symbols:
            raise CIFError(f"call to undefined symbol {sid}")
        yield sid, dx, dy
        for child, cdx, cdy in parsed.symbols[sid].calls:
            yield from walk(child, dx + cdx, dy + cdy, depth + 1)

    for sid, dx, dy in parsed.top_calls:
        yield from walk(sid, dx, dy, 0)


def _halved(boxes: Geometry, px: int, py: int) -> Tuple[Geometry, bool]:
    """Half-lambda *boxes* called at an offset of parity (*px*, *py*), in
    lambda; boxes that land off the lambda grid are dropped and reported."""
    out: Geometry = {}
    odd = False
    for layer, rects in boxes.items():
        kept = []
        for r in rects:
            x0, y0, x1, y1 = r.x0 + px, r.y0 + py, r.x1 + px, r.y1 + py
            if x0 % 2 or y0 % 2 or x1 % 2 or y1 % 2:
                odd = True
            else:
                kept.append(Rect(x0 // 2, y0 // 2, x1 // 2, y1 // 2))
        if kept:
            out[layer] = kept
    return out, odd


def _nonempty(rects: Geometry) -> Geometry:
    return {layer: list(rs) for layer, rs in rects.items() if rs}


def _window(a: Rect, b: Rect) -> Rect:
    """The strip where two touching boxes meet, grown by one lambda."""
    return Rect(max(a.x0, b.x0) - 1, max(a.y0, b.y0) - 1,
                min(a.x1, b.x1) + 1, min(a.y1, b.y1) + 1)


def _touching(boxes: Sequence[Rect]) -> List[Tuple[int, int]]:
    index = RectIndex(list(boxes), cell=64)
    return [
        (i, j) for i, box in enumerate(boxes) for j in index.near(box)
        if j > i and box.touches_or_intersects(boxes[j])
    ]


def _forms_devices(a: _Placed, b: _Placed) -> bool:
    """Whether geometry from both sides of the a|b seam makes, removes or
    merges a transistor channel -- so neither side's own extraction holds.
    Tested on whole shapes (bounding boxes of channels), so it may answer
    True for a seam that would extract cleanly, never False for one that
    would not."""
    win = _window(a.box, b.box)
    chans = {p: p.near("channel", win) for p in (a, b)}
    for p, q in ((a, b), (b, a)):
        # Diffusion fragments and channels together cover the diffusion.
        under_q = q.near(Layer.DIFFUSION, win) + chans[q]
        over_p = p.near(Layer.POLY, win) + chans[p]
        if any(r.intersects(d) for r in over_p for d in under_q):
            return True
        cuts = p.near(Layer.CONTACT, win)
        if any(c.intersects(ch) for c in cuts for ch in chans[q]):
            return True
    return any(
        c.touches_or_intersects(d) for c in chans[a] for d in chans[b]
    )


def _merge_device_seams(
    placed: List[_Placed],
) -> Tuple[List[_Placed], List[Tuple[int, int]]]:
    """Merge instances across device-forming seams until every seam
    only joins nets; returns the placed units and their seams."""
    units = list(placed)
    while True:
        seams = _touching([p.box for p in units])
        dirty = [(i, j) for i, j in seams
                 if _forms_devices(units[i], units[j])]
        if not dirty:
            return units, seams
        uf = _UnionFind(len(units))
        for i, j in dirty:
            uf.union(i, j)
        merged: Dict[int, List[int]] = {}
        for i in range(len(units)):
            merged.setdefault(uf.find(i), []).append(i)
        new_units = []
        for members in merged.values():
            if len(members) == 1:
                new_units.append(units[members[0]])
                continue
            rects: Geometry = {}
            for i in members:
                u = units[i]
                for layer, rs in u.unit.rects.items():
                    rects.setdefault(layer, []).extend(
                        r.translated(u.dx, u.dy) for r in rs
                    )
            new_units.append(_Placed(_Unit(rects), 0, 0))
        units = new_units


class HierarchicalNets:
    """Channel census and net identity of a parsed CIF chip.

    ``known`` pairs a cell layout's geometry (lambda, per layer) with the
    :class:`ConductorNets` already built over it; an emitted symbol whose
    recovered geometry compares equal reuses that extraction instead of
    building its own.  After construction:

    ``off_grid``
        Whether any placed box falls off the half-lambda grid (those
        boxes are dropped, as a flat read of the file drops them).
    ``n_channels``
        Transistor channels on the die.
    :meth:`net_at`
        A hashable net identity, equal for two probes exactly when the
        flat extraction puts them on one net.
    """

    def __init__(
        self,
        parsed: ParsedCIF,
        known: Iterable[Tuple[Geometry, ConductorNets]] = (),
    ):
        self._known = [(_nonempty(rects), nets) for rects, nets in known]
        units: Dict[Tuple[int, int, int], Optional[_Unit]] = {}
        self.off_grid = False
        placed: List[_Placed] = []
        for sid, dx, dy in _symbol_calls(parsed):
            px, py = dx % 2, dy % 2
            key = (sid, px, py)
            if key not in units:
                rects, odd = _halved(parsed.symbols[sid].boxes, px, py)
                self.off_grid |= odd
                units[key] = None
                if any(layer in rects for layer in _CONDUCTING):
                    units[key] = _Unit(rects, self._known_nets(rects))
            if units[key] is not None:
                placed.append(
                    _Placed(units[key], (dx - px) // 2, (dy - py) // 2)
                )
        self._placed, seams = _merge_device_seams(placed)
        self.n_channels = sum(len(p.unit.nets.channels) for p in self._placed)
        self._parent: Dict[Hashable, Hashable] = {}
        self._boxes = RectIndex([p.box for p in self._placed], cell=64)
        for i, j in seams:
            self._join(i, j)

    def _known_nets(self, rects: Geometry) -> Optional[ConductorNets]:
        rects = _nonempty(rects)
        return next((n for g, n in self._known if g == rects), None)

    def census(self, rects: Geometry) -> int:
        """Transistor channels in cell geometry *rects* (lambda), read from
        a known extraction of equal geometry when there is one."""
        nets = self._known_nets(rects)
        if nets is not None:
            return len(nets.channels)
        return len(CellGeometry(rects).channels)

    # -- seams -------------------------------------------------------------

    def _find(self, node: Hashable) -> Hashable:
        parent = self._parent
        root = node
        while parent.get(root, root) != root:
            root = parent[root]
        while node != root:
            parent[node], node = root, parent[node]
        return root

    def _union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self._parent[ra] = rb

    def _join(self, i: int, j: int) -> None:
        """Join the nets of units *i* and *j* where they meet."""
        a, b = self._placed[i], self._placed[j]
        win = _window(a.box, b.box)
        na, nb = a.unit.nets, b.unit.nets
        shift_x, shift_y = a.dx - b.dx, a.dy - b.dy
        local = win.translated(-a.dx, -a.dy)
        for layer in _CONDUCTORS:
            for k, r in na.near(layer, local, pad=1):
                if not r.touches_or_intersects(local):
                    continue
                rb = r.translated(shift_x, shift_y)
                for k2, r2 in nb.near(layer, rb, pad=1):
                    if r2.touches_or_intersects(rb):
                        self._union((i, na.net_id(k)), (j, nb.net_id(k2)))
        # A cut joins every conductor containing it, whichever instance
        # drew them.
        for p in (a, b):
            for cut in p.near(Layer.CONTACT, win):
                nodes = [
                    (u, net)
                    for u in self._boxes.near(cut)
                    if self._placed[u].box.contains(cut)
                    for net in self._placed[u].unit.covering(
                        cut.translated(-self._placed[u].dx,
                                       -self._placed[u].dy)
                    )
                ]
                for node in nodes[1:]:
                    self._union(nodes[0], node)

    # -- probes ------------------------------------------------------------

    def net_at(self, p: Point, layer: Layer) -> Optional[Hashable]:
        """Net of the *layer* shape covering point *p* (None if open)."""
        probe = Rect(p.x - 1, p.y - 1, p.x + 1, p.y + 1)
        for u in self._boxes.near(probe):
            placed = self._placed[u]
            if not placed.box.contains_point(p):
                continue
            nid = placed.unit.nets.net_at(
                Point(p.x - placed.dx, p.y - placed.dy), layer
            )
            if nid is not None:
                return self._find((u, nid))
        return None

