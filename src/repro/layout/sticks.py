"""Topological stick diagrams (the Plate 1 artifact).

"The stick diagram shows the relative positions of all signal paths,
power connections, and components, but hides their absolute sizes and
positions."  A :class:`StickDiagram` is a set of coloured sticks
(axis-aligned segments on a conduction layer), contacts joining layers,
implant marks for depletion loads, and named ports on the cell boundary.

The diagram is *checkable*: :meth:`transistor_sites` finds every
poly-over-diffusion crossing (a transistor), :meth:`connectivity` builds
the electrical net list implied by the geometry, and the test suite
verifies that the comparator's stick diagram implies exactly the
Figure 3-6 circuit.  :meth:`render` draws the diagram as text, one
character per lambda, with the paper's colour letters
(G=green/diffusion, R=red/poly, B=blue/metal, *=contact, +=crossing).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

from ..errors import LayoutError
from .geometry import Point
from .layers import Layer


@dataclass(frozen=True)
class Stick:
    """One axis-aligned wire segment on a conduction layer."""

    layer: Layer
    a: Point
    b: Point

    def __post_init__(self):
        if self.a.x != self.b.x and self.a.y != self.b.y:
            raise LayoutError("sticks must be axis-aligned")
        if self.a == self.b:
            raise LayoutError("zero-length stick")
        if not self.layer.is_conductor:
            raise LayoutError(f"sticks must be on conduction layers, not {self.layer}")

    @property
    def is_horizontal(self) -> bool:
        return self.a.y == self.b.y

    def grid(self) -> Iterator[Tuple[int, int]]:
        """Every lambda grid point the stick covers, as ``(x, y)`` tuples."""
        if self.is_horizontal:
            x0, x1 = sorted((self.a.x, self.b.x))
            return zip(range(x0, x1 + 1), repeat(self.a.y))
        y0, y1 = sorted((self.a.y, self.b.y))
        return zip(repeat(self.a.x), range(y0, y1 + 1))

    def points(self) -> List[Point]:
        """Every lambda grid point the stick covers."""
        return [Point(x, y) for x, y in self.grid()]


@dataclass(frozen=True)
class Contact:
    """A contact cut joining two layers at a point (the round black dot)."""

    at: Point
    layers: FrozenSet[Layer]

    @staticmethod
    def of(at: Point, la: Layer, lb: Layer) -> "Contact":
        return Contact(at, frozenset({la, lb}))


@dataclass(frozen=True)
class Implant:
    """An ion-implantation mark making the transistor at *at* depletion mode."""

    at: Point


@dataclass(frozen=True)
class Port:
    """A named signal entering/leaving the cell at a boundary point."""

    name: str
    at: Point
    layer: Layer


def _overlaps(a: List[Tuple[int, int]], b: List[Tuple[int, int]]):
    """The closed overlaps of every span of *a* with every span of *b*."""
    for a0, a1 in a:
        for b0, b1 in b:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo <= hi:
                yield lo, hi


class StickDiagram:
    """A cell's stick diagram with electrical interpretation."""

    def __init__(self, name: str, width: int, height: int):
        if width <= 0 or height <= 0:
            raise LayoutError("cell must have positive extent")
        self.name = name
        self.width = width
        self.height = height
        self.sticks: List[Stick] = []
        self.contacts: List[Contact] = []
        self.implants: List[Implant] = []
        self.ports: Dict[str, Port] = {}

    # -- construction -----------------------------------------------------

    def _check_bounds(self, p: Point) -> None:
        if not (0 <= p.x <= self.width and 0 <= p.y <= self.height):
            raise LayoutError(f"{p} outside cell {self.name} bounds")

    def stick(self, layer: Layer, x0: int, y0: int, x1: int, y1: int) -> Stick:
        s = Stick(layer, Point(x0, y0), Point(x1, y1))
        self._check_bounds(s.a)
        self._check_bounds(s.b)
        self.sticks.append(s)
        return s

    def contact(self, x: int, y: int, la: Layer, lb: Layer) -> Contact:
        c = Contact.of(Point(x, y), la, lb)
        self._check_bounds(c.at)
        self.contacts.append(c)
        return c

    def implant(self, x: int, y: int) -> Implant:
        i = Implant(Point(x, y))
        self._check_bounds(i.at)
        self.implants.append(i)
        return i

    def port(self, name: str, x: int, y: int, layer: Layer) -> Port:
        p = Point(x, y)
        self._check_bounds(p)
        if not (p.x in (0, self.width) or p.y in (0, self.height)):
            raise LayoutError(f"port {name} must sit on the cell boundary")
        port = Port(name, p, layer)
        self.ports[name] = port
        return port

    # -- electrical interpretation ---------------------------------------------

    def transistor_sites(self) -> List[Tuple[Point, bool]]:
        """Every poly-over-diffusion crossing: (location, is_depletion).

        "Field-effect transistors are created in NMOS by crossing a
        diffusion path with a polysilicon area" -- unless a contact joins
        the layers at that very point (a butting contact, not a device).
        A site is a lambda grid point covered by both a poly and a
        diffusion stick; sites come in (y, x) order.

        They are found segment by segment, on stick endpoints grouped by
        row and column: a horizontal stick of one layer crosses each
        vertical stick of the other whose column lies in its span and
        whose span holds its row, and sticks of both layers on one row
        (or column) share the overlap of their spans.  The cost follows
        the number of sticks, not their length in lambda.
        """
        rows: Dict[Layer, Dict[int, List[Tuple[int, int]]]] = {
            Layer.POLY: {}, Layer.DIFFUSION: {},
        }
        cols: Dict[Layer, Dict[int, List[Tuple[int, int]]]] = {
            Layer.POLY: {}, Layer.DIFFUSION: {},
        }
        for s in self.sticks:
            if s.layer not in rows:
                continue
            if s.is_horizontal:
                span = (min(s.a.x, s.b.x), max(s.a.x, s.b.x))
                rows[s.layer].setdefault(s.a.y, []).append(span)
            else:
                span = (min(s.a.y, s.b.y), max(s.a.y, s.b.y))
                cols[s.layer].setdefault(s.a.x, []).append(span)
        crossings: Set[Tuple[int, int]] = set()
        for across, down in ((Layer.POLY, Layer.DIFFUSION),
                             (Layer.DIFFUSION, Layer.POLY)):
            columns = cols[down]
            xs = sorted(columns)
            for y, spans in rows[across].items():
                for x0, x1 in spans:
                    for x in xs[bisect_left(xs, x0):bisect_right(xs, x1)]:
                        if any(y0 <= y <= y1 for y0, y1 in columns[x]):
                            crossings.add((x, y))
        poly_rows, diff_rows = rows[Layer.POLY], rows[Layer.DIFFUSION]
        for y in poly_rows.keys() & diff_rows.keys():
            for lo, hi in _overlaps(poly_rows[y], diff_rows[y]):
                crossings.update((x, y) for x in range(lo, hi + 1))
        poly_cols, diff_cols = cols[Layer.POLY], cols[Layer.DIFFUSION]
        for x in poly_cols.keys() & diff_cols.keys():
            for lo, hi in _overlaps(poly_cols[x], diff_cols[x]):
                crossings.update((x, y) for y in range(lo, hi + 1))
        contact_pts = {(c.at.x, c.at.y) for c in self.contacts}
        implant_pts = {(i.at.x, i.at.y) for i in self.implants}
        return [
            (Point(x, y), (x, y) in implant_pts)
            for y, x in sorted((y, x) for x, y in crossings)
            if (x, y) not in contact_pts
        ]

    def connectivity(self) -> List[Set[str]]:
        """Groups of port names that the geometry electrically connects.

        Two sticks on the same layer connect where they share a point;
        different layers connect only through contacts.  Poly crossing
        diffusion does NOT connect them (it makes a transistor), so the
        crossing points are cut out of the diffusion nets.
        """
        transistor_pts = {p for p, _ in self.transistor_sites()}
        # node id: (layer, point); union-find over them
        parent: Dict[Tuple[str, Point], Tuple[str, Point]] = {}

        def find(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k

        def union(a, b):
            for k in (a, b):
                parent.setdefault(k, k)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for s in self.sticks:
            pts = s.points()
            if s.layer is Layer.DIFFUSION:
                # Split the diffusion net at transistor channels.
                run: List[Point] = []
                for p in pts:
                    if p in transistor_pts:
                        for i in range(len(run) - 1):
                            union((s.layer.value, run[i]), (s.layer.value, run[i + 1]))
                        run = []
                    else:
                        run.append(p)
                for i in range(len(run) - 1):
                    union((s.layer.value, run[i]), (s.layer.value, run[i + 1]))
                for p in pts:
                    if p not in transistor_pts:
                        parent.setdefault((s.layer.value, p), (s.layer.value, p))
            else:
                for i in range(len(pts) - 1):
                    union((s.layer.value, pts[i]), (s.layer.value, pts[i + 1]))
        for c in self.contacts:
            layers = sorted(l.value for l in c.layers)
            union((layers[0], c.at), (layers[1], c.at))

        groups: Dict[Tuple[str, Point], Set[str]] = {}
        for name, port in self.ports.items():
            key = (port.layer.value, port.at)
            parent.setdefault(key, key)
            groups.setdefault(find(key), set()).add(name)
        return [g for g in groups.values() if g]

    # -- rendering -----------------------------------------------------------------

    def render(self) -> str:
        """ASCII stick diagram, origin bottom-left."""
        symbols = {Layer.DIFFUSION: "G", Layer.POLY: "R", Layer.METAL: "B"}
        grid = [[" "] * (self.width + 1) for _ in range(self.height + 1)]
        for s in self.sticks:
            ch = symbols[s.layer]
            for p in s.points():
                cur = grid[p.y][p.x]
                grid[p.y][p.x] = ch if cur in (" ", ch) else "+"
        for i in self.implants:
            grid[i.at.y][i.at.x] = "Y"
        for c in self.contacts:
            grid[c.at.y][c.at.x] = "*"
        for port in self.ports.values():
            grid[port.at.y][port.at.x] = "o"
        lines = ["".join(row) for row in reversed(grid)]
        header = f"stick diagram: {self.name} ({self.width}x{self.height} lambda)"
        legend = "G=diffusion R=poly B=metal Y=implant *=contact o=port +=crossing"
        return "\n".join([header, legend] + lines)
