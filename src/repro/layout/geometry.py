"""Points and rectangles in lambda units.

All layout coordinates are integers in units of lambda, the scalable
length unit of the Mead & Conway design rules; the fabricated prototype
used lambda = 2.5 um (a 5-micron process).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import LayoutError


@dataclass(frozen=True)
class Point:
    """A point in lambda units."""

    x: int
    y: int

    def translated(self, dx: int, dy: int) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def __iter__(self):
        return iter((self.x, self.y))


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle [x0, x1) x [y0, y1) in lambda units."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise LayoutError(f"degenerate rectangle {self}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def min_dimension(self) -> int:
        return min(self.width, self.height)

    @property
    def center(self) -> Tuple[float, float]:
        return ((self.x0 + self.x1) / 2, (self.y0 + self.y1) / 2)

    def translated(self, dx: int, dy: int) -> "Rect":
        return Rect(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def intersects(self, other: "Rect") -> bool:
        """Open-interval overlap (touching edges do not intersect)."""
        return not (
            self.x1 <= other.x0
            or other.x1 <= self.x0
            or self.y1 <= other.y0
            or other.y1 <= self.y0
        )

    def touches_or_intersects(self, other: "Rect") -> bool:
        return not (
            self.x1 < other.x0
            or other.x1 < self.x0
            or self.y1 < other.y0
            or other.y1 < self.y0
        )

    def separation(self, other: "Rect") -> int:
        """Rectilinear gap between two rectangles (0 if touching/overlap)."""
        dx = max(other.x0 - self.x1, self.x0 - other.x1, 0)
        dy = max(other.y0 - self.y1, self.y0 - other.y1, 0)
        if dx > 0 and dy > 0:
            # Diagonal separation: design rules use the larger axis gap,
            # the conservative rectilinear convention.
            return max(dx, dy)
        return max(dx, dy)

    def union_bbox(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.x0, other.x0),
            min(self.y0, other.y0),
            max(self.x1, other.x1),
            max(self.y1, other.y1),
        )

    def contains(self, other: "Rect") -> bool:
        return (
            self.x0 <= other.x0
            and self.y0 <= other.y0
            and self.x1 >= other.x1
            and self.y1 >= other.y1
        )

    def contains_point(self, p: Point) -> bool:
        """Closed-boundary containment (lambda grid points on an edge count)."""
        return self.x0 <= p.x <= self.x1 and self.y0 <= p.y <= self.y1

    def intersection(self, other: "Rect") -> Optional["Rect"]:
        """The overlap rectangle, or None when interiors are disjoint."""
        x0, y0 = max(self.x0, other.x0), max(self.y0, other.y0)
        x1, y1 = min(self.x1, other.x1), min(self.y1, other.y1)
        if x1 <= x0 or y1 <= y0:
            return None
        return Rect(x0, y0, x1, y1)

    def subtract(self, cut: "Rect") -> List["Rect"]:
        """This rectangle minus *cut*, as up to four disjoint rectangles."""
        inter = self.intersection(cut)
        if inter is None:
            return [self]
        out: List[Rect] = []
        if self.y0 < inter.y0:                      # band below the cut
            out.append(Rect(self.x0, self.y0, self.x1, inter.y0))
        if inter.y1 < self.y1:                      # band above the cut
            out.append(Rect(self.x0, inter.y1, self.x1, self.y1))
        if self.x0 < inter.x0:                      # left of the cut
            out.append(Rect(self.x0, inter.y0, inter.x0, inter.y1))
        if inter.x1 < self.x1:                      # right of the cut
            out.append(Rect(inter.x1, inter.y0, self.x1, inter.y1))
        return out


def bounding_box(rects: Iterable[Rect]) -> Optional[Rect]:
    """The bounding box of a rectangle collection (None if empty)."""
    rects = list(rects)
    if not rects:
        return None
    box = rects[0]
    for r in rects[1:]:
        box = box.union_bbox(r)
    return box


def subtract_all(rect: Rect, cuts: Iterable[Rect]) -> List[Rect]:
    """*rect* minus every rectangle in *cuts* (disjoint fragment list)."""
    pieces = [rect]
    for cut in cuts:
        pieces = [frag for piece in pieces for frag in piece.subtract(cut)]
    return pieces


class RectIndex:
    """A uniform-grid spatial index over rectangles.

    Replaces the all-pairs scans that made connectivity extraction and
    spacing checks quadratic: querying returns only candidates whose grid
    cells overlap the probe window, so chip-scale rectangle sets (the
    flattened prototype CIF) stay near-linear.

    Each bucket lists the indices of its rectangles in ascending order,
    each once, so a probe that falls in one grid cell is answered by a
    copy of that bucket; only probes spanning several cells merge and
    sort.  Either way :meth:`near` returns ascending, unique indices, an
    order callers rely on (union-find net numbering follows it).
    """

    def __init__(self, rects: List[Rect], cell: int = 32):
        self.rects = rects
        self.cell = c = max(1, cell)
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        buckets = self._buckets
        for i, r in enumerate(rects):
            rows = range(r.y0 // c, r.y1 // c + 1)
            for bx in range(r.x0 // c, r.x1 // c + 1):
                for by in rows:
                    bucket = buckets.get((bx, by))
                    if bucket is None:
                        buckets[(bx, by)] = [i]
                    else:
                        bucket.append(i)

    def near(self, r: Rect, pad: int = 0) -> List[int]:
        """Ascending, unique indices of the rectangles whose grid cells
        overlap *r* grown by *pad*."""
        c = self.cell
        bx0, bx1 = (r.x0 - pad) // c, (r.x1 + pad) // c
        by0, by1 = (r.y0 - pad) // c, (r.y1 + pad) // c
        buckets = self._buckets
        if bx0 == bx1 and by0 == by1:
            return list(buckets.get((bx0, by0), ()))
        seen: set = set()
        for bx in range(bx0, bx1 + 1):
            for by in range(by0, by1 + 1):
                bucket = buckets.get((bx, by))
                if bucket is not None:
                    seen.update(bucket)
        return sorted(seen)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


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
