"""Lambda-unit geometry primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LayoutError
from repro.layout.geometry import (
    Point, Rect, RectIndex, bounding_box, merge_connected,
)


class TestRect:
    def test_dimensions(self):
        r = Rect(0, 0, 4, 2)
        assert (r.width, r.height, r.area, r.min_dimension) == (4, 2, 8, 2)

    def test_degenerate_rejected(self):
        with pytest.raises(LayoutError):
            Rect(0, 0, 0, 2)
        with pytest.raises(LayoutError):
            Rect(5, 0, 3, 2)

    def test_translation(self):
        assert Rect(0, 0, 2, 2).translated(3, -1) == Rect(3, -1, 5, 1)

    def test_intersection_is_open(self):
        a, b = Rect(0, 0, 2, 2), Rect(2, 0, 4, 2)
        assert not a.intersects(b)            # touching edges
        assert a.touches_or_intersects(b)
        assert a.intersects(Rect(1, 1, 3, 3))

    def test_separation(self):
        a = Rect(0, 0, 2, 2)
        assert a.separation(Rect(5, 0, 7, 2)) == 3
        assert a.separation(Rect(0, 4, 2, 6)) == 2
        assert a.separation(Rect(1, 1, 3, 3)) == 0
        # diagonal: conservative larger axis gap
        assert a.separation(Rect(4, 5, 6, 7)) == 3

    def test_contains(self):
        assert Rect(0, 0, 10, 10).contains(Rect(2, 2, 4, 4))
        assert not Rect(0, 0, 3, 3).contains(Rect(2, 2, 4, 4))

    def test_union_bbox(self):
        assert Rect(0, 0, 1, 1).union_bbox(Rect(5, 5, 6, 7)) == Rect(0, 0, 6, 7)


class TestHelpers:
    def test_bounding_box(self):
        assert bounding_box([]) is None
        assert bounding_box([Rect(0, 0, 1, 1), Rect(2, 3, 4, 5)]) == Rect(0, 0, 4, 5)

    def test_merge_connected_clusters(self):
        rects = [Rect(0, 0, 2, 2), Rect(2, 0, 4, 2), Rect(10, 10, 12, 12)]
        clusters = merge_connected(rects)
        sizes = sorted(len(c) for c in clusters)
        assert sizes == [1, 2]

    def test_point_translation(self):
        assert Point(1, 2).translated(2, 3) == Point(3, 5)
        assert tuple(Point(4, 5)) == (4, 5)


@st.composite
def rects(draw, max_side=160):
    """Rects anywhere around the origin, from 1 lambda to many cells wide."""
    x0 = draw(st.integers(-120, 120))
    y0 = draw(st.integers(-120, 120))
    return Rect(x0, y0, x0 + draw(st.integers(1, max_side)),
                y0 + draw(st.integers(1, max_side)))


class TestRectIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(rects(), max_size=30),
        rects(max_side=12) | rects(),
        st.integers(0, 6),
        st.sampled_from([1, 7, 32]),
    )
    def test_near_is_the_grid_cell_brute_force(self, rs, probe, pad, cell):
        """near() returns, ascending and once each, every rect sharing a
        grid cell with the padded probe -- which includes every rect the
        padded probe touches."""
        got = RectIndex(rs, cell=cell).near(probe, pad)
        grown = Rect(probe.x0 - pad, probe.y0 - pad,
                     probe.x1 + pad, probe.y1 + pad)

        def cells(r):
            return (r.x0 // cell, r.x1 // cell, r.y0 // cell, r.y1 // cell)

        gx0, gx1, gy0, gy1 = cells(grown)
        want = [
            i for i, r in enumerate(rs)
            if cells(r)[0] <= gx1 and gx0 <= cells(r)[1]
            and cells(r)[2] <= gy1 and gy0 <= cells(r)[3]
        ]
        assert got == want
        assert {i for i, r in enumerate(rs)
                if r.touches_or_intersects(grown)} <= set(got)

    def test_single_cell_probe_returns_a_copy(self):
        rs = [Rect(1, 1, 3, 3), Rect(-40, -40, 40, 40), Rect(2, 2, 5, 5)]
        index = RectIndex(rs)
        got = index.near(Rect(0, 0, 4, 4))
        assert got == [0, 1, 2]
        got.append(99)
        assert index.near(Rect(0, 0, 4, 4)) == [0, 1, 2]
