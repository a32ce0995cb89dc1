"""Stick diagrams: electrical interpretation, generated cells, DRC."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.netlist import Circuit
from repro.circuit.cells.accumulator import build_accumulator
from repro.circuit.cells.comparator import build_comparator
from repro.errors import LayoutError
from repro.layout.cells import (
    accumulator_layout,
    check_cell,
    comparator_layout,
    expand_sticks,
    generate_cell_sticks,
)
from repro.layout.design_rules import DesignRuleChecker
from repro.layout.geometry import Point, Rect
from repro.layout.layers import Layer
from repro.layout.sticks import StickDiagram


_SIDE = 10


@st.composite
def diagrams(draw):
    """Small random diagrams: sticks on a 10x10 grid overlap collinearly
    and cross often, and contacts and implants often land on crossings."""
    sd = StickDiagram("random", _SIDE, _SIDE)
    grid = st.integers(0, _SIDE)
    for _ in range(draw(st.integers(0, 12))):
        layer = draw(st.sampled_from([Layer.POLY, Layer.DIFFUSION, Layer.METAL]))
        a, b = draw(st.lists(grid, min_size=2, max_size=2, unique=True))
        at = draw(grid)
        if draw(st.booleans()):
            sd.stick(layer, a, at, b, at)
        else:
            sd.stick(layer, at, a, at, b)
    spots = st.builds(Point, grid, grid)
    crossings = [p for p, _ in _reference_sites(sd)]
    if crossings:
        spots = st.sampled_from(crossings) | spots
    for _ in range(draw(st.integers(0, 4))):
        p = draw(spots)
        sd.contact(p.x, p.y, Layer.POLY, Layer.DIFFUSION)
    for _ in range(draw(st.integers(0, 4))):
        p = draw(spots)
        sd.implant(p.x, p.y)
    return sd


def _reference_sites(sd):
    """transistor_sites() by one Point per lambda of every stick."""

    def covered(s):
        if s.a.y == s.b.y:
            lo, hi = sorted((s.a.x, s.b.x))
            return {Point(x, s.a.y) for x in range(lo, hi + 1)}
        lo, hi = sorted((s.a.y, s.b.y))
        return {Point(s.a.x, y) for y in range(lo, hi + 1)}

    def on(layer):
        return set().union(*(covered(s) for s in sd.sticks if s.layer is layer))

    poly, diff = on(Layer.POLY), on(Layer.DIFFUSION)
    contacts = {c.at for c in sd.contacts}
    implants = {i.at for i in sd.implants}
    return [
        (p, p in implants)
        for p in sorted(poly & diff, key=lambda q: (q.y, q.x))
        if p not in contacts
    ]


@settings(max_examples=300, deadline=None)
@given(diagrams())
def test_transistor_sites_match_the_per_lambda_reference(sd):
    sites = sd.transistor_sites()
    assert sites == _reference_sites(sd)
    assert all(type(p) is Point and type(dep) is bool for p, dep in sites)


class TestStickDiagramPrimitives:
    def test_transistor_at_poly_diffusion_crossing(self):
        sd = StickDiagram("t", 10, 10)
        sd.stick(Layer.DIFFUSION, 5, 0, 5, 10)
        sd.stick(Layer.POLY, 0, 5, 10, 5)
        sites = sd.transistor_sites()
        assert len(sites) == 1
        assert sites[0][0].x == 5 and sites[0][0].y == 5
        assert sites[0][1] is False  # enhancement

    def test_implant_marks_depletion(self):
        sd = StickDiagram("t", 10, 10)
        sd.stick(Layer.DIFFUSION, 5, 0, 5, 10)
        sd.stick(Layer.POLY, 0, 5, 10, 5)
        sd.implant(5, 5)
        assert sd.transistor_sites()[0][1] is True

    def test_butting_contact_is_not_a_transistor(self):
        sd = StickDiagram("t", 10, 10)
        sd.stick(Layer.DIFFUSION, 5, 0, 5, 10)
        sd.stick(Layer.POLY, 0, 5, 10, 5)
        sd.contact(5, 5, Layer.POLY, Layer.DIFFUSION)
        assert sd.transistor_sites() == []

    def test_connectivity_through_contact_only(self):
        sd = StickDiagram("t", 10, 10)
        sd.stick(Layer.METAL, 0, 2, 10, 2)
        sd.stick(Layer.POLY, 0, 2, 10, 2)  # crossing along, no contact
        sd.port("m", 0, 2, Layer.METAL)
        sd.port("p", 10, 2, Layer.POLY)
        groups = sd.connectivity()
        assert {"m"} in groups and {"p"} in groups
        sd.contact(4, 2, Layer.METAL, Layer.POLY)
        groups = sd.connectivity()
        assert {"m", "p"} in groups

    def test_diffusion_net_split_by_channel(self):
        """Poly over diffusion makes a transistor, not a connection: the
        diffusion on either side of the gate is electrically distinct."""
        sd = StickDiagram("t", 10, 10)
        sd.stick(Layer.DIFFUSION, 5, 0, 5, 10)
        sd.stick(Layer.POLY, 0, 5, 10, 5)
        sd.port("src", 5, 0, Layer.DIFFUSION)
        sd.port("drn", 5, 10, Layer.DIFFUSION)
        groups = sd.connectivity()
        assert {"src"} in groups and {"drn"} in groups

    def test_diagonal_sticks_rejected(self):
        sd = StickDiagram("t", 10, 10)
        with pytest.raises(LayoutError):
            sd.stick(Layer.METAL, 0, 0, 5, 5)

    def test_ports_must_lie_on_boundary(self):
        sd = StickDiagram("t", 10, 10)
        with pytest.raises(LayoutError):
            sd.port("x", 5, 5, Layer.METAL)

    def test_out_of_bounds_rejected(self):
        sd = StickDiagram("t", 10, 10)
        with pytest.raises(LayoutError):
            sd.stick(Layer.METAL, 0, 0, 20, 0)

    def test_render_contains_legend_and_symbols(self):
        sd = StickDiagram("demo", 6, 6)
        sd.stick(Layer.METAL, 0, 3, 6, 3)
        text = sd.render()
        assert "demo" in text and "B" in text


class TestGeneratedCells:
    @pytest.mark.parametrize("positive", [True, False], ids=["pos", "neg"])
    def test_comparator_device_count_matches_netlist(self, positive):
        sd, _ = comparator_layout(positive)
        assert len(sd.transistor_sites()) == 15

    @pytest.mark.parametrize("positive", [True, False], ids=["pos", "neg"])
    def test_comparator_drc_clean(self, positive):
        _, layout = comparator_layout(positive)
        assert check_cell(layout) == []

    @pytest.mark.parametrize("positive", [True, False], ids=["pos", "neg"])
    def test_accumulator_drc_clean(self, positive):
        _, layout = accumulator_layout(positive)
        assert check_cell(layout) == []

    def test_comparator_ports_span_cell_for_abutment(self):
        sd, _ = comparator_layout(True)
        groups = sd.connectivity()

        def group_of(name):
            for g in groups:
                if name in g:
                    return g
            raise AssertionError(name)

        # each signal's left and right boundary ports are the same net
        for port in ("p_in", "s_in", "d_in", "clk"):
            assert port + "_r" in group_of(port)

    def test_stick_connectivity_reflects_netlist_nets(self):
        """Nodes shorted in the netlist map to one stick-diagram net."""
        c = Circuit("cmp")
        ports = build_comparator(c, "u.", "clk", positive=True)
        sd = generate_cell_sticks(
            c, {"a": ports["p_in"], "b": ports["p_in"]}, "twice"
        )
        groups = sd.connectivity()
        assert any({"a", "b"} <= g for g in groups)

    def test_depletion_loads_marked(self):
        sd, _ = comparator_layout(True)
        depletion = [s for s in sd.transistor_sites() if s[1]]
        assert len(depletion) == 4  # 2 inverters + xnor + nand pullups

    def test_expand_preserves_ports(self):
        sd, layout = comparator_layout(True)
        assert set(layout.ports) == set(sd.ports)
        assert layout.area == layout.width * layout.height

    def test_empty_circuit_rejected(self):
        with pytest.raises(LayoutError):
            generate_cell_sticks(Circuit("empty"), {}, "e")


class TestDesignRuleChecker:
    def test_detects_narrow_metal(self):
        checker = DesignRuleChecker()
        violations = checker.check({Layer.METAL: [Rect(0, 0, 2, 10)]})
        assert any(v.rule == "metal-width" for v in violations)

    def test_detects_close_spacing(self):
        checker = DesignRuleChecker()
        violations = checker.check(
            {Layer.METAL: [Rect(0, 0, 3, 10), Rect(4, 0, 7, 10)]}
        )
        assert any(v.rule == "metal-spacing" for v in violations)

    def test_touching_rects_are_one_conductor(self):
        checker = DesignRuleChecker()
        assert checker.check(
            {Layer.METAL: [Rect(0, 0, 3, 10), Rect(3, 0, 6, 10)]}
        ) == []

    def test_contact_must_be_covered(self):
        checker = DesignRuleChecker()
        violations = checker.check({Layer.CONTACT: [Rect(0, 0, 2, 2)]})
        assert any(v.rule == "contact-coverage" for v in violations)

    def test_contact_size_enforced(self):
        checker = DesignRuleChecker()
        violations = checker.check({Layer.CONTACT: [Rect(0, 0, 3, 2)]})
        assert any(v.rule == "contact-size" for v in violations)

    def test_enforce_raises(self):
        from repro.errors import DesignRuleViolation

        checker = DesignRuleChecker()
        with pytest.raises(DesignRuleViolation):
            checker.enforce({Layer.METAL: [Rect(0, 0, 1, 1)]})
