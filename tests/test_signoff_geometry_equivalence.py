"""DRC and extraction over one shared ``CellGeometry`` equal the frozen ones.

``tests/reference_signoff.py`` freezes the checker and the extractor as
they were when each rule family and the extractor built their own
indexes, connectivity and gate channels.  The shared database must give
the same violations (compared by ``repr``, so order and wording count)
and the same :class:`~repro.signoff.extract.Extraction`, field for
field, on random multi-layer layouts, on every generated cell twin and
on every signoff mutant.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_signoff as ref
from repro.compiler import compile_workload
from repro.layout.cells import cell_bundle
from repro.layout.design_rules import CellGeometry, DesignRuleChecker
from repro.layout.geometry import Point, Rect
from repro.layout.layers import Layer
from repro.signoff.extract import extract
from repro.signoff import pipeline
from repro.signoff.mutations import LAYOUT_MUTANTS, mutant_names, run_mutant
from repro.signoff.pipeline import Signoff

_SIDE = 24
_CONDUCTORS = (Layer.DIFFUSION, Layer.POLY, Layer.METAL)


def _fields(ex):
    """Every observable field of an Extraction."""
    c = ex.circuit
    return (
        c.name, list(c.transistors), list(c.loads), sorted(c.nodes),
        ex.net_of_port, ex.device_geom, ex.warnings, ex.n_nets,
    )


def _assert_same(rects, ports, name="cell"):
    """Violations and extraction of *rects* equal the frozen reference's,
    for a plain dict and for a shared geometry read by DRC first."""
    want_drc = repr(ref.DesignRuleChecker().check(rects))
    want_ex = _fields(ref.extract(rects, ports, name=name))
    assert repr(DesignRuleChecker().check(rects)) == want_drc
    assert _fields(extract(rects, ports, name=name)) == want_ex
    geom = CellGeometry(rects)
    assert repr(DesignRuleChecker().check(geom)) == want_drc
    assert _fields(extract(geom, ports, name=name)) == want_ex


# -- random layouts ------------------------------------------------------------

@st.composite
def _rect(draw, side=_SIDE, max_w=8):
    x0 = draw(st.integers(0, side - 1))
    y0 = draw(st.integers(0, side - 1))
    w = draw(st.integers(1, max_w))
    h = draw(st.integers(1, max_w))
    return Rect(x0, y0, x0 + w, y0 + h)


@st.composite
def _abutting(draw, base: Rect):
    """A rect sharing an edge or a corner with *base*, or overlapping it."""
    w = draw(st.integers(1, 6))
    h = draw(st.integers(1, 6))
    side = draw(st.sampled_from(["left", "right", "below", "above", "over"]))
    x = draw(st.integers(base.x0 - w, base.x1))
    y = draw(st.integers(base.y0 - h, base.y1))
    if side == "left":
        x = base.x0 - w
    elif side == "right":
        x = base.x1
    elif side == "below":
        y = base.y0 - h
    elif side == "above":
        y = base.y1
    return Rect(x, y, x + w, y + h)


@st.composite
def layouts(draw):
    """Small multi-layer layouts: shapes that touch, overlap and nearly
    touch; contacts on conductor stacks and butting contacts on
    poly/diffusion crossings; implants over crossings and loose."""
    rects = {layer: [] for layer in _CONDUCTORS}
    implants, drains = [], []
    for _ in range(draw(st.integers(0, 3))):
        # A transistor drawn as a diffusion bar crossed by a poly bar.
        x, y = draw(st.integers(0, 16)), draw(st.integers(0, 12))
        w, gate = draw(st.integers(1, 5)), draw(st.integers(1, 4))
        over = draw(st.integers(0, 3))
        at = draw(st.integers(1, 6))
        rects[Layer.DIFFUSION].append(Rect(x, y, x + w, y + 8))
        rects[Layer.POLY].append(
            Rect(x - over, y + at, x + w + over, y + at + gate))
        drains.append(Point(x, y + 8))
        if draw(st.booleans()):  # a depletion device
            implants.append(Rect(x - over - 2, y, x + w + over + 2, y + 8))
    for layer in _CONDUCTORS:
        shapes = rects[layer]
        for _ in range(draw(st.integers(0, 5))):
            if shapes and draw(st.booleans()):
                shapes.append(draw(_abutting(draw(st.sampled_from(shapes)))))
            else:
                shapes.append(draw(_rect()))
    rects = {layer: shapes for layer, shapes in rects.items() if shapes}
    poly = rects.get(Layer.POLY, [])
    diff = rects.get(Layer.DIFFUSION, [])
    crossings = [
        o for p in poly for d in diff
        for o in [p.intersection(d)] if o is not None
    ]
    anchors = crossings + [r for layer in _CONDUCTORS
                           for r in rects.get(layer, [])]
    cuts = []
    for _ in range(draw(st.integers(0, 5))):
        if anchors and draw(st.integers(0, 3)):
            a = draw(st.sampled_from(anchors))
            x = draw(st.integers(a.x0 - 1, a.x1 - 1))
            y = draw(st.integers(a.y0 - 1, a.y1 - 1))
            size = draw(st.sampled_from([2, 2, 2, 1, 3]))
            cuts.append(Rect(x, y, x + size, y + size))
        else:
            cuts.append(draw(_rect(max_w=3)))
    if cuts:
        rects[Layer.CONTACT] = cuts
    for _ in range(draw(st.integers(0, 2))):
        if crossings and draw(st.booleans()):
            c = draw(st.sampled_from(crossings))
            g = draw(st.integers(0, 3))
            implants.append(Rect(c.x0 - g, c.y0 - g, c.x1 + g, c.y1 + g))
        else:
            implants.append(draw(_rect()))
    if implants:
        rects[Layer.IMPLANT] = implants
    ports = {}
    names = ["VDD", "GND", "a", "b", "a_r", "q"]
    for pname in draw(st.lists(st.sampled_from(names), unique=True,
                               max_size=5)):
        layer = draw(st.sampled_from(_CONDUCTORS))
        if pname == "VDD" and drains and draw(st.booleans()):
            ports[pname] = (draw(st.sampled_from(drains)), Layer.DIFFUSION)
            continue
        if rects.get(layer) and draw(st.integers(0, 3)):
            r = draw(st.sampled_from(rects[layer]))
            at = Point(draw(st.integers(r.x0, r.x1)),
                       draw(st.integers(r.y0, r.y1)))
        else:
            at = Point(draw(st.integers(0, _SIDE)), draw(st.integers(0, _SIDE)))
        ports[pname] = (at, layer)
    return rects, ports


@settings(max_examples=300, deadline=None)
@given(layouts())
def test_random_layouts_match_the_reference(layout):
    rects, ports = layout
    _assert_same(rects, ports)


def test_custom_rules_widen_the_shared_pass():
    """A checker with wider spacing rules than the defaults asks the
    shared pass for more, and still reads every close pair."""
    rects = {
        Layer.METAL: [Rect(0, 0, 4, 4), Rect(8, 0, 12, 4), Rect(9, 0, 12, 4)],
        Layer.POLY: [Rect(0, 10, 4, 12), Rect(5, 10, 9, 12)],
    }
    rules = dict(DesignRuleChecker().rules, **{"metal-spacing": 5,
                                               "poly-spacing": 0})
    geom = CellGeometry(rects)
    extract(geom)  # the default-rule pass runs first
    got = DesignRuleChecker(rules=rules).check(geom)
    assert repr(got) == repr(ref.DesignRuleChecker(rules=rules).check(rects))
    assert [v.rule for v in got] == ["metal-spacing"]


# -- generated cells -------------------------------------------------------------

def _twins():
    """Every distinct cell twin the compiler generates for the chip_flow
    design points and the CI signoff designs, plus the prototype cells."""
    twins = {}
    for kind in ("comparator", "accumulator"):
        for positive in (True, False):
            b = cell_bundle(kind, positive)
            twins[b.name] = b
    for kernel, cells, char_bits, data_bits in (
        ("match", 8, 2, 2), ("count", 4, 2, 2), ("inner-product", 4, 2, 1),
        ("match", 16, 4, 2), ("inner-product", 6, 2, 2),
    ):
        chip = compile_workload(kernel, cells, char_bits=char_bits,
                                data_bits=data_bits)
        for name, b in chip.bundles.items():
            twins.setdefault(name, b)
    return [twins[name] for name in sorted(twins)]


@pytest.mark.parametrize("bundle", _twins(), ids=lambda b: b.name)
def test_cell_twins_match_the_reference(bundle):
    layout = bundle.layout
    _assert_same(layout.rects, layout.ports, name=f"{layout.name}.extracted")


# -- mutants -----------------------------------------------------------------------

class _FrozenChecker(ref.DesignRuleChecker):
    """The frozen checker, handed the shared geometry's rect lists."""

    def check(self, rects_by_layer):
        return super().check(getattr(rects_by_layer, "rects", rects_by_layer))


@pytest.fixture
def reference_signoff(monkeypatch):
    """The pipeline with the frozen DRC and extractor in its geometry
    stages; every other stage is the pipeline's own."""
    monkeypatch.setattr(
        pipeline, "extract_cell",
        lambda layout, geometry=None: ref.extract_cell(layout),
    )
    signoff = Signoff()
    signoff.drc = _FrozenChecker()
    return signoff


def _stages(report):
    return repr([(s.stage, s.findings) for s in report.stages])


@pytest.mark.parametrize("name", mutant_names())
def test_mutants_report_what_the_reference_reports(name, reference_signoff):
    mutation, got = run_mutant(name)
    _m, want = run_mutant(name, reference_signoff)
    assert _stages(got) == _stages(want)
    stage = got.stage(mutation.stage)
    assert any(mutation.rule in f.rule for f in stage.errors)


@pytest.mark.parametrize("kernel", ["match", "count", "inner-product"])
@pytest.mark.parametrize("name", sorted(LAYOUT_MUTANTS))
def test_mutants_of_generated_cells_match_the_reference(
    kernel, name, reference_signoff
):
    """The layout defects planted in a compiled design's result cell, as
    ``run_design_mutants`` plants them."""
    chip = compile_workload(kernel, 3, char_bits=1, data_bits=1)
    bundle = chip.bundles[f"{chip.library.result_cell.name}_pos"]
    _mutation, mutated = LAYOUT_MUTANTS[name](bundle)
    got = Signoff().run_cell(bundle=mutated)
    assert _stages(got) == _stages(reference_signoff.run_cell(bundle=mutated))
