"""The hierarchical assembly audit against the flat one.

``Signoff.assembly_stage_for`` reads the emitted CIF symbol by symbol
and joins instances at their seams; ``flat_assembly.flat_assembly_stage``
flattens the die and extracts it whole.  Every finding -- rule,
severity, detail text -- must be the same, on clean chips and on
geometry edited across an abutment seam.
"""

from __future__ import annotations

import dataclasses
import random
import re

import pytest

from repro.compiler import compile_workload
from repro.layout.assembly import ArrayAssembler
from repro.layout.cells import CellLayout
from repro.layout.design_rules import CellGeometry
from repro.layout.geometry import Point, Rect
from repro.layout.layers import Layer
from repro.signoff.pipeline import Signoff

from flat_assembly import flat_assembly_stage
from perfbench.inputs import design_points


def _designs():
    """(kernel, cells, char_bits, data_bits, name) for every chip_flow
    design point, the three CI signoff designs and the Plate 2 prototype."""
    points = {
        (p.kernel, p.cells, p.char_bits, p.data_bits, "")
        for seed in (1, 11) for p in design_points(seed)
    }
    points |= {
        ("match", 8, 2, 2, ""),
        ("match", 16, 4, 2, ""),
        ("inner-product", 6, 2, 2, ""),
        ("match", 8, 2, 2, "prototype"),
    }
    return sorted(points)


@pytest.fixture(scope="module")
def signoff():
    return Signoff()


@pytest.fixture(scope="module")
def match_chip():
    return compile_workload("match", 4, char_bits=2)


def _findings(stage):
    return repr(stage.findings)


def _extracted(signoff, chip):
    """(geometry, nets) of every cell twin, as ``run_design`` hands them
    to the assembly audit."""
    out = []
    for name in sorted(chip.bundles):
        _stage, ex = signoff.extraction_stage(chip.bundles[name])
        out.append((chip.bundles[name].layout.rects, ex.nets))
    return out


@pytest.mark.parametrize("kernel,cells,char_bits,data_bits,name", _designs())
def test_findings_equal_the_flat_audit(signoff, kernel, cells, char_bits,
                                       data_bits, name):
    chip = compile_workload(kernel, cells, char_bits=char_bits,
                            data_bits=data_bits, name=name)
    want = _findings(flat_assembly_stage(chip.assembler))
    assert _findings(signoff.assembly_stage_for(chip.assembler)) == want
    # As run_design calls it: the per-bundle extractions are reused.
    got = signoff.assembly_stage_for(
        chip.assembler, _extracted(signoff, chip)
    )
    assert _findings(got) == want
    assert got.ok


class _Emits(ArrayAssembler):
    """*asm*'s library and floorplan, emitting the CIF *rewrite* makes of
    an assembler whose first placed instance is a copy edited by *edit*."""

    def __init__(self, asm, edit=None, rewrite=None):
        super().__init__(asm._cells, asm._rows, asm.pin_names(), asm.name)
        cells, rows = dict(asm._cells), [list(row) for row in asm._rows]
        if edit is not None:
            cell = asm._cells[asm._rows[0][0]]
            rects = {layer: list(rs) for layer, rs in cell.rects.items()}
            edit(asm, rects)
            cells["edited"] = dataclasses.replace(cell, name="edited",
                                                  rects=rects)
            rows[0][0] = "edited"
        self._emitted = ArrayAssembler(cells, rows, asm.pin_names(), asm.name)
        self._rewrite = rewrite or (lambda text: text)

    def to_cif(self) -> str:
        return self._rewrite(self._emitted.to_cif())


def _neighbour(asm):
    """The second instance of the bottom row: its name and x offset
    from the first (both rows start at x = 0)."""
    cname, x, _y = asm.floorplan().cell_instances[1]
    return asm._cells[cname], x


def _both(signoff, chip, asm):
    """The audit of *asm*, checked against the flat one with and without
    *chip*'s cell extractions to reuse (an edited symbol matches none)."""
    want = _findings(flat_assembly_stage(asm))
    for known in ((), _extracted(signoff, chip)):
        stage = signoff.assembly_stage_for(asm, known)
        assert _findings(stage) == want
    return stage


@pytest.mark.parametrize("legs,shorted", [(4, True), (3, False)])
def test_strap_across_a_seam_shorts_the_rails(signoff, match_chip, legs,
                                              shorted):
    """A metal strap from the first instance's VDD rail, round the left
    end of its GND rail and under it, over the seam into the neighbour
    and up to the neighbour's GND rail.  Without that last leg the edited
    symbol is clean: the short is made at the seam."""
    def strap(asm, rects):
        cell = asm._cells[asm._rows[0][0]]
        _other, pitch = _neighbour(asm)
        (vx, vy), _ = cell.ports["VDD"]
        left = min(r.x0 for r in rects[Layer.METAL]) - 4
        low = min(r.y0 for r in rects[Layer.METAL]) - 5
        rects[Layer.METAL] += [
            Rect(left, vy - 1, vx, vy + 2),
            Rect(left, low, left + 3, vy + 2),
            Rect(left, low, pitch + 7, low + 3),
            Rect(pitch + 4, low, pitch + 7, low + 6),
        ][:legs]

    stage = _both(signoff, match_chip,
                  _Emits(match_chip.assembler, edit=strap))
    shorts = [f.severity for f in stage.findings if f.rule == "rail-short"]
    assert shorts == (["error"] if shorted else [])


def test_cut_in_the_neighbour_joins_its_rail(signoff, match_chip):
    def poly_strap(asm, rects):
        # Metal from the first instance's VDD rail to a poly strap, cut
        # to it; the strap runs under the row into the neighbour, where a
        # second cut drawn by the first instance lands on the neighbour's
        # GND rail.  Only that cut joins the two: no same-layer shapes
        # touch across the seam.
        cell = asm._cells[asm._rows[0][0]]
        _other, pitch = _neighbour(asm)
        (vx, vy), _ = cell.ports["VDD"]
        (_gx, gy), _ = cell.ports["GND"]
        left = min(r.x0 for r in rects[Layer.METAL]) - 6
        low = min(r.y0 for r in rects[Layer.METAL]) - 5
        rects[Layer.METAL].append(Rect(left, vy - 1, vx, vy + 2))
        rects[Layer.POLY] += [
            Rect(left, low, left + 3, vy + 2),
            Rect(left, low, pitch + 8, low + 2),
            Rect(pitch + 4, low, pitch + 8, gy + 2),
        ]
        rects[Layer.CONTACT] += [
            Rect(left + 1, vy - 1, left + 3, vy + 1),
            Rect(pitch + 5, gy - 1, pitch + 7, gy + 1),
        ]

    stage = _both(signoff, match_chip,
                  _Emits(match_chip.assembler, edit=poly_strap))
    assert [f.severity for f in stage.findings
            if f.rule == "rail-short"] == ["error"]


def _finger(asm, first):
    """A 2-lambda poly finger from inside the first instance across the
    seam and over one of the neighbour's diffusion shapes, placed where
    it makes one more channel."""
    other, pitch = _neighbour(asm)
    near = {
        layer: first.get(layer, []) + [r.translated(pitch, 0) for r in rs]
        for layer, rs in other.rects.items()
    }

    def channels(extra=()):
        poly = near[Layer.POLY] + list(extra)
        return len(CellGeometry({**near, Layer.POLY: poly}).channels)

    before = channels()
    for d in sorted(other.rects[Layer.DIFFUSION], key=lambda r: r.x0):
        for y in range(d.y0, d.y1 - 1):
            finger = Rect(pitch - 4, y, pitch + d.x1 + 1, y + 2)
            if channels([finger]) == before + 1:
                return finger
    raise AssertionError("no place for a finger")


def test_poly_finger_over_the_neighbours_diffusion(signoff, match_chip):
    def finger(asm, rects):
        rects[Layer.POLY].append(_finger(asm, rects))

    stage = _both(signoff, match_chip,
                  _Emits(match_chip.assembler, edit=finger))
    census = [(f.severity, f.detail) for f in stage.findings
              if f.rule == "cif-census"]
    assert census == [(
        "error",
        "flat CIF has 241 transistor channels; the floorplan promises 240",
    )]


def test_call_at_an_odd_half_lambda_offset(signoff, match_chip):
    def nudge_first_call(text):
        # The first call in the file places the chip's first instance.
        return re.sub(
            r"^C (\d+) T (-?\d+) (-?\d+);$",
            lambda m: f"C {m[1]} T {int(m[2]) + 1} {m[3]};",
            text, count=1, flags=re.M,
        )

    stage = _both(signoff, match_chip, _Emits(
        match_chip.assembler, rewrite=nudge_first_call,
    ))
    assert [f.severity for f in stage.findings
            if f.rule == "cif-grid"] == ["error"]


def test_seeded_shapes_across_a_seam(signoff):
    """Seeded shapes of every conducting layer dropped across the first
    seam of a small chip, by the first instance: whatever devices, shorts
    or merges they make, both audits report alike."""
    chip = compile_workload("match", 2, char_bits=2)
    asm = chip.assembler
    _other, pitch = _neighbour(asm)
    height = asm._cells[asm._rows[0][0]].height
    layers = (Layer.POLY, Layer.DIFFUSION, Layer.METAL, Layer.CONTACT)
    rng = random.Random(27)
    errors = set()
    for _case in range(20):
        shapes = []
        for _ in range(rng.randint(1, 6)):
            layer = rng.choice(layers)
            x0 = rng.randint(pitch - 30, pitch + 30)
            y0 = rng.randint(-6, height + 4)
            w, h = ((2, 2) if layer is Layer.CONTACT
                    else (rng.randint(2, 40), rng.randint(2, 40)))
            shapes.append((layer, Rect(x0, y0, x0 + w, y0 + h)))

        def edit(asm, rects, shapes=shapes):
            for layer, r in shapes:
                rects.setdefault(layer, []).append(r)

        stage = _both(signoff, chip, _Emits(asm, edit=edit))
        errors |= {f.rule for f in stage.findings if f.severity == "error"}
    assert {"cif-census", "rail-short"} <= errors


def _pair(a_extra, b_extra):
    """Two 20 x 20 lambda cells abutted in one row, each with a GND rail
    along its bottom and a VDD rail along its top, plus extra shapes
    given in the cell's own coordinates (b sits at x = 20)."""

    def cell(name, extra):
        rects = {Layer.METAL: [Rect(0, 0, 20, 3), Rect(0, 17, 20, 20)]}
        for layer, r in extra:
            rects.setdefault(layer, []).append(r)
        ports = {"GND": (Point(1, 1), Layer.METAL),
                 "VDD": (Point(1, 19), Layer.METAL)}
        return CellLayout(name, rects, ports, 20, 20)

    return ArrayAssembler({"a": cell("a", a_extra), "b": cell("b", b_extra)},
                          [["a", "b"]], ["VDD", "GND"], name="pair")


def _flat_equal(signoff, asm):
    stage = signoff.assembly_stage_for(asm)
    assert _findings(stage) == _findings(flat_assembly_stage(asm))
    return {(f.rule, f.detail) for f in stage.findings}


def _gate(r):
    return [(Layer.POLY, r), (Layer.DIFFUSION, r)]


def test_gates_touching_across_a_seam_are_one_channel(signoff):
    """Each cell's gate ends on the seam; the flat read merges the two."""
    findings = _flat_equal(signoff, _pair(_gate(Rect(14, 8, 20, 12)),
                                          _gate(Rect(0, 8, 6, 12))))
    assert ("cif-census", "flat CIF has 1 transistor channels; the "
            "floorplan promises 2") in findings


def test_cut_over_the_neighbours_gate_butts_it(signoff):
    findings = _flat_equal(signoff, _pair([(Layer.CONTACT,
                                            Rect(22, 9, 24, 11))],
                                          _gate(Rect(0, 8, 6, 12))))
    assert ("cif-census", "flat CIF has 0 transistor channels; the "
            "floorplan promises 1") in findings


def test_channel_box_over_the_neighbours_diffusion_cuts_it(signoff):
    """Cell b ties its rails together through an L of diffusion.  Two
    gates of cell a that touch at a corner make one channel whose box
    covers the L's corner (though neither gate does), so the flat read
    cuts the L in two and finds no short."""
    a = _gate(Rect(26, 8, 30, 10)) + _gate(Rect(30, 10, 32, 14))
    b = [
        (Layer.DIFFUSION, Rect(2, 11, 8, 12)),
        (Layer.DIFFUSION, Rect(7, 11, 8, 18)),
        (Layer.CONTACT, Rect(2, 11, 3, 12)),
        (Layer.CONTACT, Rect(7, 16, 8, 17)),
        (Layer.METAL, Rect(2, 0, 3, 12)),
        (Layer.METAL, Rect(7, 16, 8, 20)),
    ]
    assert ("rail-short", "VDD and GND rails share 1 net(s): the assembly "
            "shorts the supplies") in _flat_equal(signoff, _pair([], b))
    assert "rail-short" not in {
        rule for rule, _detail in _flat_equal(signoff, _pair(a, b))
    }


def test_poly_inside_the_neighbours_channel_box_merges_its_gates(signoff):
    """Cell b has two channels: two gates touching at a corner, whose box
    holds a bare patch of diffusion, and a third gate beside the box.
    Cell a's poly over the patch makes a gate touching all three."""
    a = [(Layer.POLY, Rect(26, 10, 30, 13))]
    b = (_gate(Rect(6, 8, 10, 10)) + _gate(Rect(10, 10, 12, 14))
         + _gate(Rect(4, 11, 6, 13))
         + [(Layer.DIFFUSION, Rect(6, 10, 10, 14))])
    assert not any(rule == "cif-census" and "promises" in detail
                   for rule, detail in _flat_equal(signoff, _pair([], b)))
    assert ("cif-census", "flat CIF has 1 transistor channels; the "
            "floorplan promises 2") in _flat_equal(signoff, _pair(a, b))
