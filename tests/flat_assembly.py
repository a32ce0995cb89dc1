"""The flat assembly audit: the oracle for ``Signoff.assembly_stage_for``.

It flattens the emitted CIF and extracts the whole die as one
:class:`ConductorNets`, which is how the signoff pipeline audited a chip
before it read the CIF symbol by symbol.  The hierarchical audit must
report exactly what this one does, finding for finding.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from repro.layout.cif import parse_cif
from repro.layout.design_rules import gate_channels
from repro.layout.geometry import Point, Rect, RectIndex
from repro.layout.layers import Layer
from repro.signoff.extract import ConductorNets
from repro.signoff.report import StageReport


def flat_assembly_stage(asm) -> StageReport:
    """Assembly audits of *asm* over its flattened CIF."""
    stage = StageReport("assembly")
    fp = asm.floorplan()

    boxes = []
    for cname, x, y in fp.cell_instances:
        cell = asm._cells[cname]
        boxes.append(Rect(x, y, x + cell.width, y + cell.height))
    index = RectIndex(boxes)
    overlaps = 0
    for i, r in enumerate(boxes):
        for j in index.near(r):
            if j > i and r.intersects(boxes[j]):
                overlaps += 1
                stage.add(
                    "floorplan-overlap",
                    "error",
                    f"instances {fp.cell_instances[i]} and "
                    f"{fp.cell_instances[j]} overlap",
                )
    die = Rect(0, 0, fp.die_width, fp.die_height)
    for pin, rect in fp.pads:
        if not die.contains(rect):
            stage.add(
                "floorplan-pad",
                "error",
                f"pad {pin} at {rect} falls outside the die {die}",
                where=pin,
            )
    if fp.n_pads != len(asm.pin_names()):
        stage.add(
            "floorplan-pad",
            "error",
            f"{fp.n_pads} pads placed for {len(asm.pin_names())} pins",
        )
    else:
        stage.add(
            "floorplan",
            "info",
            f"{fp.n_cells} cells, {fp.n_pads} pads, no overlaps"
            if not overlaps
            else f"{fp.n_cells} cells, {fp.n_pads} pads",
        )

    parsed = parse_cif(asm.to_cif())
    flat_half = parsed.flatten()
    flat: Dict[Layer, list] = {}
    odd = False
    for layer, rects in flat_half.items():
        halved = []
        for r in rects:
            if any(v % 2 for v in (r.x0, r.y0, r.x1, r.y1)):
                odd = True
                continue
            halved.append(Rect(r.x0 // 2, r.y0 // 2, r.x1 // 2, r.y1 // 2))
        flat[layer] = halved
    if odd:
        stage.add(
            "cif-grid",
            "error",
            "flattened CIF geometry is off the half-lambda grid",
        )
    placed = Counter(cname for cname, _x, _y in fp.cell_instances)
    expected = 0
    for cname, count in placed.items():
        cell = asm._cells[cname]
        expected += count * len(
            gate_channels(
                cell.rects.get(Layer.POLY, []),
                cell.rects.get(Layer.DIFFUSION, []),
                cell.rects.get(Layer.CONTACT, []),
            )
        )
    nets = ConductorNets(flat)
    found = len(nets.channels)
    if found != expected:
        stage.add(
            "cif-census",
            "error",
            f"flat CIF has {found} transistor channels; the floorplan "
            f"promises {expected}",
        )
    else:
        stage.add(
            "cif-census", "info", f"{found} transistor channels on the die"
        )

    margin_x = (fp.die_width - fp.core_width) // 2
    margin_y = (fp.die_height - fp.core_height) // 2
    vdd_nets, gnd_nets = set(), set()
    open_rails = 0
    for cname, x, y in fp.cell_instances:
        cell = asm._cells[cname]
        for pname, bucket in (("VDD", vdd_nets), ("GND", gnd_nets)):
            point, layer = cell.ports[pname]
            nid = nets.net_at(
                Point(point.x + x + margin_x, point.y + y + margin_y),
                layer,
            )
            if nid is None:
                open_rails += 1
                stage.add(
                    "rail-open",
                    "error",
                    f"{pname} rail probe of {cname} at ({x},{y}) hits "
                    "no metal",
                    where=cname,
                )
            else:
                bucket.add(nid)
    shorted = vdd_nets & gnd_nets
    if shorted:
        stage.add(
            "rail-short",
            "error",
            f"VDD and GND rails share {len(shorted)} net(s): the "
            "assembly shorts the supplies",
        )
    elif not open_rails:
        stage.add(
            "rail-isolation",
            "info",
            f"{len(vdd_nets)} VDD rail net(s), {len(gnd_nets)} GND rail "
            "net(s), disjoint",
        )
    return stage
