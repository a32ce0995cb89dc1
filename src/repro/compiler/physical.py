"""Physical assembly: bundles, floorplan, and CIF for a placed design.

Each library cell type is lowered to its two physical twins (circuit ->
sticks -> layout, by the same mechanical generators that built the
prototype cells), and the placed grid is handed to the generic
:class:`~repro.layout.assembly.ArrayAssembler`: result row at the
bottom, comparator rows above with row 0 on top, one pad per chip port
plus power and clocks -- the Plate 2 arrangement at whatever size the
spec asked for.
"""

from __future__ import annotations

from typing import Dict, List

from ..chip.chip import ChipSpec
from ..layout.assembly import ArrayAssembler
from ..layout.cells import CellBundle
from .ir import LogicalDesign
from .library import Library
from .place import Placement

__all__ = ["build_bundles", "build_assembler"]


def build_bundles(library: Library) -> Dict[str, CellBundle]:
    """Both physical twins of every library cell, keyed by twin name."""
    bundles: Dict[str, CellBundle] = {}
    for ct in library.cell_types().values():
        for positive in (True, False):
            b = ct.bundle(positive)
            bundles[b.name] = b
    return bundles


def build_assembler(
    spec: ChipSpec,
    design: LogicalDesign,
    placement: Placement,
    bundles: Dict[str, CellBundle],
) -> ArrayAssembler:
    """Floorplan the placed grid and ring it with pads."""
    layouts = {name: b.layout for name, b in bundles.items()}
    w = placement.w_rows

    def twin_name(inst: str) -> str:
        cell_type = design.cells[inst]["type"]
        suffix = "pos" if placement.is_positive(inst) else "neg"
        return f"{cell_type}_{suffix}"

    # Bottom row first: the result row, then comparator rows w-1 .. 0.
    rows: List[List[str]] = [[twin_name(i) for i in placement.row(w)]]
    for j in range(w - 1, -1, -1):
        rows.append([twin_name(i) for i in placement.row(j)])

    pins = ["VDD", "GND", "PHI1", "PHI2"] + list(design.ports)
    return ArrayAssembler(layouts, rows, pins, name=spec.name)
