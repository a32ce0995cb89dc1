"""Chip assembly: the Plate 2 floorplan.

"When the layouts for all cells are complete, they are assembled into a
working array with the inputs and outputs hooked to contact pads."  The
assembler places rows of cells -- for the prototype, the comparator rows
over the accumulator row in the Figure 3-3/3-4 arrangement with polarity
alternating by column parity, as laid out by
:mod:`repro.compiler.physical` -- rings the array with bonding pads, and
emits the whole chip as CIF -- one symbol per cell type, instantiated by
translation, which is exactly the replication economy the paper's design
philosophy predicts ("most of the cells on a chip are copies of a few
basic ones").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import LayoutError
from .cells import CellLayout
from .cif import CIFWriter
from .geometry import Rect
from .layers import Layer

#: Bonding pad dimensions (lambda); Mead & Conway suggest ~100 um pads,
#: i.e. 40 lambda at lambda = 2.5 um.
PAD_SIZE = 40
PAD_PITCH = 60

#: Vertical gap between abutted cell rows.  Each cell's GND rail rect
#: reaches 1 lambda below its origin and its VDD rail 2 lambda above its
#: height, so butting rows would overlap the two supply rails -- a dead
#: short the signoff extractor flags.  Four lambda keeps the rails at the
#: 3-lambda metal spacing rule.
ROW_GAP = 4


@dataclass
class ChipFloorplan:
    """Placement result: cell instances, pads, and area accounting."""

    name: str
    columns: int
    bit_rows: int
    cell_instances: List[Tuple[str, int, int]] = field(default_factory=list)
    pads: List[Tuple[str, Rect]] = field(default_factory=list)
    core_width: int = 0
    core_height: int = 0
    die_width: int = 0
    die_height: int = 0

    @property
    def core_area(self) -> int:
        return self.core_width * self.core_height

    @property
    def die_area(self) -> int:
        return self.die_width * self.die_height

    @property
    def n_cells(self) -> int:
        return len(self.cell_instances)

    @property
    def n_pads(self) -> int:
        return len(self.pads)


class ArrayAssembler:
    """Floorplan + CIF for any rectangular array of library cells.

    The engine behind every compiled chip's floorplan, the Plate 2
    prototype included (:mod:`repro.compiler.physical`):

    ``cells``
        Library of placeable layouts, keyed by cell name.
    ``rows``
        The array, bottom row first; each row is a list of cell names,
        one per column, all rows the same length.  Columns share one
        pitch (the widest library cell) so twins abut interchangeably --
        the "exterior details such as size ... must be known" boundary of
        Section 4.
    ``pins``
        Bonding-pad names, ringed around the die in order.
    """

    def __init__(
        self,
        cells: Dict[str, CellLayout],
        rows: List[List[str]],
        pins: List[str],
        name: str = "array",
    ):
        if not rows or not rows[0]:
            raise LayoutError("array needs at least one row and one column")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise LayoutError("every array row needs the same column count")
            for cname in row:
                if cname not in cells:
                    raise LayoutError(f"unknown cell {cname!r} in array rows")
        self._cells = dict(cells)
        self._rows = [list(row) for row in rows]
        self._pins = list(pins)
        self.name = name
        self.columns = width
        self.bit_rows = len(rows) - 1

    def pin_names(self) -> List[str]:
        """The bonding-pad inventory, in placement order."""
        return list(self._pins)

    # -- floorplan ------------------------------------------------------------------

    def floorplan(self) -> ChipFloorplan:
        # One column pitch for the whole array (the twins of a cell type
        # may differ slightly in net count, so sizes are bounded over the
        # library); each row is as tall as its tallest cell.
        col_w = max(c.width for c in self._cells.values())
        fp = ChipFloorplan(self.name, self.columns, self.bit_rows)
        y = 0
        for row in self._rows:
            row_h = max(self._cells[cname].height for cname in row)
            for i, cname in enumerate(row):
                fp.cell_instances.append((cname, i * col_w, y))
            y += row_h + ROW_GAP
        fp.core_width = self.columns * col_w
        fp.core_height = y - ROW_GAP
        self._place_pads(fp)
        return fp

    def _place_pads(self, fp: ChipFloorplan) -> None:
        pins = self.pin_names()
        margin = PAD_SIZE + 20
        fp.die_width = fp.core_width + 2 * margin
        fp.die_height = fp.core_height + 2 * margin
        # Ring the die, greedily: bottom, right, top, left.
        per_side = -(-len(pins) // 4)
        fp.die_width = max(fp.die_width, per_side * PAD_PITCH + 2 * margin)
        fp.die_height = max(fp.die_height, per_side * PAD_PITCH + 2 * margin)
        sides = []
        for k in range(per_side):
            sides.append((margin + k * PAD_PITCH, 0))                       # bottom
        for k in range(per_side):
            sides.append((fp.die_width - PAD_SIZE, margin + k * PAD_PITCH))  # right
        for k in range(per_side):
            sides.append((margin + k * PAD_PITCH, fp.die_height - PAD_SIZE))  # top
        for k in range(per_side):
            sides.append((0, margin + k * PAD_PITCH))                        # left
        for pin, (x, y) in zip(pins, sides):
            fp.pads.append((pin, Rect(x, y, x + PAD_SIZE, y + PAD_SIZE)))

    # -- CIF emission ---------------------------------------------------------------

    def to_cif(self) -> str:
        """The whole chip as CIF text (one symbol per cell type + pads)."""
        fp = self.floorplan()
        writer = CIFWriter()
        cell_symbols: Dict[str, object] = {}
        for cname, layout in self._cells.items():
            sym = writer.new_symbol(cname)
            for layer, rects in layout.rects.items():
                for r in rects:
                    sym.add_box(layer, r)
            cell_symbols[cname] = sym
        pad_sym = writer.new_symbol("pad")
        pad_sym.add_box(Layer.METAL, Rect(0, 0, PAD_SIZE, PAD_SIZE))
        pad_sym.add_box(
            Layer.OVERGLASS, Rect(4, 4, PAD_SIZE - 4, PAD_SIZE - 4)
        )
        chip = writer.new_symbol(self.name)
        margin_x = (fp.die_width - fp.core_width) // 2
        margin_y = (fp.die_height - fp.core_height) // 2
        for cname, x, y in fp.cell_instances:
            chip.call(cell_symbols[cname].symbol_id, x + margin_x, y + margin_y)
        for _pin, rect in fp.pads:
            chip.call(pad_sym.symbol_id, rect.x0, rect.y0)
        writer.place(chip, 0, 0)
        return writer.render()

    def area_report(self) -> Dict[str, float]:
        """Area accounting for the Plate 2 bench (lambda^2 and mm^2 at
        lambda = 2.5 um)."""
        fp = self.floorplan()
        lam_mm = 2.5e-3
        return {
            "columns": self.columns,
            "bit_rows": self.bit_rows,
            "cells": fp.n_cells,
            "core_area_lambda2": fp.core_area,
            "die_area_lambda2": fp.die_area,
            "core_area_mm2": fp.core_area * lam_mm ** 2,
            "die_area_mm2": fp.die_area * lam_mm ** 2,
            "pads": fp.n_pads,
        }
