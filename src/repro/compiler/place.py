"""Placement: recover the array grid from the ``net_to_cells`` graph.

The placer deliberately does *not* trust instance names.  It derives the
grid the way a traveller would map the chip: start at a chip input pin,
follow the stream from cell to cell, and record the order of arrival.
The result row is the walk of the ``lam`` chain from ``LAM_IN``; each
comparator row is the walk of its ``P_IN<j>`` chain; the ``d`` chains
are then checked column by column so a mis-wired elaboration is caught
here, as a placement error, before any silicon is generated.

Polarity and clocking fall out of the grid: cell (column *i*, row *j*)
is the positive twin when ``(i + j)`` is even and fires on clock phase
``phi[(i + j) % 2]`` -- the checkerboard discipline of Figure 3-4, with
the result row at index ``w``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..chip.chip import ChipSpec
from ..errors import CompileError
from .ir import CONST_ONE, LogicalDesign, build_net_to_cells

__all__ = ["Placement", "place"]


@dataclass
class Placement:
    """The recovered grid: instance -> (column, row) and back.

    Row indices follow the polarity scheme: comparator row 0 on top,
    the result row at index ``w_rows``.
    """

    columns: int
    w_rows: int
    loc: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    grid: Dict[Tuple[int, int], str] = field(default_factory=dict)

    @property
    def result_row(self) -> int:
        return self.w_rows

    def is_positive(self, inst: str) -> bool:
        i, j = self.loc[inst]
        return (i + j) % 2 == 0

    def phase_index(self, inst: str) -> int:
        i, j = self.loc[inst]
        return (i + j) % 2

    def row(self, j: int) -> List[str]:
        return [self.grid[(i, j)] for i in range(self.columns)]


def _walk_chain(
    graph: Dict[str, List[Tuple[str, str]]],
    design: LogicalDesign,
    start_net: str,
    in_port: str,
    out_port: str,
) -> List[str]:
    """Follow a rightward stream from a chip input pin to the output pin."""
    order: List[str] = []
    net = start_net
    seen = set()
    while True:
        sinks = [(i, p) for i, p in graph.get(net, []) if p == in_port]
        if not sinks:
            if net in design.ports and design.ports[net] == "out":
                return order
            raise CompileError(
                f"stream chain from {start_net!r} dead-ends at net {net!r}"
            )
        if len(sinks) > 1:
            raise CompileError(
                f"net {net!r} fans out to {len(sinks)} {in_port!r} sinks"
            )
        inst = sinks[0][0]
        if inst in seen:
            raise CompileError(f"stream chain from {start_net!r} loops at {inst!r}")
        seen.add(inst)
        order.append(inst)
        net = design.cells[inst]["connections"][out_port]


def place(design: LogicalDesign, spec: ChipSpec) -> Placement:
    """Derive the grid from the IR connectivity and verify it is an array.

    >>> from .ir import elaborate
    >>> spec = ChipSpec(3, char_bits=1)
    >>> p = place(elaborate(spec), spec)
    >>> p.row(1)
    ['a0', 'a1', 'a2']
    >>> p.loc["c2_0"], p.is_positive("c2_0")
    ((2, 0), True)
    """
    graph = build_net_to_cells(design)
    m, w = spec.cells, spec.w_rows

    result_row = _walk_chain(graph, design, "LAM_IN", "lam_in", "lam_out")
    if len(result_row) != m:
        raise CompileError(
            f"lam chain visits {len(result_row)} cells; spec says {m} columns"
        )
    rows: List[List[str]] = []
    for j in range(w):
        row = _walk_chain(graph, design, f"P_IN{j}", "p_in", "p_out")
        if len(row) != m:
            raise CompileError(
                f"row {j} p chain visits {len(row)} cells; spec says {m}"
            )
        rows.append(row)
    rows.append(result_row)

    pl = Placement(columns=m, w_rows=w)
    for j, row in enumerate(rows):
        for i, inst in enumerate(row):
            if inst in pl.loc:
                raise CompileError(f"instance {inst!r} appears in two rows")
            pl.loc[inst] = (i, j)
            pl.grid[(i, j)] = inst
    if len(pl.loc) != len(design.cells):
        missing = sorted(set(design.cells) - set(pl.loc))
        raise CompileError(f"instances unreachable from any chain: {missing}")

    # Column alignment: each cell's d chain must fall straight down.
    for j in range(w):
        for i in range(m):
            inst = pl.grid[(i, j)]
            conns = design.cells[inst]["connections"]
            if j == 0 and conns["d_in"] != CONST_ONE:
                raise CompileError(
                    f"row 0 cell {inst!r} d_in is {conns['d_in']!r}, "
                    f"expected the constant net"
                )
            below = pl.grid[(i, j + 1)]
            below_d = design.cells[below]["connections"]["d_in"]
            if conns["d_out"] != below_d:
                raise CompileError(
                    f"d chain broken at column {i}: {inst!r} drives "
                    f"{conns['d_out']!r} but {below!r} listens on {below_d!r}"
                )
    return pl
