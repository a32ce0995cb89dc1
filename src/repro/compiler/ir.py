"""The compiler's intermediate representation: cells, nets, and views.

Between logical elaboration and physical assembly sits a deliberately
plain IR in the style of a synthesis database: a :class:`LogicalDesign`
holds the instance list (cell type + port-to-net connections) and the
chip's port directions, and two *views* are derived from it --

``logical_db``
    cell type -> instance names, the validation view: census checks,
    library lookups, and LVS anchoring all key off it;
``net_to_cells``
    net -> ``(instance, port)`` endpoints, the placement view: the
    placer recovers the array grid purely by walking this graph, so a
    wiring bug in elaboration becomes a placement error, not silent
    misplaced silicon.

Net naming: chip-level ports *are* nets and share their name (``P_IN0``,
``LAM_OUT``, ``R_OUT3``...); internal nets are ``<stream><row>.<col>``
(``p0.3`` = pattern bit row 0 entering column 3); ``$one`` is the
constant-TRUE net feeding row 0's ``d_in`` chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..chip.chip import ChipSpec
from ..errors import CompileError

__all__ = [
    "LogicalDesign",
    "build_logical_db",
    "build_net_to_cells",
    "elaborate",
    "validate_ir",
    "CONST_ONE",
]

#: The constant-TRUE net (row 0's hardwired ``d_in``).
CONST_ONE = "$one"


@dataclass
class LogicalDesign:
    """The elaborated chip: instances, connections, and chip ports.

    ``cells`` maps instance name to ``{"type": <cell type>,
    "connections": {<port>: <net>}}``; ``ports`` maps chip port name
    (== net name) to direction (``"in"`` / ``"out"``).
    """

    name: str
    kernel: str
    cells: Dict[str, Dict] = field(default_factory=dict)
    ports: Dict[str, str] = field(default_factory=dict)

    def add_cell(self, inst: str, cell_type: str) -> Dict[str, str]:
        if inst in self.cells:
            raise CompileError(f"duplicate instance {inst!r}")
        conns: Dict[str, str] = {}
        self.cells[inst] = {"type": cell_type, "connections": conns}
        return conns

    def add_port(self, name: str, direction: str) -> str:
        if direction not in ("in", "out"):
            raise CompileError(f"bad port direction {direction!r}")
        self.ports[name] = direction
        return name


def build_logical_db(design: LogicalDesign) -> Dict[str, List[str]]:
    """The validation view: cell type -> sorted instance names.

    >>> chip = elaborate(ChipSpec(2, char_bits=1))
    >>> for cell_type, insts in sorted(build_logical_db(chip).items()):
    ...     print(cell_type, insts)
    accumulator ['a0', 'a1']
    comparator ['c0_0', 'c1_0']
    """
    db: Dict[str, List[str]] = {}
    for inst, cell in design.cells.items():
        db.setdefault(cell["type"], []).append(inst)
    for insts in db.values():
        insts.sort()
    return db


def build_net_to_cells(
    design: LogicalDesign,
) -> Dict[str, List[Tuple[str, str]]]:
    """The placement view: net -> ``(instance, port)`` endpoints.

    Chip-level ports are nets named after themselves, so the edge nets of
    the graph are exactly ``design.ports``:

    >>> chip = elaborate(ChipSpec(2, char_bits=1))
    >>> build_net_to_cells(chip)["P_IN0"]
    [('c0_0', 'p_in')]
    >>> build_net_to_cells(chip)["lam.1"]
    [('a0', 'lam_out'), ('a1', 'lam_in')]
    """
    graph: Dict[str, List[Tuple[str, str]]] = {}
    for inst, cell in design.cells.items():
        for port, net in cell["connections"].items():
            graph.setdefault(net, []).append((inst, port))
    return graph


# -- elaboration --------------------------------------------------------------

def elaborate(spec: ChipSpec) -> LogicalDesign:
    """Lower a :class:`ChipSpec` to a :class:`LogicalDesign`.

    The topology is the Figure 3-3/3-4 array: pattern (``p``) streams
    flow rightward, string (``s``) streams leftward, partial results
    (``d``) fall row to row, and the result row carries ``lam``/``x``
    rightward and the ``r`` bus leftward.  The numeric kernel is the
    degenerate case with zero comparator rows and bus-wide ``p``/``s``.
    """
    m, w, R = spec.cells, spec.w_rows, spec.result_bits
    design = LogicalDesign(spec.name, spec.kernel)
    result_type = _result_cell_type(spec)

    if spec.kernel in ("match", "count"):
        data_rows = [(f"p{j}", f"s{j}", 1) for j in range(w)]
    else:
        data_rows = []

    # Chip ports, canonical order: control ins, data ins, result ins,
    # then the mirrored outs (the pad ring follows this order).
    design.add_port("LAM_IN", "in")
    if spec.kernel in ("match", "count"):
        design.add_port("X_IN", "in")
        for j in range(w):
            design.add_port(f"P_IN{j}", "in")
        for j in range(w):
            design.add_port(f"S_IN{j}", "in")
    else:
        for b in range(spec.data_bits):
            design.add_port(f"P_IN{b}", "in")
        for b in range(spec.data_bits):
            design.add_port(f"S_IN{b}", "in")
    for b in range(R):
        design.add_port(f"R_IN{b}", "in")
    design.add_port("LAM_OUT", "out")
    if spec.kernel in ("match", "count"):
        design.add_port("X_OUT", "out")
        for j in range(w):
            design.add_port(f"P_OUT{j}", "out")
        for j in range(w):
            design.add_port(f"S_OUT{j}", "out")
    else:
        for b in range(spec.data_bits):
            design.add_port(f"P_OUT{b}", "out")
        for b in range(spec.data_bits):
            design.add_port(f"S_OUT{b}", "out")
    for b in range(R):
        design.add_port(f"R_OUT{b}", "out")

    def right_net(stream: str, i: int, first: str, last: str) -> Tuple[str, str]:
        """(input net, output net) of column *i* on a rightward stream."""
        inp = first if i == 0 else f"{stream}.{i}"
        out = last if i == m - 1 else f"{stream}.{i + 1}"
        return inp, out

    def left_net(stream: str, i: int, first: str, last: str) -> Tuple[str, str]:
        """(input net, output net) of column *i* on a leftward stream."""
        inp = first if i == m - 1 else f"{stream}.{i}"
        out = last if i == 0 else f"{stream}.{i - 1}"
        return inp, out

    # Comparator rows (matching kernels only).
    for j, (p, s, _width) in enumerate(data_rows):
        for i in range(m):
            conns = design.add_cell(f"c{i}_{j}", "comparator")
            conns["p_in"], conns["p_out"] = right_net(
                p, i, f"P_IN{j}", f"P_OUT{j}"
            )
            conns["s_in"], conns["s_out"] = left_net(
                s, i, f"S_IN{j}", f"S_OUT{j}"
            )
            conns["d_in"] = CONST_ONE if j == 0 else f"d{i}.{j}"
            conns["d_out"] = f"d{i}.{j + 1}"

    # The result row.
    for i in range(m):
        conns = design.add_cell(f"a{i}", result_type)
        conns["lam_in"], conns["lam_out"] = right_net(
            "lam", i, "LAM_IN", "LAM_OUT"
        )
        if spec.kernel in ("match", "count"):
            conns["x_in"], conns["x_out"] = right_net("x", i, "X_IN", "X_OUT")
            conns["d_in"] = f"d{i}.{w}"
        else:
            for b in range(spec.data_bits):
                conns[f"p_in{b}"], conns[f"p_out{b}"] = right_net(
                    f"p{b}", i, f"P_IN{b}", f"P_OUT{b}"
                )
                conns[f"s_in{b}"], conns[f"s_out{b}"] = left_net(
                    f"s{b}", i, f"S_IN{b}", f"S_OUT{b}"
                )
        for b in range(R):
            conns[f"r_in{b}"], conns[f"r_out{b}"] = left_net(
                f"r{b}", i, f"R_IN{b}", f"R_OUT{b}"
            )
    return design


def _result_cell_type(spec: ChipSpec) -> str:
    if spec.kernel == "match":
        return "accumulator"
    if spec.kernel == "count":
        return f"counter{spec.result_bits}"
    return f"mac{spec.data_bits}x{spec.result_bits}"


# -- validation ---------------------------------------------------------------

def validate_ir(design: LogicalDesign, library) -> None:
    """Check the IR against the cell library; raise :class:`CompileError`.

    Rules: every instance's type exists in the library and its connection
    set matches the type's port list exactly; every net has exactly one
    driver (a cell output, a chip ``in`` port, or the constant net) and
    at least one sink; chip ``out`` ports are driven.
    """
    types = library.cell_types()
    drivers: Dict[str, List[str]] = {}
    sinks: Dict[str, List[str]] = {}
    for inst, cell in design.cells.items():
        ct = types.get(cell["type"])
        if ct is None:
            raise CompileError(
                f"instance {inst!r} uses unknown cell type {cell['type']!r}"
            )
        want = set(ct.inputs) | set(ct.outputs)
        have = set(cell["connections"])
        if want != have:
            missing = sorted(want - have)
            extra = sorted(have - want)
            raise CompileError(
                f"instance {inst!r} port mismatch for {cell['type']!r}: "
                f"missing {missing}, extra {extra}"
            )
        for port, net in cell["connections"].items():
            bucket = drivers if port in ct.outputs else sinks
            bucket.setdefault(net, []).append(f"{inst}.{port}")
    for name, direction in design.ports.items():
        bucket = drivers if direction == "in" else sinks
        bucket.setdefault(name, []).append(f"chip.{name}")
    drivers.setdefault(CONST_ONE, []).append("const.$one")

    for net, who in drivers.items():
        if len(who) > 1:
            raise CompileError(f"net {net!r} has {len(who)} drivers: {who}")
    for net in set(drivers) | set(sinks):
        if net not in drivers:
            raise CompileError(f"net {net!r} has no driver (sinks: {sinks[net]})")
        if net not in sinks and net != CONST_ONE:
            raise CompileError(f"net {net!r} drives nothing ({drivers[net]})")
