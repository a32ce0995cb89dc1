"""Planting circuit-level defects in a matcher array under test.

:func:`inject_defect` takes a healthy switch-level netlist of the match
chip (a :class:`~repro.compiler.netlist.CompiledNetlist`, whose
``instance_ports`` name every cell ``c{col}_{row}`` / ``a{col}``) and
one :class:`~repro.service.reliability.CellDefect` and edits the netlist
the way silicon fails:

* stuck-at: the named cell port is welded to a rail through an
  always-on channel (a genuine short, so it loads whatever else drives
  the node -- often producing a drive fight that reads UNKNOWN, exactly
  like real welded silicon reads an intermediate level);
* bridge: an always-on channel (gate tied to VDD) welds two ports;
* open: the named device is removed (``Circuit.remove_enhancement``);
* slow-path: an unbuffered series pass chain hangs off the port, so the
  part works functionally but blows the Elmore phase budget;
* misphase: the accumulator's ``t_xfer`` is regated onto the cell's own
  phase, collapsing the master/slave separation.

:data:`MUTATION_DEFECTS` maps each seeded mutant of
:mod:`repro.signoff.mutations` to its canonical electrical failure mode,
so the signoff fault list and the BIST fault list are one universe.  The
one subtlety is ``drc-metal-sliver``: the planted sliver is *electrically
inert* by construction (that is what makes it a DRC-only catch), so its
BIST equivalent is the fault the same sliver causes when it does land on
circuitry -- a bridge of the two nearest tracks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..circuit.netlist import GND, VDD
from ..compiler.netlist import CompiledNetlist
from ..errors import CircuitError
from ..service.reliability import CellDefect, CellDefectKind, FaultInjector

#: The injector's defect tables are the single source of truth for what
#: can break; re-exported here so the universe below and the injector's
#: random channel can never drift apart.
STUCK_PORTS = FaultInjector._STUCK_PORTS
BRIDGE_PAIRS = FaultInjector._BRIDGE_PAIRS
OPEN_DEVICES = FaultInjector._OPEN_DEVICES


def _cell_ports(net: CompiledNetlist, defect: CellDefect) -> Dict[str, str]:
    try:
        return net.instance_ports[defect.cell]
    except KeyError:
        raise CircuitError(
            f"defect cell {defect.cell} (column {defect.col}, row "
            f"{defect.row}) is not in the array"
        ) from None


def _port_node(ports: Dict[str, str], name: str, defect: CellDefect) -> str:
    try:
        return ports[name]
    except KeyError:
        raise CircuitError(
            f"cell {defect.cell} has no port {name!r} "
            f"(has: {', '.join(sorted(ports))})"
        ) from None


def inject_defect(net: CompiledNetlist, defect: CellDefect) -> str:
    """Edit *net* in place to carry *defect*; returns its description."""
    ports = _cell_ports(net, defect)
    prefix = defect.cell + "."
    c = net.circuit
    kind = defect.kind
    if kind in (CellDefectKind.STUCK_AT_0, CellDefectKind.STUCK_AT_1):
        node = _port_node(ports, defect.port, defect)
        rail = GND if kind is CellDefectKind.STUCK_AT_0 else VDD
        c.add_enhancement(VDD, node, rail, label=f"{prefix}defect.stuck")
    elif kind is CellDefectKind.BRIDGE:
        a = _port_node(ports, defect.port, defect)
        b = _port_node(ports, defect.other_port, defect)
        c.add_enhancement(VDD, a, b, label=f"{prefix}defect.bridge")
    elif kind is CellDefectKind.OPEN:
        if not defect.device:
            raise CircuitError("an open defect needs a device label")
        c.remove_enhancement(prefix + defect.device)
    elif kind is CellDefectKind.SLOW_PATH:
        if defect.stages <= 0:
            raise CircuitError("a slow-path defect needs at least one stage")
        prev = _port_node(ports, defect.port or "d_out", defect)
        for k in range(defect.stages):
            nxt = f"{prefix}defect.slow{k}"
            c.add_enhancement(VDD, prev, nxt, label=f"{prefix}defect.slowpass{k}")
            prev = nxt
    elif kind is CellDefectKind.MISPHASE:
        if defect.row >= 0:
            raise CircuitError("misphase defects live in the accumulator row")
        label = prefix + (defect.device or "t_xfer")
        t = c.remove_enhancement(label)
        if t.gate not in net.phi:
            raise CircuitError(f"{label} is not a clocked device")
        # The transfer fires on the opposite phase; regate it onto the
        # cell's own.
        own_phase = net.phi[1 - net.phi.index(t.gate)]
        c.add_enhancement(own_phase, t.a, t.b, label=label)
    else:  # pragma: no cover - enum is closed
        raise CircuitError(f"unknown defect kind {kind!r}")
    return defect.describe()


def mutation_defect(name: str, m: int, w: int) -> CellDefect:
    """The gate-level equivalent of a :mod:`repro.signoff.mutations`
    mutant, placed mid-array in an ``m`` x ``w`` matcher."""
    ci, cj = m // 2, w // 2
    table = {
        # The sliver itself touches nothing; its failure mode when it
        # does land on circuitry is a short of the two nearest tracks.
        "drc-metal-sliver": CellDefect(
            CellDefectKind.BRIDGE, ci, cj, port="s_in", other_port="d_in"
        ),
        "lvs-shorted-tracks": CellDefect(
            CellDefectKind.BRIDGE, ci, cj, port="p_in", other_port="s_in"
        ),
        "lvs-missing-contact": CellDefect(
            CellDefectKind.OPEN, ci, cj, device="pass_p"
        ),
        # A 2:1 inverter ratio cannot pull its output low: stuck-at-1.
        "erc-undersized-pullup": CellDefect(
            CellDefectKind.STUCK_AT_1, ci, cj, port="p_out"
        ),
        "erc-misphased-transfer": CellDefect(
            CellDefectKind.MISPHASE, ci, -1, device="t_xfer"
        ),
        "timing-unbuffered-chain": CellDefect(
            CellDefectKind.SLOW_PATH, ci, cj, port="d_out", stages=50
        ),
    }
    try:
        return table[name]
    except KeyError:
        raise CircuitError(f"no defect mapping for mutant {name!r}") from None


def fault_universe(m: int, w: int, slow_stages: int = 50
                   ) -> Tuple[CellDefect, ...]:
    """Every modelled circuit-level fault of an ``m`` x ``w`` array.

    Per comparator cell: a stuck-at-0 and stuck-at-1 on each of its six
    own ports, the three adjacent-track bridges, the three pass-device
    opens, and one unbuffered slow chain; per accumulator, the misphased
    transfer.  This is the universe the coverage gate measures against
    and the dictionary-based diagnosis enumerates.
    """
    faults: List[CellDefect] = []
    for i in range(m):
        for j in range(w):
            for port in STUCK_PORTS:
                faults.append(
                    CellDefect(CellDefectKind.STUCK_AT_0, i, j, port=port)
                )
                faults.append(
                    CellDefect(CellDefectKind.STUCK_AT_1, i, j, port=port)
                )
            for a, b in BRIDGE_PAIRS:
                faults.append(
                    CellDefect(CellDefectKind.BRIDGE, i, j,
                               port=a, other_port=b)
                )
            for device in OPEN_DEVICES:
                faults.append(
                    CellDefect(CellDefectKind.OPEN, i, j, device=device)
                )
            faults.append(
                CellDefect(CellDefectKind.SLOW_PATH, i, j,
                           port="d_out", stages=slow_stages)
            )
        faults.append(
            CellDefect(CellDefectKind.MISPHASE, i, -1, device="t_xfer")
        )
    return tuple(faults)


#: The mutant names with a gate-level equivalent (all of them).
MUTATION_DEFECT_NAMES = (
    "drc-metal-sliver", "lvs-shorted-tracks", "lvs-missing-contact",
    "erc-undersized-pullup", "erc-misphased-transfer",
    "timing-unbuffered-chain",
)
