"""Response compaction: which nodes BIST watches and how they compact.

A real tester can only afford the chip's pins, so the analyzer observes
exactly the edge-visible outputs of the array -- the pattern row exiting
right, the string row exiting left, the accumulator's result/control
outputs -- one sample per beat, compacted through a :class:`MISR`.

Each observed node contributes *two* bits per beat: its logic value and
a "known" flag.  The flag matters: an open defect often floats a node to
UNKNOWN rather than flipping it, and a value-only signature would read
UNKNOWN as LOW and could alias with a healthy LOW.
"""

from __future__ import annotations

from typing import List, Tuple

from ..circuit.signals import HIGH, UNKNOWN
from ..compiler.netlist import CompiledNetlist
from ..compiler.place import Placement
from .lfsr import MISR


class SignatureAnalyzer:
    """Samples a matcher array's edge outputs into a MISR signature."""

    def __init__(self, misr_width: int = 32, poly: int = MISR.DEFAULT_POLY):
        self.misr_width = misr_width
        self.poly = poly

    def response_nodes(self, net: CompiledNetlist,
                       placement: Placement) -> Tuple[str, ...]:
        """The observed output nodes, in a fixed observation order.

        Edge pins (pattern exiting right, string exiting left, the
        accumulator outputs) plus *test points* down the d-chain: every
        comparator's ``d_out`` and the chain foot entering each
        accumulator.  The d-chain is an AND ladder, the textbook
        random-pattern-resistant structure, and an open in it often
        shows only as an UNKNOWN confined to the broken gate's own
        output node -- so each stage is tapped directly, the
        observability a self-testing chip would route to its BIST
        comparator for exactly that reason.
        """
        w = placement.w_rows
        rows = [
            [net.instance_ports[inst] for inst in placement.row(j)]
            for j in range(w)
        ]
        accs = [net.instance_ports[inst] for inst in placement.row(w)]
        nodes: List[str] = []
        for row in rows:
            nodes.append(row[-1]["p_out"])                    # exits right
            nodes.append(row[0]["s_out"])                     # exits left
        nodes.append(accs[0]["r_out0"])                       # chip R_OUT
        nodes.append(accs[-1]["lam_out"])
        nodes.append(accs[-1]["x_out"])
        for i, acc in enumerate(accs):                        # test points
            for row in rows:
                nodes.append(row[i]["d_out"])
            # Every accumulator's own outputs, not just the chip edges:
            # a misphased transfer in an interior (or last) column races
            # only under rare stimulus if it must propagate to the far
            # edge, but shows at the cell's own latch outputs within a
            # few beats.
            nodes.append(acc["d_in"])
            nodes.append(acc["r_out0"])
            nodes.append(acc["lam_out"])
            nodes.append(acc["x_out"])
        return tuple(nodes)

    def new_misr(self) -> MISR:
        return MISR(width=self.misr_width, poly=self.poly)

    def sample(self, net: CompiledNetlist,
               nodes: Tuple[str, ...]) -> List[int]:
        """One response word as a bit list: (value, known) per node."""
        bits: List[int] = []
        read = net.circuit.read
        for node in nodes:
            v = read(node)
            if v is UNKNOWN:
                bits.extend((0, 0))
            else:
                bits.extend((1 if v is HIGH else 0, 1))
        return bits

    def observe(self, misr: MISR, net: CompiledNetlist,
                nodes: Tuple[str, ...]) -> int:
        return misr.observe_bits(self.sample(net, nodes))
