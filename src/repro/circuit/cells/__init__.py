"""Switch-level implementations of the array's cell types.

"Since each cell inverts its inputs before sending them to its neighbors,
two versions of each cell must be constructed.  One version operates on
positive inputs to produce inverted outputs, while the other computes
positive outputs from inverted inputs." (Section 3.2.2)

Each builder adds one cell instance to a :class:`~repro.circuit.netlist.Circuit`
and returns the port-name mapping the chip compiler wires whole chips
with (:mod:`repro.compiler.netlist`).
"""

from .accumulator import build_accumulator
from .comparator import build_comparator
from .counter import build_counter, counter_devices
from .mac import build_mac, mac_devices

__all__ = [
    "build_accumulator",
    "build_comparator",
    "build_counter",
    "build_mac",
    "counter_devices",
    "mac_devices",
]
