"""Switch-level NMOS circuit substrate (Section 3.2.2).

The paper implements its cells in silicon-gate NMOS: chains of inverters
separated by pass transistors form dynamic shift registers (Figure 3-5),
and the comparator is an inverter pair, an exclusive-NOR gate and a NAND
gate latched by a two-phase non-overlapping clock (Figure 3-6).  This
subpackage reproduces that technology level:

* :mod:`repro.circuit.signals` -- ternary logic values and drive strengths;
* :mod:`repro.circuit.netlist` -- nodes, enhancement/depletion transistors,
  and the :class:`Circuit` container;
* :mod:`repro.circuit.simulator` -- the switch-level solver with
  ratioed-logic strength resolution, charge storage and decay: one
  production engine (``Circuit.settle``, event-driven) beside its oracle
  (``settle_reference``, whole-circuit relaxation);
* :mod:`repro.circuit.clocks` -- the two-phase non-overlapping clock
  driver, the one clock every shift register and compiled chip pulses
  through;
* :mod:`repro.circuit.gates` -- gate macros (inverter, NAND, NOR, XNOR)
  built from transistors;
* :mod:`repro.circuit.shift_register` -- dynamic (Figure 3-5) and static
  shift registers for the Section 3.3.3 comparison;
* :mod:`repro.circuit.cells` -- the positive and negative comparator and
  accumulator cells.

Whole chips are not wired here: the chip compiler
(:mod:`repro.compiler.netlist`) builds them from these cells, and
:class:`repro.compiler.GateLevelMatcher` runs the compiled ``match`` chip
against the behavioural model.
"""

from .clocks import TwoPhaseClock
from .netlist import Circuit, GND, VDD
from .signals import HIGH, LOW, UNKNOWN, LogicValue

__all__ = [
    "Circuit",
    "GND",
    "HIGH",
    "LOW",
    "LogicValue",
    "TwoPhaseClock",
    "UNKNOWN",
    "VDD",
]
