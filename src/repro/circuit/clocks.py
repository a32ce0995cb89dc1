"""Two-phase non-overlapping clock discipline (Figure 3-5).

"A clock with two non-overlapping phases controls the pass transistors.
Adjacent transistors are turned on by opposite phases of the clock, so
that there is never a closed path between inverters that are separated by
two transistors."

:class:`TwoPhaseClock` drives two circuit nodes (phi1, phi2) through the
four-step sequence per beat-pair and *enforces* the non-overlap invariant:
it is impossible to reach a state with both phases high, and a
:class:`~repro.errors.ClockError` is raised if client code forces one.

It is the package's one clock driver: the shift registers, every compiled
chip (:meth:`repro.compiler.netlist.CompiledNetlist.pulse`) and BIST
characterization all pulse through it, so the phase sequence and its
100/25 ns timings are written once, here.
"""

from __future__ import annotations

from typing import List

from ..errors import ClockError
from .netlist import Circuit
from .signals import HIGH, LOW


class TwoPhaseClock:
    """Driver for a two-phase non-overlapping clock.

    Parameters
    ----------
    circuit:
        The circuit whose *phi1* / *phi2* nodes the clock forces.
    phi1, phi2:
        Node names.
    phase_high_ns:
        Time a phase stays high (data transfer + logic settle).
    gap_ns:
        Dead time between phases (the non-overlap margin).
    """

    def __init__(
        self,
        circuit: Circuit,
        phi1: str = "phi1",
        phi2: str = "phi2",
        phase_high_ns: float = 100.0,
        gap_ns: float = 25.0,
    ):
        if phase_high_ns <= 0 or gap_ns < 0:
            raise ClockError("phase times must be positive")
        self.circuit = circuit
        self.phi1 = phi1
        self.phi2 = phi2
        self.phase_high_ns = phase_high_ns
        self.gap_ns = gap_ns
        self.ticks = 0
        #: Relaxation passes of each settle of the latest pulse.
        self.passes: List[int] = []
        circuit.set_input(phi1, LOW)
        circuit.set_input(phi2, LOW)

    # -- invariants -------------------------------------------------------------

    def _check_nonoverlap(self) -> None:
        if (
            self.circuit.inputs.get(self.phi1) is HIGH
            and self.circuit.inputs.get(self.phi2) is HIGH
        ):
            raise ClockError("both clock phases high: non-overlap violated")

    @property
    def beat_time_ns(self) -> float:
        """One beat = one phase high plus one gap."""
        return self.phase_high_ns + self.gap_ns

    # -- stepping ----------------------------------------------------------------

    def _pulse(self, phase: str) -> None:
        """Raise one phase, settle, hold it high, lower it, settle, gap.

        ``passes`` records the relaxation passes of each settle of this
        pulse as it runs, so a caller that catches a settle failure still
        sees the passes that completed before it.
        """
        c = self.circuit
        self.passes = []
        c.set_input(phase, HIGH)
        self._check_nonoverlap()
        self.passes.append(c.settle())
        c.advance_time(self.phase_high_ns)
        c.set_input(phase, LOW)
        self.passes.append(c.settle())
        c.advance_time(self.gap_ns)
        self.ticks += 1

    def pulse(self, beat: int) -> None:
        """The pulse of beat *beat*: phi1 on even beats, phi2 on odd."""
        self._pulse(self.phi2 if beat % 2 else self.phi1)

    def tick_phi1(self) -> None:
        """One phi1 pulse (transfers data into phi1-clocked stages)."""
        self._pulse(self.phi1)

    def tick_phi2(self) -> None:
        """One phi2 pulse."""
        self._pulse(self.phi2)

    def beat_pair(self) -> None:
        """A full clock cycle: phi1 pulse then phi2 pulse."""
        self.tick_phi1()
        self.tick_phi2()

    def run_beats(self, n: int) -> None:
        """Alternate phases for *n* beats, starting with phi1."""
        for i in range(n):
            self.pulse(i)

    def idle(self, duration_ns: float) -> None:
        """Let time pass with both phases low (dynamic nodes age)."""
        self.circuit.advance_time(duration_ns)
        self.circuit.settle()
