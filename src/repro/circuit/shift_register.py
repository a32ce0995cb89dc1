"""Dynamic and static shift registers (Figure 3-5 and Section 3.3.3).

The dynamic register is the paper's Figure 3-5 exactly: "a shift register
is composed of a chain of inverters separated by pass transistors ...
The inputs to the inverters can store charge ... Adjacent transistors are
turned on by opposite phases of the clock, so that there is never a closed
path between inverters that are separated by two transistors.  Alternate
inverters can therefore store independent data bits."

The static register is the rejected alternative of Section 3.3.3: every
stage carries regeneration circuitry (a feedback inverter pair refreshed
on the opposite phase) and a third control signal, SHIFT, is needed to
command movement; in exchange it holds data indefinitely.  Device counts
are exposed so the benches can reproduce the cost comparison.  (One
deviation: the paper notes static registers "do not invert data between
stages"; for comparability both registers here use single-inverter stages
and so both invert per stage -- the retention, control-signal and device-
count comparisons are unaffected.)
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import CircuitError
from .clocks import TwoPhaseClock
from .gates import inverter, pass_transistor
from .netlist import Circuit
from .signals import HIGH, LOW, UNKNOWN, LogicValue


class DynamicShiftRegister:
    """The Figure 3-5 dynamic shift register, at switch level.

    Each *stage* is one pass transistor plus one inverter; even stages are
    clocked by phi1, odd stages by phi2, so one clock phase advances data
    one stage and valid bits occupy alternate stages.  Data is inverted at
    every stage; :meth:`shift` compensates when reporting the output.
    """

    def __init__(self, n_stages: int, name: str = "dsr",
                 retention_ns: float = 1e6,
                 phase_high_ns: float = 100.0, gap_ns: float = 25.0):
        if n_stages <= 0:
            raise CircuitError("need at least one stage")
        self.n_stages = n_stages
        self.circuit = Circuit(name, retention_ns=retention_ns)
        self.clock = TwoPhaseClock(
            self.circuit, phase_high_ns=phase_high_ns, gap_ns=gap_ns
        )
        self.input_node = f"{name}.in"
        self.storage_nodes: List[str] = []
        self.output_nodes: List[str] = []
        prev = self.input_node
        for i in range(n_stages):
            st = f"{name}.st{i}"
            out = f"{name}.out{i}"
            phase = self.clock.phi1 if i % 2 == 0 else self.clock.phi2
            pass_transistor(self.circuit, phase, prev, st, label=f"{name}.pass{i}")
            inverter(self.circuit, st, out, label=f"{name}.inv{i}")
            self.storage_nodes.append(st)
            self.output_nodes.append(out)
            prev = out
        self.circuit.set_input(self.input_node, LOW)
        self.circuit.settle()
        self._shifts = 0

    @property
    def output_node(self) -> str:
        return self.output_nodes[-1]

    def _output_value(self) -> LogicValue:
        v = self.circuit.read(self.output_node)
        if v is UNKNOWN:
            return UNKNOWN
        # n_stages inversions: odd stage count complements the data.
        if self.n_stages % 2 == 1:
            return LOW if v is HIGH else HIGH
        return v

    def shift(self, bit: Optional[bool]) -> LogicValue:
        """Advance one stage (one clock phase); returns the (de-inverted)
        value at the register output after the shift."""
        if bit is not None:
            self.circuit.set_input(self.input_node, HIGH if bit else LOW)
        self.clock.pulse(self._shifts)
        self._shifts += 1
        return self._output_value()

    def shift_sequence(self, bits: List[bool]) -> List[LogicValue]:
        """Shift a bit in on every *even* phase (valid slots alternate)."""
        out: List[LogicValue] = []
        for b in bits:
            out.append(self.shift(b))
            out.append(self.shift(None))
        return out

    def hold(self, duration_ns: float) -> None:
        """Stop the clock for *duration_ns* (dynamic storage decays)."""
        self.clock.idle(duration_ns)

    def read_storage(self) -> List[LogicValue]:
        """Raw stored values on the inverter inputs."""
        return [self.circuit.read(n) for n in self.storage_nodes]

    @property
    def devices_per_stage(self) -> int:
        """1 pass transistor + 1 pullup + 1 pulldown."""
        return 3

    @property
    def control_signals(self) -> int:
        """phi1, phi2."""
        return 2


class StaticShiftRegister:
    """The Section 3.3.3 static alternative, with per-stage regeneration.

    Stage i writes through (phase, SHIFT) series passes and refreshes
    through (other phase, SHIFT_BAR) series passes from a feedback
    inverter, so with SHIFT low the data is re-driven every cycle and
    survives indefinitely.
    """

    def __init__(self, n_stages: int, name: str = "ssr",
                 retention_ns: float = 1e6,
                 phase_high_ns: float = 100.0, gap_ns: float = 25.0):
        if n_stages <= 0:
            raise CircuitError("need at least one stage")
        self.n_stages = n_stages
        self.circuit = Circuit(name, retention_ns=retention_ns)
        self.clock = TwoPhaseClock(
            self.circuit, phase_high_ns=phase_high_ns, gap_ns=gap_ns
        )
        self.shift_node = f"{name}.SHIFT"
        self.shift_bar_node = f"{name}.SHIFTB"
        self.input_node = f"{name}.in"
        self.storage_nodes: List[str] = []
        self.output_nodes: List[str] = []
        c = self.circuit
        prev = self.input_node
        for i in range(n_stages):
            st, out, fb = f"{name}.st{i}", f"{name}.out{i}", f"{name}.fb{i}"
            mid_w, mid_r = f"{name}.mw{i}", f"{name}.mr{i}"
            w_phase = self.clock.phi1 if i % 2 == 0 else self.clock.phi2
            r_phase = self.clock.phi2 if i % 2 == 0 else self.clock.phi1
            # write path: prev -> [w_phase] -> [SHIFT] -> st
            pass_transistor(c, w_phase, prev, mid_w, label=f"{name}.wp{i}")
            pass_transistor(c, self.shift_node, mid_w, st, label=f"{name}.ws{i}")
            inverter(c, st, out, label=f"{name}.inv{i}")
            inverter(c, out, fb, label=f"{name}.fbinv{i}")
            # refresh path: fb -> [r_phase] -> [SHIFT_BAR] -> st
            pass_transistor(c, r_phase, fb, mid_r, label=f"{name}.rp{i}")
            pass_transistor(c, self.shift_bar_node, mid_r, st, label=f"{name}.rs{i}")
            self.storage_nodes.append(st)
            self.output_nodes.append(out)
            prev = out
        c.set_input(self.input_node, LOW)
        self.set_shifting(True)
        c.settle()
        self._shifts = 0

    @property
    def output_node(self) -> str:
        return self.output_nodes[-1]

    def set_shifting(self, shifting: bool) -> None:
        """Drive the third control signal pair."""
        self.circuit.set_input(self.shift_node, HIGH if shifting else LOW)
        self.circuit.set_input(self.shift_bar_node, LOW if shifting else HIGH)

    def _output_value(self) -> LogicValue:
        v = self.circuit.read(self.output_node)
        if v is UNKNOWN:
            return UNKNOWN
        if self.n_stages % 2 == 1:
            return LOW if v is HIGH else HIGH
        return v

    def shift(self, bit: Optional[bool]) -> LogicValue:
        """Advance one stage with SHIFT asserted."""
        self.set_shifting(True)
        if bit is not None:
            self.circuit.set_input(self.input_node, HIGH if bit else LOW)
        self.clock.pulse(self._shifts)
        self._shifts += 1
        return self._output_value()

    def hold(self, duration_ns: float) -> None:
        """Hold data with SHIFT deasserted; the clock keeps refreshing."""
        self.set_shifting(False)
        beats = max(1, int(duration_ns / self.clock.beat_time_ns))
        for i in range(beats):
            self.clock.pulse(i)

    def read_storage(self) -> List[LogicValue]:
        return [self.circuit.read(n) for n in self.storage_nodes]

    @property
    def devices_per_stage(self) -> int:
        """4 pass transistors + 2 pullups + 2 pulldowns."""
        return 8

    @property
    def control_signals(self) -> int:
        """phi1, phi2, SHIFT (and its complement)."""
        return 3
