"""Figure 3-5 shift registers and the two-phase clock discipline."""

import pytest

from repro.circuit import Circuit, TwoPhaseClock
from repro.circuit.shift_register import DynamicShiftRegister, StaticShiftRegister
from repro.circuit.signals import HIGH, LOW, UNKNOWN
from repro.compiler import compile_workload
from repro.errors import CircuitError, ClockError


class TestTwoPhaseClock:
    def test_phases_never_overlap(self):
        c = Circuit()
        clk = TwoPhaseClock(c)
        clk.beat_pair()
        # after any sequence both phases are low
        assert c.inputs["phi1"] is LOW and c.inputs["phi2"] is LOW

    def test_forcing_overlap_raises(self):
        c = Circuit()
        clk = TwoPhaseClock(c)
        c.set_input("phi2", HIGH)
        with pytest.raises(ClockError):
            clk.tick_phi1()

    def test_beat_time(self):
        clk = TwoPhaseClock(Circuit(), phase_high_ns=100, gap_ns=25)
        assert clk.beat_time_ns == 125

    def test_bad_phase_times_rejected(self):
        with pytest.raises(ClockError):
            TwoPhaseClock(Circuit(), phase_high_ns=0)

    def test_run_beats_advances_time(self):
        c = Circuit()
        clk = TwoPhaseClock(c)
        clk.run_beats(4)
        assert clk.ticks == 4
        assert c.time_ns == pytest.approx(4 * clk.beat_time_ns)


class TestCompiledChipClock:
    """A compiled chip pulses through its own TwoPhaseClock."""

    def test_pulse_runs_one_clock_beat(self):
        net = compile_workload("match", 2, char_bits=1).netlist
        net.pulse(0)
        assert net.clock.ticks == 1 and len(net.clock.passes) == 2
        assert net.circuit.time_ns == pytest.approx(net.clock.beat_time_ns)
        assert net.circuit.inputs["phi1"] is LOW

    @pytest.mark.parametrize("beat, held", [(0, "phi2"), (1, "phi1")])
    def test_pulse_with_other_phase_held_high_raises(self, beat, held):
        net = compile_workload("match", 2, char_bits=1).netlist
        net.circuit.set_input(held, HIGH)
        with pytest.raises(ClockError):
            net.pulse(beat)


class TestDynamicShiftRegister:
    def test_impulse_transits_in_n_shifts(self):
        """Figure 3-5: a marker bit crosses one stage per clock phase."""
        sr = DynamicShiftRegister(4)
        outs = [sr.shift(True)]
        for _ in range(9):
            outs.append(sr.shift(False))
        # entered on shift 0, emerges on shift 3 (latched by stage 3's
        # phase) and is replaced two phases later by the following zeros
        assert outs[3] is HIGH and outs[4] is HIGH
        assert outs[5] is LOW and all(v is LOW for v in outs[5:])

    def test_stream_emerges_in_order(self):
        sr = DynamicShiftRegister(4)
        bits = [True, False, True, True, False]
        seen = []
        for b in bits:
            seen.append(sr.shift(b))
            seen.append(sr.shift(None))
        # each input bit appears at output indices 4i+3 and 4i+4... the
        # register holds each emerged bit for two phases: sample the
        # first appearance of each input bit directly.
        got = [seen[3 + 2 * i] for i in range(len(bits) - 1)]
        expect = [HIGH if b else LOW for b in bits[: len(got)]]
        assert got == expect

    def test_alternate_stages_hold_independent_bits(self):
        sr = DynamicShiftRegister(4)
        sr.shift(True)
        sr.shift(None)
        sr.shift(False)
        sr.shift(None)
        stored = sr.read_storage()
        known = [v for v in stored if v is not UNKNOWN]
        assert len(known) >= 2

    def test_decay_on_stopped_clock(self):
        """Section 3.3.3: dynamic registers lose data in about 1 ms."""
        sr = DynamicShiftRegister(2, retention_ns=1e6)
        sr.shift(True)
        sr.shift(None)
        assert UNKNOWN not in sr.read_storage()
        sr.hold(2e6)
        assert all(v is UNKNOWN for v in sr.read_storage())

    def test_survives_short_pause(self):
        sr = DynamicShiftRegister(2, retention_ns=1e6)
        sr.shift(True)
        sr.shift(None)
        sr.hold(0.5e6)  # within retention
        assert UNKNOWN not in sr.read_storage()

    def test_device_and_control_budget(self):
        sr = DynamicShiftRegister(3)
        assert sr.devices_per_stage == 3
        assert sr.control_signals == 2

    def test_zero_stages_rejected(self):
        with pytest.raises(CircuitError):
            DynamicShiftRegister(0)


class TestStaticShiftRegister:
    def test_shifts_like_dynamic(self):
        sr = StaticShiftRegister(2)
        sr.shift(True)
        out = sr.shift(None)
        assert out in (HIGH, LOW, UNKNOWN)
        assert sr.read_storage()[0] is HIGH

    def test_holds_data_indefinitely(self):
        """The regeneration circuitry refreshes every cycle: no decay."""
        sr = StaticShiftRegister(2, retention_ns=1e6)
        sr.shift(True)
        sr.shift(None)
        before = sr.read_storage()
        sr.hold(5e6)  # five retention windows
        assert sr.read_storage() == before

    def test_shift_deasserted_freezes_data(self):
        sr = StaticShiftRegister(2)
        sr.shift(True)
        sr.shift(False)
        frozen = sr.read_storage()
        sr.set_shifting(False)
        sr.clock.tick_phi1()
        sr.clock.tick_phi2()
        assert sr.read_storage() == frozen

    def test_costs_more_devices_and_controls(self):
        """The Section 3.3.3 trade: static = more devices + a third
        control signal, in exchange for indefinite retention."""
        dyn = DynamicShiftRegister(2)
        st = StaticShiftRegister(2)
        assert st.devices_per_stage > dyn.devices_per_stage
        assert st.control_signals == dyn.control_signals + 1
