"""VCD waveform export: writer, parser round-trip, circuit probes.

The acceptance case drives the paper's Figure 3-6 comparator cell
through real clocked exchanges and checks that the captured VCD parses
cleanly: strictly monotonic timestamps, only declared id codes, legal
01xz states.
"""

from __future__ import annotations

import pytest

from repro.circuit.cells.comparator import build_comparator
from repro.circuit.netlist import Circuit
from repro.circuit.signals import HIGH, LOW
from repro.compiler import GateLevelMatcher, compile_workload
from repro.errors import ObservabilityError
from repro.obs.vcd import (
    CircuitProbe,
    VCDWriter,
    parse_vcd,
    render_waves,
    vcd_value,
)

from conftest import AB2


class TestVCDWriter:
    def test_declare_change_dump_round_trip(self):
        w = VCDWriter(module="test")
        w.declare("clk")
        w.declare("data")
        w.change(0, "clk", 0)
        w.change(0, "data", "x")
        w.change(5, "clk", 1)
        w.change(10, "clk", 0)
        w.change(10, "data", 1)
        text = w.dump()
        trace = parse_vcd(text)
        assert set(trace.signals) == {"clk", "data"}
        assert trace.history("clk") == [(0, "0"), (5, "1"), (10, "0")]
        assert trace.history("data") == [(0, "x"), (10, "1")]
        assert trace.value_at("clk", 7) == "1"

    def test_change_only_emission(self):
        w = VCDWriter()
        w.declare("s")
        for t in range(5):
            w.change(t, "s", 1)  # constant: only the initial dump emits
        trace = parse_vcd(w.dump())
        assert trace.history("s") == [(0, "1")]

    def test_undeclared_signal_raises(self):
        w = VCDWriter()
        with pytest.raises(ObservabilityError):
            w.change(0, "ghost", 1)

    def test_same_timestamp_last_wins(self):
        w = VCDWriter()
        w.declare("s")
        w.change(3, "s", 0)
        w.change(3, "s", 1)
        trace = parse_vcd(w.dump())
        assert trace.value_at("s", 3) == "1"

    def test_save(self, tmp_path):
        w = VCDWriter()
        w.declare("s")
        w.change(0, "s", 1)
        path = tmp_path / "out.vcd"
        w.save(str(path))
        assert parse_vcd(path.read_text()).history("s") == [(0, "1")]

    def test_vcd_value_coercions(self):
        assert vcd_value(True) == "1"
        assert vcd_value(0) == "0"
        assert vcd_value(HIGH) == "1"
        assert vcd_value(LOW) == "0"
        assert vcd_value("z") == "z"


class TestParserValidation:
    def test_rejects_backwards_time(self):
        bad = "\n".join(
            ["$timescale 1 ns $end", "$var wire 1 ! s $end",
             "$enddefinitions $end", "#5", "1!", "#3", "0!"]
        )
        with pytest.raises(ObservabilityError):
            parse_vcd(bad)

    def test_rejects_undeclared_id_code(self):
        bad = "\n".join(
            ["$timescale 1 ns $end", "$var wire 1 ! s $end",
             "$enddefinitions $end", "#0", '1"']
        )
        with pytest.raises(ObservabilityError):
            parse_vcd(bad)

    def test_rejects_illegal_state(self):
        bad = "\n".join(
            ["$timescale 1 ns $end", "$var wire 1 ! s $end",
             "$enddefinitions $end", "#0", "q!"]
        )
        with pytest.raises(ObservabilityError):
            parse_vcd(bad)


class TestCircuitProbe:
    def test_comparator_figure_3_6_round_trips(self):
        """Clock the Figure 3-6 comparator; the VCD must parse clean."""
        c = Circuit("comparator")
        ports = build_comparator(c, "u.", "clk", positive=True)
        probe = CircuitProbe(
            c,
            {
                "clk": "clk",
                "p_in": ports["p_in"],
                "s_in": ports["s_in"],
                "d_in": ports["d_in"],
                "p_out": ports["p_out"],
                "s_out": ports["s_out"],
                "d_out": ports["d_out"],
            },
        )
        # Exchange a few (p, s, d) triples through real two-phase beats.
        for p, s, d in [(1, 1, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0)]:
            c.set_input(ports["p_in"], p)
            c.set_input(ports["s_in"], s)
            c.set_input(ports["d_in"], d)
            c.set_input("clk", HIGH)
            c.settle()
            c.advance_time(100.0)
            c.set_input("clk", LOW)
            c.settle()
            c.advance_time(25.0)
        text = probe.writer.dump()
        trace = parse_vcd(text)  # validates monotonicity/states/ids
        assert set(trace.signals) == {
            "clk", "p_in", "s_in", "d_in", "p_out", "s_out", "d_out"
        }
        # The clock actually toggled in the capture.
        clk_states = [v for _, v in trace.history("clk")]
        assert "1" in clk_states and "0" in clk_states
        # Timestamps strictly increase (already parser-enforced; assert
        # the run produced more than a single sample too).
        times = trace.times
        assert times == sorted(set(times)) and len(times) > 4

    def test_probe_rejects_unknown_node(self):
        c = Circuit()
        with pytest.raises(ObservabilityError):
            CircuitProbe(c, {"sig": "no.such.node"})

    def test_netlist_default_probe_round_trips(self):
        net = compile_workload("match", 2, char_bits=1).netlist
        probe = net.vcd_probe()
        for b in range(6):
            net.pulse(b)
        trace = parse_vcd(probe.writer.dump())
        assert "phi1" in trace.signals and "pin.P_IN0" in trace.signals
        phi1 = [v for _, v in trace.history("phi1")]
        assert "1" in phi1 and "0" in phi1

    def test_gate_level_match_with_probe_agrees(self):
        m = GateLevelMatcher("AB", AB2)
        probe = m.net.vcd_probe()
        text = list("ABAB")
        got = m.match(text)
        assert got == [False, True, False, True]
        trace = parse_vcd(probe.writer.dump())
        # The result pin toggles at least once across a matching run.
        assert len(trace.history("pin.R_OUT0")) >= 2

    def test_detach_stops_sampling(self):
        c = Circuit()
        c.set_input("a", LOW)
        c.settle()
        probe = CircuitProbe(c, {"a": "a"})
        probe.detach()
        c.set_input("a", HIGH)
        c.advance_time(10.0)
        c.settle()
        trace = parse_vcd(probe.writer.dump())
        # Only the initial sample is present.
        assert all(t == 0 for t in trace.times)


def test_render_waves_ascii():
    w = VCDWriter()
    w.declare("clk")
    for t in range(0, 8):
        w.change(t * 10, "clk", t % 2)
    out = render_waves(w.dump(), ["clk"])
    assert "clk" in out
