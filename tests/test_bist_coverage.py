"""BIST coverage gate: every modelled circuit fault and every seeded
signoff mutant must be caught at the gate level, with a correct
per-cell diagnosis for the mutants.  Plus unit tests for the BIST
datapath itself (LFSR, MISR, signature analyzer, controller FSM,
characterizer) -- all seeded, all deterministic."""

import pytest

from repro.bist import (
    MISR,
    BISTController,
    BISTState,
    LFSRPatternGenerator,
    MUTATION_DEFECT_NAMES,
    SignatureAnalyzer,
    fault_universe,
    mutation_defect,
)
from repro.bist.__main__ import main as bist_main
from repro.compiler import compile_workload
from repro.errors import CircuitError
from repro.service.reliability import CellDefect, CellDefectKind

#: The probe geometry the health loops use: small, but it exercises
#: every cell circuit type (both comparator polarity twins, both clock
#: phases, the accumulator column).
M, W = 2, 2
VECTORS = 16
COVERAGE_GATE = 0.95


@pytest.fixture(scope="module")
def universe():
    return fault_universe(M, W)


@pytest.fixture(scope="module")
def controller(universe):
    """One controller for the whole module: the golden signature and the
    fault dictionary are computed once and reused."""
    return BISTController(m=M, w=W, vectors=VECTORS, fault_universe=universe)


class TestLFSR:
    def test_maximal_period_visits_every_nonzero_state(self):
        gen = LFSRPatternGenerator(width=4, seed=0b0001)
        assert gen.period == 15
        seen = {gen.state}
        for _ in range(gen.period - 1):
            seen.add(gen.step())
        assert len(seen) == gen.period
        assert 0 not in seen
        # One more step closes the cycle.
        gen.step()
        assert gen.state == gen.seed

    def test_same_seed_same_sequence(self):
        a = LFSRPatternGenerator(width=6, seed=0b1011)
        b = LFSRPatternGenerator(width=6, seed=0b1011)
        assert [a.step() for _ in range(100)] == [
            b.step() for _ in range(100)
        ]

    def test_reset_replays(self):
        gen = LFSRPatternGenerator(width=6, seed=0b1011)
        first = [gen.step() for _ in range(20)]
        gen.reset()
        assert [gen.step() for _ in range(20)] == first

    def test_zero_seed_rejected(self):
        with pytest.raises(CircuitError):
            LFSRPatternGenerator(width=4, seed=0)
        with pytest.raises(CircuitError):
            LFSRPatternGenerator(width=4, seed=0b10000)  # 0 mod 2^4

    def test_unsupported_width_rejected(self):
        with pytest.raises(CircuitError):
            LFSRPatternGenerator(width=1)
        with pytest.raises(CircuitError):
            LFSRPatternGenerator(width=99)


class TestMISR:
    def _signature(self, words):
        misr = MISR(width=32)
        for w in words:
            misr.observe(w)
        return misr.signature

    def test_single_bit_flip_changes_signature(self):
        words = [0x1234, 0x5678, 0x9ABC, 0xDEF0]
        clean = self._signature(words)
        for i in range(len(words)):
            for bit in (0, 7, 15):
                flipped = list(words)
                flipped[i] ^= 1 << bit
                assert self._signature(flipped) != clean, (i, bit)

    def test_order_sensitive(self):
        assert self._signature([1, 2, 3]) != self._signature([3, 2, 1])

    def test_reset_restores_init(self):
        misr = MISR(width=16, init=0xACE1)
        misr.observe(0xFFFF)
        misr.reset()
        assert misr.signature == 0xACE1
        assert misr.n_observed == 0

    def test_narrow_misr_rejected(self):
        with pytest.raises(CircuitError):
            MISR(width=4)


class TestSignatureAnalyzer:
    def test_two_bits_per_observed_node(self):
        chip = compile_workload("match", M, char_bits=W)
        analyzer = SignatureAnalyzer()
        nodes = analyzer.response_nodes(chip.netlist, chip.placement)
        assert len(analyzer.sample(chip.netlist, nodes)) == 2 * len(nodes)

    def test_every_cell_output_is_a_test_point(self):
        """The d-chain is random-pattern resistant and interior
        accumulator misphases race to the chip edge: every comparator
        d_out and every accumulator output must be tapped directly."""
        chip = compile_workload("match", M, char_bits=W)
        cells = chip.netlist.instance_ports
        nodes = set(
            SignatureAnalyzer().response_nodes(chip.netlist, chip.placement)
        )
        for i in range(M):
            for j in range(W):
                assert cells[f"c{i}_{j}"]["d_out"] in nodes
            acc = cells[f"a{i}"]
            for port in ("d_in", "r_out0", "lam_out", "x_out"):
                assert acc[port] in nodes, f"a{i}.{port}"


class TestControllerFSM:
    def test_healthy_chip_passes(self, controller):
        report = controller.run(chip_name="healthy")
        assert report.ok
        assert report.functional_ok
        assert report.timing_ok is True
        assert report.signature == report.golden
        assert report.diagnosis is None

    def test_healthy_states_trace(self, controller):
        states = controller.run().states
        assert states[0] == BISTState.RESET.value
        assert states[1] == BISTState.LOAD_GOLDEN.value
        assert states[-1] == BISTState.PASS.value
        assert states.count(BISTState.SHIFT.value) == VECTORS
        assert states.count(BISTState.CAPTURE.value) == VECTORS
        assert BISTState.COMPARE.value in states
        assert BISTState.CHARACTERIZE.value in states
        assert BISTState.DIAGNOSE.value not in states

    def test_failing_states_trace(self, controller):
        defect = CellDefect(CellDefectKind.STUCK_AT_1, 0, 0, port="d_out")
        states = controller.run(defect=defect).states
        assert BISTState.DIAGNOSE.value in states
        assert states[-1] == BISTState.FAIL.value

    def test_deterministic_reports(self, controller):
        defect = mutation_defect("lvs-shorted-tracks", M, W)
        a = controller.run(defect=defect)
        b = controller.run(defect=defect)
        assert a.signature == b.signature
        assert a.diagnosis == b.diagnosis

    def test_bad_geometry_rejected(self):
        with pytest.raises(CircuitError):
            BISTController(m=0, w=2)
        with pytest.raises(CircuitError):
            BISTController(m=2, w=2, vectors=0)

    def test_cli_bad_geometry_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            bist_main(["demo", "--m", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1] == (
            "python -m repro.bist: error: BIST array needs at least one "
            "column and row"
        )


class TestCharacterizer:
    def test_healthy_chip_meets_phase_budget(self, controller):
        c = controller.run().characterization
        assert c is not None
        assert c.meets_budget and c.settled
        assert c.worst_delay_ns <= c.phase_budget_ns
        assert c.recommended_beat_ns == 250.0
        assert c.max_settle_passes >= 1

    def test_slow_path_fails_timing_not_function(self, controller):
        """An unbuffered chain computes correctly but blows the Elmore
        budget: functional PASS, timing FAIL, overall FAIL -- with a
        binning recommendation instead of a bare verdict."""
        report = controller.run(
            defect=mutation_defect("timing-unbuffered-chain", M, W)
        )
        assert report.functional_ok
        assert report.timing_ok is False
        assert not report.ok
        c = report.characterization
        assert c.worst_delay_ns > c.phase_budget_ns
        assert c.recommended_beat_ns > 250.0
        assert report.diagnosis is not None
        assert report.diagnosis.beat == -1  # timing-only: no divergence


class TestCoverage:
    def test_fault_universe_coverage_meets_gate(self, controller, universe):
        escapes = [
            d.describe() for d in universe if controller.run(defect=d).ok
        ]
        coverage = 1.0 - len(escapes) / len(universe)
        assert coverage >= COVERAGE_GATE, (
            f"BIST coverage {coverage:.3f} below the {COVERAGE_GATE} gate "
            f"on a {M}x{W} array ({len(escapes)}/{len(universe)} faults "
            f"escaped): " + ", ".join(escapes)
        )

    def test_every_signoff_mutant_caught_and_diagnosed(self, controller):
        """Each seeded mutant of repro.signoff.mutations has a gate-level
        equivalent; BIST must catch all of them *and* blame the right
        cell (fault-dictionary diagnosis, not just a failing bit)."""
        misses = []
        for name in MUTATION_DEFECT_NAMES:
            defect = mutation_defect(name, M, W)
            report = controller.run(defect=defect, chip_name=name)
            if report.ok:
                misses.append(f"{name}: escaped ({defect.describe()})")
            elif report.diagnosis is None:
                misses.append(f"{name}: caught but undiagnosed")
            elif report.diagnosis.cell != defect.cell:
                misses.append(
                    f"{name}: blamed {report.diagnosis.cell}, "
                    f"defect is in {defect.cell}"
                )
        assert not misses, "; ".join(misses)

    def test_universe_size_scales_with_geometry(self):
        assert len(fault_universe(2, 2)) == 78
        assert len(fault_universe(3, 2)) == 117
