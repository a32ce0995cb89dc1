"""The whole matcher at switch level vs the behavioural model/oracle.

This is the library's deepest cross-level check: the same feeding
schedule drives the compiled ``match`` chip's transistor netlist -- the
full Figure 3-3/3-4 array -- and must reproduce the algorithm bit for
bit.
"""

import random

import pytest

from repro import Alphabet, match_oracle
from repro.compiler import CompileError, GateLevelMatcher, compile_workload
from repro.errors import PatternError


def _gate_of(net, label):
    """The clock (or rail) gating the transistor labelled *label*."""
    return next(t.gate for t in net.circuit.transistors if t.label == label)


class TestNetlistStructure:
    def test_polarity_checkerboard(self):
        p = compile_workload("match", 4, char_bits=2).placement
        assert p.is_positive(p.grid[(0, 0)])
        assert not p.is_positive(p.grid[(1, 0)])
        assert not p.is_positive(p.grid[(0, 1)])
        assert p.is_positive(p.grid[(1, 1)])

    def test_phase_matches_polarity_parity(self):
        """Comparators latch on their grid parity's phase; accumulators
        transfer ``t`` on the opposite one (the result row is row 2)."""
        chip = compile_workload("match", 3, char_bits=2)
        net, p = chip.netlist, chip.placement
        for i in range(3):
            for j in range(3):
                inst = p.grid[(i, j)]
                assert net.phi[p.phase_index(inst)] == net.phi[(i + j) % 2]
                if j < 2:
                    gate = _gate_of(net, f"{inst}.pass_p")
                    assert gate == net.phi[(i + j) % 2]
                else:
                    gate = _gate_of(net, f"{inst}.t_xfer")
                    assert gate == net.phi[(i + j + 1) % 2]

    def test_transistor_count_scales_linearly(self):
        small = compile_workload("match", 2, char_bits=2).netlist.n_transistors
        large = compile_workload("match", 4, char_bits=2).netlist.n_transistors
        assert large == pytest.approx(2 * small, rel=0.1)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(CompileError):
            compile_workload("match", 0, char_bits=1)
        with pytest.raises(CompileError):
            compile_workload("match", 2, char_bits=0)


class TestGateLevelCorrectness:
    def test_paper_example_on_silicon_model(self):
        """The AXC example of Figure 3-1 through the transistor netlist."""
        g = GateLevelMatcher("AXC", Alphabet("ABCD"))
        text = "ABCAACACCAB"
        assert g.match(text) == match_oracle(g.pattern, list(text))

    def test_exhaustive_tiny_space(self, ab2):
        for pattern in ("A", "B", "X", "AB", "BX", "XA"):
            for t in range(8):
                text = format(t, "03b").replace("0", "A").replace("1", "B")
                g = GateLevelMatcher(pattern, ab2)
                assert g.match(text) == match_oracle(g.pattern, list(text)), (
                    pattern,
                    text,
                )

    def test_random_two_bit_cases(self, ab4):
        random.seed(23)
        for _ in range(4):
            L = random.randint(1, 3)
            pattern = "".join(random.choice("ABCDX") for _ in range(L))
            text = "".join(random.choice("ABCD") for _ in range(random.randint(3, 8)))
            g = GateLevelMatcher(pattern, ab4)
            assert g.match(text) == match_oracle(g.pattern, list(text)), (
                pattern,
                text,
            )

    def test_oversized_array(self, ab2):
        g = GateLevelMatcher("AB", ab2, n_cells=3)
        text = "AABAB"
        assert g.match(text) == match_oracle(g.pattern, list(text))

    def test_pattern_must_fit(self, ab2):
        with pytest.raises(PatternError):
            GateLevelMatcher("ABA", ab2, n_cells=2)

    def test_transistor_count_reported(self, ab2):
        g = GateLevelMatcher("AB", ab2)
        assert g.n_transistors > 50
