"""Packaged chips, the Figure 3-7 cascade, and the Plate 2 prototype."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, match_oracle, parse_pattern
from repro.chip import ChipCascade, PatternMatchingChip, PrototypeChip
from repro.chip.chip import ChipSpec
from repro.chip.prototype import DESIGN_EFFORT_MAN_MONTHS, PROTOTYPE
from repro.compiler import compile_workload
from repro.errors import ChipError, PatternError

from conftest import AB4, patterns, texts


class TestChipSpec:
    def test_prototype_parameters(self):
        assert PROTOTYPE.cells == 8
        assert PROTOTYPE.char_bits == 2
        assert PROTOTYPE.kernel == "match"
        assert PROTOTYPE.beat_ns == 250.0

    def test_extensibility_pin_set(self):
        """Section 3.4: pattern/text outputs and a result input exist on
        the compiled prototype's pad ring."""
        pins = compile_workload(
            PROTOTYPE.kernel, PROTOTYPE.cells, char_bits=PROTOTYPE.char_bits
        ).assembler.pin_names()
        for required in ("R_IN0", "R_OUT0", "LAM_OUT", "P_OUT0", "S_OUT1"):
            assert required in pins

    def test_invalid_specs_rejected(self):
        with pytest.raises(ChipError):
            ChipSpec(cells=0, char_bits=2)
        with pytest.raises(ChipError):
            ChipSpec(cells=4, char_bits=0)
        with pytest.raises(ChipError):
            ChipSpec(cells=4, char_bits=2, beat_ns=-1)

    def test_one_spec_serves_and_compiles(self):
        """The pool's ``ChipSpec(16, 2)`` is the compiler's 16x2 match
        chip; a beat time in the kernel slot fails at the kernel check,
        and a non-match spec cannot be packaged as a pattern matcher."""
        spec = ChipSpec(16, 2)
        assert (spec.cells, spec.char_bits, spec.kernel) == (16, 2, "match")
        assert spec.beat_ns == 250.0
        assert spec.name == "match_16x2"
        with pytest.raises(ChipError, match="unknown kernel"):
            ChipSpec(8, 2, 250.0)
        with pytest.raises(ChipError):
            PatternMatchingChip(ChipSpec(4, kernel="count"), AB4)
        with pytest.raises(ChipError):
            ChipCascade(ChipSpec(4, kernel="inner-product"), 2, AB4)

    def test_serving_tier_loads_no_compiler(self):
        """The spec lives in ``repro.chip`` so that building a farm never
        pays for importing the compiler (a fresh interpreter, since this
        one has long loaded it)."""
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        probe = (
            "import sys, repro.service, repro.chip\n"
            "print(sorted(m for m in sys.modules"
            " if m.startswith('repro.compiler')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert out.strip() == "[]"


class TestPatternMatchingChip:
    def test_requires_loaded_pattern(self, ab4):
        chip = PatternMatchingChip(ChipSpec(4, 2), ab4)
        with pytest.raises(ChipError):
            chip.match("AB")

    def test_capacity_enforced(self, ab4):
        chip = PatternMatchingChip(ChipSpec(2, 2), ab4)
        with pytest.raises(PatternError):
            chip.load_pattern("ABC")

    def test_alphabet_width_enforced(self):
        wide = Alphabet("ABCDEFGH")  # 3 bits
        with pytest.raises(ChipError):
            PatternMatchingChip(ChipSpec(4, 2), wide)

    def test_zero_beat_pattern_reload(self, ab4):
        """Recirculation means a new pattern costs no array beats -- the
        advantage over the rejected static design."""
        chip = PatternMatchingChip(ChipSpec(4, 2), ab4)
        chip.load_pattern("AB")
        first = chip.match("ABAB")
        chip.load_pattern("BA")
        second = chip.match("ABAB")
        assert first == [False, True, False, True]
        assert second == [False, False, True, False]

    def test_multipass_for_long_patterns(self, ab4):
        chip = PatternMatchingChip(ChipSpec(2, 2), ab4)
        text = "ABCDABCD"
        got = chip.match_long_pattern("ABCD", text)
        assert got == match_oracle(parse_pattern("ABCD", ab4), list(text))

    def test_timing_report(self, ab4):
        chip = PatternMatchingChip(ChipSpec(4, 2), ab4)
        chip.load_pattern("AB")
        rep = chip.report("ABAB")
        assert chip.elapsed_ns(rep) == rep.beats * 250.0
        assert chip.text_rate_chars_per_s() == pytest.approx(2e6)


class TestPrototype:
    def test_plate2_configuration(self):
        chip = PrototypeChip()
        assert chip.max_pattern_length == 8
        assert chip.alphabet.bits == 2
        assert chip.data_rate_mchars_per_s() == pytest.approx(4.0)

    def test_design_effort_constant(self):
        assert DESIGN_EFFORT_MAN_MONTHS == 2.0

    def test_full_capacity_pattern(self):
        chip = PrototypeChip()
        chip.load_pattern("ABCDABCD")
        text = "ABCDABCDABCDABCD"
        want = match_oracle(parse_pattern("ABCDABCD", chip.alphabet), list(text))
        assert chip.match(text) == want


class TestCascade:
    def test_capacity_is_kn(self, ab4):
        """'A cascade of k chips with n cells each can match patterns of
        up to kn characters.'"""
        casc = ChipCascade(ChipSpec(8, 2), 5, ab4)
        assert casc.capacity == 40

    def test_figure_3_7_five_chips(self, ab4):
        casc = ChipCascade(ChipSpec(2, 2), 5, ab4)
        pattern = "ABCDABCDAB"  # length 10 = full 5x2 capacity
        casc.load_pattern(pattern)
        text = "AABCDABCDABCDABCDABA"
        want = match_oracle(parse_pattern(pattern, ab4), list(text))
        assert casc.match(text) == want

    def test_over_capacity_rejected(self, ab4):
        casc = ChipCascade(ChipSpec(2, 2), 2, ab4)
        with pytest.raises(PatternError):
            casc.load_pattern("ABCDA")

    def test_rate_independent_of_chip_count(self, ab4):
        one = ChipCascade(ChipSpec(4, 2), 1, ab4)
        five = ChipCascade(ChipSpec(4, 2), 5, ab4)
        assert one.data_rate_chars_per_s() == five.data_rate_chars_per_s()

    def test_requires_loaded_pattern(self, ab4):
        with pytest.raises(ChipError):
            ChipCascade(ChipSpec(2, 2), 2, ab4).match("AB")

    @settings(max_examples=25, deadline=None)
    @given(pattern=patterns(max_len=6), text=texts(max_len=20),
           chips=st.integers(1, 3))
    def test_matches_oracle(self, pattern, text, chips):
        spec = ChipSpec(2, 2)
        if len(pattern) > 2 * chips:
            pattern = pattern[: 2 * chips]
        casc = ChipCascade(spec, chips, AB4)
        casc.load_pattern(pattern)
        want = match_oracle(parse_pattern(pattern, AB4), list(text))
        assert casc.match(text) == want
