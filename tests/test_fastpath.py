"""Property: the vectorized match kernel is the systolic matcher.

:func:`~repro.core.fastpath.fast_match_many`, which
:meth:`PatternMatcher.match` and :meth:`PatternMatchingChip.match` run as
a batch of one, must agree bit for bit with the stepwise
:class:`~repro.core.matcher.PatternMatcher` (the beat-level array
simulation) and with :func:`~repro.core.reference.match_oracle` over
random alphabets, random wildcard patterns and random texts.  The kernel
is only allowed to be a speedup, never a different matcher.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    WILDCARD,
    Alphabet,
    PatternMatcher,
    match_oracle,
    parse_pattern,
)
from repro.chip.chip import ChipSpec, PatternMatchingChip
from repro.core.fastpath import fast_match_many
from repro.errors import AlphabetError

AB4 = Alphabet("ABCD")

SYMBOL_POOL = "ABCDEFGH"


@st.composite
def alphabet_pattern_text(draw):
    """A random alphabet (2..8 symbols, random encoding width), a random
    wildcard-bearing pattern over it, and a random text."""
    n_sym = draw(st.integers(2, len(SYMBOL_POOL)))
    symbols = SYMBOL_POOL[:n_sym]
    min_bits = max(1, (n_sym - 1).bit_length())
    bits = draw(st.integers(min_bits, min_bits + 2))
    alphabet = Alphabet(symbols, bits=bits)
    # Use the canonical WILDCARD object so patterns stay valid even when
    # the alphabet itself contains the letter X-equivalent symbols.
    pattern = draw(
        st.lists(
            st.one_of(st.sampled_from(symbols), st.just(WILDCARD)),
            min_size=1,
            max_size=12,
        )
    )
    text = draw(st.text(alphabet=symbols, min_size=0, max_size=80))
    return alphabet, pattern, text


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(alphabet_pattern_text())
    def test_fast_equals_stepwise_equals_oracle(self, case):
        alphabet, pattern, text = case
        fast = PatternMatcher(pattern, alphabet).match(text)
        stepwise = PatternMatcher(pattern, alphabet).report(text).results
        oracle = match_oracle(parse_pattern(pattern, alphabet), list(text))
        assert fast == stepwise == oracle
        rows = fast_match_many(pattern, [alphabet.encode_text(text)], alphabet)
        assert [row.tolist() for row in rows] == [oracle]

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(alphabet="ABCDX", min_size=1, max_size=14),
        st.text(alphabet="ABCD", min_size=0, max_size=120),
    )
    def test_symbolic_wildcard_patterns(self, pattern, text):
        fast = PatternMatcher(pattern, AB4).match(text)
        stepwise = PatternMatcher(pattern, AB4).report(text).results
        assert fast == stepwise
        assert fast == match_oracle(parse_pattern(pattern, AB4), list(text))

    def test_pattern_longer_than_text(self):
        assert PatternMatcher("ABCD", AB4).match("AB") == [False, False]

    def test_all_wild_pattern_accepts_everything_after_fill(self):
        out = PatternMatcher("XXX", AB4).match("ABCDA")
        assert out == [False, False, True, True, True]

    def test_find_reports_start_positions(self):
        m = PatternMatcher("AXC", AB4)
        assert m.match("ABCAACACCAB")[2] is True
        assert m.find("ABCAACACCAB") == [0, 3, 6]


class TestApiParity:
    def test_rejects_out_of_alphabet_text_like_validating_paths(self):
        chip = PatternMatchingChip(ChipSpec(4, 2), AB4)
        chip.load_pattern("AB")
        matchers = (
            PatternMatcher("AB", AB4).match,
            chip.match,
            AB4.encode_text,  # the one encoder the kernels' rows come from
        )
        # A stray letter, a non-str item, a symbol outside latin-1.
        for bad in ("ABZ", ["A", 5], "AB\u0100"):
            with pytest.raises(AlphabetError) as ref_err:
                AB4.validate_text(bad)
            for match in matchers:
                with pytest.raises(AlphabetError) as err:
                    match(bad)
                assert str(err.value) == str(ref_err.value)

    def test_matcher_routes_match_but_not_report(self):
        m = PatternMatcher("AXC", AB4)
        text = "ABCAACACCAB"
        assert m.match(text) == match_oracle(m.pattern, list(text))
        # match() ran the kernel: the stepwise array never fired.
        assert m.array.array.fire_count == 0
        assert m.match(text) == m.report(text).results
        # report() ran the stepwise array: beat counters advanced.
        assert m.array.array.fire_count > 0

    def test_trace_mode_disables_fast_path(self):
        m = PatternMatcher("AXC", AB4, trace=True)
        text = "ABCAACACCAB"
        assert m.match(text) == match_oracle(m.pattern, list(text))
        # The match ran beat by beat: the recorder saw every beat.
        assert m.recorder.beats
        assert len(m.recorder.beats) == m.array.array.beat

    def test_pattern_metadata(self):
        m = PatternMatcher("AXC", AB4)
        assert m.pattern_string == "AXC"
        assert m.pattern_length == 3


class TestChipMatch:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 8),
        st.text(alphabet="ABCDX", min_size=1, max_size=8),
        st.text(alphabet="ABCD", min_size=0, max_size=60),
    )
    def test_chip_match_equals_oracle_equals_report(self, cells, pattern, text):
        if len(pattern) > cells:
            pattern = pattern[:cells]
        chip = PatternMatchingChip(ChipSpec(cells, 2), AB4)
        chip.load_pattern(pattern)
        oracle = match_oracle(parse_pattern(pattern, AB4), list(text))
        assert chip.match(text) == oracle == chip.report(text).results
