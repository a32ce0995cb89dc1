"""Property: the batched kernels are the Section 3.4 machines, many at once.

Every ``*_many`` kernel in :mod:`repro.core.fastpath` (one pattern x many
texts/streams) must agree element for element, row by row, with the
workload's oracle in :mod:`repro.core.reference` /
:mod:`repro.extensions.linear_products` and with its stepwise cell
machine (the beat-level matcher, the counting machine, the correlation
machine, the inner-product machine).  Ragged batches (mixed text
lengths) and the empty batch are first-class cases, not edge cases.
Numeric streams are integer-valued floats, so every sum is exact and the
engines must be *equal*.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, PatternMatcher, count_oracle, match_oracle, parse_pattern
from repro.core.fastpath import (
    fast_counts_many,
    fast_inner_products_many,
    fast_match_many,
    fast_squared_distances_many,
)
from repro.core.reference import correlation_oracle
from repro.errors import AlphabetError
from repro.extensions import (
    systolic_correlation,
    systolic_inner_products,
    systolic_match_counts,
)
from repro.extensions.linear_products import INNER_PRODUCT, linear_product_oracle

AB = Alphabet("ABCD")

char_patterns = st.text(alphabet="ABCDX", min_size=1, max_size=12)
char_texts = st.text(alphabet="ABCD", min_size=0, max_size=60)
int_floats = st.integers(-8, 8).map(float)
taps_lists = st.lists(int_floats, min_size=1, max_size=8)
numeric_streams = st.lists(int_floats, min_size=0, max_size=40)


def stepwise_match(pattern, text):
    return PatternMatcher(pattern, AB).report(text).results


def codes(texts):
    """The kernels' character rows: one encoded text per member."""
    return [AB.encode_text(t) for t in texts]


def lists(rows):
    return [row.tolist() for row in rows]


class TestManyTexts:
    @settings(max_examples=80, deadline=None)
    @given(char_patterns, st.lists(char_texts, min_size=0, max_size=8))
    def test_match_many_is_a_loop_of_fast_matchers(self, pattern, texts):
        parsed = parse_pattern(pattern, AB)
        rows = lists(fast_match_many(pattern, codes(texts), AB))
        assert len(rows) == len(texts)
        for text, row in zip(texts, rows):
            assert row == match_oracle(parsed, list(text))
            assert row == stepwise_match(pattern, text)

    @settings(max_examples=80, deadline=None)
    @given(char_patterns, st.lists(char_texts, min_size=0, max_size=8))
    def test_counts_many_is_a_loop_of_fast_counters(self, pattern, texts):
        parsed = parse_pattern(pattern, AB)
        rows = lists(fast_counts_many(pattern, codes(texts), AB))
        assert len(rows) == len(texts)
        for text, row in zip(texts, rows):
            assert row == count_oracle(parsed, list(text))
            assert row == systolic_match_counts(pattern, text, AB)

    def test_empty_batch(self):
        assert fast_match_many("AB", [], AB) == []
        assert fast_counts_many("AB", [], AB) == []

    def test_ragged_texts_including_empty_and_short(self):
        texts = ["", "A", "ABAB", "ABCDABCD" * 4]
        rows = lists(fast_match_many("ABX", codes(texts), AB))
        assert rows[0] == [] and rows[1] == [False]
        parsed = parse_pattern("ABX", AB)
        for text, row in zip(texts, rows):
            assert row == match_oracle(parsed, list(text))
            assert row == stepwise_match("ABX", text)

    def test_out_of_alphabet_in_any_member_raises(self):
        # Rows are encoded before any kernel runs: the encoder rejects.
        with pytest.raises(AlphabetError):
            fast_match_many("AB", codes(["ABCD", "AZ"]), AB)
        with pytest.raises(AlphabetError):
            fast_counts_many("AB", codes(["AZ"]), AB)
        with pytest.raises(TypeError):  # raw characters are not rows
            fast_match_many("AB", ["ABCD"], AB)


class TestManyStreams:
    @settings(max_examples=80, deadline=None)
    @given(taps_lists, st.lists(numeric_streams, min_size=0, max_size=8))
    def test_inner_products_many(self, taps, streams):
        rows = lists(fast_inner_products_many(taps, streams))
        assert len(rows) == len(streams)
        for stream, row in zip(streams, rows):
            assert row == linear_product_oracle(taps, stream, INNER_PRODUCT, 0.0)
            assert row == systolic_inner_products(taps, stream)

    @settings(max_examples=80, deadline=None)
    @given(taps_lists, st.lists(numeric_streams, min_size=0, max_size=8))
    def test_squared_distances_many(self, taps, streams):
        rows = lists(fast_squared_distances_many(taps, streams))
        assert len(rows) == len(streams)
        for stream, row in zip(streams, rows):
            assert row == correlation_oracle(taps, stream)
            assert row == systolic_correlation(taps, stream)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            fast_inner_products_many([], [[1.0]])
        with pytest.raises(ValueError):
            fast_squared_distances_many([], [[1.0]])

    def test_empty_batch(self):
        assert fast_inner_products_many([1.0], []) == []
        assert fast_squared_distances_many([1.0], []) == []
