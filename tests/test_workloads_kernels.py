"""Differential tests for the Section 3.4 workload kernels.

Three independent implementations of every workload must agree:

* ``fast``     -- the packed/strided kernels in :mod:`repro.core.fastpath`
* ``oracle``   -- the direct definition (``count_oracle`` and friends)
* ``stepwise`` -- the behavioral cell-by-cell :mod:`repro.extensions`
  machines (the executable spec of the paper's cells)

and, for the counting kernel, the gate-level accumulator netlist provides
a fourth, transistor-level cross-check: a window counts ``L`` matches iff
the switch-level matcher reports a match there.

Numeric streams are drawn as integer-valued floats: float64 arithmetic on
them is exact regardless of summation order, so the three engines must be
*equal*, not merely close, and the farm can mix fast and oracle shard
provenance without tolerance bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet, FastCounter, count_oracle, parse_pattern
from repro.core.fastpath import (
    FastMatcher,
    fast_inner_products,
    fast_squared_distances,
)
from repro.core.reference import correlation_oracle
from repro.errors import PatternError
from repro.extensions import systolic_convolution, systolic_match_counts
from repro.workloads import WorkloadError, get_workload, list_workloads, run_workload

AB = Alphabet("ABCD")

char_patterns = st.text(alphabet="ABCDX", min_size=1, max_size=12)
char_streams = st.text(alphabet="ABCD", min_size=0, max_size=60)
int_floats = st.integers(-8, 8).map(float)
taps_lists = st.lists(int_floats, min_size=1, max_size=8)
numeric_streams = st.lists(int_floats, min_size=0, max_size=60)


class TestFastCounter:
    @settings(max_examples=60, deadline=None)
    @given(char_patterns, char_streams)
    def test_agrees_with_oracle_and_stepwise_cells(self, pattern, text):
        parsed = parse_pattern(pattern, AB)
        fast = FastCounter(pattern, AB).counts(text)
        assert fast == count_oracle(parsed, list(text))
        assert fast == systolic_match_counts(pattern, text, AB)

    def test_wildcards_always_count(self):
        assert FastCounter("XX", AB).counts("ABCD") == [0, 2, 2, 2]

    def test_invalid_symbol_raises_alphabet_error(self):
        with pytest.raises(Exception):
            FastCounter("AB", AB).counts("AZ")

    def test_long_pattern_spans_many_lanes(self):
        pattern = "ABCD" * 10  # 40 lanes, 6 bits each
        text = "ABCD" * 25
        parsed = parse_pattern(pattern, AB)
        assert FastCounter(pattern, AB).counts(text) == count_oracle(
            parsed, list(text)
        )


class TestNumericKernels:
    @settings(max_examples=60, deadline=None)
    @given(taps_lists, numeric_streams)
    def test_squared_distances_agree(self, taps, stream):
        assert fast_squared_distances(taps, stream) == correlation_oracle(
            taps, stream
        )

    @settings(max_examples=60, deadline=None)
    @given(taps_lists, numeric_streams)
    def test_inner_products_agree_with_definition(self, taps, stream):
        k = len(taps) - 1
        want = [0.0] * min(k, len(stream)) + [
            sum(taps[j] * stream[i - k + j] for j in range(len(taps)))
            for i in range(k, len(stream))
        ]
        assert fast_inner_products(taps, stream) == want

    def test_convolution_matches_numpy(self):
        h, x = [1.0, -2.0, 3.0], [4.0, 0.0, -1.0, 2.0, 5.0]
        assert run_workload("convolution", h, x) == list(
            np.convolve(h, x).astype(float)
        )
        assert systolic_convolution(h, x) == list(np.convolve(h, x))

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            fast_inner_products([], [1.0])
        with pytest.raises(ValueError):
            fast_squared_distances([], [1.0])


class TestRegistryEngines:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["correlation", "inner-product", "convolution", "fir"]),
        taps_lists,
        numeric_streams,
    )
    def test_numeric_engines_agree(self, name, taps, stream):
        spec = get_workload(name)
        fast = spec.run(taps, stream, engine="fast")
        assert fast == spec.run(taps, stream, engine="oracle")
        assert fast == spec.run(taps, stream, engine="stepwise")

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["match", "count"]), char_patterns, char_streams
    )
    def test_char_engines_agree(self, name, pattern, text):
        spec = get_workload(name)
        fast = spec.run(pattern, text, AB, engine="fast")
        assert fast == spec.run(pattern, text, AB, engine="oracle")
        assert fast == spec.run(pattern, text, AB, engine="stepwise")

    def test_real_float_taps_match_oracle_closely(self):
        """Non-integer floats: fast vs stepwise may differ in summation
        order, so assert closeness there (fast vs oracle share order)."""
        taps = [0.1, -0.25, 1.7]
        stream = [0.3, 1.1, -2.2, 0.7, 5.5, -0.4]
        spec = get_workload("fir")
        fast = spec.run(taps, stream)
        step = spec.run(taps, stream, engine="stepwise")
        assert fast == pytest.approx(step, rel=1e-12, abs=1e-12)

    def test_unknown_workload_and_missing_alphabet(self):
        with pytest.raises(WorkloadError):
            get_workload("sorting")
        with pytest.raises(WorkloadError):
            run_workload("count", "AB", "AB")  # no alphabet
        with pytest.raises(PatternError):
            run_workload("fir", [], [1.0])

    def test_registry_lists_all_section_34_kernels(self):
        assert list_workloads() == [
            "convolution", "correlation", "count", "fir",
            "inner-product", "match",
        ]
        for name in list_workloads():
            spec = get_workload(name)
            assert spec.section in {"3.1", "3.4"}


class TestGateLevelCrossCheck:
    def test_full_count_iff_gate_level_match(self):
        """Transistor-level anchor: the counting kernel reports a full
        window count exactly where the switch-level accumulator netlist
        reports a match -- tying the numeric workload engine back to the
        paper's actual circuit."""
        from repro.compiler import GateLevelMatcher

        pattern, text = "AXC", "ABCAACACCAB"
        L = len(pattern)
        counts = FastCounter(pattern, AB).counts(text)
        gate = GateLevelMatcher(pattern, AB).match(text)
        assert [c == L for c in counts] == gate
        fast_match = FastMatcher(pattern, AB).match(text)
        assert gate == fast_match
