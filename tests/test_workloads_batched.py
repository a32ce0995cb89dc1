"""`engine="batched"` and `run_many`: every registry workload, verified.

Each workload has one serving kernel, ``batched``; a solo job or a text
shard runs it as a batch of one (``run(engine="fast")``).  So the reference
here is independent of that kernel: the per-job kernels of
:mod:`repro.core.fastpath` (``FastMatcher.match``, ``FastCounter.counts``,
``fast_inner_products``, ``fast_squared_distances``) applied to the
prepared taps and feeds, and the ``oracle``.  Both a ragged batch (mixed
stream lengths, including empty members) and a batch of one must agree
with them for **every** workload, because the service layers route
traffic either way and promise oracle-identical answers regardless.  On
non-integer float inputs the per-job numeric kernels and a batch of one
must be bit-identical; a ragged batch must agree up to rounding.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet
from repro.core.fastpath import (
    FastCounter,
    FastMatcher,
    fast_inner_products,
    fast_squared_distances,
)
from repro.workloads import (
    WorkloadError,
    get_workload,
    list_workloads,
    run_workload,
    run_workload_many,
)

AB = Alphabet("ABCD")

CHAR_WORKLOADS = ("match", "count")
NUMERIC_WORKLOADS = ("correlation", "inner-product", "convolution", "fir")

#: The per-job window-space kernel of each workload: (taps, feed) -> merged.
PER_JOB = {
    "match": lambda taps, feed: FastMatcher(taps, AB).match(feed),
    "count": lambda taps, feed: FastCounter(taps, AB).counts(feed),
    "correlation": fast_squared_distances,
    "inner-product": fast_inner_products,
    "convolution": fast_inner_products,
    "fir": fast_inner_products,
}

char_patterns = st.text(alphabet="ABCDX", min_size=1, max_size=10)
char_texts = st.text(alphabet="ABCD", min_size=0, max_size=50)
int_floats = st.integers(-8, 8).map(float)
taps_lists = st.lists(int_floats, min_size=1, max_size=6)
numeric_streams = st.lists(int_floats, min_size=0, max_size=40)
real_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def per_job(name, params, stream):
    """*name* over one stream through its per-job fastpath kernel."""
    spec = get_workload(name)
    alphabet = None if spec.numeric else AB
    taps = spec.parse_params(params, alphabet)
    validated = spec.validate_stream(stream, alphabet)
    ktaps, feed = spec.prepare(taps, validated)
    return spec.finalize(ktaps, len(validated), PER_JOB[name](ktaps, feed))


def types(rows):
    return [[type(v) for v in row] for row in rows]


def bits(rows):
    """Each value with its exact type and float bit pattern."""
    return [
        [(type(v), v.hex() if isinstance(v, float) else v) for v in row]
        for row in rows
    ]


class TestEveryWorkload:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(CHAR_WORKLOADS),
        char_patterns,
        st.lists(char_texts, min_size=0, max_size=6),
    )
    def test_char_batched_equals_fast_equals_oracle(
        self, name, pattern, texts
    ):
        spec = get_workload(name)
        expected = [per_job(name, pattern, t) for t in texts]
        assert bits(spec.run_many(pattern, texts, AB)) == bits(expected)
        solo = [spec.run(pattern, t, AB, engine="fast") for t in texts]
        assert bits(solo) == bits(expected)
        oracle = spec.run_many(pattern, texts, AB, engine="oracle")
        assert oracle == expected and types(oracle) == types(expected)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(NUMERIC_WORKLOADS),
        taps_lists,
        st.lists(numeric_streams, min_size=0, max_size=6),
    )
    def test_numeric_batched_equals_fast_equals_oracle(
        self, name, taps, streams
    ):
        spec = get_workload(name)
        expected = [per_job(name, taps, s) for s in streams]
        assert bits(spec.run_many(taps, streams)) == bits(expected)
        solo = [spec.run(taps, s, engine="fast") for s in streams]
        assert bits(solo) == bits(expected)
        oracle = spec.run_many(taps, streams, engine="oracle")
        assert oracle == expected and types(oracle) == types(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(NUMERIC_WORKLOADS),
        st.lists(real_floats, min_size=1, max_size=8),
        st.lists(real_floats, min_size=0, max_size=60),
    )
    def test_real_floats_batch_of_one_bit_identical_to_per_job(
        self, name, taps, stream
    ):
        spec = get_workload(name)
        expected = per_job(name, taps, stream)
        assert bits([spec.run(taps, stream)]) == bits([expected])
        assert bits([spec.run(taps, stream, engine="batched")]) == bits(
            [expected]
        )
        oracle = spec.run(taps, stream, engine="oracle")
        assert oracle == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(NUMERIC_WORKLOADS),
        st.lists(real_floats, min_size=1, max_size=6),
        st.lists(st.lists(real_floats, max_size=30), min_size=1, max_size=5),
    )
    def test_real_floats_ragged_batch_matches_per_job(
        self, name, taps, streams
    ):
        # A stream padded into a taller matrix may take a different numpy
        # matmul loop than it does alone, so only the rounding may differ.
        got = get_workload(name).run_many(taps, streams)
        expected = [per_job(name, taps, s) for s in streams]
        assert types(got) == types(expected)
        for row, ref in zip(got, expected):
            assert row == pytest.approx(ref, rel=1e-9, abs=1e-6)

    def test_all_registry_workloads_have_a_batched_path(self):
        for name in list_workloads():
            assert get_workload(name).batched is not None

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(CHAR_WORKLOADS), char_patterns, char_texts)
    def test_run_engine_batched_single_stream(self, name, pattern, text):
        got = run_workload(name, pattern, text, AB, engine="batched")
        assert got == run_workload(name, pattern, text, AB, engine="oracle")


class TestEdges:
    def test_empty_batch(self):
        assert run_workload_many("match", "AX", [], AB) == []
        assert run_workload_many("fir", [1.0, 2.0], []) == []

    def test_ragged_batch_with_empty_members(self):
        texts = ["", "ABCD", "A", "ABCDABCDABCD"]
        rows = run_workload_many("count", "AX", texts, AB)
        assert rows == [
            run_workload("count", "AX", t, AB, engine="oracle") for t in texts
        ]

    def test_equal_length_batch_and_batch_of_one(self):
        texts = ["ABCA", "CABD", "AACC"]
        assert run_workload_many("match", "AX", texts, AB) == [
            per_job("match", "AX", t) for t in texts
        ]
        assert run_workload_many("fir", [0.5, 0.25], [[]]) == [[]]
        assert run_workload_many("match", "ABC", [""], AB) == [[]]

    def test_stepwise_engine_still_loops(self):
        rows = run_workload_many(
            "match", "AB", ["ABAB", "BA"], AB, engine="stepwise"
        )
        assert rows == [
            run_workload("match", "AB", t, AB, engine="oracle")
            for t in ("ABAB", "BA")
        ]

    def test_unknown_engine_rejected(self):
        with pytest.raises(WorkloadError):
            run_workload_many("match", "AB", ["AB"], AB, engine="warp")
        with pytest.raises(WorkloadError):
            run_workload("match", "AB", "AB", AB, engine="warp")
