"""`engine="batched"` and `run_many`: every registry workload, verified.

Each workload has one serving kernel, ``batched``; a solo job or a text
shard runs it as a batch of one (``run(engine="batched")``, the
default).  So the references here are independent of that kernel: the
workload's ``oracle`` (the direct definition) and its ``stepwise``
cell-by-cell machine.  Both a ragged batch (mixed stream lengths,
including empty members) and a batch of one must agree with them for
**every** workload, because the service layers route traffic either way
and promise oracle-identical answers regardless.  On non-integer float
inputs ``run`` must be bit-identical to a batch of one, and a member of
a ragged batch must equal its own batch of one up to rounding.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Alphabet
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

char_patterns = st.text(alphabet="ABCDX", min_size=1, max_size=10)
char_texts = st.text(alphabet="ABCD", min_size=0, max_size=50)
int_floats = st.integers(-8, 8).map(float)
taps_lists = st.lists(int_floats, min_size=1, max_size=6)
numeric_streams = st.lists(int_floats, min_size=0, max_size=40)
real_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def oracle(name, params, stream):
    """*name* over one stream through its direct definition."""
    spec = get_workload(name)
    alphabet = None if spec.numeric else AB
    return spec.run(params, stream, alphabet, engine="oracle")


def stepwise(name, params, stream):
    """*name* over one stream through its cell-by-cell machine."""
    spec = get_workload(name)
    alphabet = None if spec.numeric else AB
    return spec.run(params, stream, alphabet, engine="stepwise")


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
        expected = [oracle(name, pattern, t) for t in texts]
        assert bits(spec.run_many(pattern, texts, AB)) == bits(expected)
        solo = [spec.run(pattern, t, AB, engine="batched") for t in texts]
        assert bits(solo) == bits(expected)
        assert [stepwise(name, pattern, t) for t in texts] == expected

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
        expected = [oracle(name, taps, s) for s in streams]
        assert bits(spec.run_many(taps, streams)) == bits(expected)
        solo = [spec.run(taps, s, engine="batched") for s in streams]
        assert bits(solo) == bits(expected)
        assert [stepwise(name, taps, s) for s in streams] == expected

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
        solo = spec.run(taps, stream)
        assert bits([solo]) == bits(spec.run_many(taps, [stream]))
        assert bits([solo]) == bits([spec.run(taps, stream, engine="batched")])
        want = oracle(name, taps, stream)
        assert types([solo]) == types([want])
        assert solo == pytest.approx(want, rel=1e-9, abs=1e-6)

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
        spec = get_workload(name)
        got = spec.run_many(taps, streams)
        alone = [spec.run(taps, s) for s in streams]
        assert types(got) == types(alone)
        for row, ref in zip(got, alone):
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
            oracle("match", "AX", t) for t in texts
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
