"""Property: the shard merge equals a position-by-position merge.

:func:`merge_shard_values` copies each shard's owned slice in one step
into one result array and checks coverage on the shards' intervals.
Over random plans it must agree with the plain per-position reassembly
kept below, raise the same :class:`ServiceError` messages, and
:func:`merge_shard_results` must hand back a ``bool`` array (Python
``bool`` values once converted) whatever truthy type the shards
returned.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.service import (
    TextShard,
    merge_shard_results,
    merge_shard_values,
    plan_shards,
)

plans = st.tuples(
    st.integers(1, 12),  # pattern_len
    st.integers(0, 600),  # text_len
    st.integers(1, 8),  # n_workers
    st.integers(1, 6),  # max_shards
    st.integers(1, 96),  # min_shard_chars
)


def reference_merge(shards, shard_results, text_len, incomplete=False):
    """Position-by-position reassembly with a per-position coverage map."""
    if len(shards) != len(shard_results):
        raise ServiceError(
            f"{len(shards)} shards but {len(shard_results)} result streams"
        )
    filled = [False] * text_len
    out = [incomplete] * text_len
    for shard, results in zip(shards, shard_results):
        if len(results) != shard.n_fed:
            raise ServiceError(
                f"shard {shard.index} fed {shard.n_fed} chars but returned "
                f"{len(results)} results"
            )
        for g in range(shard.out_lo, shard.out_hi + 1):
            out[g] = results[g - shard.feed_start]
            filled[g] = True
    if not all(filled):
        raise ServiceError(
            f"no shard owns text position {filled.index(False)}"
        )
    return out


def _plan(args):
    pattern_len, text_len, n_workers, max_shards, min_chars = args
    return plan_shards(pattern_len, text_len, n_workers, max_shards,
                       min_chars).shards, text_len


def _tagged(shards):
    """Per-shard streams whose values name their shard and position
    (``1000 * shard + position``: fed slices are under 1000 long)."""
    return [[1000 * s.index + j for j in range(s.n_fed)] for s in shards]


def _error(fn, *args):
    with pytest.raises(ServiceError) as info:
        fn(*args)
    return str(info.value)


@settings(max_examples=300, deadline=None)
@given(plans)
def test_merge_equals_per_position_reference(args):
    shards, text_len = _plan(args)
    streams = _tagged(shards)
    merged = merge_shard_values(shards, streams, text_len, -1)
    assert merged.tolist() == reference_merge(shards, streams, text_len, -1)


@settings(max_examples=200, deadline=None)
@given(plans, st.data())
def test_wrong_stream_length_names_the_shard(args, data):
    shards, text_len = _plan(args)
    if not shards:
        return
    streams = _tagged(shards)
    bad = data.draw(st.integers(0, len(shards) - 1))
    short = data.draw(st.integers(0, shards[bad].n_fed - 1))
    streams[bad] = streams[bad][:short]
    got = _error(merge_shard_values, shards, streams, text_len)
    assert got == _error(reference_merge, shards, streams, text_len)
    assert got.startswith(f"shard {shards[bad].index} fed ")


@settings(max_examples=200, deadline=None)
@given(plans, st.data())
def test_unowned_position_names_the_first_missing_index(args, data):
    shards, text_len = _plan(args)
    if not shards:
        return
    gone = data.draw(st.integers(0, len(shards) - 1))
    kept = shards[:gone] + shards[gone + 1:]
    streams = _tagged(kept)
    got = _error(merge_shard_values, kept, streams, text_len)
    assert got == _error(reference_merge, kept, streams, text_len)
    assert got == f"no shard owns text position {shards[gone].out_lo}"


@settings(max_examples=100, deadline=None)
@given(plans, st.sampled_from(["int", "numpy"]), st.data())
def test_bool_merge_returns_python_bools(args, kind, data):
    shards, text_len = _plan(args)
    streams = [
        data.draw(st.lists(st.integers(0, 1), min_size=s.n_fed,
                           max_size=s.n_fed))
        for s in shards
    ]
    if kind == "numpy":
        streams = [np.array(s, dtype=bool) for s in streams]
    merged = merge_shard_results(shards, streams, text_len)
    assert merged.dtype == bool
    published = merged.tolist()
    assert all(type(b) is bool for b in published)
    assert published == [bool(b) for b in reference_merge(shards, streams,
                                                           text_len)]


@pytest.mark.parametrize("shard", [
    TextShard(0, 0, 10, 0),  # runs past a 10-position text
    TextShard(0, -1, 9, -1),  # starts before it
    TextShard(0, 2, 9, 3),  # fed from past its first owned position
])
def test_shard_that_does_not_fit_the_text_is_rejected(shard):
    stream = [False] * max(0, shard.n_fed)
    with pytest.raises(ServiceError, match="does not fit a 10-position text"):
        merge_shard_values([shard], [stream], 10)
