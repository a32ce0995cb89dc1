"""Sharding: long patterns via multipass, wide texts across workers.

Two independent axes, both straight from Section 3.4:

* A pattern longer than a worker's cell count runs the *multipass*
  scheme on that worker (handled inside
  :meth:`~repro.service.pool.PoolWorker.run_kernel_batch`); the plan
  records it so telemetry and timing use multipass rates.
* A text much longer than a pattern can be cut into chunks and matched
  on several workers at once.  Each chunk overlaps its left neighbour by
  ``k = len(pattern) - 1`` characters so every window is seen whole;
  chunk results for the overlap prefix are discarded on merge, exactly
  like the substring bookkeeping of the multipass derivation.

The merge reassembles per-shard result streams into the single oracle
stream with one slice copy per shard into one result array allocated up
front (the plan fixes every output length before dispatch), checking
coverage on the shards' owned intervals rather than position by
position.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ServiceError


class ShardMode(Enum):
    """How a job is mapped onto the pool."""

    DIRECT = "direct"            # one worker, pattern fits
    MULTIPASS = "multipass"      # one worker, pattern longer than its cells
    TEXT_SHARDED = "text-sharded"  # several workers, text split with overlap


@dataclass(frozen=True)
class TextShard:
    """One contiguous slice of responsibility over the text.

    The shard owns output positions ``out_lo..out_hi`` (inclusive) and is
    fed ``text[feed_start : out_hi + 1]`` -- the owned slice plus the
    ``k``-character overlap needed to complete its leftmost window.
    """

    index: int
    out_lo: int
    out_hi: int
    feed_start: int

    @property
    def n_fed(self) -> int:
        return self.out_hi - self.feed_start + 1

    def feed(self, text: Sequence) -> Sequence:
        """The shard's slice of *text*: a view when *text* is an array
        or an :class:`~repro.alphabet.EncodedText`."""
        return text[self.feed_start : self.out_hi + 1]


@dataclass(frozen=True)
class ShardPlan:
    """The placement decision for one job."""

    mode: ShardMode
    shards: List[TextShard]

    @property
    def n_shards(self) -> int:
        return len(self.shards)


def plan_shards(
    pattern_len: int,
    text_len: int,
    n_workers: int,
    max_shards: int = 4,
    min_shard_chars: int = 64,
    obs=None,
) -> ShardPlan:
    """Cut ``[0, text_len)`` into at most ``min(n_workers, max_shards)``
    overlapping shards; falls back to one shard when the text is too
    short to be worth splitting.  An :class:`~repro.obs.Observability`
    bundle counts every decision into ``service.shard_plans`` by mode."""
    if pattern_len <= 0:
        raise ServiceError("pattern length must be positive")
    if text_len < 0:
        raise ServiceError("text length cannot be negative")
    if n_workers <= 0:
        raise ServiceError("need at least one worker to plan")
    plan = _plan_shards(pattern_len, text_len, n_workers, max_shards,
                        min_shard_chars)
    if obs is not None:
        obs.registry.counter("service.shard_plans", mode=plan.mode.value).inc()
    return plan


def _plan_shards(
    pattern_len: int,
    text_len: int,
    n_workers: int,
    max_shards: int,
    min_shard_chars: int,
) -> ShardPlan:
    k = pattern_len - 1
    whole = ShardPlan(ShardMode.DIRECT, [TextShard(0, 0, text_len - 1, 0)])
    if text_len == 0:
        return ShardPlan(ShardMode.DIRECT, [])
    n = min(n_workers, max_shards, max(1, text_len // min_shard_chars))
    # A shard must own at least one position past its overlap to be useful.
    n = min(n, max(1, text_len // max(1, k + 1)))
    if n <= 1:
        return whole
    base = text_len // n
    extra = text_len % n
    shards: List[TextShard] = []
    lo = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        hi = lo + size - 1
        shards.append(TextShard(i, lo, hi, max(0, lo - k)))
        lo = hi + 1
    return ShardPlan(ShardMode.TEXT_SHARDED, shards)


def merge_shard_values(
    shards: Sequence[TextShard],
    shard_results: Sequence[Sequence],
    text_len: int,
    incomplete=False,
) -> np.ndarray:
    """Reassemble per-shard windowed result streams into one array.

    Each shard's results are local to its fed slice; position ``j`` of
    shard *s* is global position ``s.feed_start + j``.  Only owned
    positions are kept; overlap-prefix results (incomplete windows from
    the shard's local point of view, which report ``incomplete``, and
    duplicated positions belonging to the left neighbour) are dropped.
    This is what makes halo-overlap sharding workload-agnostic: every
    Section 3.4 kernel produces one value per stream position with a
    ``window - 1`` warm-up, so the same owned/overlap bookkeeping merges
    match bits, match counts, and numeric windows alike.  The result
    array has ``text_len`` positions and the dtype of ``incomplete``
    (``bool``, ``int64`` or ``float64``), so every shard is one slice
    copy into it.
    """
    if len(shards) != len(shard_results):
        raise ServiceError(
            f"{len(shards)} shards but {len(shard_results)} result streams"
        )
    out = np.full(text_len, incomplete)
    for shard, results in zip(shards, shard_results):
        if len(results) != shard.n_fed:
            raise ServiceError(
                f"shard {shard.index} fed {shard.n_fed} chars but returned "
                f"{len(results)} results"
            )
        lo, hi, start = shard.out_lo, shard.out_hi, shard.feed_start
        if lo < 0 or hi >= text_len or start > lo:
            raise ServiceError(
                f"shard {shard.index} (fed from {start}, owning {lo}..{hi}) "
                f"does not fit a {text_len}-position text"
            )
        out[lo : hi + 1] = results[lo - start :]
    missing = _first_unowned(shards, text_len)
    if missing is not None:
        raise ServiceError(f"no shard owns text position {missing}")
    return out


def _first_unowned(
    shards: Sequence[TextShard], text_len: int
) -> Optional[int]:
    """The lowest position in ``[0, text_len)`` no shard owns, or None."""
    covered = 0  # every position below this one is owned
    for shard in sorted(shards, key=lambda s: s.out_lo):
        if shard.out_lo > covered:
            break
        covered = max(covered, shard.out_hi + 1)
    return covered if covered < text_len else None


def merge_shard_results(
    shards: Sequence[TextShard],
    shard_results: Sequence[Sequence[bool]],
    text_len: int,
) -> np.ndarray:
    """Boolean-matching specialization of :func:`merge_shard_values`:
    the merged stream as one ``bool`` array, like the hardware result
    pin's bits, whatever truthy type the shards returned."""
    return merge_shard_values(shards, shard_results, text_len, False)
