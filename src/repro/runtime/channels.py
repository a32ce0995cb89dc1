"""CSP-style bounded channels and the host<->worker wire protocol.

The paper's Figure 1-1 host keeps its special-purpose devices busy over
an explicit bus; the ConPro CSP model (arXiv:2302.02959) describes the
same shape as processes joined by bounded channels.  This module is that
bus for the concurrent runtime: a :class:`Channel` is a bounded
multiprocessing queue (a blocked sender *is* backpressure, exactly like
the farm's :class:`~repro.service.scheduler.BoundedQueue` but with real
concurrency to suspend), and :class:`JobRequest`/:class:`JobReply` are
the only two message types that ever cross it.

Everything here must be spawn-safe: requests and replies are plain
dataclasses of picklable fields (pattern characters are the frozen
:class:`~repro.alphabet.PatternChar`, streams and result rows numpy
arrays), and channels are created from an explicit
``multiprocessing.get_context("spawn")`` context so the runtime behaves
identically on fork and spawn platforms.
"""

from __future__ import annotations

import queue
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ServiceError

#: Sentinel sent down a request channel to stop a worker loop.
SHUTDOWN = None

#: ``JobReply.error`` of a request the pool hands back unrun because
#: every worker is quarantined or dead (no worker ever saw it).
NO_LIVE_WORKER = "no-live-worker"


class ChannelClosed(ServiceError):
    """The channel was closed while a send/receive was pending."""


class Channel:
    """A bounded, picklable-message channel between host and workers.

    ``capacity`` is the CSP buffer size.  ``send`` blocks (with optional
    timeout) when the buffer is full -- the blocked-sender form of
    backpressure -- and ``recv`` blocks when it is empty.  The request
    side of the pool uses capacity 1 (a near-rendezvous: at most one
    job sits in front of a worker), the reply side a few slots per
    worker so replies never block a worker's next ``recv``.
    """

    def __init__(self, ctx, capacity: int):
        if capacity <= 0:
            raise ServiceError("channel capacity must be positive")
        self.capacity = capacity
        self._q = ctx.Queue(maxsize=capacity)

    def send(self, item, timeout: Optional[float] = None) -> None:
        try:
            self._q.put(item, block=True, timeout=timeout)
        except queue.Full:
            raise ChannelClosed(
                f"channel send timed out after {timeout}s (capacity "
                f"{self.capacity} full)"
            ) from None

    def try_send(self, item) -> bool:
        """Non-blocking send; False if the channel is full."""
        try:
            self._q.put_nowait(item)
            return True
        except queue.Full:
            return False

    def recv(self, timeout: Optional[float] = None):
        """Blocking receive; raises ``queue.Empty`` on timeout."""
        return self._q.get(block=True, timeout=timeout)

    def try_recv(self):
        """Non-blocking receive: ``(True, item)`` or ``(False, None)``.

        Used by the pool's heal path to drain a dead worker's request
        channel (a stale job or SHUTDOWN sentinel must not be inherited
        by the replacement process).
        """
        try:
            return True, self._q.get_nowait()
        except queue.Empty:
            return False, None

    def close(self) -> None:
        self._q.close()
        # Don't block interpreter exit on an unflushed feeder thread.
        self._q.cancel_join_thread()


@dataclass
class JobRequest:
    """One execution order sent to a worker process.

    Every kernel execution crosses the wire in this one shape: one taps
    vector and ``streams``, one prepared stream per piece of the unit
    (a solo job is a batch of one, a batch plan many), answered by the
    workload's batched kernel in a single crossing.  ``job_id`` is the
    unit's pool-wide id.  ``taps`` and ``streams`` are already
    *prepared* by the host (the workload's
    ``parse_params``/``validate_stream``/``prepare`` ran before
    admission), so the worker only evaluates the windowed kernel -- the
    same division of labour as the synchronous farm's
    :meth:`~repro.service.pool.PoolWorker.run_kernel_batch`.

    ``fault``/``stall_s`` carry host-side seeded fault injection across
    the process boundary: ``"death"`` makes the worker report the chip
    dying mid-job (no results come back), a positive ``stall_s`` makes
    it sit on the job (a stuck/hung worker) before answering.  Faults
    are directives, not randomness, so runs stay deterministic per seed.

    ``bist`` turns the request into a *self-test probe* instead of a
    kernel execution: it carries the
    :class:`~repro.service.health.HealthConfig` and the worker's latent
    :class:`~repro.service.reliability.CellDefect` (or ``None``), both
    plain frozen dataclasses that pickle as they are.  The worker runs
    ``HealthConfig.controller()`` in-process and answers with the
    :class:`~repro.bist.controller.BISTReport` on ``JobReply.bist``.
    """

    job_id: int
    attempt: int
    workload: str
    taps: list
    streams: list  # each a typed array: symbol codes or float64 samples
    collect_obs: bool = False
    fault: Optional[str] = None
    stall_s: float = 0.0
    bist: Optional[tuple] = None  # self-test probe: (config, defect)


@dataclass
class JobReply:
    """A worker's answer: window-space results plus its observations.

    ``results`` holds one window-space row per request stream, in order,
    as :func:`pack_row` ships it (:func:`unpack_row` restores the
    array).  ``metrics`` is the worker-local registry snapshot and
    ``spans`` the worker-local span dump; the host folds them into the
    run's :class:`~repro.obs.Observability` via
    ``merge_snapshot``/``adopt``.
    """

    job_id: int
    attempt: int
    ok: bool
    worker: str
    pid: int
    wall_s: float
    results: Optional[list] = None
    error: Optional[str] = None
    died: bool = False
    metrics: Optional[Dict[str, List[dict]]] = None
    spans: Optional[List[dict]] = field(default=None)
    bist: Optional[object] = None  # self-test probe answer: a BISTReport


#: A result row on the wire: an array, or a boolean row's length and
#: packed bits.
WireRow = Union[np.ndarray, Tuple[int, bytes]]


def pack_row(row: np.ndarray) -> WireRow:
    """A result row as it crosses the wire: a boolean (match) row as its
    length and ``np.packbits`` bytes, one bit per position; any other
    row as its array.

    >>> pack_row(np.array([True, False, True]))
    (3, b'\\xa0')
    """
    if row.dtype == bool:
        return len(row), np.packbits(row).tobytes()
    return row


def unpack_row(row: WireRow) -> np.ndarray:
    """The array :func:`pack_row` shipped.

    >>> unpack_row(pack_row(np.array([True, False, True]))).tolist()
    [True, False, True]
    """
    if isinstance(row, tuple):
        n, bits = row
        return np.unpackbits(np.frombuffer(bits, dtype=np.uint8),
                             count=n).view(bool)
    return row
