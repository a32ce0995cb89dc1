"""The process pool: real workers behind bounded channels, EDF dispatch.

:class:`WorkerPool` is the *mechanism* of the concurrent runtime.  It
owns

* N spawn-context worker processes, each running
  :func:`~repro.runtime.worker.worker_main` behind a capacity-1 request
  :class:`~repro.runtime.channels.Channel` (at most one job queued in
  front of a device -- the paper's host never stacks work on the bus)
  and one shared reply channel,
* a dispatcher thread that pops the earliest-deadline pending job and
  sends it to an idle worker (SLO-aware: deadline first, then priority
  class, then admission order), and
* a collector thread that receives replies, frees the worker, and hands
  the reply to the submitter's callback.  Replies whose (job, attempt)
  was cancelled -- the job's deadline fired and the host already served
  it degraded -- are *dropped*: a hung worker can finish late without
  corrupting anything, which is what keeps slow workers from wedging a
  drain.

The pool never retries, degrades, or verifies; it moves messages (the
front door's :class:`~repro.runtime.service.ProcessPool` turns units
into them).  A worker whose reply reports a death leaves dispatch at
once, as a quarantined one does, until a heal respawns it.  A request
still waiting when every worker is quarantined or dead goes back to its
submitter unrun (a :data:`~repro.runtime.channels.NO_LIVE_WORKER`
reply) instead of waiting for a heal.
"""

from __future__ import annotations

import heapq
import itertools
import math
import multiprocessing as mp
import queue
import threading
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..alphabet import Alphabet
from ..errors import ServiceError
from .channels import NO_LIVE_WORKER, SHUTDOWN, Channel, JobReply, JobRequest
from .worker import worker_main

ReplyCallback = Callable[[JobReply], None]


class WorkerPool:
    """N worker processes with deadline-ordered dispatch.

    Parameters
    ----------
    n_workers:
        Process count.  Real parallelism tops out at the machine's core
        count; the pool itself imposes no such limit.
    alphabet:
        Shared :class:`~repro.alphabet.Alphabet` for character
        workloads (may be ``None`` for purely numeric traffic).
    obs:
        Optional :class:`~repro.obs.Observability`; the pool counts
        dispatches, replies, and dropped (stale) replies into it, and
        asks workers to collect per-job metrics/spans for merge-back.
    """

    def __init__(
        self,
        n_workers: int,
        alphabet: Optional[Alphabet] = None,
        obs=None,
    ):
        if n_workers <= 0:
            raise ServiceError("worker pool needs at least one process")
        self.n_workers = n_workers
        self.alphabet = alphabet
        self.obs = obs
        self._ctx = mp.get_context("spawn")
        self._names = [f"proc-{i}" for i in range(n_workers)]
        self._requests = [Channel(self._ctx, 1) for _ in range(n_workers)]
        self._replies = Channel(self._ctx, 2 * n_workers + 4)
        self._procs: List[mp.process.BaseProcess] = []
        self._cond = threading.Condition()
        # (deadline, priority, seq) orders the pending heap: EDF first,
        # service class second, admission order last.
        self._pending: List[Tuple[float, int, int, JobRequest]] = []
        self._callbacks: Dict[Tuple[int, int], ReplyCallback] = {}
        self._cancelled: Set[Tuple[int, int]] = set()
        self._idle: List[int] = []
        # Workers out of dispatch, quarantined by the health loop or
        # dead in an execution: never in _idle, never dispatched to,
        # until heal() respawns them.
        self._quarantined: Set[int] = set()
        self._index = {name: i for i, name in enumerate(self._names)}
        self._seq = 0
        # Request ids for service units: unique per pool, so services
        # sharing a pool never collide on a cancelled (id, attempt).
        self.unit_ids = itertools.count()
        self._started = False
        self._closing = False
        self._dispatcher: Optional[threading.Thread] = None
        self._collector: Optional[threading.Thread] = None
        self.dispatched = 0
        self.replies = 0
        self.dropped_replies = 0

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, widx: int) -> mp.process.BaseProcess:
        """One worker process on worker *widx*'s channels."""
        symbols = bits = None
        if self.alphabet is not None:
            symbols = "".join(self.alphabet.symbols)
            bits = self.alphabet.bits
        proc = self._ctx.Process(
            target=worker_main,
            args=(
                self._names[widx], symbols, bits,
                self._requests[widx], self._replies,
            ),
            name=f"repro-runtime-{self._names[widx]}",
            daemon=True,
        )
        proc.start()
        return proc

    def start(self) -> "WorkerPool":
        """Spawn the workers and the dispatcher/collector threads."""
        if self._started:
            return self
        for i in range(self.n_workers):
            self._procs.append(self._spawn(i))
        self._idle = list(range(self.n_workers))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-runtime-dispatch",
            daemon=True,
        )
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-runtime-collect",
            daemon=True,
        )
        self._started = True
        self._dispatcher.start()
        self._collector.start()
        return self

    def shutdown(self, timeout: float = 10.0) -> None:
        """Graceful stop: drain nothing, just stop cleanly.

        Pending (undispatched) jobs are discarded -- the service layer
        drains before shutting down.  Workers get a SHUTDOWN sentinel;
        any that are hung past *timeout* are terminated.
        """
        if not self._started or self._closing:
            self._closing = True
            return
        with self._cond:
            self._closing = True
            self._cond.notify_all()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
        for ch in self._requests:
            # A request the worker never received would fill its
            # capacity-1 channel and bounce the sentinel.
            _clear(ch)
            ch.try_send(SHUTDOWN)
        for proc in self._procs:
            proc.join(timeout=timeout)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        if self._collector is not None:
            self._collector.join(timeout=timeout)
        for ch in self._requests:
            ch.close()
        self._replies.close()

    # -- submission --------------------------------------------------------

    def submit(
        self,
        request: JobRequest,
        callback: ReplyCallback,
        deadline: Optional[float] = None,
        priority: int = 1,
    ) -> None:
        """Queue one request for dispatch.

        *deadline* is an instant on the submitter's clock, used only to
        order the pending heap (None = no SLO); *callback* runs on the
        collector thread and must be cheap and thread-safe (the async
        service bridges it onto the event loop).
        """
        if not self._started:
            raise ServiceError("worker pool is not started")
        key = (request.job_id, request.attempt)
        with self._cond:
            if self._closing:
                raise ServiceError("worker pool is shutting down")
            self._seq += 1
            heapq.heappush(
                self._pending,
                (
                    deadline if deadline is not None else math.inf,
                    priority,
                    self._seq,
                    request,
                ),
            )
            self._callbacks[key] = callback
            self._cond.notify_all()

    def cancel(self, job_id: int, attempt: int) -> None:
        """Forget one (job, attempt): skip it if undispatched, drop its
        reply if it is already running."""
        key = (job_id, attempt)
        with self._cond:
            self._callbacks.pop(key, None)
            self._cancelled.add(key)

    # -- fleet health ------------------------------------------------------

    def _worker_index(self, name: str) -> int:
        widx = self._index.get(name)
        if widx is None:
            raise ServiceError(f"no pool worker named {name!r}")
        return widx

    def idle_names(self) -> List[str]:
        """Names of the workers currently idle (probe candidates)."""
        with self._cond:
            return [self._names[i] for i in sorted(self._idle)]

    def quarantined_names(self) -> List[str]:
        """Names of the workers out of dispatch (quarantined or dead):
        the ones a health sweep heals."""
        with self._cond:
            return [self._names[i] for i in sorted(self._quarantined)]

    @property
    def n_live(self) -> int:
        """Workers that can take work (neither quarantined nor dead)."""
        with self._cond:
            return self.n_workers - len(self._quarantined)

    def submit_to(
        self, name: str, request: JobRequest, callback: ReplyCallback
    ) -> bool:
        """Targeted dispatch: send *request* to one specific worker,
        only if it is idle right now.

        The health loop uses this for BIST probes -- a probe must land
        on the worker being probed (the EDF heap would route it
        anywhere) and must never preempt real traffic, so a busy or
        quarantined worker just returns ``False`` (probe it next
        sweep).
        """
        widx = self._worker_index(name)
        if not self._started:
            raise ServiceError("worker pool is not started")
        key = (request.job_id, request.attempt)
        with self._cond:
            if (
                self._closing
                or widx in self._quarantined
                or widx not in self._idle
            ):
                return False
            self._idle.remove(widx)
            self._callbacks[key] = callback
            self.dispatched += 1
        self._requests[widx].send(request)
        if self.obs is not None:
            self.obs.registry.counter(
                "runtime.pool.dispatched", worker=name
            ).inc()
        return True

    def quarantine(self, name: str) -> None:
        """Remove one worker from dispatch until :meth:`heal`.

        Idempotent.  A busy worker finishes (or hangs on) its current
        job, but its reply no longer returns it to the idle list, so no
        further work ever reaches it.
        """
        widx = self._worker_index(name)
        with self._cond:
            self._quarantined.add(widx)
            if widx in self._idle:
                self._idle.remove(widx)
            self._cond.notify_all()
        if self.obs is not None:
            self.obs.registry.counter(
                "runtime.pool.quarantines", worker=name
            ).inc()

    def heal(self, name: str, timeout: float = 10.0) -> None:
        """Replace a quarantined or dead worker's process with a fresh
        one.

        The old process gets a SHUTDOWN sentinel and a grace period,
        then is terminated; its request channel is drained so the
        replacement inherits clean channels; the fresh process rejoins
        the idle list.  Only a worker out of dispatch can be healed --
        healing a live one would drop its in-flight job.
        """
        widx = self._worker_index(name)
        with self._cond:
            if widx not in self._quarantined:
                raise ServiceError(
                    f"worker {name!r} is live; only a quarantined or "
                    "dead worker can be healed"
                )
        proc = self._procs[widx]
        ch = self._requests[widx]
        _clear(ch)
        ch.try_send(SHUTDOWN)
        proc.join(timeout=timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=1.0)
        _clear(ch)
        self._procs[widx] = self._spawn(widx)
        with self._cond:
            self._quarantined.discard(widx)
            if widx not in self._idle:
                self._idle.append(widx)
            self._cond.notify_all()
        if self.obs is not None:
            self.obs.registry.counter(
                "runtime.pool.heals", worker=name
            ).inc()

    # -- threads -----------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._closing and not (
                    self._pending and (
                        self._idle
                        or len(self._quarantined) == self.n_workers
                    )
                ):
                    self._cond.wait()
                if self._closing:
                    return
                _, _, _, request = heapq.heappop(self._pending)
                key = (request.job_id, request.attempt)
                if key in self._cancelled:
                    self._cancelled.discard(key)
                    continue
                if self._idle:
                    widx = self._idle.pop(0)
                    self.dispatched += 1
                else:
                    # Every worker is quarantined or dead: hand the
                    # request back unrun instead of holding it until a
                    # heal.
                    widx, unrun = None, self._callbacks.pop(key, None)
            if widx is None:
                if unrun is not None:
                    unrun(JobReply(request.job_id, request.attempt, False,
                                   "", 0, 0.0, error=NO_LIVE_WORKER))
                continue
            # Send outside the lock: the worker is idle, so its
            # capacity-1 channel is empty and this cannot block long.
            self._requests[widx].send(request)
            if self.obs is not None:
                self.obs.registry.counter(
                    "runtime.pool.dispatched", worker=self._names[widx]
                ).inc()

    def _collect_loop(self) -> None:
        while True:
            try:
                reply = self._replies.recv(timeout=0.1)
            except queue.Empty:
                if self._closing:
                    return
                continue
            except (EOFError, OSError):
                return
            key = (reply.job_id, reply.attempt)
            with self._cond:
                widx = self._index.get(reply.worker)
                if widx is not None and reply.died:
                    # The device died in this execution: like a dead
                    # farm chip it leaves dispatch, and n_live drops,
                    # until heal() respawns it.
                    self._quarantined.add(widx)
                if (
                    widx is not None
                    and widx not in self._idle
                    and widx not in self._quarantined
                ):
                    self._idle.append(widx)
                callback = self._callbacks.pop(key, None)
                stale = key in self._cancelled
                self._cancelled.discard(key)
                self.replies += 1
                self._cond.notify_all()
            if callback is None or stale:
                self.dropped_replies += 1
                if self.obs is not None:
                    self.obs.registry.counter(
                        "runtime.pool.dropped_replies"
                    ).inc()
                continue
            if self.obs is not None:
                self.obs.registry.counter(
                    "runtime.pool.replies", worker=reply.worker
                ).inc()
            callback(reply)


def _clear(ch: Channel) -> None:
    """Drop whatever waits undelivered in a request channel."""
    while ch.try_recv()[0]:
        pass
