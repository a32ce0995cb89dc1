"""The worker-process entry point: one device, one process, one loop.

``worker_main`` is what each :class:`~repro.runtime.pool.WorkerPool`
process runs: receive a :class:`~repro.runtime.channels.JobRequest`,
evaluate the workload's fast kernel (the same
:class:`~repro.workloads.WorkloadSpec` engines the synchronous farm
uses, so results are byte-identical by construction), reply with the
window-space values plus the worker's own metrics snapshot and spans.

The function must be importable by ``multiprocessing`` spawn: it lives
at module top level, takes only picklable arguments, and rebuilds its
:class:`~repro.alphabet.Alphabet` locally from symbols+bits rather than
receiving a live object graph.  Compiled character-pattern engines are
memoized inside the registry's ``fast`` kernels, so a process that
streams many texts against few patterns builds each engine once.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ..alphabet import Alphabet
from .channels import Channel, JobReply, JobRequest, SHUTDOWN


def _execute(
    req: JobRequest, name: str, alphabet: Optional[Alphabet]
) -> JobReply:
    """Run one request to completion (or to its injected fault)."""
    t0 = time.perf_counter()
    if req.stall_s > 0.0:
        # An injected stuck/hung worker: the host's deadline machinery,
        # not this process, is responsible for routing around it.
        time.sleep(req.stall_s)
    if req.fault == "death":
        return JobReply(
            job_id=req.job_id,
            attempt=req.attempt,
            ok=False,
            worker=name,
            pid=os.getpid(),
            wall_s=time.perf_counter() - t0,
            error="injected worker death",
            died=True,
        )
    try:
        if req.bist is not None:
            return _execute_bist(req, name, t0)
        from ..workloads.registry import get_workload

        spec = get_workload(req.workload)
        if req.streams is not None:
            return _execute_batch(req, spec, name, alphabet, t0)
        results = spec.fast(req.taps, req.stream, alphabet)
        wall = time.perf_counter() - t0
        metrics = spans = None
        if req.collect_obs:
            from ..obs import Observability

            obs = Observability()
            obs.tracer.record(
                "worker.kernel", t0=0.0, t1=wall, unit="s",
                worker=name, pid=os.getpid(), workload=spec.name,
                samples=len(req.stream), window=len(req.taps),
                attempt=req.attempt, engine="fastpath",
            )
            obs.registry.counter(
                "runtime.worker.jobs", worker=name, workload=spec.name
            ).inc()
            obs.registry.counter(
                "runtime.worker.samples", worker=name
            ).inc(len(req.stream))
            obs.registry.histogram(
                "runtime.worker.wall_s", worker=name
            ).observe(wall)
            metrics = obs.registry.snapshot()
            spans = obs.tracer.to_dict()["spans"]
        return JobReply(
            job_id=req.job_id,
            attempt=req.attempt,
            ok=True,
            worker=name,
            pid=os.getpid(),
            wall_s=wall,
            results=results,
            metrics=metrics,
            spans=spans,
        )
    except Exception as exc:  # ship the failure home instead of dying
        return JobReply(
            job_id=req.job_id,
            attempt=req.attempt,
            ok=False,
            worker=name,
            pid=os.getpid(),
            wall_s=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )


def _execute_bist(req, name, t0):
    """Answer a self-test probe: run gate-level BIST in this process.

    The imports stay inside the function so ordinary kernel workers
    never pay for the switch-level simulator; only probed processes
    build it.  The golden signature is cached per process after the
    first probe (module-level cache in the controller), so steady-state
    probes cost milliseconds.
    """
    from ..bist.controller import BISTController
    from ..service.reliability import CellDefect

    spec = req.bist
    defect = None
    if spec.get("defect"):
        defect = CellDefect.from_wire(spec["defect"])
    controller = BISTController(
        m=int(spec.get("m", 2)),
        w=int(spec.get("w", 2)),
        vectors=int(spec.get("vectors", 12)),
        seed=int(spec.get("seed", 0b1011)),
        characterize=bool(spec.get("characterize", True)),
    )
    report = controller.run(defect=defect, chip_name=name)
    return JobReply(
        job_id=req.job_id,
        attempt=req.attempt,
        ok=True,
        worker=name,
        pid=os.getpid(),
        wall_s=time.perf_counter() - t0,
        bist=report.to_wire(),
    )


def _execute_batch(req, spec, name, alphabet, t0):
    """Answer a batch plan: every stream through the workload's batched
    kernel in one call (falling back to a per-stream fast loop when the
    spec has no batched evaluator)."""
    feeds = list(req.streams)
    if spec.batched is not None:
        results_many = spec.batched(req.taps, feeds, alphabet)
    else:
        results_many = [spec.fast(req.taps, f, alphabet) for f in feeds]
    wall = time.perf_counter() - t0
    metrics = spans = None
    if req.collect_obs:
        from ..obs import Observability

        obs = Observability()
        samples = sum(len(f) for f in feeds)
        obs.tracer.record(
            "worker.kernel", t0=0.0, t1=wall, unit="s",
            worker=name, pid=os.getpid(), workload=spec.name,
            samples=samples, window=len(req.taps), jobs=len(feeds),
            attempt=req.attempt, engine="batched",
        )
        obs.registry.counter(
            "runtime.worker.batches", worker=name, workload=spec.name
        ).inc()
        obs.registry.counter(
            "runtime.worker.jobs", worker=name, workload=spec.name
        ).inc(len(feeds))
        obs.registry.counter(
            "runtime.worker.samples", worker=name
        ).inc(samples)
        obs.registry.histogram(
            "runtime.worker.wall_s", worker=name
        ).observe(wall)
        metrics = obs.registry.snapshot()
        spans = obs.tracer.to_dict()["spans"]
    return JobReply(
        job_id=req.job_id,
        attempt=req.attempt,
        ok=True,
        worker=name,
        pid=os.getpid(),
        wall_s=wall,
        results_many=results_many,
        metrics=metrics,
        spans=spans,
    )


def worker_main(
    name: str,
    symbols: Optional[str],
    bits: Optional[int],
    requests: Channel,
    replies: Channel,
) -> None:
    """Process main loop: recv -> execute -> reply, until SHUTDOWN."""
    alphabet = Alphabet(symbols, bits) if symbols else None
    while True:
        req = requests.recv()
        if req is SHUTDOWN:
            break
        replies.send(_execute(req, name, alphabet))
