"""The worker-process entry point: one device, one process, one loop.

``worker_main`` is what each :class:`~repro.runtime.pool.WorkerPool`
process runs: receive a :class:`~repro.runtime.channels.JobRequest`,
evaluate the workload's one kernel, ``spec.batched``, over the
request's streams in one call (the same
:class:`~repro.workloads.WorkloadSpec` kernel the synchronous farm
uses, so results are byte-identical by construction; a solo job is a
batch of one) over the request's typed streams, reply with one
window-space row per stream (:func:`~repro.runtime.channels.pack_row`:
match rows as packed bits) plus the worker's own metrics snapshot and
one ``worker.kernel`` span.  A
``bist`` request is a self-test probe instead: the worker builds the
controller from the shipped health config and replies with the report,
so only probed processes ever load the switch-level simulator.

The function must be importable by ``multiprocessing`` spawn: it lives
at module top level, takes only picklable arguments, and rebuilds its
:class:`~repro.alphabet.Alphabet` locally from symbols+bits rather than
receiving a live object graph.  The batch kernels build nothing per
pattern, so a worker keeps no per-pattern state between requests.
"""

from __future__ import annotations

import os
import time
from typing import Optional

from ..alphabet import Alphabet
from .channels import Channel, JobReply, JobRequest, SHUTDOWN, pack_row


def _execute(
    req: JobRequest, name: str, alphabet: Optional[Alphabet]
) -> JobReply:
    """Run one request to completion (or to its injected fault)."""
    t0 = time.perf_counter()

    def reply(ok: bool, wall: Optional[float] = None, **fields) -> JobReply:
        if wall is None:
            wall = time.perf_counter() - t0
        return JobReply(req.job_id, req.attempt, ok, name, os.getpid(), wall,
                        **fields)

    if req.stall_s > 0.0:
        # An injected stuck/hung worker: the host's deadline machinery,
        # not this process, is responsible for routing around it.
        time.sleep(req.stall_s)
    if req.fault == "death":
        return reply(False, error="injected worker death", died=True)
    try:
        if req.bist is not None:
            config, defect = req.bist
            report = config.controller().run(defect=defect, chip_name=name)
            return reply(True, bist=report)
        from ..workloads.registry import get_workload

        spec = get_workload(req.workload)
        results = [pack_row(row) for row in
                   spec.batched(req.taps, req.streams, alphabet)]
        wall = time.perf_counter() - t0
        metrics = spans = None
        if req.collect_obs:
            metrics, spans = _observe(req, spec, name, wall)
        return reply(True, wall, results=results, metrics=metrics,
                     spans=spans)
    except Exception as exc:  # ship the failure home instead of dying
        return reply(False, error=f"{type(exc).__name__}: {exc}")


def _observe(req, spec, name, wall):
    """The worker-local metrics snapshot and spans of one execution."""
    from ..obs import Observability

    obs = Observability()
    samples = sum(len(s) for s in req.streams)
    obs.tracer.record(
        "worker.kernel", t0=0.0, t1=wall, unit="s",
        worker=name, pid=os.getpid(), workload=spec.name,
        jobs=len(req.streams), samples=samples, window=len(req.taps),
        attempt=req.attempt,
    )
    labels = dict(worker=name, workload=spec.name)
    obs.registry.counter("runtime.worker.executions", **labels).inc()
    obs.registry.counter("runtime.worker.jobs", **labels).inc(
        len(req.streams)
    )
    obs.registry.counter("runtime.worker.samples", **labels).inc(samples)
    obs.registry.histogram("runtime.worker.wall_s", worker=name).observe(wall)
    return obs.registry.snapshot(), obs.tracer.to_dict()["spans"]


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
