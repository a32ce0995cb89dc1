#!/usr/bin/env python3
"""The concurrent runtime: an async host over real worker processes.

Starts an ``AsyncMatcherService`` -- the asyncio front door over a pool
of spawn-context worker processes, each simulating one attached device
-- and streams a mixed workload at it from three tenants: interactive
pattern matches, a batch of FIR filter jobs over sampled signals, and
one throttled tenant pushing against a token-bucket rate limit.  One
job carries a tight SLO deadline and is served degraded from the
host-side oracle when it expires.  Seeded worker deaths take workers
out of dispatch; neither front door heals by itself, so the farm's
own ``FleetHealth`` loop, over the runtime's worker pool and a seeded
wafer supply, sweeps between the bursts (off the event loop, in a
thread: the sweep blocks) and respawns them.  Every result is checked against the workload
oracle before the runtime's counters are printed.
"""

import asyncio
import random

from repro import Alphabet
from repro.runtime import AsyncMatcherService, RuntimeConfig
from repro.service import FaultInjector, FleetHealth
from repro.wafer.provision import WaferSupply
from repro.workloads import get_workload

CHAR_WORKERS = 3


async def main():
    ab = Alphabet("ABCD")
    rng = random.Random(1980)
    config = RuntimeConfig(
        max_pending=64,
        max_retries=2,
        # The "logs" tenant is throttled hard; everyone else rides the
        # default (unlimited) bucket.
        rate_limits={"logs": (40.0, 4)},
    )
    # A little seeded chaos: some jobs lose their worker mid-flight and
    # are retried on another.  A dead worker leaves dispatch, as a dead
    # chip leaves the farm, until a health sweep respawns it on a fresh
    # wafer from the seeded lot.  The answers must not change.
    faults = FaultInjector(seed=7, p_death=0.15)

    async with AsyncMatcherService(CHAR_WORKERS, ab, config=config,
                                   faults=faults) as svc:
        health = FleetHealth(
            svc.pool, supply=WaferSupply(8, rows=3, cols=4, seed=1980)
        )

        async def sweep():
            # Let the burst finish, then probe, quarantine and heal.
            await svc.drain()
            await asyncio.to_thread(health.sweep)

        def text(n):
            return "".join(rng.choice("ABCD") for _ in range(n))

        jobs = {}  # job_id -> (workload, params, stream)

        # Interactive lookups from two tenants.
        for i in range(8):
            pattern = "".join(rng.choice("ABCDX")
                              for _ in range(rng.randint(2, 6)))
            stream = text(rng.randint(200, 2000))
            jid = await svc.submit(pattern, stream,
                                   tenant=("search", "genomics")[i % 2])
            jobs[jid] = ("match", pattern, stream)
        await sweep()

        # A batch of FIR smoothing jobs -- same systolic data flow,
        # multiply-accumulate cells (Section 3.4).
        taps = [0.25, 0.5, 0.25]
        for _ in range(4):
            signal = [rng.uniform(-1.0, 1.0) for _ in range(600)]
            jid = await svc.submit(taps, signal, tenant="dsp",
                                   workload="fir")
            jobs[jid] = ("fir", taps, signal)
        await sweep()

        # A throttled tenant: more jobs than its burst allows, so later
        # submits suspend until the bucket refills.
        for _ in range(8):
            stream = text(300)
            jid = await svc.submit("AXC", stream, tenant="logs")
            jobs[jid] = ("match", "AXC", stream)
        await sweep()

        # One job with a deliberately impossible deadline: it is shed
        # to the host-side oracle fallback -- degraded, never wrong.
        slo_stream = text(5000)
        slo_jid = await svc.submit("ABXD", slo_stream, tenant="search",
                                   timeout=1e-6)
        jobs[slo_jid] = ("match", "ABXD", slo_stream)

        # Consume in completion order, as a real client would.
        results = {}
        async for r in svc.stream_results():
            results[r.job_id] = r

        for jid, (workload, params, stream) in jobs.items():
            spec = get_workload(workload)
            want = spec.run(params, stream, ab, engine="oracle")
            assert results[jid].results == want, \
                f"job {jid} diverged from the {workload} oracle"

        shed = results[slo_jid]
        assert shed.timed_out and shed.via_fallback
        print(f"{len(results)} jobs served across "
              f"{len({r.worker for r in results.values() if r.worker is not None})} "
              f"worker process(es), all oracle-verified")
        print(f"modes used: {sorted({r.mode for r in results.values()})}")
        if svc.deaths:
            print(f"{svc.deaths} worker death(s) injected; "
                  f"{svc.retries} retry(ies), {svc.fallbacks} oracle fallback(s)")
        print(f"SLO job {slo_jid}: timed out after {config.max_retries} "
              f"retries budgeted, served degraded in "
              f"{shed.latency_s * 1000:.1f} ms")

        heals = sum(e.action == "heal" for e in health.events)
        print(f"health sweeps healed {heals} worker(s); "
              f"{svc.pool.n_live} of {CHAR_WORKERS} live")
        stats = svc.stats()
        print(f"rate limiter suspensions for 'logs': {stats['rate_limit_waits']}")
        print(f"pool: {stats['pool_dispatched']} dispatched, "
              f"{stats['pool_replies']} replies, "
              f"{stats['pool_dropped_replies']} stale replies dropped")


if __name__ == "__main__":
    asyncio.run(main())
