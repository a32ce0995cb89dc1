"""The concurrent runtime's fleet-health transport.

The rules are :class:`repro.service.health.HealthPolicy`'s, shared with
the synchronous farm; only the transport is here.  A probe is a
:class:`~repro.runtime.channels.JobRequest` whose ``bist`` field
carries the :class:`~repro.service.health.HealthConfig` and the
worker's latent :class:`~repro.service.reliability.CellDefect`, sent
*to one idle worker* by the pool's targeted ``submit_to`` (a busy
worker is skipped: probes never preempt traffic); the worker runs the
self-test and replies with its
:class:`~repro.bist.controller.BISTReport`, recorded host-side.
Quarantine is ``WorkerPool.quarantine``; heal respawns the slot's
process (``WorkerPool.heal``) on each harvested candidate wafer until
one passes its incoming probe.
Latent defects are host-side *directives*, shipped only in probes, so
a defective worker computes correct results until caught.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Dict, List, Optional

from ..errors import ServiceError
from ..service.health import HealthConfig, HealthEvent, HealthPolicy
from ..service.reliability import CellDefect, FaultInjector
from ..wafer.provision import WaferSupply
from .channels import JobReply, JobRequest
from .pool import WorkerPool

if TYPE_CHECKING:  # pragma: no cover
    from ..bist.controller import BISTReport


class RuntimeHealth(HealthPolicy):
    """The health rules over a :class:`~repro.runtime.pool.WorkerPool`."""

    def __init__(
        self,
        pool: WorkerPool,
        supply: Optional[WaferSupply] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        obs=None,
    ):
        super().__init__(supply, injector, config, None, obs)
        self.pool = pool
        #: name -> the latent defect that worker is currently carrying.
        self.directives: Dict[str, CellDefect] = {}
        # Probe job ids count down from -1: they can never collide with
        # the service's real job ids, which count up from 0.
        self._probe_id = 0

    def seed_defect(self, name: str, defect: CellDefect) -> None:
        """Declare that worker *name* now carries *defect*."""
        self.directives[name] = defect

    async def probe(self, name: str) -> Optional[BISTReport]:
        """Self-test one worker; ``None`` if it was not idle (skip it,
        probe next sweep)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()

        def on_reply(reply: JobReply) -> None:
            # Collector thread -> event loop.
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(reply)
            )

        self._probe_id -= 1
        defect = self.directives.get(name)
        request = JobRequest(
            job_id=self._probe_id, attempt=0, workload="bist", taps=[],
            streams=[], bist=(self.config, defect),
        )
        if not await loop.run_in_executor(
            None, self.pool.submit_to, name, request, on_reply
        ):
            return None
        reply = await future
        if reply.bist is None:
            raise ServiceError(f"probe of {name!r} failed: {reply.error}")
        return self._probed(reply.bist, defect)

    def quarantine(
        self, name: str, report: Optional[BISTReport] = None
    ) -> HealthEvent:
        """Drain worker *name* out of dispatch and log why."""
        self.pool.quarantine(name)
        return self._quarantined(name, report, self.directives.get(name))

    async def heal(self, name: str) -> HealthEvent:
        """Respawn a quarantined worker on freshly harvested silicon.

        The process respawn (join, terminate, drain, spawn) blocks, so
        it runs in the default executor.
        """
        loop = asyncio.get_running_loop()
        # The loop ends by returning or by _candidates raising.
        for wafer, cells in self._candidates():
            await loop.run_in_executor(None, self.pool.heal, name)
            self.directives.pop(name, None)  # fresh silicon, no latent fault
            report = await self.probe(name)
            if report is not None and report.ok:
                return self._healed(name, cells, wafer.n_sites)
            self.pool.quarantine(name)  # failed its incoming test

    async def sweep(self, heal: bool = True) -> List[HealthEvent]:
        """One background pass; heals every quarantined worker.
        Returns this sweep's actions."""
        before = len(self.events)
        for name in self.pool.idle_names():
            defect = self._latent(self.directives.get(name))
            if defect is not None:
                self.directives[name] = defect
            report = await self.probe(name)
            if report is not None and not report.ok:
                self.quarantine(name, report)
        if heal and self.supply is not None:
            for name in self.pool.quarantined_names():
                await self.heal(name)
        return self.events[before:]
