"""Fleet health: background BIST, quarantine, yield-to-capacity healing.

The paper's Section 5 deployment story implies three maintenance
duties: *find* the chip that has gone bad (gate-level built-in
self-test, :mod:`repro.bist`), *stop scheduling onto it* (quarantine),
and *replace it from the fab line* (the :mod:`repro.wafer` harvest).
:class:`HealthPolicy` holds those rules once, free of any transport.
A sweep probes every idle worker (LFSR stimulus, MISR signature, Elmore
timing closure, against the worker's latent defect if the fault
injector grew one), quarantines the failures with their BIST diagnosis
in a ``health.quarantine`` span, then heals to target: each replacement
wafer must harvest ``min_capacity`` cells and pass an incoming
self-test, within ``max_provision_attempts`` draws from the
:class:`~repro.wafer.provision.WaferSupply`.  No supply, an exhausted
one or a spent budget raises :class:`~repro.errors.ProvisionError` --
clean and catchable, never a hang.

:class:`FleetHealth` is the in-process transport over the synchronous
farm's :class:`~repro.service.pool.DevicePool`;
:class:`repro.runtime.health.RuntimeHealth` is the async one over
worker processes.  Defects come from the injector's dedicated defect
RNG and wafers from the supply's seed, so a seeded soak replays the
same deaths, diagnoses and replacement fleet on every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple

from ..errors import ChipError, ProvisionError
from ..wafer.provision import WaferSupply
from ..wafer.reconfigure import harvest_linear_array
from ..wafer.wafer import Wafer
from .pool import DevicePool, PoolWorker
from .reliability import CellDefect, FaultInjector
from .telemetry import ServiceTelemetry

if TYPE_CHECKING:  # pragma: no cover
    from ..bist.controller import BISTController, BISTReport


@dataclass(frozen=True)
class HealthConfig:
    """Knobs of the background self-test loop.

    A 2x2 probe array (``bist_m`` x ``bist_w``) already exercises every
    cell circuit type; ``vectors`` trades escape rate for probe latency.
    """

    bist_m: int = 2
    bist_w: int = 2
    vectors: int = 12
    seed: int = 0b1011
    characterize: bool = True
    beat_ns: float = 250.0
    min_capacity: int = 1
    max_provision_attempts: int = 8

    def controller(self) -> BISTController:
        """The probe's self-test controller, wherever the probe runs."""
        # Imported here, not at module top: repro.bist models defects
        # with this package's CellDefect, so a module-level import in
        # both directions would be circular.
        from ..bist.controller import BISTController

        return BISTController(
            m=self.bist_m, w=self.bist_w, vectors=self.vectors,
            seed=self.seed, characterize=self.characterize,
        )


@dataclass(frozen=True)
class HealthEvent:
    """One action the health loop took (the sweep's audit trail)."""

    worker: str
    action: str  # "quarantine" | "heal"
    cell: str = ""
    detail: str = ""


class HealthPolicy:
    """The probe -> quarantine -> heal rules; transports subclass it."""

    def __init__(
        self,
        supply: Optional[WaferSupply],
        injector: Optional[FaultInjector],
        config: Optional[HealthConfig],
        telemetry: Optional[ServiceTelemetry],
        obs,
    ):
        self.supply = supply
        self.injector = injector
        self.config = config or HealthConfig()
        self.telemetry = telemetry
        self.obs = obs
        self.events: List[HealthEvent] = []

    def _latent(self, defect: Optional[CellDefect]) -> Optional[CellDefect]:
        """The defect a worker carries into its probe: *defect*, else
        whatever the injector's defect RNG grows now."""
        if defect is None and self.injector is not None:
            cfg = self.config
            return self.injector.sample_defect(cfg.bist_m, cfg.bist_w)
        return defect

    def _probed(
        self, report: BISTReport, defect: Optional[CellDefect]
    ) -> BISTReport:
        """Account one self-test verdict, wherever it ran."""
        if self.telemetry is not None:
            self.telemetry.bist_runs += 1
            if not report.ok:
                self.telemetry.bist_failures += 1
        if self.obs is not None:
            report.record(self.obs, defect)
        return report

    def _quarantined(
        self, name: str, report: Optional[BISTReport],
        defect: Optional[CellDefect],
    ) -> HealthEvent:
        """Log worker *name*'s quarantine, with its BIST diagnosis."""
        cell = detail = ""
        if report is not None and report.diagnosis is not None:
            d = report.diagnosis
            cell = d.cell
            detail = f"{d.node or d.cell}: got {d.got}, want {d.want}"
        if self.telemetry is not None:
            self.telemetry.quarantines += 1
        if self.obs is not None:
            self.obs.tracer.record(
                "health.quarantine", t0=0.0, t1=0.0, unit="beats",
                worker=name, cell=cell,
                defect=defect.describe() if defect is not None else "",
            )
            self.obs.registry.counter("health.quarantines", worker=name).inc()
        self.events.append(
            HealthEvent(name, "quarantine", cell=cell, detail=detail)
        )
        return self.events[-1]

    def _candidates(self) -> Iterator[Tuple[Wafer, int]]:
        """Harvestable replacement wafers as ``(wafer, cells)``; the
        caller probes each, and asking for the next rejects the last.
        Raises :class:`~repro.errors.ProvisionError` when none passes."""
        if self.supply is None:
            raise ProvisionError("no wafer supply to heal from")
        cfg = self.config
        for _ in range(cfg.max_provision_attempts):
            wafer = self.supply.draw()  # ProvisionError when exhausted
            try:
                cells = harvest_linear_array(wafer).n_cells
            except ChipError:
                continue  # a defect run past the bypass budget
            if cells >= cfg.min_capacity:
                yield wafer, cells
        raise ProvisionError(
            f"no provisionable wafer in {cfg.max_provision_attempts} "
            f"candidates (min capacity {cfg.min_capacity}, "
            f"{self.supply.remaining} wafers left)"
        )

    def _healed(self, name: str, cells: int, sites: int) -> HealthEvent:
        """Log a replacement that passed its incoming self-test."""
        if self.telemetry is not None:
            self.telemetry.heals += 1
        if self.obs is not None:
            self.obs.registry.counter("health.heals", worker=name).inc()
        self.events.append(
            HealthEvent(name, "heal", detail=f"{cells}/{sites} cells")
        )
        return self.events[-1]


class FleetHealth(HealthPolicy):
    """The health rules over one in-process device pool."""

    def __init__(
        self,
        pool: DevicePool,
        supply: Optional[WaferSupply] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        obs=None,
    ):
        super().__init__(supply, injector, config, telemetry, obs)
        self.pool = pool
        self.controller = self.config.controller()
        self._heal_seq = 0
        #: The fleet size healing restores: the live count at the time
        #: the loop was attached.  Quarantines *and* execution deaths
        #: both erode ``pool.n_live``; healing replaces either.
        self.target_live = pool.n_live

    def probe(self, worker: PoolWorker) -> BISTReport:
        """Self-test one worker (against its latent defect, if any)."""
        defect = worker.latent_defect
        report = self.controller.run(defect=defect, chip_name=worker.name)
        return self._probed(report, defect)

    def quarantine(
        self, worker: PoolWorker, report: Optional[BISTReport] = None
    ) -> HealthEvent:
        """Drain *worker* out of dispatch and log why."""
        worker.quarantine()
        return self._quarantined(worker.name, report, worker.latent_defect)

    def _next_heal_name(self) -> str:
        names = {w.name for w in self.pool.workers}
        while True:
            self._heal_seq += 1
            name = f"heal-{self._heal_seq}"
            if name not in names:
                return name

    def heal_one(self) -> PoolWorker:
        """Provision one replacement worker from the wafer supply
        (:class:`~repro.errors.ProvisionError` when none qualifies)."""
        # The loop ends by returning or by _candidates raising.
        for wafer, cells in self._candidates():
            worker = PoolWorker.from_wafer(
                self._next_heal_name(), wafer, self.pool.alphabet,
                beat_ns=self.config.beat_ns,
            )
            if self.probe(worker).ok:
                self.pool.add_worker(worker)
                self._healed(worker.name, cells, wafer.n_sites)
                return worker

    def heal_to_capacity(self, target_live: int) -> List[PoolWorker]:
        """Add replacements until ``pool.n_live`` reaches *target_live*."""
        added: List[PoolWorker] = []
        while self.pool.n_live < target_live:
            added.append(self.heal_one())
        return added

    def sweep(
        self, heal: bool = True, target_live: Optional[int] = None
    ) -> List[HealthEvent]:
        """One background pass; heals up to *target_live* (the fleet's
        original size by default -- execution deaths are healed too,
        not just quarantines).  Returns this sweep's actions."""
        target = self.target_live if target_live is None else target_live
        before = len(self.events)
        for worker in self.pool.idle_workers():
            worker.seed_defect(self._latent(worker.latent_defect))
            report = self.probe(worker)
            if not report.ok:
                self.quarantine(worker, report)
        if heal and self.supply is not None:
            self.heal_to_capacity(target)
        return self.events[before:]
