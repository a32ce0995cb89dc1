"""Fleet health: background BIST, quarantine, yield-to-capacity healing.

The paper's Section 5 deployment story implies three maintenance
duties: *find* the chip that has gone bad (gate-level built-in
self-test, :mod:`repro.bist`), *stop scheduling onto it* (quarantine),
and *replace it from the fab line* (the :mod:`repro.wafer` harvest).
:class:`FleetHealth` is that loop, written once over any :class:`Fleet`.
A sweep probes every idle worker (LFSR stimulus, MISR signature, Elmore
timing closure, against the worker's latent defect if the fault
injector grew one), quarantines the failures with their BIST diagnosis
in a ``health.quarantine`` span, then heals to target: each replacement
wafer must harvest ``min_capacity`` cells and pass an incoming
self-test, within ``max_provision_attempts`` draws from the
:class:`~repro.wafer.provision.WaferSupply`.  No supply, an exhausted
one or a spent budget raises :class:`~repro.errors.ProvisionError` --
clean and catchable, never a hang.

The synchronous farm's :class:`~repro.service.pool.DevicePool` and the
process runtime's :class:`~repro.runtime.pool.WorkerPool` both keep the
:class:`Fleet` contract; the loop is plain blocking Python, so an async
caller runs :meth:`FleetHealth.sweep` off its event loop
(``await asyncio.to_thread(health.sweep)``).  Defects come from the
injector's dedicated defect RNG and wafers from the supply's seed, so a
seeded soak replays the same deaths, diagnoses and replacement fleet on
every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Tuple,
)

from ..errors import ChipError, ProvisionError
from ..wafer.provision import WaferSupply
from ..wafer.reconfigure import harvest_linear_array
from ..wafer.wafer import Wafer
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


class Fleet(Protocol):
    """What the health loop needs from a pool of workers, by name.

    ``self_test`` runs one incoming or background probe against
    *defect* and returns its report, or ``None`` when the worker is not
    idle (a probe never preempts traffic).  ``respawn`` puts a fresh
    worker on a harvested wafer *out of dispatch* and names it; only
    ``self_test`` reaches it until ``admit`` lets it in, so a candidate
    that fails its incoming probe never serves.
    """

    n_live: int

    def idle_names(self) -> List[str]: ...
    def quarantine(self, name: str) -> None: ...
    def self_test(
        self, name: str, config: HealthConfig, defect: Optional[CellDefect]
    ) -> Optional[BISTReport]: ...
    def respawn(self, wafer: Wafer, config: HealthConfig) -> str: ...
    def admit(self, name: str) -> None: ...


class FleetHealth:
    """The probe -> quarantine -> heal loop over one :class:`Fleet`."""

    def __init__(
        self,
        pool: Fleet,
        supply: Optional[WaferSupply] = None,
        injector: Optional[FaultInjector] = None,
        config: Optional[HealthConfig] = None,
        telemetry: Optional[ServiceTelemetry] = None,
        obs=None,
    ):
        self.pool = pool
        self.supply = supply
        self.injector = injector
        self.config = config or HealthConfig()
        self.telemetry = telemetry
        self.obs = obs
        self.events: List[HealthEvent] = []
        #: name -> the latent defect that worker carries.  Host-side
        #: only, shipped in probes, so a defective worker computes
        #: correct results until a probe catches it.
        self.defects: Dict[str, CellDefect] = {}
        #: The fleet size healing restores: the live count at the time
        #: the loop was attached.  Quarantines *and* execution deaths
        #: both erode ``pool.n_live``; healing replaces either.
        self.target_live = pool.n_live

    def seed_defect(self, name: str, defect: CellDefect) -> None:
        """Declare that worker *name* now carries *defect*."""
        self.defects[name] = defect

    def probe(self, name: str) -> Optional[BISTReport]:
        """Self-test one worker against its latent defect; ``None`` if
        it was not idle (skip it, probe it next sweep)."""
        defect = self.defects.get(name)
        report = self.pool.self_test(name, self.config, defect)
        if report is None:
            return None
        if self.telemetry is not None:
            self.telemetry.bist_runs += 1
            if not report.ok:
                self.telemetry.bist_failures += 1
        if self.obs is not None:
            report.record(self.obs, defect)
        return report

    def quarantine(
        self, name: str, report: Optional[BISTReport] = None
    ) -> HealthEvent:
        """Drain worker *name* out of dispatch and log why, with its
        BIST diagnosis."""
        self.pool.quarantine(name)
        defect = self.defects.get(name)
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

    def heal_one(self) -> str:
        """Provision one replacement worker from the wafer supply and
        return its name (:class:`~repro.errors.ProvisionError` when
        none qualifies).  Each candidate stays out of dispatch until
        its incoming self-test passes."""
        # The loop ends by returning or by _candidates raising.
        for wafer, cells in self._candidates():
            name = self.pool.respawn(wafer, self.config)
            self.defects.pop(name, None)  # fresh silicon, no latent fault
            report = self.probe(name)
            if report is not None and report.ok:
                self.pool.admit(name)
                if self.telemetry is not None:
                    self.telemetry.heals += 1
                if self.obs is not None:
                    self.obs.registry.counter("health.heals", worker=name) \
                        .inc()
                self.events.append(HealthEvent(
                    name, "heal", detail=f"{cells}/{wafer.n_sites} cells"
                ))
                return name

    def heal_to_capacity(self, target_live: int) -> List[str]:
        """Add replacements until ``pool.n_live`` reaches *target_live*."""
        added: List[str] = []
        while self.pool.n_live < target_live:
            added.append(self.heal_one())
        return added

    def sweep(
        self, heal: bool = True, target_live: Optional[int] = None
    ) -> List[HealthEvent]:
        """One background pass: probe every idle worker, quarantine the
        failures, then heal up to *target_live* (the fleet's size when
        the loop was attached, by default -- execution deaths are
        healed too, not just quarantines).  Returns this sweep's
        actions."""
        target = self.target_live if target_live is None else target_live
        before = len(self.events)
        for name in self.pool.idle_names():
            if self.injector is not None and name not in self.defects:
                cfg = self.config
                defect = self.injector.sample_defect(cfg.bist_m, cfg.bist_w)
                if defect is not None:
                    self.defects[name] = defect
            report = self.probe(name)
            if report is not None and not report.ok:
                self.quarantine(name, report)
        if heal and self.supply is not None:
            self.heal_to_capacity(target)
        return self.events[before:]
