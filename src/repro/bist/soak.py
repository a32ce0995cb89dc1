"""The health soak: serve real traffic while chips die underneath it.

One seeded, self-checking exercise of the whole maintenance story: a
synchronous matcher farm serves every registered Section 3.4 workload
while the fault injector grows latent defects in its workers, the
fleet-health loop finds them by gate-level BIST between rounds,
quarantines the failures, and heals the pool back to its target live
count from a wafer supply.  After every round each job's result stream
is compared byte-for-byte against the workload's direct oracle.

The soak passes only if **zero** results diverged, at least one full
quarantine + heal cycle happened (otherwise nothing was exercised), and
the fleet ended at its target capacity.  Everything derives from the
single ``seed``, so a failure reproduces exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..alphabet import Alphabet
from ..chip.chip import ChipSpec
from ..service.health import FleetHealth, HealthConfig, HealthEvent
from ..service.pool import uniform_pool
from ..service.reliability import FaultInjector
from ..service.service import MatcherService
from ..service.telemetry import ServiceTelemetry
from ..wafer.provision import WaferSupply
from ..workloads.registry import get_workload, list_workloads


@dataclass(frozen=True)
class SoakResult:
    """What the soak saw; ``ok`` is the CI gate."""

    rounds: int
    jobs: int
    mismatches: int
    quarantines: int
    heals: int
    bist_runs: int
    target_live: int
    final_live: int
    events: Tuple[HealthEvent, ...] = field(default=(), repr=False)

    @property
    def ok(self) -> bool:
        """Zero wrong results, >= 1 quarantine+heal cycle, healed fleet."""
        return (
            self.mismatches == 0
            and self.quarantines >= 1
            and self.heals >= 1
            and self.final_live >= self.target_live
        )

    def to_wire(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "rounds": self.rounds,
            "jobs": self.jobs,
            "mismatches": self.mismatches,
            "quarantines": self.quarantines,
            "heals": self.heals,
            "bist_runs": self.bist_runs,
            "target_live": self.target_live,
            "final_live": self.final_live,
            "events": [
                {"worker": e.worker, "action": e.action, "cell": e.cell,
                 "detail": e.detail}
                for e in self.events
            ],
        }


def generate_jobs(
    rng: random.Random, n: int, alphabet: Alphabet
) -> List[Tuple[str, object, list]]:
    """*n* deterministic jobs cycling over every registered workload.

    Each entry is ``(workload, params, stream)`` ready for both
    ``MatcherService.submit`` and the workload's oracle engine.
    """
    names = list_workloads()
    symbols = list(alphabet.symbols)
    jobs: List[Tuple[str, object, list]] = []
    for i in range(n):
        name = names[i % len(names)]
        spec = get_workload(name)
        if spec.numeric:
            taps = [round(rng.uniform(-2.0, 2.0), 3)
                    for _ in range(rng.randint(2, 4))]
            stream = [round(rng.uniform(-4.0, 4.0), 3)
                      for _ in range(rng.randint(6, 24))]
            jobs.append((name, taps, stream))
        else:
            pattern = "".join(
                rng.choice(symbols) for _ in range(rng.randint(2, 5))
            )
            text = [rng.choice(symbols) for _ in range(rng.randint(6, 24))]
            jobs.append((name, pattern, text))
    return jobs


def run_soak(
    rounds: int = 4,
    jobs_per_round: int = 18,
    seed: int = 7,
    n_workers: int = 4,
    n_cells: int = 8,
    p_defect: float = 0.45,
    p_death: float = 0.05,
    n_wafers: int = 64,
    wafer_defect_rate: float = 0.05,
    config: Optional[HealthConfig] = None,
    log=None,
) -> SoakResult:
    """Run the seeded soak; see the module docstring for the contract.

    ``p_defect`` is deliberately high -- a soak that never sees a
    quarantine tests nothing -- and ``p_death`` keeps the farm's
    retry-and-reassign machinery busy at the same time, so the health
    loop is exercised *concurrently* with recovery, not instead of it.
    ``log`` is an optional ``print``-like callable for progress lines.
    """
    alphabet = Alphabet("abcd")
    pool = uniform_pool(
        n_workers, ChipSpec(n_cells, alphabet.bits, beat_ns=250.0), alphabet
    )
    target_live = pool.n_live
    injector = FaultInjector(seed=seed, p_death=p_death, p_defect=p_defect)
    telemetry = ServiceTelemetry()
    supply = WaferSupply(
        n_wafers, rows=3, cols=4, defect_rate=wafer_defect_rate,
        seed=seed + 1,
    )
    health = FleetHealth(
        pool, supply=supply, injector=injector,
        config=config or HealthConfig(), telemetry=telemetry,
    )
    service = MatcherService(pool, faults=injector)

    total_jobs = 0
    mismatches = 0
    for rnd in range(rounds):
        rng = random.Random((seed << 8) ^ rnd)
        jobs = generate_jobs(rng, jobs_per_round, alphabet)
        expected: Dict[int, list] = {}
        for workload, params, stream in jobs:
            job_id = service.submit(params, stream, workload=workload)
            expected[job_id] = get_workload(workload).run(
                params, stream, alphabet, engine="oracle"
            )
        total_jobs += len(expected)
        for result in service.drain():
            want = expected.pop(result.job_id, None)
            if want is not None and result.results != want:
                mismatches += 1
        mismatches += len(expected)  # a job that never completed is wrong
        swept = health.sweep()
        if log is not None:
            acts = ", ".join(
                f"{e.action} {e.worker}" + (f" ({e.cell})" if e.cell else "")
                for e in swept
            ) or "all healthy"
            log(
                f"round {rnd}: {len(jobs)} jobs, "
                f"{mismatches} mismatches so far; {acts}; "
                f"live {pool.n_live}/{target_live}"
            )

    return SoakResult(
        rounds=rounds,
        jobs=total_jobs,
        mismatches=mismatches,
        quarantines=int(telemetry.quarantines),
        heals=int(telemetry.heals),
        bist_runs=int(telemetry.bist_runs),
        target_live=target_live,
        final_live=pool.n_live,
        events=tuple(health.events),
    )
