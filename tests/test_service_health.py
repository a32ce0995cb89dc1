"""Fleet health over the synchronous farm: quarantine semantics, wafer
healing, telemetry/observability, and the soak property -- results stay
byte-identical to the oracle for every registered workload while chips
die, get quarantined, and get replaced underneath the traffic."""

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ProvisionError, ServiceError
from repro.obs import Observability
from repro.service import (
    FleetHealth,
    HealthConfig,
    MatcherService,
    ServiceTelemetry,
    WorkerState,
)
from repro.service.pool import uniform_pool
from repro.service.reliability import CellDefect, CellDefectKind, FaultInjector
from repro.bist.soak import generate_jobs, run_soak
from repro.wafer import WaferSupply
from repro.workloads.registry import get_workload, list_workloads

import random

AB = Alphabet("ABCD")

#: A defect BIST always catches (validated by test_bist_coverage).
STUCK = CellDefect(CellDefectKind.STUCK_AT_1, 0, 0, port="d_out")


def small_pool(n=3, cells=8):
    return uniform_pool(n, ChipSpec(cells, AB.bits, beat_ns=250.0), AB)


def good_supply(n_wafers=16, seed=5):
    return WaferSupply(n_wafers, rows=3, cols=4, defect_rate=0.0, seed=seed)


class TestQuarantineSemantics:
    def test_quarantined_worker_leaves_dispatch(self):
        pool = small_pool()
        worker = pool.workers[0]
        worker.quarantine()
        assert worker.state is WorkerState.QUARANTINED
        assert not worker.is_live
        assert worker not in pool.idle_workers()
        assert worker not in pool.live_workers()
        assert worker in pool.quarantined_workers()
        assert pool.n_live == 2

    def test_quarantined_worker_refuses_work(self):
        pool = small_pool()
        worker = pool.workers[0]
        worker.quarantine()
        with pytest.raises(ServiceError, match="not live"):
            worker.run_match("AB", "ABAB")

    def test_quarantine_requires_live_worker(self):
        pool = small_pool()
        worker = pool.workers[0]
        worker.quarantine()
        with pytest.raises(ServiceError):
            worker.quarantine()

    def test_service_routes_around_quarantine(self):
        pool = small_pool()
        pool.workers[0].quarantine()
        service = MatcherService(pool)
        service.submit("AXC", "ABCAACACCABC")
        (result,) = service.drain()
        oracle = get_workload("match").run("AXC", "ABCAACACCABC", AB,
                                           engine="oracle")
        assert result.results == oracle
        assert pool.workers[0].name not in result.workers


class TestDetect:
    def test_healthy_sweep_takes_no_action(self):
        pool = small_pool()
        health = FleetHealth(pool)
        assert health.sweep() == []
        assert pool.n_live == 3

    def test_seeded_defect_is_caught_and_quarantined(self):
        pool = small_pool()
        telemetry = ServiceTelemetry()
        health = FleetHealth(pool, telemetry=telemetry)
        health.seed_defect(pool.workers[1].name, STUCK)
        events = health.sweep(heal=False)
        assert [e.action for e in events] == ["quarantine"]
        assert events[0].worker == pool.workers[1].name
        assert events[0].cell  # the BIST diagnosis names a cell
        assert pool.workers[1].state is WorkerState.QUARANTINED
        assert int(telemetry.bist_runs) == 3
        assert int(telemetry.bist_failures) == 1
        assert int(telemetry.quarantines) == 1

    def test_obs_spans_recorded(self):
        pool = small_pool(n=2)
        obs = Observability()
        health = FleetHealth(pool, obs=obs)
        health.seed_defect(pool.workers[0].name, STUCK)
        health.sweep(heal=False)
        bist_spans = obs.tracer.find("bist.run")
        assert len(bist_spans) == 2
        quarantine_spans = obs.tracer.find("health.quarantine")
        assert len(quarantine_spans) == 1
        assert quarantine_spans[0].attrs["worker"] == pool.workers[0].name
        assert obs.registry.value("health.quarantines",
                                  worker=pool.workers[0].name) == 1


class TestHeal:
    def test_heal_restores_target_capacity(self):
        pool = small_pool()
        telemetry = ServiceTelemetry()
        health = FleetHealth(pool, supply=good_supply(),
                             telemetry=telemetry)
        health.seed_defect(pool.workers[0].name, STUCK)
        health.seed_defect(pool.workers[2].name, STUCK)
        events = health.sweep()
        assert pool.n_live == health.target_live == 3
        actions = [e.action for e in events]
        assert actions.count("quarantine") == 2
        assert actions.count("heal") == 2
        assert int(telemetry.heals) == 2
        # Replacements are real, working workers with fresh names.
        heal_names = {e.worker for e in events if e.action == "heal"}
        for worker in pool.live_workers():
            if worker.name in heal_names:
                assert worker.name not in health.defects
                assert worker.capacity > 0

    def test_heal_covers_execution_deaths_too(self):
        """target_live is the fleet size at attach time: a worker killed
        by the fault injector mid-traffic (not quarantined) still gets
        replaced on the next sweep."""
        pool = small_pool()
        health = FleetHealth(pool, supply=good_supply())
        pool.workers[0].state = WorkerState.DEAD  # how service.py kills
        assert pool.n_live == 2
        events = health.sweep()
        assert pool.n_live == 3
        assert [e.action for e in events] == ["heal"]

    def test_heal_without_supply_raises(self):
        health = FleetHealth(small_pool())
        with pytest.raises(ProvisionError, match="no wafer supply"):
            health.heal_one()

    def test_exhausted_supply_raises_cleanly(self):
        pool = small_pool()
        health = FleetHealth(pool, supply=good_supply(n_wafers=0))
        with pytest.raises(ProvisionError, match="exhausted"):
            health.heal_one()

    def test_unattainable_min_capacity_raises_not_hangs(self):
        pool = small_pool()
        config = HealthConfig(min_capacity=999, max_provision_attempts=3)
        health = FleetHealth(pool, supply=good_supply(), config=config)
        with pytest.raises(ProvisionError, match="no provisionable wafer"):
            health.heal_one()
        assert health.supply.drawn == 3  # stayed inside the budget


class TestInjectorDrivenSweep:
    def test_sampled_defects_are_caught_and_healed(self, health_injector):
        """With the injector growing a latent defect on every idle
        worker, one sweep quarantines the whole fleet and heals it back
        to target from the wafer lot."""
        pool = small_pool()
        health = FleetHealth(pool, supply=good_supply(),
                             injector=health_injector)
        events = health.sweep()
        actions = [e.action for e in events]
        assert actions.count("quarantine") == 3
        assert actions.count("heal") == 3
        assert pool.n_live == health.target_live == 3

    def test_sweep_replays_identically_from_conftest_seed(
        self, health_injector
    ):
        from conftest import HEALTH_SEED

        def one_run(injector):
            pool = small_pool()
            health = FleetHealth(pool, supply=good_supply(),
                                 injector=injector)
            return health.sweep()

        twin = FaultInjector(seed=HEALTH_SEED, p_defect=1.0)
        assert one_run(health_injector) == one_run(twin)


class TestSoak:
    """The headline property: under continuous chip deaths, latent
    defects, quarantines, and wafer healing, every result the farm
    returns is byte-identical to the workload oracle."""

    @pytest.fixture(scope="class")
    def soak(self):
        return run_soak()

    def test_zero_mismatches(self, soak):
        assert soak.mismatches == 0
        assert soak.jobs == soak.rounds * 18

    def test_at_least_one_quarantine_heal_cycle(self, soak):
        assert soak.quarantines >= 1
        assert soak.heals >= 1
        assert soak.bist_runs >= soak.rounds

    def test_fleet_ends_healed_to_target(self, soak):
        assert soak.final_live >= soak.target_live
        assert soak.ok

    def test_soak_is_deterministic(self, soak):
        """Same seed, same deaths, same diagnoses, same replacement
        fleet -- the whole audit trail is byte-identical on a re-run."""
        assert run_soak().to_wire() == soak.to_wire()

    def test_jobs_cover_every_workload(self):
        rng = random.Random(3)
        jobs = generate_jobs(rng, 18, Alphabet("abcd"))
        assert {w for w, _, _ in jobs} == set(list_workloads())
