"""Wafer-supply edge cases behind the healing loop: zero-yield wafers,
all-good wafers, lot exhaustion (a clean ProvisionError, never a hang),
and the seeded determinism the soak's reproducibility rests on."""

import pytest

from repro.alphabet import Alphabet
from repro.chip.chip import ChipSpec
from repro.errors import ChipError, ProvisionError
from repro.service.health import FleetHealth
from repro.service.pool import PoolWorker, uniform_pool
from repro.wafer import Wafer, WaferSupply, harvest_linear_array
from repro.wafer.yield_model import cells_per_wafer

AB = Alphabet("ABCD")


def dead_wafer(rows=2, cols=4):
    """Every site defective: beyond any bypass budget."""
    wafer = Wafer(rows, cols, defect_rate=0.0)
    for r in range(rows):
        for c in range(cols):
            wafer.mark_defective(r, c)
    return wafer


class TestWaferEdges:
    def test_zero_yield_wafer_is_unharvestable(self):
        with pytest.raises(ChipError, match="bypass budget"):
            harvest_linear_array(dead_wafer())

    def test_zero_yield_wafer_provisions_a_dead_worker_not_a_crash(self):
        """The farm routes around bad silicon: an unharvestable wafer
        becomes a dead (never-dispatched) worker, not an exception."""
        worker = PoolWorker.from_wafer("dud", dead_wafer(), AB)
        assert worker.capacity == 0
        assert not worker.is_live

    def test_all_good_wafer_harvests_every_site(self):
        wafer = Wafer(3, 4, defect_rate=0.0)
        assert wafer.n_functional == wafer.n_sites == 12
        harvest = harvest_linear_array(wafer)
        assert harvest.n_cells == 12
        assert harvest.worst_bypass_run == 0
        worker = PoolWorker.from_wafer("fresh", wafer, AB)
        assert worker.is_live
        assert worker.capacity == worker.nominal_capacity == 12


class TestWaferSupply:
    def test_draw_consumes_the_lot(self):
        supply = WaferSupply(3, rows=2, cols=2, seed=1)
        wafers = [supply.draw() for _ in range(3)]
        assert all(w.n_sites == 4 for w in wafers)
        assert supply.remaining == 0
        assert supply.drawn == 3

    def test_exhaustion_raises_cleanly_not_hangs(self):
        supply = WaferSupply(1, rows=2, cols=2, seed=1)
        supply.draw()
        for _ in range(3):  # stays exhausted, never wraps or blocks
            with pytest.raises(ProvisionError, match="exhausted"):
                supply.draw()
        assert supply.drawn == 1

    def test_empty_lot_raises_immediately(self):
        with pytest.raises(ProvisionError, match="0-wafer lot"):
            WaferSupply(0, rows=2, cols=2).draw()

    def test_same_seed_same_lot(self):
        def defect_maps(seed):
            supply = WaferSupply(4, rows=3, cols=4, defect_rate=0.4,
                                 seed=seed)
            return [
                [site.functional for site in supply.draw()]
                for _ in range(4)
            ]

        assert defect_maps(11) == defect_maps(11)
        assert defect_maps(11) != defect_maps(12)

    def test_expected_cells_matches_yield_model(self):
        supply = WaferSupply(1, rows=3, cols=4, defect_rate=0.25)
        assert supply.expected_cells_per_wafer() == pytest.approx(
            cells_per_wafer(3, 4, 0.25)
        )

    def test_validation(self):
        with pytest.raises(ChipError):
            WaferSupply(-1, rows=2, cols=2)
        with pytest.raises(ChipError):
            WaferSupply(1, rows=0, cols=2)
        with pytest.raises(ChipError):
            WaferSupply(1, rows=2, cols=2, defect_rate=1.0)


class TestProvisioningGates:
    def test_heal_one_exhausts_supply_with_clean_error(self):
        pool = uniform_pool(2, ChipSpec(8, AB.bits, beat_ns=250.0), AB)
        supply = WaferSupply(2, rows=2, cols=2, defect_rate=0.0, seed=3)
        health = FleetHealth(pool, supply=supply)
        health.heal_one()
        health.heal_one()
        with pytest.raises(ProvisionError, match="exhausted"):
            health.heal_one()

    def test_heal_to_capacity_propagates_exhaustion(self):
        pool = uniform_pool(2, ChipSpec(8, AB.bits, beat_ns=250.0), AB)
        pool.workers[0].quarantine()
        pool.workers[1].quarantine()
        health = FleetHealth(
            pool, supply=WaferSupply(1, rows=2, cols=2, seed=3)
        )
        with pytest.raises(ProvisionError):
            health.heal_to_capacity(2)
        assert pool.n_live == 1  # the one wafer that existed was used
