"""Array-backed population rows and tree topology math."""

import math
from array import array

import pytest

from repro.errors import SimulationError
from repro.fleet.population import (
    EXPIRED,
    IDLE,
    INSTALLED,
    OFFERED,
    REVOKED,
    FleetPopulation,
)
from repro.fleet.tree import TreePlan


def slice_of(*renew_until):
    return array("d", renew_until)


def population_of(count, renew_until=math.inf):
    population = FleetPopulation()
    population.add_leaves(array("d", [renew_until] * count))
    return population


class TestFleetPopulation:
    def test_rows_not_objects(self):
        population = FleetPopulation()
        for _ in range(10):
            population.add_leaves(array("d", [math.inf] * 10))
        assert len(population) == 100
        assert population.counts()["idle"] == 100
        for column in (
            population.state,
            population.expires_at,
            population.renew_until,
        ):
            assert isinstance(column, array) and len(column) == 100

    def test_slices_append_in_order(self):
        population = FleetPopulation()
        population.add_leaves(slice_of(math.inf, 2.5))
        population.add_leaves(slice_of())
        population.add_leaves(slice_of(7.0))
        assert list(population.state) == [IDLE] * 3
        assert list(population.expires_at) == [0.0] * 3
        assert list(population.renew_until) == [math.inf, 2.5, 7.0]
        assert population.counts()["idle"] == 3

    def test_lifecycle_range_transitions(self):
        population = population_of(10)
        assert population.offer_range(0, 10) == 10
        assert population.counts()["offered"] == 10
        assert population.install_range(0, 10, now=1.0, duration=5.0) == 10
        assert population.counts()["installed"] == 10
        assert population.expires_at[3] == 6.0
        # Offer/install are idempotent over already-moved rows.
        assert population.offer_range(0, 10) == 0
        assert population.install_range(0, 10, 1.0, 5.0) == 0

    def test_sweep_renews_until_churn_deadline_then_expires(self):
        population = FleetPopulation()
        # Leaf 0 renews forever; leaf 1 churns out at t=4.
        population.add_leaves(slice_of(math.inf, 4.0))
        population.offer_range(0, 2)
        population.install_range(0, 2, now=0.0, duration=5.0)
        assert population.sweep_range(0, 2, now=3.0, duration=5.0) == (2, 0)
        assert population.expires_at[0] == 8.0
        # At t=6 the churner's deadline passed: only the keeper renews.
        assert population.sweep_range(0, 2, now=6.0, duration=5.0) == (1, 0)
        # By t=10 the churner's last term (ends 8.0) has lapsed.
        assert population.sweep_range(0, 2, now=10.0, duration=5.0) == (1, 1)
        assert population.state_of(1) == EXPIRED
        assert population.counts() == {
            "idle": 0, "offered": 0, "installed": 1, "revoked": 0, "expired": 1,
        }
        assert population.renewals == 4
        assert population.expiries == 1

    def test_revoke_takes_offered_and_installed_only(self):
        population = population_of(4)
        population.offer_range(0, 2)
        population.install_range(0, 2, 0.0, 5.0)
        population.offer_range(2, 3)  # leaf 2 offered, leaf 3 idle
        assert population.revoke_range(0, 4) == 3
        assert population.state_of(3) == IDLE
        assert population.counts()["revoked"] == 3
        assert population.revocations == 3

    def test_counts_stay_exact_through_mixed_traffic(self):
        population = population_of(50, renew_until=0.0)
        population.offer_range(0, 50)
        population.install_range(0, 50, 0.0, 2.0)
        population.sweep_range(0, 50, now=5.0, duration=2.0)  # all lapse
        counts = population.counts()
        assert counts["expired"] == 50
        assert sum(counts.values()) == 50


class TestTreePlan:
    def test_exact_division(self):
        plan = TreePlan(1024, leaves_per_cluster=256, clusters_per_registrar=2)
        assert plan.heads == 4
        assert plan.registrars == 2
        assert plan.regions == 3
        assert plan.leaf_range(3) == (768, 1024)
        assert plan.head_range(1) == (2, 4)
        assert plan.region_of_head(0) == 1
        assert plan.region_of_head(3) == 2

    def test_ragged_division_clamps_final_ranges(self):
        plan = TreePlan(1000, leaves_per_cluster=300, clusters_per_registrar=3)
        assert plan.heads == 4  # 300+300+300+100
        assert plan.registrars == 2
        assert plan.leaf_range(3) == (900, 1000)
        assert plan.head_range(1) == (3, 4)

    def test_rejects_nonsense(self):
        with pytest.raises(SimulationError):
            TreePlan(0)
        with pytest.raises(SimulationError):
            TreePlan(10, leaves_per_cluster=0)
