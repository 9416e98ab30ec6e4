"""The fleet builder's bulk population fill, checked leaf by leaf.

``FleetBuilder.build`` appends the population one cluster head's slice
at a time.  These tests hold it to a plain per-leaf reference loop, pin
a seeded fingerprint so a slip in churn-draw order fails here, and bound
the build's memory per leaf so per-leaf Python objects cannot creep back.
"""

import math
import random
import tracemalloc

import pytest

from repro.fleet import FleetBuilder
from repro.fleet.population import IDLE

#: ``Fleet.fingerprint()`` of the seed-7, 10k-leaf lifecycle below.
FINGERPRINT_10K_SEED_7 = (
    "1c91626785ace8f17cf5d0294dd47b7372d641e66118c956493c9238fa1ebc53"
)

#: Build memory bound: tracemalloc peak bytes per leaf at 100k leaves.
#: The three columns take 17 B a leaf; measured ~23 B a leaf (CPython
#: 3.11) with array over-allocation and the fixed platform/tree cost.
#: The 6 B margin is below one pointer a leaf, so even a shared-element
#: 100k list fails.
BUILD_BYTES_PER_LEAF = 29.0


def reference_columns(builder):
    """Each leaf's columns, built the slow way: one leaf at a time.

    ``region`` and ``head`` are not population columns: they are read
    off the built cluster heads (see :func:`head_placement`).
    """
    plan = builder.plan
    rng = random.Random(f"fleet:{builder.seed}")
    region, head, renew_until = [], [], []
    for index in range(plan.leaves):
        head_index = index // plan.leaves_per_cluster
        until = math.inf
        if builder.churn and rng.random() < builder.churn:
            until = rng.uniform(0.0, builder.churn_horizon)
        region.append(plan.region_of_head(head_index))
        head.append(head_index)
        renew_until.append(until)
    return {
        "state": [IDLE] * plan.leaves,
        "region": region,
        "head": head,
        "expires_at": [0.0] * plan.leaves,
        "renew_until": renew_until,
    }


def head_placement(fleet):
    """Each leaf's region and head, from the ``[start, stop)`` of its head."""
    region = [None] * len(fleet.population)
    head = [None] * len(fleet.population)
    for cluster in fleet.heads:
        for leaf in range(cluster.start, cluster.stop):
            assert head[leaf] is None, f"leaf {leaf} in two heads"
            region[leaf] = cluster.region
            head[leaf] = cluster.index
    return {"region": region, "head": head}


@pytest.mark.parametrize("leaves_per_cluster", [512, 7])
@pytest.mark.parametrize("leaves", [1, 511, 512, 1025, 3000])
@pytest.mark.parametrize("churn", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("seed", [7, 11])
def test_bulk_build_matches_per_leaf_reference(
    seed, churn, leaves, leaves_per_cluster
):
    builder = FleetBuilder(
        leaves=leaves,
        leaves_per_cluster=leaves_per_cluster,
        seed=seed,
        churn=churn,
        health=False,
    )
    fleet = builder.build()
    population = fleet.population
    built = {
        column: list(getattr(population, column))
        for column in ("state", "expires_at", "renew_until")
    }
    built.update(head_placement(fleet))
    for column, values in reference_columns(builder).items():
        assert built[column] == values, column
    assert len(population) == leaves
    assert population.counts()["idle"] == leaves
    assert sum(population.counts().values()) == leaves


def test_seed_7_10k_fingerprint_is_pinned():
    fleet = FleetBuilder(leaves=10_000, shards=4, seed=7).build()
    fleet.distribute("fleet-policy")
    fleet.run_epochs(60)
    fleet.withdraw("fleet-policy")
    fleet.run_epochs(5)
    assert fleet.fingerprint() == FINGERPRINT_10K_SEED_7


def test_build_memory_per_leaf_is_bounded():
    leaves = 100_000
    FleetBuilder(leaves=10).build()  # warm imports and caches
    tracemalloc.start()
    try:
        fleet = FleetBuilder(leaves=leaves).build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fleet.population) == leaves
    per_leaf = peak / leaves
    assert per_leaf <= BUILD_BYTES_PER_LEAF, (
        f"fleet build peaks at {per_leaf:.1f} B/leaf "
        f"(bound {BUILD_BYTES_PER_LEAF} B/leaf)"
    )
