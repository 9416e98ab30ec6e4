"""Fleet-scale simulation: sharded kernel, registrar tree, array-backed leaves.

The classic stack simulates tens of nodes faithfully — every device gets
a transport, lease tables get a timer per lease, the base answers every
node directly.  This package scales the *same platform* to 100k+
simulated nodes by changing representation, not semantics:

- :mod:`repro.fleet.regions` — region-partitioned event queues
  synchronized at epoch boundaries, with deterministic cross-region
  handoff (shard-count independent by construction);
- :mod:`repro.fleet.tree` — the base ↔ registrar ↔ cluster-head ↔ leaf
  aggregation tree: envelopes verified once per registrar, head leases
  renewed in one batch per registrar, leaf leases swept per region;
- :mod:`repro.fleet.population` — leaves as rows in parallel arrays,
  appended one cluster slice at a time, plus :class:`FleetBuilder`.

Entry point::

    fleet = FleetBuilder(leaves=100_000, shards=4, seed=7).build()
    fleet.distribute("fleet-policy")
    fleet.run_epochs(60)
    print(fleet.stats(), fleet.fingerprint())
"""

from repro.fleet.population import (
    EXPIRED,
    IDLE,
    INSTALLED,
    OFFERED,
    REVOKED,
    STATE_NAMES,
    Fleet,
    FleetBuilder,
    FleetPolicyAspect,
    FleetPopulation,
)
from repro.fleet.regions import RegionHandoff, ShardedKernel
from repro.fleet.tree import (
    FLEET_OFFER,
    FLEET_REVOKE,
    HEAD_INTERFACE,
    ClusterHead,
    ClusterRegistrar,
    TreePlan,
)

__all__ = [
    "ClusterHead",
    "ClusterRegistrar",
    "EXPIRED",
    "Fleet",
    "FleetBuilder",
    "FleetPolicyAspect",
    "FleetPopulation",
    "FLEET_OFFER",
    "FLEET_REVOKE",
    "HEAD_INTERFACE",
    "IDLE",
    "INSTALLED",
    "OFFERED",
    "RegionHandoff",
    "REVOKED",
    "ShardedKernel",
    "STATE_NAMES",
    "TreePlan",
]
