"""The extension base's per-node index stays in step with ``_adapted``.

``ExtensionBase._by_node`` answers every per-node question (is this node
adapted? which names? drop them all) without scanning ``_adapted``.  It
is only correct if every mutation of ``_adapted`` updates it too, with
each node's names in the same relative order as in ``_adapted``.
"""

from __future__ import annotations

import logging

import pytest

from repro.scenarios.spec import roaming_storm
from repro.scenarios.storms import StormWorld

from tests.support import TraceAspect


def rebuilt_index(base) -> dict[str, list[str]]:
    """The per-node index as it must be, derived from ``_adapted``."""
    index: dict[str, list[str]] = {}
    for (node, name) in base._adapted:
        index.setdefault(node, []).append(name)
    return index


def assert_index_consistent(base) -> None:
    assert {
        node: list(names) for node, names in base._by_node.items()
    } == rebuilt_index(base)
    for node, names in base._by_node.items():
        for name, live in names.items():
            assert base._adapted[(node, name)] is live


@pytest.fixture
def adapted_world(world):
    """The MIDAS world with two extensions live on the device."""
    world.catalog.add("a", TraceAspect)
    world.catalog.add("b", TraceAspect)
    world.start_receiver()
    world.run(3.0)
    assert world.base.extensions_on("device") == ["a", "b"]
    assert_index_consistent(world.base)
    return world


def lease_of(base, name: str) -> str:
    return base._adapted[("device", name)].lease_id


class TestMutationSites:
    def test_drop_node(self, adapted_world):
        base = adapted_world.base
        lost = []
        base.on_node_lost.connect(lost.append)
        base._drop_node("device", action="roamed", detail="now at elsewhere")
        assert_index_consistent(base)
        assert base.adapted_nodes() == [] and lost == ["device"]
        logged = [(r.extension, r.action) for r in base.activity_for("device")]
        assert logged[-2:] == [("a", "roamed"), ("b", "roamed")]
        base._drop_node("device", action="roamed", detail="again")
        assert lost == ["device"]  # nothing left to drop: no second signal

    def test_renewal_abandoned(self, adapted_world):
        base = adapted_world.base
        lost = []
        base.on_node_lost.connect(lost.append)
        base._renewer.abandon(lease_of(base, "a"))
        assert_index_consistent(base)
        assert base.extensions_on("device") == ["b"] and lost == []
        base._renewer.abandon(lease_of(base, "b"))
        assert_index_consistent(base)
        assert base.adapted_nodes() == [] and lost == ["device"]

    def test_revoke(self, adapted_world):
        base = adapted_world.base
        assert base.revoke("device", "b")
        assert_index_consistent(base)
        assert base.extensions_on("device") == ["a"]
        assert not base.revoke("device", "b")
        base.revoke_node("device")
        assert_index_consistent(base)
        assert base.adapted_nodes() == []

    def test_reset_volatile(self, adapted_world):
        base = adapted_world.base
        base.reset_volatile()
        assert base._by_node == {} and base._adapted == {}

    def test_quarantine_report(self, adapted_world):
        base = adapted_world.base
        base._handle_health("device", {"extension": "a", "node_class": "device"})
        assert_index_consistent(base)
        assert base.extensions_on("device") == ["b"]

    def test_reoffer_keeps_name_order(self, adapted_world):
        base = adapted_world.base
        base.offer("device", "a", force=True)
        adapted_world.run(2.0)
        assert_index_consistent(base)
        assert list(base._by_node["device"]) == ["a", "b"]

    def test_renew_node_renews_every_lease_on_the_node(self, adapted_world):
        base = adapted_world.base
        confirmed = []
        base.renew_node("device", on_done=confirmed.append)
        adapted_world.run(1.0)
        assert confirmed == [2]


def test_index_matches_adapted_throughout_a_roaming_storm():
    logging.disable(logging.WARNING)
    try:
        world = StormWorld(roaming_storm(nodes=50, bases=3, seed=7))
        try:
            seen_adapted = seen_dropped = 0
            previous: dict[str, int] = {}
            elapsed = 0.0
            while elapsed < world.spec.total_time:
                world.run_for(1.0)
                elapsed += 1.0
                for base_id, base in world.bases.items():
                    assert_index_consistent(base)
                    count = len(base._adapted)
                    seen_adapted = max(seen_adapted, count)
                    if count < previous.get(base_id, 0):
                        seen_dropped += 1
                    previous[base_id] = count
        finally:
            world.close()
    finally:
        logging.disable(logging.NOTSET)
    # The storm really exercised both directions of the index.
    assert seen_adapted > 0 and seen_dropped > 0
