"""Radio network tests."""

import copy
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import UnknownNodeError
from repro.net.geometry import Position
from repro.net.message import WIRE_COPY_DEPTH, Message, wire_copy
from repro.net.network import Network, NetworkConfig
from repro.net.node import NetworkNode
from repro.net.transport import _RequestBody


def make_pair(network, distance=10.0, radio_range=50.0):
    a = network.attach(NetworkNode("a", Position(0, 0), radio_range))
    b = network.attach(NetworkNode("b", Position(distance, 0), radio_range))
    return a, b


class TestMembership:
    def test_attach_and_lookup(self, network):
        node = network.attach(NetworkNode("n1"))
        assert network.node("n1") is node
        assert "n1" in network

    def test_duplicate_id_rejected(self, network):
        network.attach(NetworkNode("n1"))
        with pytest.raises(UnknownNodeError):
            network.attach(NetworkNode("n1"))

    def test_unknown_node_lookup_fails(self, network):
        with pytest.raises(UnknownNodeError):
            network.node("ghost")

    def test_detach(self, network):
        node = network.attach(NetworkNode("n1"))
        network.detach(node)
        assert "n1" not in network
        assert node.network is None


class TestConnectivity:
    def test_in_range_nodes_reachable(self, network):
        a, b = make_pair(network, distance=10.0)
        assert network.reachable(a, b)

    def test_out_of_range_nodes_unreachable(self, network):
        a, b = make_pair(network, distance=200.0)
        assert not network.reachable(a, b)

    def test_range_is_limited_by_both_radios(self, network):
        a = network.attach(NetworkNode("a", Position(0, 0), radio_range=100))
        b = network.attach(NetworkNode("b", Position(50, 0), radio_range=10))
        assert not network.reachable(a, b)

    def test_partition_severs_link(self, network):
        a, b = make_pair(network)
        network.partition("a", "b")
        assert not network.reachable(a, b)
        assert not network.reachable(b, a)

    def test_heal_restores_link(self, network):
        a, b = make_pair(network)
        network.partition("a", "b")
        network.heal("a", "b")
        assert network.reachable(a, b)

    def test_neighbors(self, network):
        a, b = make_pair(network, distance=10.0)
        far = network.attach(NetworkNode("far", Position(500, 0)))
        assert network.neighbors(a) == [b]
        assert network.neighbors(far) == []


class TestDelivery:
    def test_unicast_delivery(self, sim, network):
        a, b = make_pair(network)
        got = []
        b.set_handler("ping", got.append)
        a.send("b", "ping", {"n": 1})
        sim.run()
        assert len(got) == 1
        assert got[0].payload == {"n": 1}

    def test_delivery_has_latency(self, sim, network):
        a, b = make_pair(network)
        arrival = []
        b.set_handler("ping", lambda msg: arrival.append(sim.now))
        a.send("b", "ping")
        sim.run()
        assert arrival[0] > 0.0

    def test_latency_grows_with_distance(self):
        def one_way(distance):
            from repro.sim.kernel import Simulator
            simulator = Simulator()
            net = Network(simulator, NetworkConfig(jitter=0.0), seed=1)
            a = net.attach(NetworkNode("a", Position(0, 0), radio_range=10_000))
            b = net.attach(NetworkNode("b", Position(distance, 0), radio_range=10_000))
            arrival = []
            b.set_handler("x", lambda msg: arrival.append(simulator.now))
            a.send("b", "x")
            simulator.run()
            return arrival[0]

        assert one_way(1000.0) > one_way(1.0)

    def test_payloads_isolated(self, sim, network):
        a, b = make_pair(network)
        received = []
        b.set_handler("data", lambda msg: received.append(msg.payload))
        payload = {"items": [1, 2]}
        a.send("b", "data", payload)
        sim.run()
        payload["items"].append(3)
        assert received[0] == {"items": [1, 2]}

    def test_out_of_range_message_dropped(self, sim, network):
        a, b = make_pair(network, distance=500.0)
        got = []
        b.set_handler("ping", got.append)
        drops = []
        network.on_drop.connect(lambda msg, reason: drops.append(reason))
        a.send("b", "ping")
        sim.run()
        assert got == []
        assert drops == ["out of range"]

    def test_message_to_unknown_node_dropped(self, sim, network):
        a, _ = make_pair(network)
        a.send("ghost", "ping")
        sim.run()
        assert network.messages_dropped == 1

    def test_detach_in_flight_drops(self, sim, network):
        a, b = make_pair(network)
        a.send("b", "ping")
        network.detach(b)
        sim.run()
        assert network.messages_dropped == 1

    def test_broadcast_reaches_all_neighbors(self, sim, network):
        a = network.attach(NetworkNode("a", Position(0, 0)))
        b = network.attach(NetworkNode("b", Position(5, 0)))
        c = network.attach(NetworkNode("c", Position(0, 5)))
        network.attach(NetworkNode("far", Position(500, 0)))
        got = []
        for node in (b, c):
            node.set_handler("hello", lambda msg, nid=node.node_id: got.append(nid))
        a.broadcast("hello")
        sim.run()
        assert sorted(got) == ["b", "c"]

    def test_broadcast_does_not_loop_back(self, sim, network):
        a, _ = make_pair(network)
        got = []
        a.set_handler("hello", got.append)
        a.broadcast("hello")
        sim.run()
        assert got == []


@dataclass(frozen=True)
class Wrapped:
    """A frozen dataclass around a mutable body, like a transport envelope."""

    label: str
    body: Any


class OwnCopy:
    """A class that decides for itself what a deep copy of it is."""

    def __init__(self, value):
        self.value = value

    def __deepcopy__(self, memo):
        return OwnCopy(f"copied:{self.value}")


def mutable_ids(value, seen=None) -> set[int]:
    """ids of every dict, list and plain object reachable from ``value``
    (tuples are immutable and ``()`` is a shared singleton, so skipped)."""
    seen = set() if seen is None else seen
    if isinstance(value, (dict, list, Wrapped)):
        if id(value) in seen:
            return seen
        seen.add(id(value))
    if isinstance(value, dict):
        children = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple)):
        children = list(value)
    elif isinstance(value, Wrapped):
        children = [value.label, value.body]
    else:
        children = []
    for child in children:
        mutable_ids(child, seen)
    return seen


def deliver_to(receivers, sim, payload, broadcast=False):
    """Send ``payload`` from a sender at the origin to ``receivers`` (node
    ids placed nearby); returns (sender, {receiver: delivered payload})."""
    network = Network(sim, seed=5)
    sender = network.attach(NetworkNode("src", Position(0, 0)))
    got = {}
    for offset, node_id in enumerate(receivers, start=1):
        node = network.attach(NetworkNode(node_id, Position(offset, 0)))
        node.set_handler("data", lambda msg, nid=node_id: got.__setitem__(nid, msg.payload))
    if broadcast:
        sender.broadcast("data", payload)
    else:
        sender.send(receivers[0], "data", payload)
    sim.run()
    return sender, got


class TestPayloadIsolation:
    """Delivered payloads are wire copies: no mutable object is shared."""

    def test_receiver_mutation_does_not_reach_sender(self, sim):
        payload = {"lease": {"ids": ["l:1", "l:2"]}, "renewals": [[1, 2]]}
        _sender, got = deliver_to(["b"], sim, payload)
        got["b"]["lease"]["ids"].append("l:3")
        got["b"]["renewals"][0].clear()
        assert payload == {"lease": {"ids": ["l:1", "l:2"]}, "renewals": [[1, 2]]}

    def test_broadcast_receivers_get_separate_copies(self, sim):
        payload = {"digest": {"n1": [1.0, "base-a"]}}
        _sender, got = deliver_to(["b", "c"], sim, payload, broadcast=True)
        got["b"]["digest"]["n1"].append("mutated")
        assert got["c"] == payload == {"digest": {"n1": [1.0, "base-a"]}}

    def test_frozen_request_body_arrives_fresh_with_copied_body(self, sim):
        body = {"lease_ids": ["l:1"]}
        request = _RequestBody("req:1", "midas.keepalive", body)
        _sender, got = deliver_to(["b"], sim, request)
        delivered = got["b"]
        assert type(delivered) is _RequestBody
        assert delivered is not request
        assert delivered == request
        assert delivered.body is not body
        assert delivered.body["lease_ids"] is not body["lease_ids"]

    def test_own_deepcopy_is_honoured(self, sim):
        _sender, got = deliver_to(["b"], sim, {"token": OwnCopy("x")})
        assert got["b"]["token"].value == "copied:x"

    def test_self_referencing_list_terminates_and_shares_nothing(self):
        cyclic: list = [1]
        cyclic.append(cyclic)
        copied = wire_copy(cyclic)
        assert copied[0] == 1
        assert not mutable_ids(copied) & mutable_ids(cyclic)

    def test_deep_nesting_beyond_the_cap_is_still_isolated(self):
        deep: dict = {"leaf": [0]}
        for level in range(WIRE_COPY_DEPTH * 2):
            deep = {"level": level, "child": deep}
        copied = wire_copy(deep)
        assert copied == deep
        assert not mutable_ids(copied) & mutable_ids(deep)

    def test_aliasing_inside_a_payload_is_not_preserved(self, sim):
        # As on a JSON-like wire: each reference is serialized separately,
        # so the receiver gets two equal, independent lists.
        shared = [1, 2]
        _sender, got = deliver_to(["b"], sim, {"a": shared, "b": shared})
        delivered = got["b"]
        assert delivered["a"] == delivered["b"] == [1, 2]
        assert delivered["a"] is not delivered["b"]
        delivered["a"].append(3)
        assert delivered["b"] == [1, 2]

    def test_atoms_travel_as_they_are(self):
        text, blob, caps = "x" * 50, b"payload", frozenset({"net", "clock"})
        assert wire_copy(text) is text
        assert wire_copy(blob) is blob
        assert wire_copy(caps) is caps


_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=5),
    st.binary(max_size=5),
    st.frozensets(st.text(max_size=3), max_size=3),
)
_trees = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.builds(Wrapped, st.text(max_size=4), children),
    ),
    max_leaves=25,
)


class TestWireCopyProperty:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_trees)
    def test_equals_deepcopy_and_shares_no_mutable_object(self, tree):
        copied = wire_copy(tree)
        assert copied == copy.deepcopy(tree)
        assert not mutable_ids(copied) & mutable_ids(tree)


class TestLoss:
    def test_lossy_network_drops_some(self, sim):
        net = Network(sim, NetworkConfig(loss_probability=0.5), seed=99)
        a = net.attach(NetworkNode("a", Position(0, 0)))
        b = net.attach(NetworkNode("b", Position(1, 0)))
        got = []
        b.set_handler("x", got.append)
        for _ in range(100):
            a.send("b", "x")
        sim.run()
        assert 0 < len(got) < 100

    def test_loss_is_deterministic_per_seed(self):
        def run(seed):
            from repro.sim.kernel import Simulator
            simulator = Simulator()
            net = Network(simulator, NetworkConfig(loss_probability=0.3), seed=seed)
            a = net.attach(NetworkNode("a", Position(0, 0)))
            b = net.attach(NetworkNode("b", Position(1, 0)))
            got = []
            b.set_handler("x", lambda msg: got.append(msg.message_id))
            for _ in range(50):
                a.send("b", "x")
            simulator.run()
            return len(got)

        assert run(7) == run(7)


class TestOrdering:
    def test_fifo_links_deliver_in_send_order(self, sim):
        net = Network(sim, NetworkConfig(jitter=0.005), seed=3)
        a = net.attach(NetworkNode("a", Position(0, 0)))
        b = net.attach(NetworkNode("b", Position(1, 0)))
        got = []
        b.set_handler("seq", lambda msg: got.append(msg.payload))
        for index in range(50):
            a.send("b", "seq", index)
        sim.run()
        assert got == list(range(50))

    def test_without_fifo_jitter_can_reorder(self):
        """Documents why FIFO links are the default: raw jitter reorders
        a flow, which breaks sequential protocols like the mirror feed."""
        from repro.sim.kernel import Simulator

        reordered = False
        for seed in range(20):
            simulator = Simulator()
            net = Network(
                simulator,
                NetworkConfig(jitter=0.01, fifo_links=False),
                seed=seed,
            )
            a = net.attach(NetworkNode("a", Position(0, 0)))
            b = net.attach(NetworkNode("b", Position(1, 0)))
            got = []
            b.set_handler("seq", lambda msg: got.append(msg.payload))
            for index in range(50):
                a.send("b", "seq", index)
            simulator.run()
            if got != sorted(got):
                reordered = True
                break
        assert reordered

    def test_wired_link_ignores_distance(self, sim, network):
        a = network.attach(NetworkNode("a", Position(0, 0), radio_range=10))
        b = network.attach(NetworkNode("b", Position(5000, 0), radio_range=10))
        assert not network.reachable(a, b)
        network.wire("a", "b")
        assert network.reachable(a, b)
        network.unwire("a", "b")
        assert not network.reachable(a, b)

    def test_partition_severs_wired_link_too(self, sim, network):
        a = network.attach(NetworkNode("a", Position(0, 0)))
        b = network.attach(NetworkNode("b", Position(5000, 0)))
        network.wire("a", "b")
        network.partition("a", "b")
        assert not network.reachable(a, b)


class TestMessageObject:
    def test_broadcast_flag(self):
        assert Message("a", "*", "k").is_broadcast
        assert not Message("a", "b", "k").is_broadcast

    def test_unique_ids(self):
        assert Message("a", "b", "k").message_id != Message("a", "b", "k").message_id
