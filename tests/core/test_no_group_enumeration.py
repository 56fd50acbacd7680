"""No plan enumerates the group: zero membership walks per group send.

A group address (``Destination.to_all()``) is resolved by the
transport's audience index, never by the server.  This test wraps every
membership enumerator — ``userset`` and ``users`` on the key tree,
``members`` on the star, the key servers and the cluster coordinator,
and the arbitrary key graph's ``u_nodes`` — with a counter, drives each
path that sends a group address, and requires the counter to stay at
zero while the path runs.  The materialized key graph legitimately
reads usersets to *plan* (covering), so there only the stages after
signing are counted: that is where a receiver resolver used to run.
"""

import asyncio

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (DEST_ALL, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.drbg import HmacDrbg
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.keygraph.flat import FlatKeyTree
from repro.keygraph.graph import KeyGraph
from repro.keygraph.materialized import MaterializedKeyGraph
from repro.keygraph.star import StarGroup
from repro.serve import ClusterServingCore, ImmediateServingCore, ServeConfig

ENUMERATORS = (
    (FlatKeyTree, "userset"), (FlatKeyTree, "users"),
    (StarGroup, "members"), (GroupKeyServer, "members"),
    (ClusterCoordinator, "members"),
    (KeyGraph, "u_nodes"),
)


class Enumerations:
    """Counts enumerator calls made while counting is switched on."""

    def __init__(self):
        self.calls = []
        self.active = False

    def hit(self, label):
        if self.active:
            self.calls.append(label)

    def start(self, *_run):
        self.active = True

    def stop(self, *_run):
        self.active = False

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()


@pytest.fixture()
def enumerations(monkeypatch):
    counter = Enumerations()
    for owner, name in ENUMERATORS:
        original = vars(owner)[name]
        label = f"{owner.__name__}.{name}"
        if isinstance(original, property):
            def getter(self, fget=original.fget, label=label):
                counter.hit(label)
                return fget(self)
            monkeypatch.setattr(owner, name, property(getter))
        else:
            def method(self, *args, original=original, label=label):
                counter.hit(label)
                return original(self, *args)
            monkeypatch.setattr(owner, name, method)
    return counter


def group_sends(messages):
    """The group-addressed messages, each checked to name no member."""
    sends = [message for message in messages
             if message.destination.kind == DEST_ALL]
    assert all(message.receivers == () for message in sends)
    return sends


def bootstrapped_server(**overrides):
    config = dict(strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
                  signing="none", seed=b"no-enumeration")
    config.update(overrides)
    server = GroupKeyServer(ServerConfig(**config))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(20)])
    return server


def test_group_oriented_join_leave_refresh_and_data(enumerations):
    server = bootstrapped_server()
    key = server.new_individual_key()
    with enumerations:
        outcomes = [server.join("n0", key), server.leave("u3"),
                    server.refresh()]
        sealed = server.seal_group_message(b"data")
    assert enumerations.calls == []
    sent = [message for outcome in outcomes
            for message in outcome.rekey_messages] + [sealed]
    assert len(group_sends(sent)) == 4


def test_star_join_refresh_and_data(enumerations):
    server = bootstrapped_server(graph="star")
    key = server.new_individual_key()
    with enumerations:
        outcomes = [server.join("n0", key), server.refresh()]
        sealed = server.seal_group_message(b"data")
    assert enumerations.calls == []
    sent = [message for outcome in outcomes
            for message in outcome.rekey_messages] + [sealed]
    assert len(group_sends(sent)) == 3


def test_batch_flush_and_data(enumerations):
    server = GroupKeyServer(ServerConfig(
        degree=3, suite=PAPER_SUITE_NO_SIG, signing="none",
        seed=b"no-enumeration"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(20)])
    joins = [(user, server.new_individual_key()) for user in ("n0", "n1")]
    with enumerations:
        outcome = server.flush(joins, ["u1", "u7"])
        evicted = server.evict(["u2", "u9"])
        sealed = server.seal_group_message(b"data")
    assert enumerations.calls == []
    assert len(group_sends(outcome.rekey_messages + evicted
                           + [sealed])) == 3


def test_cluster_join_leave_refresh_and_data(enumerations):
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=3, suite=PAPER_SUITE_NO_SIG,
        seed=b"no-enumeration"))
    coordinator.bootstrap([(f"u{i}", coordinator.new_individual_key())
                           for i in range(24)])
    key = coordinator.new_individual_key()
    with enumerations:
        outcomes = [coordinator.join("n0", key), coordinator.leave("u5")]
        refresh = coordinator.refresh()
        sealed = coordinator.seal_group_message(b"data")
    assert enumerations.calls == []
    sent = [message for outcome in outcomes
            for message in outcome.rekey_messages]
    # Per op: the shard's group rekey and the root-layer rekey.
    assert len(group_sends(sent + refresh.messages + [sealed])) == 6


def test_materialized_key_graph(enumerations):
    source = HmacDrbg(b"no-enumeration")
    group, _individual = MaterializedKeyGraph.figure1(
        PAPER_SUITE_NO_SIG, lambda: source.generate(8))
    group.pipeline.add_hook("sign", enumerations.start)
    group.pipeline.add_hook("dispatch", enumerations.stop)
    outcomes = [group.leave("u2"),
                group.join("u5", source.generate(8), ["k3", "k234"])]
    assert enumerations.calls == []
    sent = [message for outcome in outcomes
            for message in outcome.messages]
    assert len(group_sends(sent)) == 2


def _request(msg_type, user):
    return Message(msg_type=msg_type, body=user.encode()).encode()


def _serve(core, requests, between=None):
    """Submit ``requests`` in order; ``between()`` runs after the first
    ``len(requests) - 1`` of them (the last op follows it)."""
    async def scenario():
        try:
            for index, (msg_type, user) in enumerate(requests):
                if between is not None and index == len(requests) - 1:
                    between()
                await core.submit(_request(msg_type, user),
                                  lambda payload: None, path_id="sock")
        finally:
            await core.aclose()
    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def test_immediate_serving_core(enumerations):
    server = bootstrapped_server()
    core = ImmediateServingCore(server, ServeConfig(
        tick_interval=0, open_enroll=True, tcp_port=None))
    sent = []
    core.fanout.send = lambda outbound, payload=None: sent.append(outbound)
    with enumerations:
        _serve(core, [(MSG_JOIN_REQUEST, "n0"), (MSG_LEAVE_REQUEST, "u4")])
    assert enumerations.calls == []
    assert len(group_sends(sent)) == 2


def test_cluster_serving_core_across_a_promotion(enumerations):
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=3, suite=PAPER_SUITE_NO_SIG,
        seed=b"no-enumeration"))
    coordinator.bootstrap([(f"u{i}", coordinator.new_individual_key())
                           for i in range(24)])
    coordinator.enable_standbys()
    core = ClusterServingCore(coordinator, ServeConfig(
        tick_interval=0, open_enroll=True, tcp_port=None))
    sent = []
    core.fanout.send = lambda outbound, payload=None: sent.append(outbound)
    promoted = coordinator.shard_of("u6").shard_id

    def fail_over():
        # Not an op: only the ops around it are counted.
        enumerations.stop()
        coordinator.fail_shard(promoted)
        coordinator.promote_standby(promoted)
        enumerations.start()

    with enumerations:
        _serve(core, [(MSG_JOIN_REQUEST, "n0"), (MSG_LEAVE_REQUEST, "u4"),
                      (MSG_LEAVE_REQUEST, "u6")], between=fail_over)
    assert enumerations.calls == []
    assert len(group_sends(sent)) == 6
