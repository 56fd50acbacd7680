"""Cluster front-end: shard-ward routing, delivery, stats scrape."""

import pytest

from repro.cluster import (ClusterConfig, ClusterCoordinator, ClusterFrontEnd,
                           RoutingError)
from repro.core.messages import (MSG_DATA, MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_DENIED,
                                 MSG_LEAVE_REQUEST, MSG_STATS_REQUEST,
                                 MSG_STATS_RESPONSE, Message)
from repro.crypto.suite import PAPER_SUITE
from repro.observability import Instrumentation, Tracer
from repro.observability.export import to_prometheus, validate_snapshot
from repro.recovery import ResilientMember


@pytest.fixture()
def front_end():
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, signing="merkle", seed=b"routing"))
    coordinator.bootstrap([])
    return ClusterFrontEnd(coordinator)


class RecordingMember(ResilientMember):
    """A verifying member behind the front end that keeps what its
    client's ``receive`` returned for each delivered datagram."""

    def __init__(self, front_end, user_id):
        super().__init__(user_id, PAPER_SUITE,
                         front_end.coordinator.public_key,
                         uplink=front_end.submit)
        self.returns = []
        front_end.attach_member(user_id, self.deliver)

    def deliver(self, payload: bytes) -> None:
        self.returns.append(self.client.receive(payload))


def join_member(front_end, user_id) -> RecordingMember:
    coordinator = front_end.coordinator
    member = RecordingMember(front_end, user_id)
    individual_key = coordinator.new_individual_key()
    coordinator.register_individual_key(user_id, individual_key)
    member.client.set_individual_key(individual_key)
    member.request(MSG_JOIN_REQUEST)
    return member


def test_members_join_and_leave_through_one_endpoint(front_end):
    coordinator = front_end.coordinator
    members = {user_id: join_member(front_end, user_id)
               for user_id in (f"m{index}" for index in range(24))}
    group_key = coordinator.group_key()
    assert all(member.group_key() == group_key
               for member in members.values())
    assert all((MSG_JOIN_ACK, None) in member.returns
               for member in members.values())
    # Users landed on the shards the ring owns them on.
    for user_id in members:
        assert coordinator.shard_of(user_id).server.is_member(user_id)

    members["m7"].request(MSG_LEAVE_REQUEST)
    departed = members.pop("m7")
    front_end.detach_member("m7")
    group_key = coordinator.group_key()
    assert all(member.group_key() == group_key
               for member in members.values())
    assert departed.group_key() != group_key


def test_signed_messages_verify_against_the_cluster_key(front_end):
    # verify=True members check each shard's signature against the one
    # cluster-wide public key — proving the shared signing identity.
    member = join_member(front_end, "verified-user")
    assert member.client.stats.verify_failures == 0
    assert member.client.stats.rekey_messages > 0


def test_denials_are_routed_back(front_end):
    member = join_member(front_end, "dup")
    member.request(MSG_JOIN_REQUEST)  # second join -> denied
    assert member.returns.count((MSG_JOIN_DENIED, None)) == 1
    ghost = RecordingMember(front_end, "ghost")
    ghost.request(MSG_LEAVE_REQUEST)  # not a member -> denied
    assert ghost.returns == [(MSG_LEAVE_DENIED, None)]


def test_stats_request_returns_merged_snapshot(front_end):
    join_member(front_end, "scraped")
    outputs = front_end.submit(
        Message(msg_type=MSG_STATS_REQUEST).encode())
    assert len(outputs) == 1
    assert outputs[0].message.msg_type == MSG_STATS_RESPONSE
    document = front_end.stats_document()
    validate_snapshot(document)
    counters = document["metrics"]["counters"]
    assert "cluster_routed_datagrams_total" in counters
    # The shard registries are merged in: per-shard families appear.
    assert "server_requests_total" in counters


def test_routed_counter_labels_by_shard(front_end):
    members = [join_member(front_end, f"r{index}") for index in range(12)]
    document = front_end.stats_document()
    routed = document["metrics"]["counters"][
        "cluster_routed_datagrams_total"]
    by_shard = {series["labels"]["shard"]: series["value"]
                for series in routed["series"]}
    assert sum(by_shard.values()) == len(members)
    assert set(by_shard) <= {"0", "1", "2", "3"}


def test_unroutable_datagrams_raise(front_end):
    with pytest.raises(RoutingError):
        front_end.submit(b"\x00garbage")
    with pytest.raises(RoutingError):
        front_end.submit(Message(msg_type=MSG_DATA, body=b"m0").encode())


def test_failover_behind_the_front_end_is_member_invisible():
    """Churn through one front end on 4 shards, fail a shard and
    promote its standby mid-workload, keep churning: no member ever
    falls out of sync, and the scrape counts one failover."""
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, signing="merkle", seed=b"ci"),
        instrumentation=Instrumentation("cluster", tracer=Tracer()))
    coordinator.bootstrap([])
    front_end = ClusterFrontEnd(coordinator)
    members = {}

    def join(index):
        user_id = f"user-{index:02d}"
        members[user_id] = join_member(front_end, user_id)

    def out_of_sync():
        group_key = coordinator.group_key()
        return [user_id for user_id, member in members.items()
                if member.group_key() != group_key]

    for index in range(32):
        join(index)
    assert out_of_sync() == []

    coordinator.enable_standbys()
    for index in range(32, 40):  # churn the standbys follow
        join(index)
    victim = coordinator.shard_of("user-00").shard_id
    coordinator.fail_shard(victim)
    coordinator.promote_standby(victim)
    members.pop("user-00").request(MSG_LEAVE_REQUEST)
    front_end.detach_member("user-00")
    for index in range(40, 44):  # the successor keeps serving
        join(index)
    assert out_of_sync() == []

    document = front_end.stats_document()
    failovers = document["metrics"]["counters"][
        "cluster_failovers_total"]["series"]
    assert sum(series["value"] for series in failovers) == 1
    validate_snapshot(document)
    exposition = to_prometheus(document)
    assert f'cluster_failovers_total{{shard="{victim}"}} 1' in exposition
