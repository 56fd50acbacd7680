"""Cluster front-end: shard-ward routing, delivery, stats scrape."""

import pytest

from repro.cluster import (ClusterConfig, ClusterCoordinator, ClusterFrontEnd,
                           ClusterMember, RoutingError)
from repro.core.messages import (MSG_DATA, MSG_JOIN_ACK, MSG_STATS_REQUEST,
                                 MSG_STATS_RESPONSE, Message)
from repro.crypto.suite import PAPER_SUITE
from repro.observability.export import validate_snapshot


@pytest.fixture()
def front_end():
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, signing="merkle", seed=b"routing"))
    coordinator.bootstrap([])
    return ClusterFrontEnd(coordinator)


def join_member(front_end, user_id) -> ClusterMember:
    coordinator = front_end.coordinator
    member = ClusterMember(user_id, PAPER_SUITE,
                           server_public_key=coordinator.public_key)
    individual_key = coordinator.new_individual_key()
    coordinator.register_individual_key(user_id, individual_key)
    member.client.set_individual_key(individual_key)
    front_end.attach_member(member)
    front_end.submit(member.join_request())
    return member


def test_members_join_and_leave_through_one_endpoint(front_end):
    coordinator = front_end.coordinator
    members = {user_id: join_member(front_end, user_id)
               for user_id in (f"m{index}" for index in range(24))}
    group_key = coordinator.group_key()
    assert all(member.group_key == group_key
               for member in members.values())
    assert all(MSG_JOIN_ACK in member.acks for member in members.values())
    # Users landed on the shards the ring owns them on.
    for user_id in members:
        assert coordinator.shard_of(user_id).server.is_member(user_id)

    front_end.submit(members["m7"].leave_request())
    departed = members.pop("m7")
    front_end.detach_member("m7")
    group_key = coordinator.group_key()
    assert all(member.group_key == group_key
               for member in members.values())
    assert departed.group_key != group_key


def test_signed_messages_verify_against_the_cluster_key(front_end):
    # verify=True members check each shard's signature against the one
    # cluster-wide public key — proving the shared signing identity.
    member = join_member(front_end, "verified-user")
    assert member.client.stats.verify_failures == 0
    assert member.client.stats.rekey_messages > 0


def test_denials_are_routed_back(front_end):
    member = join_member(front_end, "dup")
    front_end.submit(member.join_request())  # second join -> denied
    assert member.denials == 1
    ghost = ClusterMember("ghost", PAPER_SUITE)
    front_end.attach_member(ghost)
    front_end.submit(ghost.leave_request())  # not a member -> denied
    assert ghost.denials == 1


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
