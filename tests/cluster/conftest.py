"""Shared fixtures for the sharded-cluster tests."""

from typing import Dict, Tuple

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.client import GroupClient
from repro.crypto.suite import PAPER_SUITE
from repro.transport.inmemory import InMemoryNetwork


def prime_clients(coordinator, members) -> Dict[str, GroupClient]:
    """Simulated clients for a bootstrapped roster, keys pre-installed."""
    clients = {}
    for user_id, individual_key in members:
        client = GroupClient(user_id, coordinator.suite, verify=False)
        client.set_individual_key(individual_key)
        leaf_id, records, root_ref = coordinator.member_records(user_id)
        client.set_leaf(leaf_id)
        for record in records:
            client.keys[record.node_id] = (record.version, record.key)
        client.root_ref = root_ref
        clients[user_id] = client
    return clients


def subscribed(coordinator, clients) -> InMemoryNetwork:
    """A network with every simulated client subscribed to the audiences
    its membership puts it in right now (after the op: a joiner in, a
    leaver out — the order every front end keeps)."""
    network = InMemoryNetwork(strict=False)
    audiences = coordinator.audiences
    for user_id, client in clients.items():
        network.attach(user_id, client.process_message)
        network.enroll(user_id, audiences(user_id))
    return network


def deliver(coordinator, outcome, clients) -> None:
    """Feed an outcome's acks, then its rekeys through a transport."""
    for outbound in outcome.control_messages:
        for user_id in outbound.receivers:
            if user_id in clients:
                clients[user_id].process_control(outbound.message)
    subscribed(coordinator, clients).send_all(outcome.rekey_messages)


def cluster_join(coordinator, clients, user_id) -> None:
    """Join a fresh user and wire up its simulated client."""
    individual_key = coordinator.new_individual_key()
    client = GroupClient(user_id, coordinator.suite, verify=False)
    client.set_individual_key(individual_key)
    clients[user_id] = client
    deliver(coordinator, coordinator.join(user_id, individual_key), clients)


def cluster_leave(coordinator, clients, user_id) -> GroupClient:
    """Leave a user; returns its (now stale) simulated client."""
    departed = clients.pop(user_id)
    deliver(coordinator, coordinator.leave(user_id), clients)
    return departed


def assert_consistent(coordinator, clients) -> None:
    """Every simulated client holds the current cluster group key."""
    group_key = coordinator.group_key()
    stale = [user_id for user_id, client in clients.items()
             if client.group_key() != group_key]
    assert not stale, f"clients without the group key: {stale}"


@pytest.fixture()
def cluster() -> Tuple[ClusterCoordinator, Dict[str, GroupClient]]:
    """A seeded 4-shard cluster of 48 users with primed clients."""
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, degree=3, signing="none",
                      seed=b"cluster-tests"))
    members = [(f"user-{index:03d}", coordinator.new_individual_key())
               for index in range(48)]
    coordinator.bootstrap(members)
    return coordinator, prime_clients(coordinator, members)
