"""Cluster coordinator: root-layer composition, security, cost bounds."""

import math

import pytest

from repro.cluster import (ROOT_LAYER_BASE, SHARD_ID_SPACE, ClusterConfig,
                           ClusterCoordinator, ClusterError, RootKeyLayer,
                           namespace_tree, shard_id_base)
from repro.core.messages import MSG_JOIN_DENIED, MSG_JOIN_REQUEST, Message
from repro.core.server import ServerError
from repro.keygraph.tree import KeyTree

from .conftest import (assert_consistent, cluster_join, cluster_leave,
                       deliver, prime_clients, subscribed)


def test_bootstrap_all_shards_hold_members(cluster):
    coordinator, clients = cluster
    assert coordinator.n_users == 48
    assert sorted(coordinator.members()) == sorted(clients)
    for shard in coordinator.shards:
        assert shard.server.n_users > 0  # 48 users spread over 4 shards
    assert_consistent(coordinator, clients)


def test_node_id_windows_never_collide(cluster):
    coordinator, _clients = cluster
    seen = {}
    for shard in coordinator.shards:
        base = shard_id_base(shard.shard_id)
        for node in shard.server.tree.nodes():
            assert base <= node.node_id < base + SHARD_ID_SPACE
            assert node.node_id not in seen
            seen[node.node_id] = shard.shard_id
    for node in coordinator.root_layer.tree.nodes():
        assert node.node_id >= ROOT_LAYER_BASE
        assert node.node_id not in seen


def _shard_state(coordinator):
    """Every shard's (node id, version, key) triples, plus the group key."""
    return ({shard.shard_id: sorted((node.node_id, node.version, node.key)
                                    for node in shard.server.tree.nodes())
             for shard in coordinator.shards},
            coordinator.group_key(), coordinator.group_key_ref())


def test_join_past_the_node_id_window_is_refused(cluster):
    coordinator, _clients = cluster
    shard = coordinator.shards[0]
    window_end = shard_id_base(1)
    joiners = [user for user in (f"late-{index}" for index in range(64))
               if coordinator.shard_of(user) is shard][:3]
    # Two ids left: a join (leaf plus at most one interior) still fits.
    shard.server.tree._next_id = window_end - 2
    coordinator.join(joiners[0], coordinator.new_individual_key())
    assert max(node.node_id for node in shard.server.tree.nodes()) \
        < window_end
    # The window's last id: the next join could spill into shard 1's
    # window, so it is refused before the tree or the DRBG is touched,
    # directly and through the request dispatch alike.
    shard.server.tree._next_id = window_end - 1
    key = coordinator.new_individual_key()
    before = _shard_state(coordinator)
    with pytest.raises(ServerError):
        coordinator.join(joiners[1], key)
    assert _shard_state(coordinator) == before
    coordinator.register_individual_key(joiners[2],
                                        coordinator.new_individual_key())
    request = Message(msg_type=MSG_JOIN_REQUEST,
                      body=joiners[2].encode()).encode()
    [reply] = coordinator.handle_datagram(request)
    assert reply.message.msg_type == MSG_JOIN_DENIED
    assert _shard_state(coordinator) == before
    assert joiners[2] in coordinator._registered_keys  # not consumed
    assert not any(shard.server.is_member(user) for user in joiners[1:])
    # No node id names keys in two shards.
    seen = {}
    for each in coordinator.shards:
        for node in each.server.tree.nodes():
            assert seen.setdefault(node.node_id, each.shard_id) \
                == each.shard_id


def test_namespace_tree_rejects_double_application():
    tree = KeyTree.build([("u", b"\x00" * 8)], 2, lambda: b"\x01" * 8)
    namespace_tree(tree, 1 << 24)
    with pytest.raises(ClusterError):
        namespace_tree(tree, 1 << 24)


def test_join_admits_only_through_owning_shard(cluster):
    coordinator, clients = cluster
    cluster_join(coordinator, clients, "newcomer")
    owner = coordinator.shard_of("newcomer")
    assert owner.server.is_member("newcomer")
    for shard in coordinator.shards:
        if shard is not owner:
            assert not shard.server.is_member("newcomer")
    assert_consistent(coordinator, clients)


def test_leave_excludes_the_leaver(cluster):
    coordinator, clients = cluster
    departed = cluster_leave(coordinator, clients, "user-007")
    assert_consistent(coordinator, clients)
    assert departed.group_key() != coordinator.group_key()
    assert not coordinator.is_member("user-007")


def test_forward_secrecy_of_join(cluster):
    # A joiner must not learn any pre-join key: every key it decrypted
    # is a fresh version, so the old group key is not derivable.
    coordinator, clients = cluster
    old_group_key = coordinator.group_key()
    cluster_join(coordinator, clients, "late-joiner")
    joiner = clients["late-joiner"]
    held = {key for _version, key in joiner.keys.values()}
    assert old_group_key not in held
    assert joiner.group_key() == coordinator.group_key()


def test_churn_stays_consistent(cluster):
    coordinator, clients = cluster
    for index in range(12):
        cluster_join(coordinator, clients, f"extra-{index}")
        if index % 2:
            cluster_leave(coordinator, clients, f"user-{index:03d}")
    assert_consistent(coordinator, clients)
    for shard in coordinator.shards:
        shard.server.tree.validate()
    coordinator.root_layer.tree.validate()


def test_shard_local_rekeys_stay_shard_local(cluster):
    coordinator, clients = cluster
    outcome = coordinator.leave("user-010")
    clients.pop("user-010")
    shard = coordinator.shards[outcome.shard_id]
    shard_members = set(shard.server.members())
    network = subscribed(coordinator, clients)
    reached = network.audience.receivers
    # Shard-layer messages go only to the owning shard's members...
    for outbound in outcome.shard_outcome.rekey_messages:
        assert set(reached(outbound)) == shard_members
    # ...while exactly one root-layer multicast goes cluster-wide.
    assert len(outcome.root_messages) == 1
    assert set(reached(outcome.root_messages[0])) == set(
        coordinator.members())
    network.send_all(outcome.rekey_messages)
    assert_consistent(coordinator, clients)


def test_per_op_cost_bounded_by_shard_not_group(cluster):
    coordinator, _clients = cluster
    outcome = coordinator.leave("user-020")
    shard = coordinator.shards[outcome.shard_id]
    degree = coordinator.config.degree
    shard_size = shard.server.n_users + 1
    # Group-oriented LKH: d keys per changed node, path length
    # ~ceil(log_d shard_size) in the shard + the root layer's path over
    # n_shards leaves — nowhere near the 48-user group-wide bound.
    shard_bound = degree * (math.ceil(math.log(shard_size, degree)) + 2)
    root_bound = coordinator.config.root_degree * (
        math.ceil(math.log(coordinator.config.n_shards,
                           coordinator.config.root_degree)) + 2)
    assert outcome.record.shard_encryptions <= shard_bound
    assert outcome.record.root_encryptions <= root_bound
    assert outcome.record.encryptions == (outcome.record.shard_encryptions
                                          + outcome.record.root_encryptions)


def test_refresh_rotates_only_the_cluster_key(cluster):
    coordinator, clients = cluster
    before_ref = coordinator.group_key_ref()
    run = coordinator.refresh()
    after_ref = coordinator.group_key_ref()
    assert after_ref[0] == before_ref[0]
    assert after_ref[1] == before_ref[1] + 1
    subscribed(coordinator, clients).send_all(run.messages)
    assert_consistent(coordinator, clients)


def test_registered_keys_feed_joins(cluster):
    coordinator, clients = cluster
    key = coordinator.new_individual_key()
    coordinator.register_individual_key("reg-user", key)
    outcome = coordinator.join("reg-user")
    from repro.core.client import GroupClient
    client = GroupClient("reg-user", coordinator.suite, verify=False)
    client.set_individual_key(key)
    clients["reg-user"] = client
    deliver(coordinator, outcome, clients)
    assert_consistent(coordinator, clients)
    with pytest.raises(ClusterError):
        coordinator.join("unregistered-user")


def test_lifecycle_errors():
    coordinator = ClusterCoordinator(ClusterConfig(n_shards=2, seed=b"x"))
    with pytest.raises(ClusterError):
        coordinator.join("early", b"\x00" * 8)
    coordinator.bootstrap([])
    with pytest.raises(ClusterError):
        coordinator.bootstrap([])
    with pytest.raises(ClusterError):
        coordinator.register_individual_key("u", b"short")


def test_config_validation():
    with pytest.raises(ClusterError):
        ClusterConfig(n_shards=0).validate()
    with pytest.raises(ClusterError):
        ClusterConfig(root_degree=1).validate()


def test_root_layer_standalone_requires_bootstrap():
    from repro.crypto.suite import PAPER_SUITE
    layer = RootKeyLayer(PAPER_SUITE, ["a", "b"], seed=b"rl")
    with pytest.raises(ClusterError):
        layer.group_key()
    with pytest.raises(ClusterError):
        RootKeyLayer(PAPER_SUITE, [], seed=b"rl")
    with pytest.raises(ClusterError):
        RootKeyLayer(PAPER_SUITE, ["a", "a"], seed=b"rl")


def test_empty_shard_placeholder_then_first_member():
    # A cluster bootstrapped empty must still admit users into every
    # shard (the empty shards' root-layer leaves are placeholders).
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, seed=b"empty"))
    coordinator.bootstrap([])
    clients = prime_clients(coordinator, [])
    for index in range(16):
        cluster_join(coordinator, clients, f"walk-in-{index}")
    assert_consistent(coordinator, clients)
    assert all(shard.server.n_users >= 0 for shard in coordinator.shards)


def test_shared_signing_identity():
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=3, signing="merkle", seed=b"sig"))
    assert coordinator.public_key is not None
    keypair = coordinator.root_layer.signing_keypair
    for shard in coordinator.shards:
        assert shard.server.signing_keypair is keypair
