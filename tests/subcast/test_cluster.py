"""Cluster subcast: per-shard covers plus root-layer lifting.

A partially-targeted shard contributes a cover on its own subtree; a
fully-targeted shard is lifted into the root layer where one key can
address several whole shards at once.  Members prime exactly what the
cluster actually gives them (shard path + root-layer path records), so
decrypt-exactness here proves the wire references line up end to end.
"""

import pytest

from repro.cluster.coordinator import (ROOT_LAYER_BASE, ClusterConfig,
                                       ClusterCoordinator, ClusterError)
from repro.core.client import GroupClient, SubcastNotAddressed
from repro.core.messages import MSG_SUBCAST_REQUEST, Message
from repro.subcast import encode_subcast_request

MEMBERS = [f"c{index:03d}" for index in range(96)]


@pytest.fixture(scope="module")
def cluster():
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=4, signing="per-message", seed=b"subcast-cl"))
    coordinator.bootstrap([(user, coordinator.new_individual_key())
                           for user in MEMBERS])
    clients = {}
    for user in MEMBERS:
        shard = coordinator.shard_of(user)
        leaf = shard.server.tree.leaf_of(user)
        client = GroupClient(user, coordinator.suite,
                             coordinator.public_key)
        client.set_individual_key(leaf.key)
        client.set_leaf(leaf.node_id)
        for node in leaf.path_to_root():
            client.keys[node.node_id] = (node.version, node.key)
        for record in coordinator.root_layer.path_records(shard.name):
            client.keys[record.node_id] = (record.version, record.key)
        client.root_ref = coordinator.group_key_ref()
        clients[user] = client
    shard_members = {}
    for user in MEMBERS:
        shard_members.setdefault(
            coordinator.shard_of(user).shard_id, []).append(user)
    return coordinator, clients, shard_members


def assert_exact(coordinator, clients, targets, payload):
    out = coordinator.subcast(targets, payload)
    delivered = [user for user, client in clients.items()
                 if _opens(client, out.encoded, payload)]
    assert sorted(delivered) == sorted(set(targets))
    return out


def _opens(client, blob, payload):
    try:
        assert client.open_subcast(blob) == payload
        return True
    except SubcastNotAddressed:
        return False


def test_partial_shards_cover_on_shard_trees(cluster):
    coordinator, clients, shard_members = cluster
    targets = shard_members[0][:5] + shard_members[2][3:9]
    out = assert_exact(coordinator, clients, targets, b"partial")
    # No whole shard targeted: every cover key is a shard-tree key,
    # below the root-layer namespace.
    for item in out.message.items[1:]:
        assert item.enc_node_id < ROOT_LAYER_BASE


def test_full_shard_lifts_into_the_root_layer(cluster):
    coordinator, clients, shard_members = cluster
    targets = shard_members[1] + shard_members[0][:4]
    out = assert_exact(coordinator, clients, targets, b"lifted")
    refs = [(item.enc_node_id, item.enc_version)
            for item in out.message.items[1:]]
    # The fully-covered shard rides its live subtree-root reference
    # (what its members hold), recorded in the root layer.
    shard_name = coordinator.shards[1].name
    assert coordinator.root_layer._shard_refs[shard_name] in refs


def test_whole_group_costs_one_root_layer_key(cluster):
    coordinator, clients, _shard_members = cluster
    out = assert_exact(coordinator, clients, MEMBERS, b"everyone")
    assert len(out.message.items) == 2
    assert out.message.items[1].enc_node_id >= ROOT_LAYER_BASE


def test_cluster_rejects_bad_targets(cluster):
    coordinator, _clients, _shard_members = cluster
    with pytest.raises(ClusterError):
        coordinator.subcast([], b"none")
    with pytest.raises(ClusterError):
        coordinator.subcast(["ghost"], b"ghost")


def test_cluster_datagram_entry_point(cluster):
    coordinator, clients, shard_members = cluster
    targets = shard_members[0][:3]
    request = Message(
        msg_type=MSG_SUBCAST_REQUEST,
        body=encode_subcast_request(MEMBERS[0], targets, b"dg"))
    outputs = coordinator.handle_datagram(request.encode())
    assert len(outputs) == 1
    assert clients[targets[0]].open_subcast(outputs[0].encoded) == b"dg"
    with pytest.raises(ClusterError):
        coordinator.handle_datagram(Message(
            msg_type=MSG_SUBCAST_REQUEST,
            body=encode_subcast_request("ghost", targets,
                                        b"x")).encode())


def test_subcast_survives_membership_churn():
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=4, signing="none", seed=b"churn-cl"))
    members = [f"x{index:02d}" for index in range(24)]
    coordinator.bootstrap([(user, coordinator.new_individual_key())
                           for user in members])
    coordinator.leave(members[0])
    coordinator.register_individual_key(
        "late", coordinator.new_individual_key())
    coordinator.join("late")
    survivors = [user for user in members[1:]] + ["late"]
    out = coordinator.subcast(survivors[:10], b"after churn")
    assert sorted(out.receivers) == sorted(survivors[:10])
    with pytest.raises(ClusterError):
        coordinator.subcast([members[0]], b"gone")
