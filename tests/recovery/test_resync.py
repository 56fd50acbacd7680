"""Resync protocol: server replies, client repair, eviction semantics."""

import pytest

from repro.cluster.coordinator import (ClusterConfig, ClusterCoordinator,
                                       ClusterError)
from repro.core.client import ClientError, GroupClient
from repro.core.messages import MSG_RESYNC_REPLY, Message
from repro.core.resync import (RESYNC_NOT_MEMBER, RESYNC_OK,
                               encode_resync_body, parse_resync_body)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.core.messages import WireError


def make_server(n=9, graph="tree"):
    server = GroupKeyServer(ServerConfig(
        degree=3, graph=graph, strategy="group", suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"resync-tests"))
    members = [(f"u{i}", server.new_individual_key()) for i in range(n)]
    server.bootstrap(members)
    return server, dict(members)


def make_client(uid, key):
    client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(key)
    return client


def test_resync_body_roundtrip():
    body = encode_resync_body(RESYNC_OK, 42)
    assert parse_resync_body(body) == (RESYNC_OK, 42)
    with pytest.raises(WireError):
        parse_resync_body(b"\x00")


def test_tree_resync_reply_repairs_cold_client():
    server, members = make_server()
    client = make_client("u4", members["u4"])
    assert client.group_key() is None
    reply = server.resync("u4")
    status = client.process_resync(reply.encoded)
    assert status == RESYNC_OK
    assert client.group_key() == server.group_key()
    assert client.leaf_node_id == server.tree.leaf_of("u4").node_id
    # The full path came across: every ancestor key matches the tree.
    for node in server.tree.user_key_path("u4")[1:]:
        assert client.keys[node.node_id] == (node.version, node.key)


def test_star_resync_reply():
    server, members = make_server(graph="star")
    client = make_client("u2", members["u2"])
    client.process_resync(server.resync("u2").encoded)
    assert client.group_key() == server.group_key()


def test_batch_resync_reply():
    """A member flushed in by a window resyncs like any other."""
    server, members = make_server()
    key = server.new_individual_key()
    server.flush([("n0", key)], ["u3", "u4"])
    client = make_client("n0", key)
    client.process_resync(server.resync("n0").encoded)
    assert client.group_key() == server.group_key()


def test_not_member_reply_marks_client_evicted():
    server, members = make_server()
    client = make_client("u0", members["u0"])
    client.process_resync(server.resync("u0").encoded)
    server.leave("u0")
    status = client.process_resync(server.resync("u0").encoded)
    assert status == RESYNC_NOT_MEMBER
    assert client.evicted
    assert client.group_key() is None  # state dropped, must rejoin


def test_resync_reply_never_downgrades_a_newer_key():
    server, members = make_server()
    client = make_client("u4", members["u4"])
    stale_reply = server.resync("u4").encoded
    # The group moves on after the reply was built...
    server.leave("u8")
    fresh_reply = server.resync("u4").encoded
    client.process_resync(fresh_reply)
    current = client.group_key()
    # ...so the stale reply's older versions must not clobber anything.
    client.process_resync(stale_reply)
    assert client.group_key() == current == server.group_key()


def test_resync_serving_does_not_perturb_rekey_stream():
    """Two servers, one serving resyncs: identical subsequent rekeys."""
    a, _ = make_server()
    b, _ = make_server()
    for _ in range(5):
        b.resync("u1")  # draws IVs from the dedicated resync source
    a_out = a.leave("u7")
    b_out = b.leave("u7")
    assert a.group_key() == b.group_key()
    a_items = [i for m in a_out.rekey_messages for i in m.message.items]
    b_items = [i for m in b_out.rekey_messages for i in m.message.items]
    assert [(i.enc_node_id, i.iv, i.ciphertext) for i in a_items] \
        == [(i.enc_node_id, i.iv, i.ciphertext) for i in b_items]


def test_process_resync_rejects_other_types():
    server, members = make_server()
    client = make_client("u1", members["u1"])
    with pytest.raises(ClientError):
        client.process_resync(Message(msg_type=6).encode())


def make_cluster(n=12, n_shards=3):
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=n_shards, strategy="group", suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"resync-cluster"))
    members = [(f"u{i}", coordinator.new_individual_key())
               for i in range(n)]
    coordinator.bootstrap(members)
    return coordinator, dict(members)


def test_cluster_resync_spans_both_layers():
    coordinator, members = make_cluster()
    client = make_client("u5", members["u5"])
    reply = coordinator.resync("u5")
    assert reply.message.msg_type == MSG_RESYNC_REPLY
    client.process_resync(reply.encoded)
    # The cold client ends holding the full composed path: shard keys
    # plus the root layer, up to the cluster group key.
    assert client.group_key() == coordinator.group_key()
    shard = coordinator.shard_of("u5")
    for node in shard.server.tree.user_key_path("u5")[1:]:
        assert client.keys[node.node_id] == (node.version, node.key)


def test_cluster_resync_unavailable_while_shard_failed():
    coordinator, members = make_cluster()
    coordinator.enable_standbys()
    shard = coordinator.shard_of("u5")
    coordinator.fail_shard(shard.shard_id)
    with pytest.raises(ClusterError):
        coordinator.resync("u5")
    # Members of other shards are still served while one shard is down.
    other = next(uid for uid in members
                 if coordinator.shard_of(uid).shard_id != shard.shard_id)
    client = make_client(other, members[other])
    client.process_resync(coordinator.resync(other).encoded)
    assert client.group_key() == coordinator.group_key()
    # After promotion the failed shard's members are served again, with
    # key state byte-identical to the pre-crash primary.
    coordinator.promote_standby(shard.shard_id)
    victim = make_client("u5", members["u5"])
    victim.process_resync(coordinator.resync("u5").encoded)
    assert victim.group_key() == coordinator.group_key()


def test_cluster_non_member_gets_not_member():
    coordinator, _ = make_cluster()
    reply = coordinator.resync("stranger")
    status, _leaf = parse_resync_body(reply.message.body)
    assert status == RESYNC_NOT_MEMBER
