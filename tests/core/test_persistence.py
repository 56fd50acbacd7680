"""Server snapshot/restore and warm-standby failover (paper §6)."""

import json
import time as _time

import pytest

from repro.core.client import GroupClient
from repro.core.persistence import (PersistenceError, restore,
                                    restore_encrypted, snapshot,
                                    snapshot_encrypted)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from repro.keygraph.flat import FlatKeyTree

from ..delivery import deliver


def populated(graph="tree", signing="none", suite=PAPER_SUITE_NO_SIG, n=20):
    server = GroupKeyServer(ServerConfig(
        graph=graph, strategy="key", degree=3, suite=suite,
        signing=signing, seed=b"persist-tests"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(n)])
    return server


def test_snapshot_restores_identical_state():
    primary = populated()
    primary.join("joiner", primary.new_individual_key())
    primary.register_individual_key("pending", primary.new_individual_key())
    standby = restore(snapshot(primary))
    assert standby.group_key() == primary.group_key()
    assert standby.group_key_ref() == primary.group_key_ref()
    assert sorted(standby.members()) == sorted(primary.members())
    assert standby._seq == primary._seq
    assert standby._registered_keys == primary._registered_keys
    standby.tree.validate()
    # Tree shape identity: node ids, versions, keys.
    primary_nodes = {(n.node_id, n.version, n.key, n.user_id)
                     for n in primary.tree.nodes()}
    standby_nodes = {(n.node_id, n.version, n.key, n.user_id)
                     for n in standby.tree.nodes()}
    assert primary_nodes == standby_nodes


def test_restore_ignores_a_parent_format_backend_key(monkeypatch):
    """Snapshots written while the tree engine was a config option name
    it (``"backend": "object"``).  Restore ignores the key: it rebuilds
    the same tree onto FlatKeyTree, and the standby's next join is
    byte-identical to one restored from the current format."""
    primary = populated()
    primary.join("joiner", primary.new_individual_key())
    doc = json.loads(snapshot(primary))
    assert "backend" not in doc["config"]
    doc["config"]["backend"] = "object"
    standby = restore(json.dumps(doc).encode("utf-8"), seed=b"standby")
    assert type(standby.tree) is FlatKeyTree
    assert standby.group_key() == primary.group_key()
    assert [(n.node_id, n.version, n.key, n.user_id)
            for n in standby.tree.nodes()] == \
           [(n.node_id, n.version, n.key, n.user_id)
            for n in primary.tree.nodes()]

    control = restore(snapshot(primary), seed=b"standby")
    monkeypatch.setattr(_time, "time_ns", lambda: 1_234_567_891_000)
    key = bytes([7]) * primary.suite.key_size
    wires = [[m.encoded for m in server.join("next", key).all_messages]
             for server in (standby, control)]
    assert wires[0] == wires[1]
    assert wires[0]


def test_failover_is_transparent_to_clients():
    """Clients keyed by the primary keep working against the standby."""
    primary = populated()
    key = primary.new_individual_key()
    client = GroupClient("alice", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(key)
    outcome = primary.join("alice", key)
    client.process_control(outcome.control_messages[0].encoded)
    deliver(primary, {"alice": client}, outcome.rekey_messages)
    assert client.group_key() == primary.group_key()

    standby = restore(snapshot(primary))
    # The standby serves a leave; alice follows it seamlessly.
    outcome = standby.leave("u3")
    deliver(standby, {"alice": client}, outcome.rekey_messages)
    assert client.group_key() == standby.group_key()
    assert client.group_key() != primary.group_key()


def test_standby_diverges_in_future_keys():
    primary = populated()
    standby = restore(snapshot(primary))
    a = primary.join("x", primary.new_individual_key())
    b = standby.join("x", standby.new_individual_key())
    assert primary.group_key() != standby.group_key()  # reseeded DRBG


def test_signing_keypair_survives():
    primary = populated(signing="merkle", suite=PAPER_SUITE)
    standby = restore(snapshot(primary))
    assert standby.signing_keypair.n == primary.signing_keypair.n
    assert standby.signing_keypair.d == primary.signing_keypair.d
    # A client verifying against the primary's public key accepts the
    # standby's messages.
    key = standby.new_individual_key()
    client = GroupClient("bob", PAPER_SUITE, primary.public_key)
    client.set_individual_key(key)
    outcome = standby.join("bob", key)
    client.process_control(outcome.control_messages[0].encoded)
    deliver(standby, {"bob": client},
            outcome.rekey_messages)  # signature verifies
    assert client.group_key() == standby.group_key()


def test_star_snapshot():
    primary = populated(graph="star")
    standby = restore(snapshot(primary))
    assert standby.star.group_key == primary.star.group_key
    assert standby.star.group_key_version == primary.star.group_key_version
    assert sorted(standby.members()) == sorted(primary.members())
    outcome = standby.leave("u0")
    assert outcome.record.encryptions == 19


def test_access_list_survives():
    server = GroupKeyServer(ServerConfig(
        suite=PAPER_SUITE_NO_SIG, signing="none", seed=b"acl",
        access_list={"vip"}))
    server.bootstrap([])
    standby = restore(snapshot(server))
    from repro.core.server import AccessDenied
    with pytest.raises(AccessDenied):
        standby.join("mallory", standby.new_individual_key())


def test_malformed_snapshots_rejected():
    with pytest.raises(PersistenceError):
        restore(b"not json at all \xff")
    with pytest.raises(PersistenceError):
        restore(json.dumps({"format": 99}).encode())


def test_encrypted_snapshot_roundtrip():
    primary = populated()
    storage_key, iv = bytes(8), bytes(8)
    blob = snapshot_encrypted(primary, storage_key, iv)
    assert b"\"tree\"" not in blob  # actually encrypted
    standby = restore_encrypted(blob, storage_key, iv, PAPER_SUITE_NO_SIG)
    assert standby.group_key() == primary.group_key()


def test_encrypted_snapshot_wrong_key():
    primary = populated()
    blob = snapshot_encrypted(primary, bytes(8), bytes(8))
    with pytest.raises(PersistenceError):
        restore_encrypted(blob, b"WRONGKEY", bytes(8), PAPER_SUITE_NO_SIG)


def test_snapshot_after_heavy_churn():
    server = populated(n=50)
    for i in range(30):
        server.join(f"j{i}", server.new_individual_key())
    for i in range(0, 40, 2):
        server.leave(f"u{i}" if server.is_member(f"u{i}") else f"j{i // 2}")
    standby = restore(snapshot(server))
    standby.tree.validate()
    assert standby.n_users == server.n_users
    assert standby.group_key() == server.group_key()
