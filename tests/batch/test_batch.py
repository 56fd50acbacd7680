"""Interval batch rekeying: correctness, security, savings."""

import pytest

from repro.batch.rekeying import BatchError, BatchRekeyServer
from repro.core.client import GroupClient
from repro.core.messages import INDIVIDUAL_KEY, decrypt_records
from repro.crypto.suite import PAPER_SUITE_NO_SIG

from ..delivery import deliver


def make_server(n=27, degree=3, seed=b"batch-tests"):
    server = BatchRekeyServer(degree=degree, suite=PAPER_SUITE_NO_SIG,
                              seed=seed)
    members = [(f"u{i}", server.new_individual_key()) for i in range(n)]
    server.bootstrap(members)
    return server, dict(members)


def make_clients(server, members):
    clients = {}
    for uid, key in members.items():
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        client.set_leaf(server.tree.leaf_of(uid).node_id)
        for node in server.tree.user_key_path(uid)[1:]:
            client.keys[node.node_id] = (node.version, node.key)
        client.root_ref = (server.tree.root.node_id,
                           server.tree.root.version)
        clients[uid] = client
    return clients


def apply_flush(server, result, clients):
    head = [result.rekey_message] if result.rekey_message else []
    deliver(server, clients, head + result.joiner_messages)


def test_flush_synchronizes_everyone():
    server, members = make_server()
    clients = make_clients(server, members)
    for i in range(5):
        server.request_leave(f"u{i}")
        del clients[f"u{i}"]
    joiners = {}
    for i in range(5):
        key = server.new_individual_key()
        joiners[f"n{i}"] = key
        server.request_join(f"n{i}", key)
    result = server.flush()
    server.tree.validate()
    for uid, key in joiners.items():
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
    apply_flush(server, result, clients)
    group_key = server.tree.root.key
    for uid, client in clients.items():
        assert client.group_key() == group_key, uid


def test_batch_is_cheaper_than_individual():
    server, members = make_server(n=64, degree=4)
    for i in range(16):
        server.request_leave(f"u{i}")
        server.request_join(f"n{i}", server.new_individual_key())
    result = server.flush()
    assert result.n_joins == 16 and result.n_leaves == 16
    assert result.encryptions < result.individual_cost_estimate
    assert 0.0 < result.saving < 1.0


def test_join_then_leave_cancels():
    server, _ = make_server(n=8)
    server.request_join("fleeting", server.new_individual_key())
    server.request_leave("fleeting")
    assert server.pending == (0, 0)
    result = server.flush()
    assert result.n_joins == 0 and result.n_leaves == 0
    assert result.rekey_message is None
    assert not server.tree.has_user("fleeting")


def test_leave_then_rejoin_in_same_interval():
    server, members = make_server(n=8)
    server.request_leave("u3")
    new_key = server.new_individual_key()
    server.request_join("u3", new_key)
    result = server.flush()
    server.tree.validate()
    assert server.tree.has_user("u3")
    assert server.tree.leaf_of("u3").key == new_key
    assert result.n_joins == 1 and result.n_leaves == 1


def test_request_validation():
    server, _ = make_server(n=4)
    with pytest.raises(BatchError):
        server.request_join("u0", bytes(8))         # already a member
    with pytest.raises(BatchError):
        server.request_leave("ghost")
    server.request_leave("u1")
    with pytest.raises(BatchError):
        server.request_leave("u1")                  # already leaving
    server.request_join("x", bytes(8))
    with pytest.raises(BatchError):
        server.request_join("x", bytes(8))          # already pending


def test_bootstrap_guard():
    server, _ = make_server(n=4)
    with pytest.raises(BatchError):
        server.bootstrap([("y", bytes(8))])


def test_flush_forward_secrecy():
    """No flush item is encrypted under any key a departed user held."""
    server, members = make_server(n=27, degree=3)
    victim_path = server.tree.user_key_path("u5")
    victim_refs = {(node.node_id, node.version) for node in victim_path}
    server.request_leave("u5")
    server.request_leave("u6")
    result = server.flush()
    assert result.rekey_message is not None
    for item in result.rekey_message.message.items:
        assert (item.enc_node_id, item.enc_version) not in victim_refs


def test_flush_backward_secrecy():
    """A batch joiner's keys decrypt nothing from before the flush."""
    server, members = make_server(n=16, degree=4)
    # Pre-flush "captured traffic": one flush rekeying u0's departure.
    server.request_leave("u0")
    old_result = server.flush()
    joiner_key = server.new_individual_key()
    server.request_join("late", joiner_key)
    result = server.flush()
    # Reconstruct the joiner's keyset from its unicast.
    client = GroupClient("late", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(joiner_key)
    apply_flush(server, result, {"late": client})
    for item in old_result.rekey_message.message.items:
        held = client.keys.get(item.enc_node_id)
        assert held is None or held[0] != item.enc_version


def test_empty_flush():
    server, _ = make_server(n=4)
    result = server.flush()
    assert result.encryptions == 0
    assert result.rekey_message is None
    assert result.saving == 0.0


def test_flush_drains_whole_group_and_refills():
    server, members = make_server(n=4, degree=2)
    for uid in list(members):
        server.request_leave(uid)
    result = server.flush()
    assert server.tree.n_users == 0
    assert server.tree.root is None
    key = server.new_individual_key()
    server.request_join("phoenix", key)
    result = server.flush()
    assert server.tree.has_user("phoenix")
    server.tree.validate()


def test_signing_mode():
    server = BatchRekeyServer(degree=3, signing="merkle", seed=b"signed")
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(9)])
    server.request_leave("u0")
    result = server.flush()
    assert result.rekey_message.message.auth.signature
    with pytest.raises(BatchError):
        BatchRekeyServer(signing="carrier-pigeon")


def test_flush_joins_into_empty_bootstrap():
    """Joins-only flush on a never-bootstrapped server builds the tree."""
    server = BatchRekeyServer(degree=3, suite=PAPER_SUITE_NO_SIG,
                              seed=b"empty-boot")
    keys = {}
    for i in range(5):
        keys[f"u{i}"] = server.new_individual_key()
        server.request_join(f"u{i}", keys[f"u{i}"])
    result = server.flush()
    server.tree.validate()
    assert server.tree.n_users == 5
    assert len(result.joiner_messages) == 5
    # Everyone can reconstruct the group key from their bundle.
    for uid, key in keys.items():
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        bundle = next(m for m in result.joiner_messages
                      if m.receivers == (uid,))
        client.process_message(bundle.encoded)
        assert client.group_key() == server.tree.root.key
