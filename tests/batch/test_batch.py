"""Interval batch rekeying: correctness, security, savings.

A window of joins and leaves is one :meth:`GroupKeyServer.flush`.
"""

import pytest

from repro.batch import individual_cost_estimate
from repro.core.client import GroupClient
from repro.core.messages import DEST_ALL
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG

from ..delivery import deliver


def new_server(degree=3, seed=b"batch-tests", **overrides):
    overrides.setdefault("signing", "none")
    overrides.setdefault("suite", PAPER_SUITE_NO_SIG)
    return GroupKeyServer(ServerConfig(degree=degree, seed=seed,
                                       **overrides))


def make_server(n=27, degree=3, seed=b"batch-tests"):
    server = new_server(degree, seed)
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


def group_rekey(outcome):
    """The flush's one group-addressed message (None when it has none)."""
    group = [out for out in outcome.rekey_messages
             if out.destination.kind == DEST_ALL]
    assert len(group) <= 1
    return group[0] if group else None


def test_flush_synchronizes_everyone():
    server, members = make_server()
    clients = make_clients(server, members)
    leavers = [f"u{i}" for i in range(5)]
    for uid in leavers:
        del clients[uid]
    joiners = {f"n{i}": server.new_individual_key() for i in range(5)}
    outcome = server.flush(joiners.items(), leavers)
    server.tree.validate()
    for uid, key in joiners.items():
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
    deliver(server, clients, outcome.rekey_messages)
    group_key = server.tree.root.key
    for uid, client in clients.items():
        assert client.group_key() == group_key, uid


def test_batch_is_cheaper_than_individual():
    server, members = make_server(n=64, degree=4)
    estimate = individual_cost_estimate(server.n_users, 4, 16, 16)
    outcome = server.flush(
        [(f"n{i}", server.new_individual_key()) for i in range(16)],
        [f"u{i}" for i in range(16)])
    assert server.n_users == 64
    assert 0 < outcome.record.encryptions < estimate


def test_join_then_leave_cancels():
    server, _ = make_server(n=8)
    before = server.group_key_ref()
    outcome = server.flush([("fleeting", server.new_individual_key())],
                           ["fleeting"])
    assert outcome.record.encryptions == 0
    assert outcome.rekey_messages == []
    assert not server.tree.has_user("fleeting")
    assert server.group_key_ref() == before


def test_leave_then_rejoin_in_same_interval():
    server, members = make_server(n=8)
    new_key = server.new_individual_key()
    server.flush([("u3", new_key)], ["u3"])
    server.tree.validate()
    assert server.tree.has_user("u3")
    assert server.tree.leaf_of("u3").key == new_key
    assert server.n_users == 8


def test_request_validation():
    """A bad window is refused before the tree is touched."""
    server, _ = make_server(n=4)
    before = server.group_key_ref()
    bad_windows = [
        ([("u0", bytes(8))], []),                     # already a member
        ([], ["ghost"]),                              # not a member
        ([], ["u1", "u1"]),                           # leaves twice
        ([("x", bytes(8)), ("x", bytes(8))], []),     # joins twice
        ([("y", None)], []),                          # no individual key
        ([("x", bytes(8)), ("u0", bytes(8))], ["u1"]),
    ]
    for joins, leaves in bad_windows:
        with pytest.raises(ServerError):
            server.flush(joins, leaves)
        assert server.group_key_ref() == before
        assert server.n_users == 4 and not server.is_member("x")
    with pytest.raises(ServerError):
        server.check_window("join", "u2", {}, {})
    server.check_window("join", "u2", {}, {"u2": None})


def test_bootstrap_guard():
    server, _ = make_server(n=4)
    with pytest.raises(ServerError):
        server.bootstrap([("y", bytes(8))])


def test_flush_forward_secrecy():
    """No flush item is encrypted under any key a departed user held."""
    server, members = make_server(n=27, degree=3)
    victim_path = server.tree.user_key_path("u5")
    victim_refs = {(node.node_id, node.version) for node in victim_path}
    rekey = group_rekey(server.flush((), ["u5", "u6"]))
    assert rekey is not None
    for item in rekey.message.items:
        assert (item.enc_node_id, item.enc_version) not in victim_refs


def test_flush_backward_secrecy():
    """A batch joiner's keys decrypt nothing from before the flush."""
    server, members = make_server(n=16, degree=4)
    # Pre-flush "captured traffic": one flush rekeying u0's departure.
    old_rekey = group_rekey(server.flush((), ["u0"]))
    joiner_key = server.new_individual_key()
    outcome = server.flush([("late", joiner_key)])
    # Reconstruct the joiner's keyset from its unicast.
    client = GroupClient("late", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(joiner_key)
    deliver(server, {"late": client}, outcome.rekey_messages)
    for item in old_rekey.message.items:
        held = client.keys.get(item.enc_node_id)
        assert held is None or held[0] != item.enc_version


def test_empty_flush():
    server, _ = make_server(n=4)
    outcome = server.flush()
    assert outcome.record.encryptions == 0
    assert outcome.rekey_messages == []


def test_flush_drains_whole_group_and_refills():
    server, members = make_server(n=4, degree=2)
    server.flush((), list(members))
    assert server.tree.n_users == 0
    assert server.tree.root is None
    server.flush([("phoenix", server.new_individual_key())])
    assert server.tree.has_user("phoenix")
    server.tree.validate()


def test_signing_mode():
    server = new_server(signing="merkle", seed=b"signed",
                        suite=PAPER_SUITE)
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(9)])
    outcome = server.flush([("n0", server.new_individual_key())], ["u0"])
    signatures = {out.message.auth.signature
                  for out in outcome.rekey_messages}
    assert len(outcome.rekey_messages) == 2 and len(signatures) == 1
    assert signatures.pop()
    assert outcome.record.signatures == 1


def test_flush_joins_into_empty_bootstrap():
    """Joins-only flush on a never-bootstrapped server builds the tree."""
    server = new_server(seed=b"empty-boot")
    keys = {f"u{i}": server.new_individual_key() for i in range(5)}
    outcome = server.flush(keys.items())
    server.tree.validate()
    assert server.tree.n_users == 5
    assert len(outcome.rekey_messages) == 1 + 5  # + one unicast each
    # Everyone can reconstruct the group key from their bundle.
    for uid, key in keys.items():
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        bundle = next(m for m in outcome.rekey_messages
                      if m.receivers == (uid,))
        client.process_message(bundle.encoded)
        assert client.group_key() == server.tree.root.key


def test_flush_honours_access_list():
    server = new_server(access_list={"u0", "u1", "n0"})
    server.bootstrap([("u0", server.new_individual_key())])
    with pytest.raises(ServerError):
        server.flush([("n0", server.new_individual_key()),
                      ("mallory", server.new_individual_key())])
    assert server.n_users == 1
    server.flush([("n0", server.new_individual_key())])
    assert server.is_member("n0")


def test_flush_uses_registered_keys():
    server, _ = make_server(n=4)
    key = server.new_individual_key()
    server.register_individual_key("n0", key)
    server.flush([("n0", None)])
    assert server.tree.leaf_of("n0").key == key
    assert "n0" not in server._registered_keys


def test_evict_folds_into_one_flush():
    server, _ = make_server(n=9)
    assert server.supports_batch
    messages = server.evict(["u0", "u1", "u2"])
    assert [record.op for record in server.history] == ["flush"]
    assert len(messages) == 1 and not server.is_member("u1")
    server.evict(["u3"])
    assert server.history[-1].op == "leave"
    star = new_server(graph="star")
    assert not star.supports_batch
