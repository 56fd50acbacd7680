"""Periodic group-key refresh (no membership change)."""

import pytest

from repro.core.client import GroupClient
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.crypto.suite import PAPER_SUITE_NO_SIG

from ..delivery import deliver, subscribed


def make_world(graph="tree", n=12):
    server = GroupKeyServer(ServerConfig(
        graph=graph, strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"refresh-tests"))
    clients = {}
    for i in range(n):
        uid = f"u{i}"
        key = server.new_individual_key()
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
        outcome = server.join(uid, key)
        client.process_control(outcome.control_messages[0].encoded)
        deliver(server, clients, outcome.rekey_messages)
    return server, clients


@pytest.mark.parametrize("graph", ["tree", "star"])
def test_refresh_rotates_and_everyone_follows(graph):
    server, clients = make_world(graph)
    old_key = server.group_key()
    outcome = server.refresh()
    assert server.group_key() != old_key
    assert outcome.record.op == "refresh"
    assert outcome.record.encryptions == 1       # one {new}_{old}
    assert outcome.record.n_rekey_messages == 1  # one multicast
    network = subscribed(server, clients)
    for message in outcome.rekey_messages:
        assert set(network.audience.receivers(message)) == set(clients)
        network.send(message)
    for uid, client in clients.items():
        assert client.group_key() == server.group_key(), uid


def test_refresh_empty_group_rejected():
    server = GroupKeyServer(ServerConfig(
        suite=PAPER_SUITE_NO_SIG, signing="none", seed=b"empty"))
    with pytest.raises(ServerError):
        server.refresh()


def test_refresh_does_not_change_subgroup_keys():
    server, _clients = make_world()
    subgroup_keys = {node.node_id: node.key for node in server.tree.nodes()
                     if node != server.tree.root}
    server.refresh()
    for node in server.tree.nodes():
        if node != server.tree.root:
            assert node.key == subgroup_keys[node.node_id]


def test_refresh_interleaves_with_membership_changes():
    server, clients = make_world()
    for round_index in range(3):
        outcome = server.refresh()
        deliver(server, clients, outcome.rekey_messages)
        uid = f"extra{round_index}"
        key = server.new_individual_key()
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
        outcome = server.join(uid, key)
        client.process_control(outcome.control_messages[0].encoded)
        deliver(server, clients, outcome.rekey_messages)
    for uid, client in clients.items():
        assert client.group_key() == server.group_key(), uid


def test_departed_user_cannot_follow_refresh():
    server, clients = make_world()
    departed = clients.pop("u4")
    outcome = server.leave("u4")
    deliver(server, clients, outcome.rekey_messages)
    outcome = server.refresh()
    # The refresh item is encrypted under the post-leave group key,
    # which the departed user never obtained.
    network = subscribed(server, {**clients, "u4": departed})
    for message in outcome.rekey_messages:
        assert "u4" not in network.audience.receivers(message)
        for item in message.message.items:
            held = departed.keys.get(item.enc_node_id)
            assert held is None or held[0] != item.enc_version
