"""Batch rekeying across a shard boundary (satellite of the cluster PR).

Two :class:`GroupKeyServer` shards flush independently, then one
root-layer rekey folds both new shard roots in.  The member-visible
outcome — who can read group traffic afterwards — must be exactly what
sequential single-server processing of the same requests produces.
"""

from typing import Dict

from repro.cluster import RootKeyLayer, namespace_tree, shard_id_base
from repro.core.client import GroupClient
from repro.core.messages import DEST_ALL
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE
from repro.transport.inmemory import InMemoryNetwork

SHARD_USERS = {
    "batch-a": [f"a{index}" for index in range(8)],
    "batch-b": [f"b{index}" for index in range(8)],
}
JOINS = {"batch-a": ["a-new0", "a-new1"], "batch-b": ["b-new0"]}
LEAVES = {"batch-a": ["a2"], "batch-b": ["b5", "b6"]}


def new_server(seed):
    return GroupKeyServer(ServerConfig(degree=3, suite=PAPER_SUITE,
                                       signing="none", seed=seed))


def build_sharded():
    shards: Dict[str, GroupKeyServer] = {}
    keys: Dict[str, bytes] = {}
    for index, (name, users) in enumerate(sorted(SHARD_USERS.items())):
        server = new_server(b"batch-shard-" + name.encode())
        members = []
        for user in users:
            key = server.new_individual_key()
            keys[user] = key
            members.append((user, key))
        server.bootstrap(members)
        namespace_tree(server.tree, shard_id_base(index))
        shards[name] = server
    layer = RootKeyLayer(PAPER_SUITE, sorted(shards), degree=2,
                         seed=b"batch-root")
    layer.bootstrap({
        name: ((server.tree.root.node_id, server.tree.root.version),
               server.tree.root.key)
        for name, server in shards.items()})
    return shards, layer, keys


def prime_batch_clients(shards, layer, keys):
    clients: Dict[str, GroupClient] = {}
    for name, server in shards.items():
        for user in server.tree.users():
            client = GroupClient(user, PAPER_SUITE, verify=False)
            client.set_individual_key(keys[user])
            path = server.tree.user_key_path(user)
            client.set_leaf(path[0].node_id)
            for node in path[1:]:
                client.keys[node.node_id] = (node.version, node.key)
            for record in layer.path_records(name):
                client.keys[record.node_id] = (record.version, record.key)
            client.root_ref = layer.group_key_ref()
            clients[user] = client
    return clients


def subscribe(shards, clients):
    """Each flushed member in the whole group and its shard's audience."""
    network = InMemoryNetwork()
    for name, server in shards.items():
        for user in server.tree.users():
            network.attach(user, clients[user].process_message)
            network.enroll(user, (None, name))
    return network


def group_rekey(outcome):
    return next(out for out in outcome.rekey_messages
                if out.destination.kind == DEST_ALL)


def deliver_flush(network, outcome, audience=None):
    # A shard's "whole group" is its own members only.
    group_rekey(outcome).audience = audience
    network.send_all(outcome.rekey_messages)


def test_cross_shard_flush_matches_sequential_single_server():
    # -- sharded deployment: one flush per shard + one root-layer rekey.
    shards, layer, keys = build_sharded()
    clients = prime_batch_clients(shards, layer, keys)
    group_key_before = layer.group_key()

    departed = {}
    shard_results = {}
    for name, server in sorted(shards.items()):
        joins = []
        for user in JOINS[name]:
            key = server.new_individual_key()
            keys[user] = key
            client = GroupClient(user, PAPER_SUITE, verify=False)
            client.set_individual_key(key)
            clients[user] = client
            joins.append((user, key))
        for user in LEAVES[name]:
            departed[user] = clients.pop(user)
        shard_results[name] = server.flush(joins, LEAVES[name])
    network = subscribe(shards, clients)
    for name, result in shard_results.items():
        deliver_flush(network, result, audience=name)

    # The joiners' unicasts carry only their shard path: the root-layer
    # multicast below must hand them (and everyone else) the layer keys.
    run = layer.rekey(
        [(name, (server.tree.root.node_id, server.tree.root.version),
          server.tree.root.key)
         for name, server in sorted(shards.items())])
    assert len(run.messages) == 1  # one cluster-wide multicast
    network.send(run.messages[0])

    # -- sequential control: one server, same requests, one flush.
    control = new_server(b"batch-control")
    control_keys = {}
    control_members = []
    for name in sorted(SHARD_USERS):
        for user in SHARD_USERS[name]:
            key = control.new_individual_key()
            control_keys[user] = key
            control_members.append((user, key))
    control.bootstrap(control_members)
    control_clients = {}
    for user, key in control_members:
        client = GroupClient(user, PAPER_SUITE, verify=False)
        client.set_individual_key(key)
        path = control.tree.user_key_path(user)
        client.set_leaf(path[0].node_id)
        for node in path[1:]:
            client.keys[node.node_id] = (node.version, node.key)
        client.root_ref = (control.tree.root.node_id,
                           control.tree.root.version)
        control_clients[user] = client
    control_departed = {}
    control_joins, control_leaves = [], []
    for name in sorted(SHARD_USERS):
        for user in JOINS[name]:
            key = control.new_individual_key()
            client = GroupClient(user, PAPER_SUITE, verify=False)
            client.set_individual_key(key)
            control_clients[user] = client
            control_joins.append((user, key))
        for user in LEAVES[name]:
            control_departed[user] = control_clients.pop(user)
            control_leaves.append(user)
    control_result = control.flush(control_joins, control_leaves)
    control_network = InMemoryNetwork()
    for user, client in control_clients.items():
        control_network.attach(user, client.process_message)
    deliver_flush(control_network, control_result)

    # -- member-visible equivalence.
    assert sorted(clients) == sorted(control_clients)
    cluster_key = layer.group_key()
    control_key = (control_clients[next(iter(control_clients))]
                   .group_key())
    assert cluster_key != group_key_before
    for user in clients:
        # Same members hold the (respective) current group key...
        assert clients[user].group_key() == cluster_key, user
        assert control_clients[user].group_key() == control_key, user
    for user in departed:
        # ...and the same departed users hold neither.
        assert departed[user].group_key() != cluster_key
        assert control_departed[user].group_key() != control_key

    # Per-shard flush cost is bounded by shard membership, not by the
    # whole logical group: each shard's multicast reached only its own
    # members.
    for name, result in shard_results.items():
        shard_members = set(shards[name].tree.users())
        reached = network.audience.receivers(group_rekey(result))
        assert set(reached) == shard_members
        assert len(shard_members) < len(clients)


def test_root_layer_refresh_between_flushes():
    # With no shard changes the layer still rotates the cluster key.
    shards, layer, keys = build_sharded()
    clients = prime_batch_clients(shards, layer, keys)
    before = layer.group_key()
    run = layer.rekey([])
    subscribe(shards, clients).send_all(run.messages)
    assert layer.group_key() != before
    for user in clients:
        assert clients[user].group_key() == layer.group_key()
