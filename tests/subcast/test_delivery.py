"""End-to-end subcast delivery: exactly the targets decrypt.

Covers the immediate server and the batch server, the datagram entry
point, and the security negatives:
non-members, non-targeted members, and evicted members holding stale
key versions all fail closed with :class:`SubcastNotAddressed`.
"""

import pytest

from repro.core.client import GroupClient, SubcastNotAddressed
from repro.core.messages import MSG_SUBCAST_REQUEST, Message
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.subcast import encode_subcast_request

MEMBERS = [f"m{index:03d}" for index in range(60)]


def immediate_server():
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", signing="per-message", seed=b"deliver"))
    server.bootstrap([(user, server.new_individual_key())
                      for user in MEMBERS])
    return server


def primed_client(server, user):
    leaf = server.tree.leaf_of(user)
    client = GroupClient(user, server.suite, server.public_key)
    client.set_individual_key(leaf.key)
    client.set_leaf(leaf.node_id)
    for node in leaf.path_to_root():
        client.keys[node.node_id] = (node.version, node.key)
    client.root_ref = server.group_key_ref()
    return client


def assert_exact_delivery(server, clients, targets, payload):
    out = server.subcast(targets, payload)
    delivered = []
    for user, client in clients.items():
        try:
            assert client.open_subcast(out.encoded) == payload
            delivered.append(user)
        except SubcastNotAddressed:
            pass
    assert sorted(delivered) == sorted(set(targets))
    return out


def test_exactly_the_targets_decrypt():
    server = immediate_server()
    clients = {user: primed_client(server, user) for user in MEMBERS}
    assert_exact_delivery(server, clients, MEMBERS[10:30] + MEMBERS[50:52],
                          b"subset payload")
    # Single target: sealed under that leaf's individual key.
    out = assert_exact_delivery(server, clients, [MEMBERS[0]], b"solo")
    assert len(out.message.items) == 2
    # Everyone: one cover key — the group key.
    out = assert_exact_delivery(server, clients, MEMBERS, b"everyone")
    assert len(out.message.items) == 2
    assert out.message.items[1].enc_node_id == server.group_key_ref()[0]


def test_non_member_cannot_decrypt():
    server = immediate_server()
    out = server.subcast(MEMBERS[:8], b"secret")
    outsider = GroupClient("mallory", server.suite, server.public_key)
    outsider.set_individual_key(bytes(server.suite.key_size))
    with pytest.raises(SubcastNotAddressed):
        outsider.open_subcast(out.encoded)


def test_evicted_member_fails_closed():
    server = immediate_server()
    victim = MEMBERS[7]
    clients = {user: primed_client(server, user) for user in MEMBERS}
    server.leave(victim)
    # The victim still holds its old path keys, but the leave rotated
    # every key on that path: version-exact lookup finds nothing.
    out = server.subcast(MEMBERS[:7], b"post-eviction")
    with pytest.raises(SubcastNotAddressed):
        clients[victim].open_subcast(out.encoded)
    # And the server refuses to target an ex-member at all.
    with pytest.raises(ServerError):
        server.subcast([victim], b"nope")


def test_subcast_requires_targets_and_tree():
    server = immediate_server()
    with pytest.raises(ServerError):
        server.subcast([], b"empty")
    with pytest.raises(ServerError):
        server.subcast(["ghost"], b"ghost")
    star = GroupKeyServer(ServerConfig(graph="star", signing="none",
                                       seed=b"star"))
    star.bootstrap([("s0", star.new_individual_key())])
    with pytest.raises(ServerError):
        star.subcast(["s0"], b"star")


def test_datagram_entry_point():
    server = immediate_server()
    clients = {user: primed_client(server, user) for user in MEMBERS}
    targets = MEMBERS[12:20]
    request = Message(
        msg_type=MSG_SUBCAST_REQUEST,
        body=encode_subcast_request(MEMBERS[0], targets, b"via-datagram"))
    outputs = server.handle_datagram(request.encode())
    assert len(outputs) == 1
    assert clients[targets[0]].open_subcast(
        outputs[0].encoded) == b"via-datagram"
    # Malformed body and non-member sender are both rejected.
    with pytest.raises(ServerError):
        server.handle_datagram(Message(
            msg_type=MSG_SUBCAST_REQUEST, body=b"\xff").encode())
    with pytest.raises(ServerError):
        server.handle_datagram(Message(
            msg_type=MSG_SUBCAST_REQUEST,
            body=encode_subcast_request("ghost", targets,
                                        b"x")).encode())


def test_batch_server_subcast():
    server = GroupKeyServer(ServerConfig(
        degree=4, signing="per-message", seed=b"batch-deliver"))
    server.bootstrap([(user, server.new_individual_key())
                      for user in MEMBERS])
    targets = MEMBERS[4:14]
    out = server.subcast(targets, b"batch subset")
    delivered = []
    for user in MEMBERS:
        leaf = server.tree.leaf_of(user)
        client = GroupClient(user, server.suite,
                             server.signing_keypair.public_key)
        client.set_individual_key(leaf.key)
        client.set_leaf(leaf.node_id)
        for node in leaf.path_to_root():
            client.keys[node.node_id] = (node.version, node.key)
        try:
            assert client.open_subcast(out.encoded) == b"batch subset"
            delivered.append(user)
        except SubcastNotAddressed:
            pass
    assert delivered == targets
    # A joiner waiting for the next flush holds no tree keys yet and
    # cannot be targeted.
    server.register_individual_key("pending", server.new_individual_key())
    with pytest.raises(ServerError):
        server.subcast(["pending"], b"early")
