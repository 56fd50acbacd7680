"""FlatKeyTree vs the KeyTree reference in lockstep: same ids, same
keys, same bytes.

The served engine's contract is byte-identity with the reference, not
just behavioural equivalence: both draw from the keygen in the same
order, assign the same node ids, and pick the same joining points, so
every rekey message is bit-for-bit identical.  These properties drive
random join/leave/refresh histories through both trees in lockstep and
compare topology, versions, key material and wire bytes at every step.
The server-level tests run a plain (flat) server against one whose trees
were swapped for ``KeyTree`` twins (:mod:`tests.keygraph.reference`).

Message headers embed a wall-clock timestamp, so the wire-byte tests
freeze ``time.time_ns`` around both servers.
"""

import time as _time
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.drbg import HmacDrbg
from repro.keygraph.flat import FlatKeyTree
from repro.keygraph.tree import KeyTree

from .reference import swap_in_reference


def make_keygen(seed):
    source = HmacDrbg(seed)
    return lambda: source.generate(8)


def topology(tree):
    """Full structural fingerprint in BFS order (ids, versions, keys)."""
    return [(node.node_id, node.version, node.user_id, node.key,
             [child.node_id for child in node.children])
            for node in tree.nodes()]


@contextmanager
def frozen_clock(value_ns=1_234_567_891_000):
    """Pin ``time.time_ns`` so message timestamps can't differ."""
    real = _time.time_ns
    _time.time_ns = lambda: value_ns
    try:
        yield
    finally:
        _time.time_ns = real


def test_build_is_byte_identical():
    members = [(f"u{i}", bytes([i]) * 8) for i in range(37)]
    for degree in (2, 3, 4, 7):
        obj = KeyTree.build(members, degree, make_keygen(b"build"))
        flat = FlatKeyTree.build(members, degree, make_keygen(b"build"))
        assert topology(obj) == topology(flat)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_lockstep_churn_is_byte_identical(data):
    """Property: any join/leave/refresh history leaves both trees
    with identical node ids, versions, key bytes and structure — and
    identical edit results at every single step."""
    degree = data.draw(st.integers(min_value=2, max_value=5))
    n = data.draw(st.integers(min_value=0, max_value=25))
    members = [(f"u{i}", bytes([i]) * 8) for i in range(n)]
    obj = KeyTree.build(members, degree, make_keygen(b"lock"))
    flat = FlatKeyTree.build(members, degree, make_keygen(b"lock"))
    alive = [user_id for user_id, _ in members]
    counter = 0
    for _ in range(data.draw(st.integers(min_value=0, max_value=25))):
        op = data.draw(st.sampled_from(
            ["join", "leave", "refresh"] if alive else ["join"]))
        if op == "join":
            name = f"x{counter}"
            counter += 1
            key = bytes([counter % 251]) * 8
            result_a, result_b = obj.join(name, key), flat.join(name, key)
            alive.append(name)
        elif op == "leave":
            index = data.draw(
                st.integers(min_value=0, max_value=len(alive) - 1))
            name = alive.pop(index)
            result_a, result_b = obj.leave(name), flat.leave(name)
        else:
            obj.root.replace_key(b"refresh!")
            flat.root.replace_key(b"refresh!")
            result_a = result_b = None
        if result_a is not None:
            assert [(c.node.node_id, c.old_key, c.old_version, c.new_key)
                    for c in result_a.changes] == \
                   [(c.node.node_id, c.old_key, c.old_version, c.new_key)
                    for c in result_b.changes]
        flat.validate()
        obj.validate()
        assert topology(obj) == topology(flat)
        assert obj.height() == flat.height()
        assert obj.n_keys == flat.n_keys


def drive(server, script):
    """Run an op script against a server, collecting every wire byte."""
    wire = []
    for op, user_id in script:
        if op == "join":
            outcome = server.join(user_id, b"\x11" * 8)
        elif op == "leave":
            outcome = server.leave(user_id)
        else:
            outcome = server.refresh()
        wire.extend(m.encoded for m in outcome.all_messages)
    return wire


@given(st.data())
@settings(max_examples=10, deadline=None)
def test_server_wire_bytes_identical(data):
    """Property: a GroupKeyServer emits bit-identical rekey messages on
    FlatKeyTree and on the KeyTree reference, for every strategy."""
    strategy = data.draw(st.sampled_from(["user", "key", "group", "hybrid"]))
    n = data.draw(st.integers(min_value=1, max_value=12))
    members = [(f"m{i}", bytes([40 + i]) * 8) for i in range(n)]
    alive = [user_id for user_id, _ in members]
    script = []
    counter = 0
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        op = data.draw(st.sampled_from(
            ["join", "leave", "refresh"] if len(alive) > 1 else ["join"]))
        if op == "join":
            name = f"n{counter}"
            counter += 1
            alive.append(name)
            script.append(("join", name))
        elif op == "leave":
            index = data.draw(
                st.integers(min_value=0, max_value=len(alive) - 1))
            script.append(("leave", alive.pop(index)))
        else:
            script.append(("refresh", None))

    wires = {}
    with frozen_clock():
        for tree in ("object", "flat"):
            server = GroupKeyServer(ServerConfig(
                degree=3, strategy=strategy, seed=b"wire-equiv"))
            server.bootstrap(members)
            if tree == "object":
                swap_in_reference(server)
            wires[tree] = drive(server, script)
    assert wires["object"] == wires["flat"]


def test_batch_flush_wire_bytes_identical():
    """GroupKeyServer.flush: windows of joins/leaves flush to identical
    bytes on FlatKeyTree and on the KeyTree reference."""
    members = [(f"b{i}", bytes([i + 1]) * 8) for i in range(17)]
    wires = {}
    with frozen_clock():
        for tree in ("object", "flat"):
            server = GroupKeyServer(ServerConfig(
                degree=3, seed=b"batch-equiv"))
            server.bootstrap(members)
            if tree == "object":
                swap_in_reference(server)
            wire = []
            for interval in range(4):
                joins = [(f"j{interval}-{k}", server.new_individual_key())
                         for k in range(3)]
                # j<interval>-1 joins and leaves: the two cancel.
                outcome = server.flush(
                    joins, [f"b{interval * 3}", f"j{interval}-1"])
                wire.extend(m.encoded for m in outcome.rekey_messages)
            wire.extend(m.encoded for m in server.evict(["b1", "b2"]))
            wires[tree] = wire
    assert wires["object"] == wires["flat"]
    assert wires["object"]  # the comparison actually saw traffic


def test_cluster_wire_bytes_identical():
    """Sharded cluster: with every shard tree and the root-layer tree
    swapped for the reference, the cluster emits identical bytes."""
    members = [(f"c{i}", bytes([i + 3]) * 8) for i in range(24)]
    wires = {}
    with frozen_clock():
        for tree in ("object", "flat"):
            cluster = ClusterCoordinator(ClusterConfig(
                n_shards=3, degree=3, seed=b"cluster-equiv"))
            cluster.bootstrap(members)
            if tree == "object":
                swap_in_reference(cluster)
            wire = []
            for i in range(6):
                outcome = cluster.join(f"cx{i}", bytes([100 + i]) * 8)
                wire.extend(m.encoded for m in outcome.all_messages)
                outcome = cluster.leave(f"c{i * 2}")
                wire.extend(m.encoded for m in outcome.all_messages)
            wires[tree] = wire
    assert wires["object"] == wires["flat"]
    assert wires["object"]


def test_flat_backend_golden_digest_inputs():
    """The fingerprint the golden-digest suite hashes (topology + key
    bytes) is the same on both trees even through leaf splits and
    splices."""
    keygen_a, keygen_b = make_keygen(b"gold"), make_keygen(b"gold")
    obj = KeyTree(2, keygen_a)
    flat = FlatKeyTree(2, keygen_b)
    for i in range(9):  # grow from empty: exercises start_root + splits
        obj.join(f"g{i}", bytes([i + 7]) * 8)
        flat.join(f"g{i}", bytes([i + 7]) * 8)
    for user_id in ("g0", "g3", "g8"):
        obj.leave(user_id)
        flat.leave(user_id)
    assert topology(obj) == topology(flat)
