"""Equivalence goldens: the staged pipeline reproduces the legacy bytes.

The PR that introduced :mod:`repro.core.pipeline` replaced three
hand-rolled rekey paths (the per-request server, the interval batch
server — now ``GroupKeyServer.flush`` — and ``MaterializedKeyGraph``)
with one staged plan -> encrypt -> sign -> dispatch pipeline.  These
tests pin the observable output of seeded join/leave sequences — every
outbound message byte, every receiver list, every encryption/signature
count — to digests captured from the pre-refactor implementation, so
any later change to the pipeline that perturbs the wire bytes or the
paper-facing counters fails loudly.

Timestamps are the only nondeterminism in the wire format; the
scenarios pin ``time.time_ns`` to a constant.

A group-addressed message no longer carries a receiver list: the
transport resolves it.  For those, the digest hashes the expression the
deleted server-side resolver evaluated, kept here as the reference and
evaluated right after each op — and every message is also sent through
an in-memory network subscribed as the group stands, which must reach
exactly that set.
"""

import hashlib
from unittest import mock

from repro.batch import individual_cost_estimate
from repro.core.messages import DEST_ALL, INDIVIDUAL_KEY, decrypt_records
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto import drbg
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from repro.keygraph.materialized import MaterializedKeyGraph
from repro.transport.inmemory import InMemoryNetwork

from ..wire_content import update_content

FIXED_TIME_NS = 893_520_000_000_000_000  # 1998-04-26, fixed for all runs


def _freeze_time():
    return mock.patch("time.time_ns", return_value=FIXED_TIME_NS)


class _Wire:
    """An in-memory network subscribed as the group stands, recording
    whom each message reached.  A leaver keeps its path for its ack but
    leaves the group first (the order every front end keeps)."""

    def __init__(self, members):
        self.network = InMemoryNetwork(strict=False)
        self._reached = []
        for user in members:
            self.join(user)

    def join(self, user):
        self.network.attach(
            user, lambda payload, user=user: self._reached.append(user))

    def leave(self, user):
        self.network.enroll(user, ())

    def reach(self, message):
        del self._reached[:]
        self.network.send(message)
        return set(self._reached)


def _hash_messages(h, content, messages, wire, group_receivers=None):
    """Digest one op's messages, their bytes into ``h`` and their
    framing-independent content into ``content``;
    ``group_receivers(exclude)`` is the deleted resolver of a group
    address, evaluated now."""
    for message in messages:
        h.update(message.encoded)
        receivers = message.receivers
        if message.destination.kind == DEST_ALL:
            assert receivers == ()
            receivers = group_receivers(message.destination.exclude)
        h.update(repr(tuple(receivers)).encode())
        update_content(content, message, receivers)
        assert wire.reach(message) == set(receivers)


def _tree_group(tree):
    """Group-oriented join/leave: ``subtree_receivers(tree, tree.root,
    exclude=...)``, which dropped the joiner with ``list.remove``."""
    def resolve(exclude):
        users = tree.userset(tree.root)
        if exclude is not None:
            users.remove(exclude)
        return tuple(users)
    return resolve


SERVER_SCRIPT = (("join", "n0"), ("leave", "u2"), ("join", "n1"),
                 ("leave", "u5"), ("refresh", None), ("leave", "n0"),
                 ("join", "u2"))


def run_server_scenario(graph, strategy, signing, suite):
    """One seeded join/leave/refresh sequence; byte digest, content
    digest, counters."""
    config = ServerConfig(graph=graph, degree=3, strategy=strategy,
                          suite=suite, signing=signing, seed=b"equivalence")
    server = GroupKeyServer(config)
    members = [(f"u{i}", server.new_individual_key()) for i in range(8)]
    server.bootstrap(members)
    h, content = hashlib.sha256(), hashlib.sha256()
    counters = []
    wire = _Wire(user for user, _key in members)
    with _freeze_time():
        for op, user in SERVER_SCRIPT:
            if op == "join":
                outcome = server.join(user, server.new_individual_key())
                wire.join(user)
            elif op == "leave":
                outcome = server.leave(user)
                wire.leave(user)
            else:
                outcome = server.refresh()
            if graph == "star":
                # Star join: ``u != user_id`` over ``star.members()``;
                # refresh: ``star.members()``.
                def resolve(exclude):
                    return tuple(u for u in server.star.members()
                                 if u != exclude)
            elif op == "refresh":
                def resolve(exclude):
                    return tuple(server.tree.users())
            else:
                resolve = _tree_group(server.tree)
            _hash_messages(h, content, outcome.all_messages, wire, resolve)
            record = outcome.record
            counters.append((record.encryptions, record.signatures,
                             record.n_rekey_messages, record.rekey_bytes,
                             record.max_message_bytes,
                             record.key_changes_total,
                             record.n_users_after))
    return h.hexdigest(), content.hexdigest(), counters


BATCH_WINDOWS = (
    ([("join", "n0"), ("join", "n1"), ("join", "n2")], ["u0", "u1"]),
    ([("join", "n3")], ["n0", "u4"]),
)


def run_batch_scenario(signing, suite, observe=None):
    """Two seeded flushes; byte digest, content digest, counters.

    ``observe(server, window_keys, messages)`` sees each flush's rekey
    messages, with every key the server held before and after it.
    """
    server = GroupKeyServer(ServerConfig(degree=3, suite=suite,
                                         signing=signing,
                                         seed=b"equivalence-batch"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(9)])
    h, content = hashlib.sha256(), hashlib.sha256()
    counters = []
    wire = _Wire(f"u{i}" for i in range(9))
    # The flush's group rekey: ``tuple(self.tree.users())``.
    resolve = lambda exclude: tuple(server.tree.users())
    with _freeze_time():
        for joins, leaves in BATCH_WINDOWS:
            keys = {(node.node_id, node.version): node.key
                    for node in server.tree.nodes()}
            joins = [(user, server.new_individual_key())
                     for _op, user in joins]
            estimate = individual_cost_estimate(
                server.n_users, 3, len(joins), len(leaves))
            outcome = server.flush(joins, leaves)
            for user in leaves:
                wire.leave(user)
            for user, _key in joins:
                wire.join(user)
            _hash_messages(h, content, outcome.all_messages, wire, resolve)
            counters.append((len(joins), len(leaves),
                             outcome.record.encryptions, estimate))
            if observe is not None:
                keys.update(((node.node_id, node.version), node.key)
                            for node in server.tree.nodes())
                keys.update(joins)
                observe(server, keys, outcome.rekey_messages)
    return h.hexdigest(), content.hexdigest(), counters


def batch_structure(signing, suite):
    """Per flush, per message: the destination, and per item the key it
    is encrypted under and the (node id, version) of each key record it
    carries — everything but key bytes, IVs, signatures and times."""
    flushes = []

    def observe(server, keys, messages):
        shape = []
        for out in messages:
            dest = out.destination
            items = []
            for item in out.message.items:
                ref = (item.enc_node_id, item.enc_version)
                key = keys[dest.user_id if ref == (INDIVIDUAL_KEY, 0)
                           else ref]
                records = decrypt_records(server.suite, key, item)
                items.append((ref, tuple((record.node_id, record.version)
                                         for record in records)))
            shape.append(((dest.kind, dest.user_id, dest.exclude),
                          tuple(items)))
        flushes.append(tuple(shape))

    run_batch_scenario(signing, suite, observe)
    return tuple(flushes)


def run_materialized_scenario():
    """Figure 1 graph: one leave, one join; byte digest, content
    digest, counters."""
    source = drbg.make_source(b"equivalence-graph", b"materialized")
    suite = PAPER_SUITE_NO_SIG
    keygen = lambda: suite.safe_key(source)
    group, _individual = MaterializedKeyGraph.figure1(suite, keygen)
    h, content = hashlib.sha256(), hashlib.sha256()
    counters = []
    wire = _Wire(group.users())
    # ``sorted(u_nodes)`` on a leave, ``sorted(u_nodes - {user})`` on a
    # join: the joiner is the group message's ``exclude``.
    resolve = lambda exclude: tuple(sorted(group.graph.u_nodes - {exclude}))
    with _freeze_time():
        for op, user, run in (
                ("leave", "u2", lambda: group.leave("u2")),
                ("join", "u5", lambda: group.join("u5", keygen(),
                                                  ["k3", "k234"])),
                ("leave", "u4", lambda: group.leave("u4"))):
            outcome = run()
            getattr(wire, op)(user)
            _hash_messages(h, content, outcome.messages, wire, resolve)
            counters.append((outcome.op, outcome.encryptions,
                             tuple(outcome.replaced)))
    return h.hexdigest(), content.hexdigest(), counters


# Captured from the pre-pipeline implementation (seed commit) with the
# scenarios above.  Do not regenerate casually: a mismatch means the
# refactor changed observable behaviour.  The byte digests (and the byte
# columns of the counts) were re-pinned once, for the v2 wire framing,
# after the content digests below were shown to hold on both framings.
GOLDEN_SERVER = {
    ("tree", "group", "merkle"):
        "111737c8ce9c52dd83852301e876a591f088e41116811bb49167b15498b1ad7d",
    ("tree", "user", "none"):
        "3a1df31d716c00efcce3a3bb05fe7d87b3acc53517da8c4c38ec1596cbcd3a55",
    ("tree", "key", "per-message"):
        "ab0ad4bbe131a3bc82a62d201f654a3be06624ede6131f384367b9a03e67c75b",
    ("tree", "hybrid", "none"):
        "418f809355bdc315c643e0be4ab522761e5dc46451df5a2172e394aaac9b8354",
    ("star", "group", "merkle"):
        "e3c96616d4da1f260c2d9ae2908ca03473caabf44c62263ad07ad3455ad1d20e",
}
# Framing-independent content (``tests/wire_content.py``) of the same
# scenarios, computed on the v1 wire before the v2 framing and required
# of every later framing: what the bytes say must not move.
GOLDEN_SERVER_CONTENT = {
    ("tree", "group", "merkle"):
        "b7d1bbfee546a29710997291a53e77038e1af4b9d43f93118468cc1f3a6e4116",
    ("tree", "user", "none"):
        "5c71aa435d86897e22f73ff9981239c1f4bfa8331db1b68d3e9859c5dde0a1e1",
    ("tree", "key", "per-message"):
        "ebb63b051006c46a6070f418c096898c5ce0b4dec4957e59ff1638fe3cb61a40",
    ("tree", "hybrid", "none"):
        "a5eb98c0421d2ad6f296c54eb6df0a921ec25ba95d7de6593e4e3ccb6dc39c44",
    ("star", "group", "merkle"):
        "cb36715a055224219ced6de388a3d190f599c26fd568bc26e76148cb82ffb9c9",
}
# Per-request (encryptions, signatures, n_rekey_messages, rekey_bytes,
# max_message_bytes, key_changes_total, n_users_after); spot-checked for
# the two signing extremes so counter regressions are readable.
GOLDEN_SERVER_COUNTS = {
    ("tree", "group", "merkle"): [
        (4, 1, 2, 372, 195, 10, 9), (5, 1, 1, 281, 281, 10, 8),
        (4, 1, 2, 372, 195, 10, 9), (5, 1, 1, 281, 281, 10, 8),
        (1, 1, 1, 145, 145, 8, 8), (5, 1, 1, 281, 281, 9, 7),
        (4, 1, 2, 372, 195, 9, 8)],
    ("tree", "user", "none"): [
        (5, 0, 3, 317, 111, 10, 9), (6, 0, 4, 412, 111, 10, 8),
        (5, 0, 3, 317, 111, 10, 9), (6, 0, 4, 412, 111, 10, 8),
        (1, 0, 1, 95, 95, 8, 8), (6, 0, 4, 412, 111, 9, 7),
        (5, 0, 3, 317, 111, 9, 8)],
}
# Re-pinned once when the batch server became ``GroupKeyServer.flush``:
# the flush draws from the server's one key stream, and the merkle
# flush carries one signature over all its messages.  The structure
# below and the counts were unchanged by that move.
GOLDEN_BATCH = {
    "merkle": "b710095f29ed87ece3a193673aeaa03159ef0969c2144345866ff77c86888cf5",
    "none": "57a90afa2c38ccf47bd2e6c919b1baf6cec4633dc62b04b01a97296022dbb5bb",
}
GOLDEN_BATCH_CONTENT = {
    "merkle": "5c0ef1a561b41f999324598d250652865b08f7aeff24869bfa1a3a949b591281",
    "none": "ee4f5a7a66a1fdc6766ed4e398cdc572859fdb1da1c261a8f4943bd59a677270",
}
# (n_joins, n_leaves, encryptions, individual_cost_estimate) per flush.
GOLDEN_BATCH_COUNTS = [(3, 2, 15, 24), (1, 2, 10, 24)]
# ``batch_structure`` of the two flushes, as the batch server produced
# them: the group rekey, then one path unicast per joiner
# (INDIVIDUAL_KEY = 4294967295).
_ALL = ("all", None, None)
_IND = (4294967295, 0)
GOLDEN_BATCH_STRUCTURE = (
    ((_ALL, (((10, 1), ((9, 1),)), ((11, 0), ((9, 1),)),
             ((12, 0), ((9, 1),)), ((16, 1), ((10, 1),)),
             ((13, 0), ((10, 1),)), ((14, 0), ((10, 1),)),
             ((2, 0), ((16, 1),)), ((15, 0), ((16, 1),)))),
     (("user", "n0", None), ((_IND, ((10, 1), (9, 1))),)),
     (("user", "n1", None), ((_IND, ((10, 1), (9, 1))),)),
     (("user", "n2", None), ((_IND, ((16, 1), (10, 1), (9, 1))),))),
    ((_ALL, (((10, 2), ((9, 2),)), ((11, 1), ((9, 2),)),
             ((12, 0), ((9, 2),)), ((3, 0), ((11, 1),)),
             ((5, 0), ((11, 1),)), ((17, 0), ((11, 1),)),
             ((16, 1), ((10, 2),)), ((14, 0), ((10, 2),)))),
     (("user", "n3", None), ((_IND, ((11, 1), (9, 2))),))),
)
GOLDEN_MATERIALIZED = (
    "10a134aae056e6f63cd48e2d79185f9a227c8b38cf9ff31d595e3e11787948f3")
GOLDEN_MATERIALIZED_CONTENT = (
    "6d12ad9970a2324a0fe9caf3ec1eb90d02df3e38d089943afffbb1641009f7f8")
GOLDEN_MATERIALIZED_COUNTS = [
    ("leave", 5, ("k12", "k234", "k1234")),
    ("join", 6, ("k3", "k234", "k1234")),
    ("leave", 3, ("k234", "k1234")),
]


def _suite_for(signing):
    return PAPER_SUITE if signing != "none" else PAPER_SUITE_NO_SIG


def test_server_paths_match_seed_bytes():
    for (graph, strategy, signing), expected in GOLDEN_SERVER.items():
        digest, content, counters = run_server_scenario(
            graph, strategy, signing, _suite_for(signing))
        key = (graph, strategy, signing)
        assert content == GOLDEN_SERVER_CONTENT[key], key
        assert digest == expected, key
        golden_counts = GOLDEN_SERVER_COUNTS.get(key)
        if golden_counts is not None:
            assert counters == golden_counts, key


def test_batch_path_matches_seed_bytes():
    for signing, expected in GOLDEN_BATCH.items():
        digest, content, counters = run_batch_scenario(
            signing, _suite_for(signing))
        assert content == GOLDEN_BATCH_CONTENT[signing], signing
        assert digest == expected, signing
        assert counters == GOLDEN_BATCH_COUNTS, signing


def test_batch_flush_keeps_the_batch_servers_structure():
    for signing in GOLDEN_BATCH:
        assert batch_structure(signing, _suite_for(signing)) \
            == GOLDEN_BATCH_STRUCTURE, signing


def test_materialized_path_matches_seed_bytes():
    digest, content, counters = run_materialized_scenario()
    assert content == GOLDEN_MATERIALIZED_CONTENT
    assert digest == GOLDEN_MATERIALIZED
    assert counters == GOLDEN_MATERIALIZED_COUNTS


def main():
    """Print freshly computed goldens (bytes, content, counts)."""
    for (graph, strategy, signing) in GOLDEN_SERVER:
        digest, content, counters = run_server_scenario(
            graph, strategy, signing, _suite_for(signing))
        print(f"SERVER {(graph, strategy, signing)!r}: {digest!r}")
        print(f"  content: {content!r}")
        print(f"  counts: {counters!r}")
    for signing in GOLDEN_BATCH:
        digest, content, counters = run_batch_scenario(
            signing, _suite_for(signing))
        print(f"BATCH {signing!r}: {digest!r}")
        print(f"  content: {content!r}")
        print(f"  counts: {counters!r}")
    digest, content, counters = run_materialized_scenario()
    print(f"MATERIALIZED: {digest!r}")
    print(f"  content: {content!r}")
    print(f"  counts: {counters!r}")


if __name__ == "__main__":
    main()
