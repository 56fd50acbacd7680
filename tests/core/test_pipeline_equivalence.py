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
from typing import NamedTuple
from unittest import mock

from repro.batch import individual_cost_estimate
from repro.core.messages import DEST_ALL, INDIVIDUAL_KEY, decrypt_records
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto import drbg
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from repro.keygraph.materialized import MaterializedKeyGraph
from repro.transport.inmemory import InMemoryNetwork

from ..wire_content import tracing_encryptions, update_content, update_keys

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


class Digests:
    """One scenario's three digests: the wire bytes, the framing-
    independent content (``tests/wire_content.py``) and the key level
    (every ``encrypt_records`` call plus each message above the
    cipher)."""

    def __init__(self):
        self.bytes = hashlib.sha256()
        self.content = hashlib.sha256()
        self.keys = hashlib.sha256()

    def tracing(self):
        """Feed every encryption into the key-level digest."""
        return tracing_encryptions(self.keys)

    def run(self, counters, blocks=()):
        """The scenario's :class:`Run`."""
        return Run(self.bytes.hexdigest(), self.content.hexdigest(),
                   self.keys.hexdigest(), counters, list(blocks))


class Run(NamedTuple):
    digest: str
    content: str
    keys: str
    counters: list
    #: Per request, the cipher blocks of every item ciphertext it sent.
    blocks: list


def _hash_messages(digests, messages, wire, group_receivers=None):
    """Digest one op's messages into ``digests``;
    ``group_receivers(exclude)`` is the deleted resolver of a group
    address, evaluated now."""
    for message in messages:
        digests.bytes.update(message.encoded)
        receivers = message.receivers
        if message.destination.kind == DEST_ALL:
            assert receivers == ()
            receivers = group_receivers(message.destination.exclude)
        digests.bytes.update(repr(tuple(receivers)).encode())
        update_content(digests.content, message, receivers)
        update_keys(digests.keys, message, receivers)
        assert wire.reach(message) == set(receivers)


def _cipher_blocks(messages, block_size):
    return sum(len(item.ciphertext) // block_size
               for out in messages for item in out.message.items)


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
    """One seeded join/leave/refresh sequence: its :class:`Run`."""
    config = ServerConfig(graph=graph, degree=3, strategy=strategy,
                          suite=suite, signing=signing, seed=b"equivalence")
    server = GroupKeyServer(config)
    members = [(f"u{i}", server.new_individual_key()) for i in range(8)]
    server.bootstrap(members)
    digests = Digests()
    counters, blocks = [], []
    wire = _Wire(user for user, _key in members)
    with _freeze_time(), digests.tracing():
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
            _hash_messages(digests, outcome.all_messages, wire, resolve)
            blocks.append(_cipher_blocks(outcome.all_messages,
                                         suite.block_size))
            record = outcome.record
            counters.append((record.encryptions, record.signatures,
                             record.n_rekey_messages, record.rekey_bytes,
                             record.max_message_bytes,
                             record.key_changes_total,
                             record.n_users_after))
    return digests.run(counters, blocks)


BATCH_WINDOWS = (
    ([("join", "n0"), ("join", "n1"), ("join", "n2")], ["u0", "u1"]),
    ([("join", "n3")], ["n0", "u4"]),
)


def run_batch_scenario(signing, suite, observe=None):
    """Two seeded flushes: their :class:`Run`.

    ``observe(server, window_keys, messages)`` sees each flush's rekey
    messages, with every key the server held before and after it.
    """
    server = GroupKeyServer(ServerConfig(degree=3, suite=suite,
                                         signing=signing,
                                         seed=b"equivalence-batch"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(9)])
    digests = Digests()
    counters = []
    wire = _Wire(f"u{i}" for i in range(9))
    # The flush's group rekey: ``tuple(self.tree.users())``.
    resolve = lambda exclude: tuple(server.tree.users())
    with _freeze_time(), digests.tracing():
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
            _hash_messages(digests, outcome.all_messages, wire, resolve)
            counters.append((len(joins), len(leaves),
                             outcome.record.encryptions, estimate))
            if observe is not None:
                keys.update(((node.node_id, node.version), node.key)
                            for node in server.tree.nodes())
                keys.update(joins)
                observe(server, keys, outcome.rekey_messages)
    return digests.run(counters)


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
    """Figure 1 graph: one leave, one join: its :class:`Run`."""
    source = drbg.make_source(b"equivalence-graph", b"materialized")
    suite = PAPER_SUITE_NO_SIG
    keygen = lambda: suite.safe_key(source)
    group, _individual = MaterializedKeyGraph.figure1(suite, keygen)
    digests = Digests()
    counters = []
    wire = _Wire(group.users())
    # ``sorted(u_nodes)`` on a leave, ``sorted(u_nodes - {user})`` on a
    # join: the joiner is the group message's ``exclude``.
    resolve = lambda exclude: tuple(sorted(group.graph.u_nodes - {exclude}))
    with _freeze_time(), digests.tracing():
        for op, user, run in (
                ("leave", "u2", lambda: group.leave("u2")),
                ("join", "u5", lambda: group.join("u5", keygen(),
                                                  ["k3", "k234"])),
                ("leave", "u4", lambda: group.leave("u4"))):
            outcome = run()
            getattr(wire, op)(user)
            _hash_messages(digests, outcome.messages, wire, resolve)
            counters.append((outcome.op, outcome.encryptions,
                             tuple(outcome.replaced)))
    return digests.run(counters)


# Captured from the pre-pipeline implementation (seed commit) with the
# scenarios above.  Do not regenerate casually: a mismatch means the
# refactor changed observable behaviour.  The byte digests (and the byte
# columns of the counts) were re-pinned twice: for the v2 wire framing,
# after the content digests below were shown to hold on both framings,
# and for v3, after the key-level digests below held on v2 and v3.
GOLDEN_SERVER = {
    ("tree", "group", "merkle"):
        "632a24ee0d85147d0f2be9c25c65b94c0e323fccf990227dcc9bc5d97dd22b70",
    ("tree", "user", "none"):
        "939bbe6c2919244532caef4811ae962d158d9189088c951ad5ff1d6b7a3cc584",
    ("tree", "key", "per-message"):
        "52661c96db1a9b30977e4eac902771bd15a10e57e07173e96cf00fd75962421c",
    ("tree", "hybrid", "none"):
        "34f3c7cfed5e0d6b8df614c43664df2f62adb60470a3dc77cf86ad6a45e05db3",
    ("star", "group", "merkle"):
        "55f3dde7582802da2248d9386163904b9dc604380818a7283c9e2fb92408f132",
}
# Framing-independent content (``tests/wire_content.py``) of the same
# scenarios, computed on the v1 wire and kept by the v2 framing; re-pinned
# for v3, which encrypts key bytes only and carries the labels in clear
# (what each ciphertext holds moved by design; the key level did not).
GOLDEN_SERVER_CONTENT = {
    ("tree", "group", "merkle"):
        "d9b97b2f56a39ad8483420785b3dc893161eed4e447d0d7e77234df289456750",
    ("tree", "user", "none"):
        "7bf56cafdf206b1da819d10f43bafbc53f34819167dd6ad3c76a861e14b78f02",
    ("tree", "key", "per-message"):
        "1718d85c1073fcfaa5598ff8249b12a52a8fbcfefa833a1a564947dde306b9cf",
    ("tree", "hybrid", "none"):
        "3d02d6c6e7c865db698b2108c6fa82c2e9d7fd83cdc8a5ffe8a013726089e641",
    ("star", "group", "merkle"):
        "9788d131b40374f5b1167312907440f279eb632b50640ffd613c3d2c92ac79c5",
}
# Key-level digests (``tests/wire_content.py``: every ``encrypt_records``
# call's key, IV, records and encrypting-key reference, and each message
# above the cipher) of the same scenarios, computed on the v2 wire before
# the v3 framing moved key labels out of the ciphertext, and required of
# every later framing: which key travels under which key to whom.
GOLDEN_SERVER_KEYS = {
    ("tree", "group", "merkle"):
        "f2ae815aec7d22ee2b005a5916565ef231e275d6fe64661f71ea58e449bd4767",
    ("tree", "user", "none"):
        "2c4a47891e2452c7a92c83e5f366dc2a59cb9822045bd0f7b22906deed62418f",
    ("tree", "key", "per-message"):
        "6052d71cc7de88f6a1d02b54dac08a25c7f563f7361c9c3fe1d3f4d5d4a59238",
    ("tree", "hybrid", "none"):
        "13dc55295e20b2cd79cb7ca868f20d945d9441d1fc3d03206f7fac9f0131f811",
    ("star", "group", "merkle"):
        "6f4132daf6cd06e5226343127bdd9dabbdea88c2642859f3c45c56b656b23886",
}
# Per-request (encryptions, signatures, n_rekey_messages, rekey_bytes,
# max_message_bytes, key_changes_total, n_users_after); spot-checked for
# the two signing extremes so counter regressions are readable.
GOLDEN_SERVER_COUNTS = {
    ("tree", "group", "merkle"): [
        (4, 1, 2, 371, 194, 10, 9), (5, 1, 1, 277, 277, 10, 8),
        (4, 1, 2, 371, 194, 10, 9), (5, 1, 1, 277, 277, 10, 8),
        (1, 1, 1, 145, 145, 8, 8), (5, 1, 1, 277, 277, 9, 7),
        (4, 1, 2, 371, 194, 9, 8)],
    ("tree", "user", "none"): [
        (5, 0, 3, 317, 111, 10, 9), (6, 0, 4, 412, 111, 10, 8),
        (5, 0, 3, 317, 111, 10, 9), (6, 0, 4, 412, 111, 10, 8),
        (1, 0, 1, 95, 95, 8, 8), (6, 0, 4, 412, 111, 9, 7),
        (5, 0, 3, 317, 111, 9, 8)],
}
# Cipher blocks of every item ciphertext per request of the golden
# tree/group/merkle scenario: one DES block per key encrypted, equal to
# its encryptions (v2: [8, 10, 8, 10, 2, 10, 8], a label block per key).
GOLDEN_SERVER_BLOCKS = {
    ("tree", "group", "merkle"): [4, 5, 4, 5, 1, 5, 4],
}
# Re-pinned once when the batch server became ``GroupKeyServer.flush``:
# the flush draws from the server's one key stream, and the merkle
# flush carries one signature over all its messages.  The structure
# below and the counts were unchanged by that move.
GOLDEN_BATCH = {
    "merkle": "30bf09f1e2dca854c46a98765d40370dbfb1f63b1ce044d4ccb30b0660a32be1",
    "none": "a3de4c35fde67413a5e08008e054912e208d4372543f554a1efa55dced9d914b",
}
GOLDEN_BATCH_KEYS = {
    "merkle": "79a04c85454f23b469709fff852088d0052bbf9345d6ee7327aed1d6aa9954a7",
    "none": "8fb450496d0ff20caa25416f8708835c23a5f2865acc6b09ac6cee594ecc41b7",
}
GOLDEN_BATCH_CONTENT = {
    "merkle": "fd65ada04d07226f92d9fff0705c1a3f126f9f51812ac2382e32d02fefe9b9a7",
    "none": "0d4a15fd9bf5d10b7357451642a8b0b584761ee842963150711e45542a8c8449",
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
    "451ee61b3d08a0567687059087c1d1e31d5c870986fc3a137575d2037ce319af")
GOLDEN_MATERIALIZED_CONTENT = (
    "eaa936c0c90faf075d6487e47f8c7c339047322367afd375bafa686d25f166f4")
GOLDEN_MATERIALIZED_KEYS = (
    "808a7cca88e84f4d12be6168cd4e17d1c195c37814bd39d7f855315b43e600b4")
GOLDEN_MATERIALIZED_COUNTS = [
    ("leave", 5, ("k12", "k234", "k1234")),
    ("join", 6, ("k3", "k234", "k1234")),
    ("leave", 3, ("k234", "k1234")),
]


def _suite_for(signing):
    return PAPER_SUITE if signing != "none" else PAPER_SUITE_NO_SIG


def test_server_paths_match_seed_bytes():
    for (graph, strategy, signing), expected in GOLDEN_SERVER.items():
        run = run_server_scenario(graph, strategy, signing,
                                  _suite_for(signing))
        key = (graph, strategy, signing)
        assert run.keys == GOLDEN_SERVER_KEYS[key], key
        assert run.content == GOLDEN_SERVER_CONTENT[key], key
        assert run.digest == expected, key
        golden_counts = GOLDEN_SERVER_COUNTS.get(key)
        if golden_counts is not None:
            assert run.counters == golden_counts, key
        golden_blocks = GOLDEN_SERVER_BLOCKS.get(key)
        if golden_blocks is not None:
            assert run.blocks == golden_blocks, key
            assert run.blocks == [encryptions for encryptions, *_rest
                                  in run.counters], key


def test_batch_path_matches_seed_bytes():
    for signing, expected in GOLDEN_BATCH.items():
        run = run_batch_scenario(signing, _suite_for(signing))
        assert run.keys == GOLDEN_BATCH_KEYS[signing], signing
        assert run.content == GOLDEN_BATCH_CONTENT[signing], signing
        assert run.digest == expected, signing
        assert run.counters == GOLDEN_BATCH_COUNTS, signing


def test_batch_flush_keeps_the_batch_servers_structure():
    for signing in GOLDEN_BATCH:
        assert batch_structure(signing, _suite_for(signing)) \
            == GOLDEN_BATCH_STRUCTURE, signing


def test_materialized_path_matches_seed_bytes():
    run = run_materialized_scenario()
    assert run.keys == GOLDEN_MATERIALIZED_KEYS
    assert run.content == GOLDEN_MATERIALIZED_CONTENT
    assert run.digest == GOLDEN_MATERIALIZED
    assert run.counters == GOLDEN_MATERIALIZED_COUNTS


def main():
    """Print freshly computed goldens (bytes, content, key level, counts)."""
    def show(label, run):
        print(f"{label}: {run.digest!r}")
        print(f"  content: {run.content!r}")
        print(f"  keys: {run.keys!r}")
        print(f"  counts: {run.counters!r}")
        if run.blocks:
            print(f"  blocks: {run.blocks!r}")

    for (graph, strategy, signing) in GOLDEN_SERVER:
        show(f"SERVER {(graph, strategy, signing)!r}", run_server_scenario(
            graph, strategy, signing, _suite_for(signing)))
    for signing in GOLDEN_BATCH:
        show(f"BATCH {signing!r}",
             run_batch_scenario(signing, _suite_for(signing)))
    show("MATERIALIZED", run_materialized_scenario())


if __name__ == "__main__":
    main()
