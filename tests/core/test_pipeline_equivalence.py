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
from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

from repro.batch import individual_cost_estimate
from repro.core.messages import DEST_ALL, INDIVIDUAL_KEY, decrypt_records
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto import drbg
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from repro.keygraph.materialized import MaterializedKeyGraph
from repro.transport.inmemory import InMemoryNetwork

from ..wire_content import (encryption_recorder, recording_encryptions,
                            update_content, update_keys)

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
    """One scenario's four digests: the wire bytes, the framing-
    independent content (``tests/wire_content.py``), the key level
    (every ``encrypt_records`` call plus each message above the
    cipher) and the key stream (every ``encrypt_records`` call but its
    IV)."""

    def __init__(self):
        self.bytes = hashlib.sha256()
        self.content = hashlib.sha256()
        self.keys = hashlib.sha256()
        self.stream = hashlib.sha256()

    def tracing(self):
        """Feed every encryption into the key-level and key-stream
        digests."""
        level = encryption_recorder(self.keys)
        stream = encryption_recorder(self.stream)

        def record(*call):
            level(*call)
            stream(*call)
        return recording_encryptions(record)

    def run(self, counters, blocks=(), draws=(), items=()):
        """The scenario's :class:`Run`."""
        return Run(self.bytes.hexdigest(), self.content.hexdigest(),
                   self.keys.hexdigest(), self.stream.hexdigest(),
                   counters, list(blocks), list(draws), list(items))


class Run(NamedTuple):
    digest: str
    content: str
    keys: str
    stream: str
    counters: list
    #: Per request, the cipher blocks of every item ciphertext it sent.
    blocks: list
    #: Per request, the DRBG draws (``HmacDrbg.generate`` calls) it made.
    draws: list
    #: Per request, the distinct items of the messages it sent.
    items: list


@contextmanager
def _counting_draws():
    """Count ``HmacDrbg.generate`` calls, every generator's, into the
    yielded one-element list."""
    count = [0]
    real = drbg.HmacDrbg.generate

    def generate(self, n_bytes):
        count[0] += 1
        return real(self, n_bytes)

    with mock.patch.object(drbg.HmacDrbg, "generate", generate):
        yield count


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
    counters, blocks, draws, items = [], [], [], []
    wire = _Wire(user for user, _key in members)
    with _freeze_time(), digests.tracing(), _counting_draws() as drawn:
        for op, user in SERVER_SCRIPT:
            drawn[0] = 0
            if op == "join":
                outcome = server.join(user, server.new_individual_key())
                wire.join(user)
            elif op == "leave":
                outcome = server.leave(user)
                wire.leave(user)
            else:
                outcome = server.refresh()
            draws.append(drawn[0])
            # Distinct items: key-oriented messages share some.
            items.append(len({id(item) for out in outcome.all_messages
                              for item in out.message.items}))
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
    return digests.run(counters, blocks, draws, items)


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
# columns of the counts) were re-pinned three times: for the v2 wire
# framing, after the content digests below were shown to hold on both
# framings; for v3, after the key-level digests below held on v2 and v3;
# and for v4, after the key-stream digests below held on v3 and v4.
GOLDEN_SERVER = {
    ("tree", "group", "merkle"):
        "ef47232f1e040decaaf17373361a4b5dffe9636fce80454d67bfc49dac056448",
    ("tree", "user", "none"):
        "57c4596751313c06b9a5b4e2d8e87a30755518662e4b7ac22ff100756a2c163e",
    ("tree", "key", "per-message"):
        "f39685b1aa9950b65f119b244e3b480e493d660491e5846896e83d6af2a187c8",
    ("tree", "hybrid", "none"):
        "30b235fc3c6b19b2d4ce55ee21822dcd965bbc887686332ce3fa1ae54a2d221a",
    ("star", "group", "merkle"):
        "9551cf448b18568de308d066bcab514ebc682ff22cc7142c775100fe93836bf2",
}
# Framing-independent content (``tests/wire_content.py``) of the same
# scenarios, computed on the v1 wire and kept by the v2 framing; re-pinned
# for v3, which encrypts key bytes only and carries the labels in clear
# (what each ciphertext holds moved by design; the key level did not),
# and for v4, whose key items draw no IV (every later key moved).
GOLDEN_SERVER_CONTENT = {
    ("tree", "group", "merkle"):
        "ac8d29df81d220c2244c2585381290d917992d9bb26d66a57a32a900473d8afa",
    ("tree", "user", "none"):
        "23c9be3ef5f1d5604eb995de66c285f7ed9722420ec40d1c18645d2c6c0d561a",
    ("tree", "key", "per-message"):
        "c8c52ba92ac4c9f843b86ce867ac180fb0c716994ba63fb68128ea512ca607f8",
    ("tree", "hybrid", "none"):
        "63bf86af490bb8d3cc922fc1b5d52b5f83314af49994d1d566a8f819da4817b5",
    ("star", "group", "merkle"):
        "b31d9c42b8ff5b206620fbf5c207b1e39f6d64cd6c6c376b62595d10eef96c55",
}
# Key-level digests (``tests/wire_content.py``: every ``encrypt_records``
# call's key, records and encrypting-key reference, and each message
# above the cipher) of the same scenarios: which key travels under which
# key to whom.  Computed on the v2 wire and kept by v3; re-pinned for v4,
# whose key items neither draw nor send an IV.
GOLDEN_SERVER_KEYS = {
    ("tree", "group", "merkle"):
        "8c143846fabee94931c8c40d8e99d5da66437e2e23d59c81df2d9ef5f1e282ec",
    ("tree", "user", "none"):
        "cbb8c5bc89ee5e3164489a155b3a8f1d9eaaaf2d326d4a2a092c2ba11468019b",
    ("tree", "key", "per-message"):
        "33a67041142479105724ea93508575f45ceb33ca07e70f40de1e2b7ec5722829",
    ("tree", "hybrid", "none"):
        "9e092c9ef531cb733165305fd2bea4f98f76730b1f36e35dc5fb58b6fbaeb6fc",
    ("star", "group", "merkle"):
        "b28414218da162151045052640381efaef27a4f1d10483ac7e362abb38a1b913",
}
# Per-request (encryptions, signatures, n_rekey_messages, rekey_bytes,
# max_message_bytes, key_changes_total, n_users_after); spot-checked for
# the two signing extremes so counter regressions are readable.
GOLDEN_SERVER_COUNTS = {
    ("tree", "group", "merkle"): [
        (4, 1, 2, 347, 178, 10, 9), (5, 1, 1, 237, 237, 10, 8),
        (4, 1, 2, 347, 178, 10, 9), (5, 1, 1, 237, 237, 10, 8),
        (1, 1, 1, 137, 137, 8, 8), (5, 1, 1, 237, 237, 9, 7),
        (4, 1, 2, 347, 178, 9, 8)],
    ("tree", "user", "none"): [
        (5, 0, 3, 293, 103, 10, 9), (6, 0, 4, 380, 103, 10, 8),
        (5, 0, 3, 293, 103, 10, 9), (6, 0, 4, 380, 103, 10, 8),
        (1, 0, 1, 87, 87, 8, 8), (6, 0, 4, 380, 103, 9, 7),
        (5, 0, 3, 293, 103, 9, 8)],
}
# Cipher blocks of every item ciphertext per request of the golden
# tree/group/merkle scenario: one DES block per key encrypted, equal to
# its encryptions (v2: [8, 10, 8, 10, 2, 10, 8], a label block per key).
GOLDEN_SERVER_BLOCKS = {
    ("tree", "group", "merkle"): [4, 5, 4, 5, 1, 5, 4],
}
# DRBG draws (every generator's ``generate`` calls) per request of every
# server scenario, the joiner's individual key included.  On v3 each key
# item drew its IV besides the keys; v4 draws the keys alone, so each
# request draws exactly its distinct items fewer
# (``GOLDEN_SERVER_DRAWS_V3``).
GOLDEN_SERVER_DRAWS = {
    ("tree", "group", "merkle"): [3, 2, 3, 2, 1, 2, 3],
    ("tree", "user", "none"): [3, 2, 3, 2, 1, 2, 3],
    ("tree", "key", "per-message"): [3, 2, 3, 2, 1, 2, 3],
    ("tree", "hybrid", "none"): [3, 2, 3, 2, 1, 2, 3],
    ("star", "group", "merkle"): [2, 1, 2, 1, 1, 1, 2],
}
GOLDEN_SERVER_DRAWS_V3 = {
    ("tree", "group", "merkle"): [6, 7, 6, 7, 2, 7, 6],
    ("tree", "user", "none"): [6, 6, 6, 6, 2, 6, 6],
    ("tree", "key", "per-message"): [6, 7, 6, 7, 2, 7, 6],
    ("tree", "hybrid", "none"): [6, 7, 6, 7, 2, 7, 6],
    ("star", "group", "merkle"): [4, 9, 4, 9, 2, 8, 4],
}
# Re-pinned once when the batch server became ``GroupKeyServer.flush``:
# the flush draws from the server's one key stream, and the merkle
# flush carries one signature over all its messages.  The structure
# below and the counts were unchanged by that move.
GOLDEN_BATCH = {
    "merkle": "5078cc2922ba64f5bf45442f5156282519a3295aaed0d49a49b17795dd04d38d",
    "none": "97cba5b7638ed2d8c0fac2669df2bd1f4071f8560afd31ecbd008c393b02d606",
}
GOLDEN_BATCH_KEYS = {
    "merkle": "97c44c44b329774a0d385e378bf7135785922ce0890f4604aaf374b7a6978012",
    "none": "b68c0f67ef8c4decf61e725faf2c1e098eac75f5dbb20869d5ce7d8578c26636",
}
GOLDEN_BATCH_CONTENT = {
    "merkle": "386eaf4a2e1e347c78ccc2a8a76130187a1e2742a168ee3e9d84278613a2b0ef",
    "none": "f8e8770c84ac28997212541c5fe298dc6d14a946d5317a44eb02b7fa32a3e37a",
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
    "64bde19d5ff462ea0ad9e9a9c5e08c9c5581e13183b4e77f88d3ee0170a5f535")
GOLDEN_MATERIALIZED_CONTENT = (
    "d1f6d48a53256b118324e769fe8c1c3e8e35a521890d2ff373ce0b4250aa2ebd")
GOLDEN_MATERIALIZED_KEYS = (
    "26e711e0cd9df37b1ba18ba2e801c85a4b9c9b9b96dd48900bf7146843257d8f")
# Key-stream digests (``tests/wire_content.py``: every
# ``encrypt_records`` call's key, records and encrypting-key reference)
# of the same scenarios.  Computed on the v3 wire, whose key items drew
# their IVs between the keys, with those draws diverted to a second
# DRBG so that the server's stream held only keys; v4 draws no key-item
# IV and reproduces them unpatched.
GOLDEN_SERVER_KEY_STREAM = {
    ("tree", "group", "merkle"):
        "8bf48f8dcb3b710063ee534fbaec76e63c7c014887f3268ee8a381a2eecc8579",
    ("tree", "user", "none"):
        "cd224ce22096c44b9a1ae7283591db73cd763b439775817f47b835186de8a136",
    ("tree", "key", "per-message"):
        "bdc8f9dae9cff6764a8caaf7c753e26660450d9c0ebe0586a3d5c4ca770ffb88",
    ("tree", "hybrid", "none"):
        "8bf48f8dcb3b710063ee534fbaec76e63c7c014887f3268ee8a381a2eecc8579",
    ("star", "group", "merkle"):
        "157575dfcf0e5bc74bd07ce915426fc4bb60a726cdd51091f432adb0064d9fe7",
}
GOLDEN_BATCH_KEY_STREAM = {
    "merkle": "770eb5d320514a8c59fe97b71a7361db979c64a6dfe86da62d44485fa0588fd4",
    "none": "770eb5d320514a8c59fe97b71a7361db979c64a6dfe86da62d44485fa0588fd4",
}
GOLDEN_MATERIALIZED_KEY_STREAM = (
    "e31084346b38482ea2233eea1a9dc1f3347b8da70992494b03ca29646b8eb820")
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
        assert run.draws == GOLDEN_SERVER_DRAWS[key], key
        assert [draws + items for draws, items in zip(run.draws, run.items)] \
            == GOLDEN_SERVER_DRAWS_V3[key], key
        golden_blocks = GOLDEN_SERVER_BLOCKS.get(key)
        if golden_blocks is not None:
            assert run.blocks == golden_blocks, key
            assert run.blocks == [encryptions for encryptions, *_rest
                                  in run.counters], key


def test_key_stream_without_key_item_iv_draws():
    for (graph, strategy, signing), expected in \
            GOLDEN_SERVER_KEY_STREAM.items():
        assert run_server_scenario(graph, strategy, signing,
                                   _suite_for(signing)).stream \
            == expected, (graph, strategy, signing)
    for signing, expected in GOLDEN_BATCH_KEY_STREAM.items():
        assert run_batch_scenario(signing, _suite_for(signing)).stream \
            == expected, signing
    assert run_materialized_scenario().stream \
        == GOLDEN_MATERIALIZED_KEY_STREAM


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
            print(f"  draws: {run.draws!r}")
            print(f"  items: {run.items!r}")

    for (graph, strategy, signing) in GOLDEN_SERVER:
        show(f"SERVER {(graph, strategy, signing)!r}", run_server_scenario(
            graph, strategy, signing, _suite_for(signing)))
    for signing in GOLDEN_BATCH:
        show(f"BATCH {signing!r}",
             run_batch_scenario(signing, _suite_for(signing)))
    show("MATERIALIZED", run_materialized_scenario())


if __name__ == "__main__":
    main()
