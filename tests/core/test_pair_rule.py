"""The pair rule that makes a key item's derived IV safe.

A key item's IV is derived from its first label (DESIGN §18), so two
items under one encrypting key with one first label share an IV.  That
is safe exactly when such items also share their first key value: then
the repeated first block says only what the clear labels already say.
These tests record every ``encrypt_records`` call of one deployment
across the paths that allocate labels or re-send keys — churn with slot
reuse, a batch flush, repeated resyncs, journal replay after a restart,
standby promotion, a 3-shard cluster and its root layer, subcasts — and
require:

* no (encrypting key, first label) pair ever carries two key values;
* no label (node id, version) ever names two key values.
"""

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.cluster.failover import WarmStandby
from repro.core import persistence
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.crypto.drbg import HmacDrbg
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.keygraph.flat import FlatKeyTree
from repro.subcast import SubcastError

from ..wire_content import recording_encryptions


class PairLedger:
    """Every encryption of one deployment, by pair and by label."""

    def __init__(self):
        self.pairs = {}
        self.labels = {}
        self.calls = 0
        self.repeats = 0
        self.violations = []

    def record(self, key, records, enc_node_id, enc_version):
        self.calls += 1
        first = records[0]
        pair = (key, first.node_id, first.version)
        if pair in self.pairs:
            self.repeats += 1
        if self.pairs.setdefault(pair, first.key) != first.key:
            self.violations.append(("pair", pair[1:], enc_node_id))
        for record in records:
            label = (record.node_id, record.version)
            if self.labels.setdefault(label, record.key) != record.key:
                self.violations.append(("label", label, enc_node_id))

    def recording(self):
        return recording_encryptions(self.record)

    def check(self, min_calls):
        assert self.violations == []
        assert self.calls >= min_calls


def _server(seed, members=10):
    server = GroupKeyServer(ServerConfig(
        degree=3, suite=PAPER_SUITE_NO_SIG, signing="none", seed=seed))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(members)])
    return server


def _churn(server, prefix, rounds=4):
    """Leaves that free slots, then joins that reuse them."""
    for index in range(rounds):
        members = sorted(server.tree.users())
        server.leave(members[index % len(members)])
        server.join(f"{prefix}{index}", server.new_individual_key())


def test_churn_flush_and_repeated_resyncs():
    server = _server(b"pair-rule")
    ledger = PairLedger()
    with ledger.recording():
        _churn(server, "n", rounds=6)
        first = server.resync("u9")
        again = server.resync("u9")
        server.flush([(f"b{i}", server.new_individual_key())
                      for i in range(3)], ["u7", "u8"])
        server.refresh()
        after = server.resync("u9")
        server.subcast(["u9", "b0", "n5"], b"hello")
        server.subcast(["u9", "b0"], b"again")
    ledger.check(min_calls=40)
    # A resync under unchanged keys repeats its item (and so its pair):
    # the rule is not vacuous, and the repeat is byte-identical.
    assert ledger.repeats >= 1
    assert first.message.items == again.message.items
    assert after.message.items != first.message.items


def test_journal_replay_after_a_restart(tmp_path):
    path = str(tmp_path / "journal")
    server = _server(b"pair-rule-journal")
    persistence.attach_journal(server, path)
    ledger = PairLedger()
    with ledger.recording():
        _churn(server, "n")
        server.resync("u9")
        server.flush([("f0", server.new_individual_key())], ["u8"])
        # Crash: the restarted server replays the journal, reseeded.
        restarted = persistence.restore_from_journal(path, seed=b"other")
        assert restarted.tree.group_key_node().key == server.group_key()
        _churn(restarted, "r")
        restarted.resync("u9")
        restarted.subcast(["u9", "r0"], b"after restart")
    ledger.check(min_calls=30)


def test_standby_promotion():
    server = _server(b"pair-rule-standby")
    standby = WarmStandby(server)
    ledger = PairLedger()
    with ledger.recording():
        _churn(server, "n")
        server.resync("u9")
        promoted = standby.promote()
        _churn(promoted, "p")
        promoted.resync("u9")
        promoted.flush([("f0", promoted.new_individual_key())],
                       [sorted(promoted.tree.users())[-1]])
    ledger.check(min_calls=30)


def test_three_shard_cluster_and_its_root_layer():
    cluster = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=3, suite=PAPER_SUITE_NO_SIG, signing="none",
        seed=b"pair-rule-cluster"))
    cluster.enable_standbys()
    cluster.bootstrap([(f"m{i}", cluster.new_individual_key())
                       for i in range(18)])
    ledger = PairLedger()
    with ledger.recording():
        for index in range(6):
            cluster.leave(f"m{index}")
            cluster.join(f"c{index}", cluster.new_individual_key())
        cluster.resync("m9")
        cluster.resync("m9")
        cluster.subcast([f"m{i}" for i in range(6, 18)], b"many")
        shard = cluster.shard_of("c0").shard_id
        cluster.fail_shard(shard)
        cluster.promote_standby(shard)
        for index in range(6, 10):
            cluster.leave(f"m{index}")
            cluster.join(f"d{index}", cluster.new_individual_key())
        cluster.resync("c0")
        cluster.subcast(["c0", "d6", "m12"], b"few")
    ledger.check(min_calls=60)
    assert ledger.repeats >= 1
    # Shard and root-layer labels live in disjoint node-id windows.
    root_ids = {node.node_id for node in cluster.root_layer.tree.nodes()}
    shard_ids = [{node.node_id for node in shard.server.tree.nodes()}
                 for shard in cluster.shards]
    for index, ids in enumerate(shard_ids):
        assert not ids & root_ids
        for other in shard_ids[index + 1:]:
            assert not ids & other


def test_a_reused_slot_gets_a_fresh_node_id():
    """``_alloc_raw`` resets a reused slot's version; its node id comes
    from the monotone ``_next_id``, so a label never comes back."""
    source = HmacDrbg(b"slots")
    keygen = lambda: source.generate(8)
    tree = FlatKeyTree.build([(f"u{i}", keygen()) for i in range(9)], 3,
                             keygen)
    issued = {(node.node_id, node.version): node.key
              for node in tree.nodes()}
    ids = {node_id for node_id, _version in issued}
    reused = 0
    for index in range(12):
        tree.leave(sorted(tree.users())[index % 3])
        free, next_id = len(tree._free), tree._next_id
        tree.join(f"j{index}", keygen())
        reused += free > len(tree._free)
        for node in tree.nodes():
            if node.node_id not in ids:
                assert node.node_id >= next_id and node.version == 0
                ids.add(node.node_id)
            label = (node.node_id, node.version)
            assert issued.setdefault(label, node.key) == node.key, label
        assert tree._next_id > max(ids)
    assert reused >= 6


def test_the_sealer_refuses_a_subcast_id_the_label_cannot_carry(
        monkeypatch):
    """A subcast label is (``SUBCAST_MESSAGE_KEY``, sequence number);
    past the version field's range it would repeat, so the sealer
    refuses before drawing anything, and rekeys go on."""
    server = _server(b"pair-rule-seal", members=4)
    server._seq = 0xFFFFFFFE
    last = server.subcast(["u1", "u2"], b"last")
    assert last.message.seq == last.message.items[0].enc_version \
        == 0xFFFFFFFF
    draws = []
    real = HmacDrbg.generate
    monkeypatch.setattr(HmacDrbg, "generate",
                        lambda self, n: draws.append(n) or real(self, n))
    with pytest.raises(ServerError):
        server.subcast(["u1", "u2"], b"one too many")
    with pytest.raises(SubcastError):
        server.subcast_sealer.seal([(1, 0, bytes(8))], b"x",
                                   receivers=["u1"], root_ref=(1, 0))
    assert draws == [] and server._seq == 0xFFFFFFFF
    monkeypatch.undo()
    outcome = server.leave("u3")
    assert outcome.rekey_messages[0].message.seq == 0x100000000
