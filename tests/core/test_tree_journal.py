"""On-disk tree journal: restart by replay is byte-identical.

The journal records every state-changing op with the key material its
tree edit actually drew, so ``restore_from_journal`` rebuilds the
server with pure tree edits — no DRBG draws, no rekey pipeline — and
the result must equal a snapshot of the live server bit for bit, even
when the original ran unseeded.
"""

import os

import pytest

from repro.core import persistence
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.keygraph.flat import FlatKeyTree
from repro.keygraph.journal import JournalError, TreeJournal


def churn(server, joins=6, leaves=3, refresh=True):
    """A mixed op history touching every journaled record type."""
    for i in range(joins):
        server.join(f"x{i}", server.new_individual_key())
    server.register_individual_key("pending-user",
                                   server.new_individual_key())
    for i in range(leaves):
        server.leave(f"x{i * 2}")
    if refresh:
        server.refresh()


@pytest.mark.parametrize("seed", [b"journal-seed", None])
def test_replay_round_trip(tmp_path, seed):
    path = str(tmp_path / "ops.journal")
    server = GroupKeyServer(ServerConfig(degree=3, strategy="group",
                                         seed=seed))
    persistence.attach_journal(server, path)
    server.bootstrap([(f"m{i}", bytes([i + 1]) * 8) for i in range(9)])
    churn(server)

    replayed = persistence.restore_from_journal(path)
    assert persistence.snapshot(replayed) == persistence.snapshot(server)
    assert replayed.group_key() == server.group_key()
    assert replayed.group_key_ref() == server.group_key_ref()
    assert sorted(replayed.members()) == sorted(server.members())
    assert replayed._seq == server._seq
    assert replayed._registered_keys == server._registered_keys


def test_replayed_server_diverges_in_future_keys(tmp_path):
    """Replay restores the *current* state byte-identically but mixes a
    reseed into the standby's DRBG, so future key material diverges —
    running primary and standby in parallel must never reuse keys."""
    path = str(tmp_path / "ops.journal")
    server = GroupKeyServer(ServerConfig(degree=3, seed=b"continue"))
    persistence.attach_journal(server, path)
    server.bootstrap([(f"m{i}", bytes([i + 1]) * 8) for i in range(7)])
    churn(server, refresh=False)

    replayed = persistence.restore_from_journal(path)
    assert replayed.group_key() == server.group_key()
    server.refresh()
    replayed.refresh()
    assert replayed.group_key() != server.group_key()


def test_mid_journal_checkpoint_truncates_replay(tmp_path):
    """Snapshotting mid-stream writes a new checkpoint; replay resumes
    from the *last* one and only re-applies ops recorded after it."""
    path = str(tmp_path / "ops.journal")
    server = GroupKeyServer(ServerConfig(seed=b"ckpt"))
    journal = persistence.attach_journal(server, path)
    server.bootstrap([("a", b"\x01" * 8), ("b", b"\x02" * 8)])
    server.join("c", server.new_individual_key())
    journal.checkpoint(persistence.snapshot(server))
    server.join("d", server.new_individual_key())

    blob, ops = TreeJournal(path).load()
    assert blob is not None
    tree_ops = [record for record in ops if record["op"] != "seq"]
    assert [record["op"] for record in tree_ops] == ["join"]
    assert tree_ops[0]["user_id"] == "d"
    replayed = persistence.restore_from_journal(path)
    assert persistence.snapshot(replayed) == persistence.snapshot(server)


def test_torn_tail_is_dropped(tmp_path):
    """A crash mid-append leaves a torn record; replay keeps everything
    before it and drops only the tail."""
    path = str(tmp_path / "ops.journal")
    server = GroupKeyServer(ServerConfig(seed=b"torn"))
    persistence.attach_journal(server, path)
    server.bootstrap([("a", b"\x01" * 8), ("b", b"\x02" * 8)])
    server.join("c", server.new_individual_key())
    intact = len(list(TreeJournal(path).records()))

    with open(path, "ab") as fh:     # simulate a torn final append
        fh.write(b"\xff\xff\xff\x7f\x00\x00\x00\x00partial")
    assert len(list(TreeJournal(path).records())) == intact
    replayed = persistence.restore_from_journal(path)
    assert persistence.snapshot(replayed) == persistence.snapshot(server)


def test_not_a_journal_raises(tmp_path):
    path = str(tmp_path / "bogus.journal")
    with open(path, "wb") as fh:
        fh.write(b"definitely not a journal file")
    with pytest.raises(JournalError, match="not a key-graph journal"):
        list(TreeJournal(path).records())


def test_restore_without_checkpoint_raises(tmp_path):
    path = str(tmp_path / "empty.journal")
    journal = TreeJournal(path)
    journal.append("join", user_id="u", individual_key=b"\x01" * 8,
                   keys=[b"\x02" * 8], seq=0)
    journal.close()
    with pytest.raises(persistence.PersistenceError,
                       match="no checkpoint"):
        persistence.restore_from_journal(path)


def test_append_hex_encodes_bytes(tmp_path):
    path = str(tmp_path / "enc.journal")
    journal = TreeJournal(path)
    journal.append("join", user_id="u", individual_key=b"\x0a\x0b",
                   keys=[b"\x01", b"\x02"], seq=7)
    journal.close()
    [record] = list(TreeJournal(path).records())
    assert record == {"op": "join", "user_id": "u",
                      "individual_key": "0a0b", "keys": ["01", "02"],
                      "seq": 7}


def test_apply_record_low_level():
    """Hand-built op records apply as pure tree edits, seq included."""
    recorded = []

    class Recorder:
        def __call__(self):
            key = bytes([len(recorded) + 1]) * 8
            recorded.append(key)
            return key

    members = [("a", b"\xaa" * 8), ("b", b"\xbb" * 8)]
    tree = FlatKeyTree.build(members, 3, Recorder())
    build_draws = len(recorded)
    ops = []
    tree.join("c", b"\xcc" * 8)
    ops.append({"op": "join", "user_id": "c",
                "individual_key": (b"\xcc" * 8).hex(),
                "keys": [k.hex() for k in recorded[build_draws:]],
                "seq": 1})
    op_draws = len(recorded)
    tree.leave("a")
    ops.append({"op": "leave", "user_id": "a",
                "keys": [k.hex() for k in recorded[op_draws:]], "seq": 2})

    # Twin: rebuild with the same build-time draws, then apply the op
    # records — no keygen is consulted during replay.
    twin = GroupKeyServer(ServerConfig(degree=3, signing="none"))
    twin.tree = FlatKeyTree.build(members, 3,
                                  _replay_list(recorded[:build_draws]))
    for record in ops:
        assert persistence.apply_record(twin, record) is twin
    assert twin._seq == 2
    assert [(n.node_id, n.version, n.user_id, n.key)
            for n in tree.nodes()] == \
           [(n.node_id, n.version, n.user_id, n.key)
            for n in twin.tree.nodes()]
    with pytest.raises(persistence.PersistenceError, match="fewer keys"):
        persistence.apply_record(twin, {"op": "leave", "user_id": "b",
                                        "keys": ["00" * 8] * 9, "seq": 3})


def test_denied_duplicate_join_keeps_registration(tmp_path):
    """A member's repeated join is refused before it consumes a freshly
    registered key, so the journal (which records the registration but
    not the refusal) still replays to the live state."""
    path = str(tmp_path / "ops.journal")
    server = GroupKeyServer(ServerConfig(seed=b"dup"))
    with persistence.attach_journal(server, path):
        server.bootstrap([("a", b"\x01" * 8), ("b", b"\x02" * 8)])
        server.register_individual_key("a", server.new_individual_key())
        with pytest.raises(ServerError, match="already a member"):
            server.join("a")
    assert "a" in server._registered_keys
    replayed = persistence.restore_from_journal(path)
    assert persistence.snapshot(replayed) == persistence.snapshot(server)


def _replay_list(keys):
    iterator = iter(list(keys))
    return lambda: next(iterator)


def test_journal_file_grows_append_only(tmp_path):
    path = str(tmp_path / "grow.journal")
    server = GroupKeyServer(ServerConfig(seed=b"grow"))
    persistence.attach_journal(server, path)
    server.bootstrap([("a", b"\x01" * 8)])
    sizes = [os.path.getsize(path)]
    for i in range(4):
        server.join(f"g{i}", server.new_individual_key())
        sizes.append(os.path.getsize(path))
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
