"""A flush is one durable op: one journal record, replayed exactly.

``GroupKeyServer.flush`` writes one ``"flush"`` record carrying the
window and the keys its tree edit drew; ``persistence.apply_record``
replays it, so a restart from the journal and a warm standby both land
on the live server's bytes.
"""

import os

from repro.cluster.failover import WarmStandby
from repro.core import persistence
from repro.core.server import GroupKeyServer, ServerConfig
from repro.keygraph.journal import TreeJournal

def _server(signing="none"):
    return GroupKeyServer(ServerConfig(degree=3, signing=signing,
                                       seed=b"flush-journal"))


def _key(server, index):
    return bytes([index + 1]) * server.suite.key_size


def _mixed_ops(server):
    """Flushes of every shape, with per-request ops in between."""
    server.bootstrap([(f"u{i}", _key(server, i)) for i in range(10)])
    server.flush([("n0", _key(server, 20)), ("n1", _key(server, 21))],
                 ["u0", "u3"])
    server.join("solo", _key(server, 30))
    server.register_individual_key("n2", _key(server, 22))
    server.flush([("n2", None), ("ghost", _key(server, 23))],
                 ["ghost", "u5"])           # ghost joins and leaves
    server.flush([("u6", _key(server, 24))], ["u6", "n0"])  # u6 rejoins
    server.refresh()
    server.evict(["u1", "u2", "solo"])
    server.leave("u4")
    server.flush([("n3", _key(server, 25))])


def test_restart_and_standby_match_the_live_server(tmp_path):
    path = str(tmp_path / "flush.journal")
    live = _server()
    persistence.attach_journal(live, path)
    _mixed_ops(live)
    live._journal.close()
    ops = [record["op"] for record in TreeJournal(path).records()]
    assert ops.count("flush") == 5      # the eviction is one flush too
    restored = persistence.restore_from_journal(path, strict=True)
    assert persistence.snapshot(restored) == persistence.snapshot(live)

    followed = _server()
    standby = WarmStandby(followed)
    _mixed_ops(followed)
    assert standby.snapshot() == persistence.snapshot(followed)
    assert standby.snapshot() == persistence.snapshot(live)


def test_torn_flush_record_loses_the_whole_flush_only(tmp_path):
    path = str(tmp_path / "torn.journal")
    live = _server()
    persistence.attach_journal(live, path)
    _mixed_ops(live)
    before = persistence.snapshot(live)
    intact = os.path.getsize(path)
    live.flush([("late", _key(live, 40)), ("later", _key(live, 41))],
               ["n1", "n2"])
    live._journal.close()
    record_end = os.path.getsize(path)
    assert record_end > intact
    for cut in (intact + 3, (intact + record_end) // 2, record_end - 1):
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        restored = persistence.restore_from_journal(path)
        assert persistence.snapshot(restored) == before
        assert not restored.is_member("late")
        assert restored.is_member("n1")


def test_join_and_leave_of_a_non_member_cancel(tmp_path):
    path = str(tmp_path / "cancel.journal")
    server = _server()
    server.bootstrap([(f"u{i}", _key(server, i)) for i in range(6)])
    persistence.attach_journal(server, path)
    ref = server.group_key_ref()
    outcome = server.flush([("ghost", _key(server, 9))], ["ghost"])
    assert outcome.rekey_messages == []
    assert outcome.record.encryptions == 0
    assert server.group_key_ref() == ref
    assert not server.is_member("ghost")
    server._journal.close()
    restored = persistence.restore_from_journal(path, strict=True)
    assert persistence.snapshot(restored) == persistence.snapshot(server)


def test_merkle_flush_costs_one_signature():
    server = _server(signing="merkle")
    server.bootstrap([(f"u{i}", _key(server, i)) for i in range(12)])
    before = server._signer.signatures_performed
    outcome = server.flush([(f"n{i}", _key(server, 20 + i))
                            for i in range(4)], ["u0", "u5", "u9"])
    assert len(outcome.rekey_messages) == 5     # group rekey + 4 paths
    assert server._signer.signatures_performed - before == 1
    assert outcome.record.signatures == 1
