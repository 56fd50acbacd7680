"""Property: any truncation of a journal still restores a servable shard.

A crash can cut the journal anywhere — between records, mid-header,
mid-payload.  Wherever the cut lands (past the initial checkpoint),
``restore_from_journal`` must come back with a coherent prefix state,
and the supervisor's repair-then-reattach path must leave the file
appendable *and re-readable*: restart, serve a new join, restart again.

Corruption is the other damage class: a CRC-failing *complete* record
means bit rot or tampering, not a crash, and strict mode must refuse
loudly instead of silently truncating history.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import persistence
from repro.core.persistence import PersistenceError
from repro.core.server import GroupKeyServer, ServerConfig
from repro.keygraph.journal import _FRAME, MAGIC, JournalError, TreeJournal
from repro.serve.supervise import corrupt_journal_tail, tear_journal_tail


def _build_journal(tmp_path) -> str:
    """A journal with every record type: checkpoint, register, ops, seq."""
    path = str(tmp_path / "shard.journal")
    server = GroupKeyServer(ServerConfig(signing="none", seed=b"trunc"))
    persistence.attach_journal(server, path)
    for i in range(8):
        server.join(f"m{i}", bytes([i + 1]) * server.suite.key_size)
    server.register_individual_key("pending", b"\x99" * 8)
    for i in range(3):
        server.leave(f"m{i * 2}")
    server.refresh()
    server.resync("m1")  # a bare seq record
    server._journal.close()
    return path


def _frame_boundaries(data: bytes):
    """Byte offsets at the end of each complete record."""
    offsets = [len(MAGIC)]
    cursor = len(MAGIC)
    while cursor + _FRAME.size <= len(data):
        length, _crc = _FRAME.unpack(data[cursor:cursor + _FRAME.size])
        cursor += _FRAME.size + length
        if cursor > len(data):
            break
        offsets.append(cursor)
    return offsets


def _assert_servable(path: str) -> None:
    """The supervisor's restart recipe must work on this file.

    Restore, repair the tail, reattach, serve one more join — then a
    *second* restore must see that join (a repair that leaves the new
    appends shadowed behind a torn record would pass the first restore
    and lose data on the next crash).
    """
    server = persistence.restore_from_journal(path)
    removed = TreeJournal(path).repair()
    assert removed >= 0
    persistence.attach_journal(server, path)
    server.join("fresh-after-restart", b"\x42" * server.suite.key_size)
    server._journal.close()
    again = persistence.restore_from_journal(path)
    assert persistence.snapshot(again) == persistence.snapshot(server)
    assert again.is_member("fresh-after-restart")


def test_truncation_at_every_frame_boundary(tmp_path):
    path = _build_journal(tmp_path)
    data = open(path, "rb").read()
    boundaries = _frame_boundaries(data)
    assert len(boundaries) > 10  # the workload really is multi-record
    work = str(tmp_path / "cut.journal")
    for offset in boundaries[1:]:  # past the checkpoint record
        with open(work, "wb") as fh:
            fh.write(data[:offset])
        _assert_servable(work)


def test_truncation_before_checkpoint_refuses(tmp_path):
    path = _build_journal(tmp_path)
    data = open(path, "rb").read()
    boundaries = _frame_boundaries(data)
    work = str(tmp_path / "cut.journal")
    # Any cut inside the initial checkpoint record leaves nothing to
    # restore from — that must be a loud error, not an empty server.
    for offset in (len(MAGIC), boundaries[1] - 1):
        with open(work, "wb") as fh:
            fh.write(data[:offset])
        with pytest.raises(PersistenceError):
            persistence.restore_from_journal(work)


@settings(max_examples=60, deadline=None)
@given(cut=st.data())
def test_truncation_anywhere_restores_servable_shard(tmp_path_factory, cut):
    tmp_path = tmp_path_factory.mktemp("trunc")
    path = _build_journal(tmp_path)
    data = open(path, "rb").read()
    boundaries = _frame_boundaries(data)
    first_record_end = boundaries[1]
    offset = cut.draw(st.integers(min_value=first_record_end,
                                  max_value=len(data)))
    work = str(tmp_path / "cut.journal")
    with open(work, "wb") as fh:
        fh.write(data[:offset])
    _assert_servable(work)


def test_repair_is_exact(tmp_path):
    path = _build_journal(tmp_path)
    intact = TreeJournal(path).intact_length()
    assert intact == os.path.getsize(path)  # clean file: nothing to cut
    assert TreeJournal(path).repair() == 0
    tear_journal_tail(path, 7)
    torn_size = os.path.getsize(path)
    journal = TreeJournal(path)
    assert journal.intact_length() < torn_size
    removed = journal.repair()
    assert removed > 0
    assert os.path.getsize(path) == torn_size - removed
    # The repaired file ends exactly on a record boundary.
    assert TreeJournal(path).repair() == 0


def test_corrupt_tail_refused_in_strict_mode(tmp_path):
    path = _build_journal(tmp_path)
    reference = persistence.restore_from_journal(path, strict=True)
    corrupt_journal_tail(path)
    # Strict (the supervisor's mode): corruption is not a crash — refuse.
    with pytest.raises(JournalError):
        persistence.restore_from_journal(path, strict=True)
    with pytest.raises(JournalError):
        list(TreeJournal(path).records(strict=True))
    # Tolerant mode degrades to the intact prefix instead.
    prefix = persistence.restore_from_journal(path)
    assert prefix._seq <= reference._seq


def test_torn_tail_tolerated_in_strict_mode(tmp_path):
    path = _build_journal(tmp_path)
    tear_journal_tail(path, 3)
    # A torn tail is a crash signature, not corruption: strict replay
    # proceeds over everything before the tear.
    server = persistence.restore_from_journal(path, strict=True)
    assert server.n_users > 0
