"""Hot-standby failover: a follower of the primary's op journal.

The paper's reliability note ("the key server may be replicated for
reliability/performance enhancement") needs more than the snapshots in
:mod:`repro.core.persistence`: a snapshot taken every operation would
serialize the whole tree on the hot path, while a stale snapshot alone
loses the operations after it.

:class:`WarmStandby` is attached to the primary exactly like the
on-disk :class:`~repro.keygraph.journal.TreeJournal` and receives the
same CRC-framed records: a checkpoint at attach (and at ``bootstrap``),
then one record per committed state change — join, leave, refresh,
registered key, and the sequence counter of every signed control reply,
resync reply and subcast.  Each frame is decoded with the journal's own
reader and applied at once to a *follower* server with
:func:`~repro.core.persistence.apply_record`, the replay step
``restore_from_journal`` uses.  Promotion hands the follower over: O(1),
nothing left to replay, and byte-identical to the primary at its last
committed record — members keep decrypting with the keys they hold.
Future draws come from the checkpoint snapshot's reseed, exactly like a
restart from the journal file.

A frame the follower cannot decode or apply poisons it; the primary's
op still succeeds, and :meth:`WarmStandby.promote` raises
:class:`FailoverError`.  After promotion the standby is detached, so a
zombie op still finishing on the dead primary never reaches the
promoted server.
"""

from __future__ import annotations

import io
import threading
from typing import Optional

from ..core import persistence
from ..core.server import GroupKeyServer
from ..keygraph.journal import JournalError, JournalWriter, read_records


class FailoverError(ValueError):
    """Raised on invalid standby state or an unusable follower."""


class WarmStandby(JournalWriter):
    """Follows one shard server's journal; promotes on demand.

    Construction attaches the standby as the server's journal, which
    ships the initial checkpoint, so the standby can be promoted at any
    instant.
    """

    def __init__(self, server: GroupKeyServer):
        if server.tree is None:
            raise FailoverError("a warm standby requires a tree-based server")
        if server._journal is not None:
            raise FailoverError("server already has a journal or standby")
        # The follower's own lock: it orders appends against each other
        # and against ``promote``, and is never held while calling back
        # into the primary.
        self._lock = threading.Lock()
        self._follower: Optional[GroupKeyServer] = None
        self._error: Optional[BaseException] = None
        self._detached = False
        server.attach_journal(self)

    def write(self, frame: bytes) -> None:
        """Decode one frame and apply it to the follower.

        Never raises: the primary's op has already committed, and a
        standby must not fail it.  A bad frame poisons the follower.
        """
        with self._lock:
            if self._detached or self._error is not None:
                return
            try:
                stream = io.BytesIO(frame)
                record = next(read_records(stream, strict=True), None)
                if record is None or stream.tell() != len(frame):
                    raise JournalError("frame is torn or has trailing bytes")
                self._follower = persistence.apply_record(self._follower,
                                                          record)
            except Exception as exc:
                self._error = exc

    def _live_follower(self) -> GroupKeyServer:
        if self._detached:
            raise FailoverError("standby already promoted")
        if self._error is not None:
            raise FailoverError(
                f"standby poisoned by a bad journal frame: {self._error}"
            ) from self._error
        return self._follower

    def snapshot(self) -> bytes:
        """A persistence snapshot of the follower (verification)."""
        with self._lock:
            return persistence.snapshot(self._live_follower())

    def promote(self) -> GroupKeyServer:
        """Detach and return the follower as the successor server."""
        with self._lock:
            follower = self._live_follower()
            self._detached = True
            self._follower = None
            return follower
