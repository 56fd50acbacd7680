"""Append-only on-disk tree journal: restart by replay, not rebuild.

At n = 1M, reconstructing a server by re-running its whole request
history through the full rekey pipeline (planning, encryption, signing)
takes minutes; rebuilding via ``bootstrap`` produces a *different* tree
(fresh keys).  The journal makes restart cheap and exact:

* the file opens with a **checkpoint record** — an opaque snapshot blob
  (produced by :func:`repro.core.persistence.snapshot`) of the server at
  attach time;
* every subsequent state-changing op appends one **op record** carrying
  the op name, its arguments, the key material the tree edit drew from
  the DRBG, and the server's sequence counter after the op.

Replay restores the last checkpoint, then re-applies each op as a pure
tree edit — the recorded keys are installed verbatim (no DRBG, no
pipeline), so the reconstructed server is byte-identical to the one
that wrote the journal regardless of whether the original ran seeded.

Record framing (binary, little-endian):

    +--------+--------+----------------+
    | length | crc32  | payload (JSON) |
    | u32 LE | u32 LE | ``length`` B   |
    +--------+--------+----------------+

preceded by an 8-byte file magic ``b"KGJRNL1\\n"``.  A torn final
record (crash mid-append) is detected by the CRC/length check and
dropped; everything before it replays normally.

Encoding (:class:`JournalWriter`) is separate from where the frames go:
:class:`TreeJournal` appends them to a file, and the warm standby
(:mod:`repro.cluster.failover`) applies them to a follower server as
they are committed.  Both decode with :func:`read_records`.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

MAGIC = b"KGJRNL1\n"
_FRAME = struct.Struct("<II")

# Record types.
CHECKPOINT = "checkpoint"


class JournalError(ValueError):
    """Raised on malformed journal files."""


def encode_record(doc: dict) -> bytes:
    """One frame: payload length, payload CRC32, compact JSON payload."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_records(fh, strict: bool = False,
                 name: str = "journal") -> Iterator[dict]:
    """Yield every intact record framed in the binary stream ``fh``.

    A *torn* tail — the stream ends mid-record, the signature of a
    crash between ``write`` and the final flush — is always tolerated:
    everything before it is yielded.  A *corrupt* record — all its
    bytes are present but the CRC disagrees, the signature of bit rot
    or tampering rather than a crash — silently ends the stream by
    default, or raises :class:`JournalError` with ``strict=True``.
    This is the only frame decoder: the file reader and the warm
    standby's follower both go through it.
    """
    while True:
        header = fh.read(_FRAME.size)
        if len(header) < _FRAME.size:
            return  # clean EOF or torn header: stop
        length, crc = _FRAME.unpack(header)
        payload = fh.read(length)
        if len(payload) < length:
            return  # torn record (crash mid-append): drop
        if zlib.crc32(payload) != crc:
            if strict:
                raise JournalError(
                    f"{name}: CRC mismatch on a complete record "
                    f"({length} bytes): corrupt, not torn")
            return
        try:
            yield json.loads(payload.decode("utf-8"))
        except ValueError as exc:
            raise JournalError(f"{name}: corrupt record: {exc}") from None


class JournalWriter:
    """Encodes journal records into frames; subclasses ship the frames.

    The server talks to its journal through :meth:`checkpoint` and
    :meth:`append` only, so the on-disk :class:`TreeJournal` and the
    in-memory warm standby (:class:`repro.cluster.failover.WarmStandby`)
    receive byte-identical frames.
    """

    def write(self, frame: bytes) -> None:
        """Ship one encoded frame (file append, follower apply, ...)."""
        raise NotImplementedError

    def checkpoint(self, blob: bytes) -> None:
        """Append a checkpoint record; replay resumes from the last one."""
        self.write(encode_record({"op": CHECKPOINT, "blob": blob.hex()}))

    def append(self, op: str, **fields) -> None:
        """Append one op record.

        ``bytes`` values (individual keys, drawn key material) are
        hex-encoded; lists of bytes likewise.
        """
        doc = {"op": op}
        for name, value in fields.items():
            if isinstance(value, (bytes, bytearray, memoryview)):
                doc[name] = bytes(value).hex()
            elif isinstance(value, (list, tuple)) and all(
                    isinstance(v, (bytes, bytearray, memoryview))
                    for v in value):
                doc[name] = [bytes(v).hex() for v in value]
            else:
                doc[name] = value
        self.write(encode_record(doc))


class TreeJournal(JournalWriter):
    """File writer/reader for the append-only op journal."""

    def __init__(self, path: str):
        self.path = path
        self._fh = None

    # -- writing -----------------------------------------------------------

    def _ensure_open(self):
        if self._fh is None:
            fresh = not os.path.exists(self.path) \
                or os.path.getsize(self.path) == 0
            self._fh = open(self.path, "ab")
            if fresh:
                self._fh.write(MAGIC)
                self._fh.flush()
        return self._fh

    def write(self, frame: bytes) -> None:
        fh = self._ensure_open()
        fh.write(frame)
        fh.flush()

    def close(self) -> None:
        """Close the underlying file (appends reopen it)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TreeJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reading -----------------------------------------------------------

    def _open_checked(self):
        fh = open(self.path, "rb")
        if fh.read(len(MAGIC)) != MAGIC:
            fh.close()
            raise JournalError(f"{self.path}: not a key-graph journal")
        return fh

    def records(self, strict: bool = False) -> Iterator[dict]:
        """Yield every intact record; stops cleanly at a torn tail.

        See :func:`read_records` for the damage classes.  Supervised
        restarts use strict mode: restarting a key server from a
        journal that failed its integrity check would hand members
        keys nobody can vouch for.
        """
        with self._open_checked() as fh:
            yield from read_records(fh, strict, self.path)

    def intact_length(self) -> int:
        """Byte offset just past the last intact record.

        A torn or CRC-failing tail is excluded.  Raises on a missing
        magic.
        """
        with self._open_checked() as fh:
            offset = fh.tell()
            for _record in read_records(fh, name=self.path):
                offset = fh.tell()
            return offset

    def repair(self) -> int:
        """Truncate a torn/damaged tail so future appends stay readable.

        An append after a torn tail would be unreachable — replay stops
        at the damage — so a supervised restart repairs the file before
        re-attaching it.  Returns the number of bytes removed.
        """
        intact = self.intact_length()
        size = os.path.getsize(self.path)
        if size > intact:
            os.truncate(self.path, intact)
        return size - intact

    def load(self, strict: bool = False
             ) -> Tuple[Optional[bytes], List[dict]]:
        """(last checkpoint blob, op records after it)."""
        blob: Optional[bytes] = None
        ops: List[dict] = []
        for record in self.records(strict=strict):
            if record.get("op") == CHECKPOINT:
                blob = bytes.fromhex(record["blob"])
                ops = []
            else:
                ops.append(record)
        return blob, ops


class ReplayKeySource:
    """A keygen that replays recorded key draws, in order."""

    __slots__ = ("_keys", "_cursor")

    def __init__(self, keys: List[bytes]):
        self._keys = keys
        self._cursor = 0

    def __call__(self) -> bytes:
        if self._cursor >= len(self._keys):
            raise JournalError("journal replay ran out of recorded keys")
        key = self._keys[self._cursor]
        self._cursor += 1
        return key

    @property
    def exhausted(self) -> bool:
        """True iff every recorded key was consumed."""
        return self._cursor == len(self._keys)
