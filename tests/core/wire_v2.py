"""The v2 wire codec, kept as the oracle for the v3 codec.

This is the item codec ``repro.core.messages`` carried before v3,
unchanged but for its names: a key item encrypted its records whole,
each record's label (node id, version) ahead of its key bytes inside
the CBC plaintext, so an 8-byte DES key cost two cipher blocks; every
item carried its 16-bit ``plaintext_len``, and a message with items
one block-size byte.  The auth trailer is the same in both versions,
so the oracle reuses :class:`repro.core.messages.AuthBlock`.  The
differential tests (``test_wire_v2.py``) encrypt the same records into
both codecs and require both to decrypt to the same key records and to
agree on every field the framing does not own.  Nothing under ``src/``
can read or write these bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.messages import (MAGIC, STRATEGY_NONE, AuthBlock, KeyRecord,
                                 WireError, ciphertext_size)
from repro.crypto import modes

V2 = 2

_HEADER = struct.Struct(">HBBBBIQQII")  # 34 bytes
_ITEM_FIXED = struct.Struct(">IIH")
_RECORD_FIXED = struct.Struct(">II")
_EMPTY_AUTH_SIZE = AuthBlock().wire_size()


@dataclass(frozen=True)
class EncryptedItem:
    """A v2 item: key reference, plaintext length, IV, ciphertext."""

    enc_node_id: int
    enc_version: int
    iv: bytes
    ciphertext: bytes
    plaintext_len: int


def encode_record(record: KeyRecord) -> bytes:
    """A record inside a v2 plaintext: id, version, key bytes."""
    return _RECORD_FIXED.pack(record.node_id, record.version) + record.key


def decode_key_records(plaintext: bytes, key_size: int) -> List[KeyRecord]:
    """Parse the decrypted payload of a v2 item into key records."""
    record_size = _RECORD_FIXED.size + key_size
    if len(plaintext) % record_size:
        raise WireError("payload is not a whole number of key records")
    records = []
    for offset in range(0, len(plaintext), record_size):
        node_id, version = _RECORD_FIXED.unpack_from(plaintext, offset)
        key = plaintext[offset + _RECORD_FIXED.size:offset + record_size]
        records.append(KeyRecord(node_id, version, key))
    return records


def encrypt_records(suite, key: bytes, iv: bytes,
                    records: Sequence[KeyRecord],
                    enc_node_id: int, enc_version: int) -> EncryptedItem:
    """Encrypt whole records (labels and keys) under ``key``."""
    plaintext = b"".join(encode_record(record) for record in records)
    padded = plaintext.ljust(ciphertext_size(len(plaintext),
                                             suite.block_size), b"\x00")
    ciphertext = modes.cbc_encrypt_nopad(suite.new_cipher(key), padded, iv)
    return EncryptedItem(enc_node_id, enc_version, iv, ciphertext,
                         len(plaintext))


def decrypt_records(suite, key: bytes, item: EncryptedItem) -> List[KeyRecord]:
    """Decrypt a v2 item back into key records."""
    padded = modes.cbc_decrypt_nopad(suite.new_cipher(key), item.ciphertext,
                                     item.iv)
    if item.plaintext_len > len(padded):
        raise WireError("plaintext length exceeds ciphertext capacity")
    return decode_key_records(padded[:item.plaintext_len], suite.key_size)


@dataclass
class Message:
    """A v2 message: the v3 header and trailer around v2 items."""

    msg_type: int
    group_id: int = 0
    strategy: int = STRATEGY_NONE
    flags: int = 0
    seq: int = 0
    timestamp_us: int = 0
    root_node_id: int = 0
    root_version: int = 0
    items: List[EncryptedItem] = field(default_factory=list)
    body: bytes = b""
    auth: Optional[AuthBlock] = None

    def signed_region(self) -> bytes:
        """The bytes covered by the digest/signature (all but the trailer)."""
        items = self.items
        try:
            parts = [_HEADER.pack(MAGIC, V2, self.msg_type, self.strategy,
                                  self.flags, self.group_id, self.seq,
                                  self.timestamp_us, self.root_node_id,
                                  self.root_version),
                     struct.pack(">H", len(items))]
            if items:
                block = len(items[0].iv)
                parts.append(struct.pack(">B", block))
                for item in items:
                    if len(item.iv) != block or len(item.ciphertext) != \
                            ciphertext_size(item.plaintext_len, block):
                        raise WireError("non-canonical item")
                    parts.append(_ITEM_FIXED.pack(
                        item.enc_node_id, item.enc_version,
                        item.plaintext_len))
                    parts.append(item.iv)
                    parts.append(item.ciphertext)
            parts.append(struct.pack(">I", len(self.body)))
        except struct.error as exc:
            raise WireError(f"field out of range: {exc}") from None
        parts.append(self.body)
        return b"".join(parts)

    def encode(self) -> bytes:
        """Full wire encoding: signed region plus auth trailer."""
        auth = self.auth if self.auth is not None else AuthBlock()
        return self.signed_region() + auth.encode()

    def wire_size(self) -> int:
        """``len(self.encode())`` without building the bytes."""
        size = _HEADER.size + 6 + len(self.body)
        if self.items:
            size += 1 + len(self.items) * (_ITEM_FIXED.size
                                           + len(self.items[0].iv))
            size += sum(len(item.ciphertext) for item in self.items)
        return size + (self.auth.wire_size() if self.auth is not None
                       else _EMPTY_AUTH_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse v2 wire bytes; raises WireError on malformed input."""
        try:
            (magic, wire_version, msg_type, strategy, flags, group_id, seq,
             timestamp_us, root_node_id, root_version) = _HEADER.unpack_from(
                 data, 0)
            offset = _HEADER.size
            (n_items,) = struct.unpack_from(">H", data, offset)
            offset += 2
            if n_items:
                (block,) = struct.unpack_from(">B", data, offset)
                offset += 1
        except struct.error as exc:
            raise WireError(f"truncated header: {exc}") from None
        if magic != MAGIC:
            raise WireError(f"bad magic 0x{magic:04x}")
        if wire_version != V2:
            raise WireError(f"unsupported wire version {wire_version}")
        items = []
        if n_items and not block:
            raise WireError("zero cipher block size")
        for _ in range(n_items):
            try:
                enc_node_id, enc_version, plaintext_len = \
                    _ITEM_FIXED.unpack_from(data, offset)
            except struct.error as exc:
                raise WireError(f"truncated item: {exc}") from None
            iv_at = offset + _ITEM_FIXED.size
            ciphertext_at = iv_at + block
            offset = ciphertext_at + ciphertext_size(plaintext_len, block)
            if offset > len(data):
                raise WireError("truncated item body")
            items.append(EncryptedItem(
                enc_node_id, enc_version, data[iv_at:ciphertext_at],
                data[ciphertext_at:offset], plaintext_len))
        try:
            (body_len,) = struct.unpack_from(">I", data, offset)
        except struct.error as exc:
            raise WireError(f"truncated body length: {exc}") from None
        offset += 4
        body = data[offset:offset + body_len]
        if len(body) != body_len:
            raise WireError("truncated body")
        auth, _offset = AuthBlock.decode(data, offset + body_len)
        return cls(msg_type=msg_type, group_id=group_id, strategy=strategy,
                   flags=flags, seq=seq, timestamp_us=timestamp_us,
                   root_node_id=root_node_id, root_version=root_version,
                   items=items, body=body, auth=auth)
