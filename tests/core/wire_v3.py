"""The v3 wire codec, kept as the oracle for the v4 codec.

This is the item codec ``repro.core.messages`` carried before v4,
unchanged but for its names: a key item sent its labels in clear, a
one-block IV drawn at random, and the CBC encryption of its key bytes
under that IV, so a one-DES-key item cost 33 bytes where v4's costs 25.
Payload items, the header and the auth trailer are the same in both
versions, so the oracle reuses :class:`repro.core.messages.AuthBlock`
and the varint helpers.  The differential tests (``test_wire_v2.py``)
encrypt the same records into both codecs and require both to decrypt
to the same key records and to agree on every field the framing does
not own.  Nothing under ``src/`` can read or write these bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.messages import (MAGIC, MAX_PLAINTEXT, STRATEGY_NONE,
                                 AuthBlock, KeyRecord, WireError,
                                 _read_varint, _varint, _varint_size,
                                 ciphertext_size)
from repro.crypto import modes

V3 = 3

_HEADER = struct.Struct(">HBBBBIQQII")  # 34 bytes
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_REF = struct.Struct(">II")
_SIZES = struct.Struct(">BB")
_PAYLOAD_ITEM = struct.Struct(">IIBH")
_ONE_KEY_ITEM = struct.Struct(">IIBII")
_EMPTY_AUTH_SIZE = AuthBlock().wire_size()


def _key_size(items: Sequence["EncryptedItem"]) -> int:
    """The key size of a message's key items (``0`` if it has none)."""
    for item in items:
        if item.labels:
            key_size = item.plaintext_len // len(item.labels)
            if not key_size:
                raise WireError("key item with empty keys")
            return key_size
    return 0


@dataclass(frozen=True)
class EncryptedItem:
    """A v3 item: a key item carries its own one-block IV.

    ``enc_node_id``/``enc_version`` reference the key the ciphertext is
    encrypted under.  A key item names its keys in ``labels`` (node id,
    version per key) and encrypts only their bytes, so its
    ``plaintext_len`` is the labels' count times the key size.  A
    payload item has no labels and a ``plaintext_len`` that strips the
    zero padding after decryption.  The IV is one cipher block and the
    ciphertext :func:`ciphertext_size` bytes, so neither length travels.
    """

    enc_node_id: int
    enc_version: int
    iv: bytes
    ciphertext: bytes
    plaintext_len: int
    labels: Tuple[Tuple[int, int], ...] = ()


def encrypt_records(suite, key: bytes, iv: bytes,
                    records: Sequence[KeyRecord],
                    enc_node_id: int, enc_version: int) -> EncryptedItem:
    """Encrypt key records under ``key`` into a key item.

    The labels travel in clear and only the key bytes are encrypted:
    one cipher block per DES or AES-128 key.
    """
    key_bytes = b"".join(record.key for record in records)
    if not records or len(key_bytes) != len(records) * suite.key_size:
        raise WireError("a key item carries one or more keys of the suite")
    padded = key_bytes.ljust(ciphertext_size(len(key_bytes),
                                             suite.block_size), b"\x00")
    ciphertext = modes.cbc_encrypt_nopad(suite.new_cipher(key), padded, iv)
    return EncryptedItem(enc_node_id, enc_version, iv, ciphertext,
                         len(key_bytes),
                         tuple((record.node_id, record.version)
                               for record in records))


def decrypt_records(suite, key: bytes, item: EncryptedItem) -> List[KeyRecord]:
    """Decrypt a key item back into key records."""
    labels = item.labels
    key_size = suite.key_size
    if not labels or item.plaintext_len != len(labels) * key_size:
        raise WireError("item does not carry keys of this suite")
    plaintext = modes.cbc_decrypt_nopad(suite.new_cipher(key),
                                        item.ciphertext, item.iv)
    if item.plaintext_len > len(plaintext):
        raise WireError("key labels exceed ciphertext capacity")
    return [KeyRecord(node_id, version,
                      plaintext[offset:offset + key_size])
            for offset, (node_id, version)
            in zip(range(0, item.plaintext_len, key_size), labels)]


@dataclass
class Message:
    """A v3 message: the v4 header and trailer around v3 items.

    ``body`` is type-specific opaque bytes for control/data messages;
    rekey messages carry ``items`` instead.
    """

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

    # -- encoding ---------------------------------------------------------

    def signed_region(self) -> bytes:
        """The bytes covered by the digest/signature (all but the trailer)."""
        items = self.items
        try:
            parts = [_HEADER.pack(MAGIC, V3, self.msg_type,
                                  self.strategy, self.flags, self.group_id,
                                  self.seq, self.timestamp_us,
                                  self.root_node_id, self.root_version),
                     _U16.pack(len(items))]
            if items:
                block = len(items[0].iv)
                if not block:
                    raise WireError("items need a one-block IV")
                key_size = _key_size(items)
                parts.append(_SIZES.pack(block, key_size))
                pack_ref = _REF.pack
                pack_one_key = _ONE_KEY_ITEM.pack
                pack_payload = _PAYLOAD_ITEM.pack
                append = parts.append
                for item in items:
                    iv = item.iv
                    ciphertext = item.ciphertext
                    labels = item.labels
                    plaintext_len = item.plaintext_len
                    # ciphertext_size(plaintext_len, block), inline.
                    if len(iv) != block or len(ciphertext) != (
                            -(-plaintext_len // block) * block or block):
                        raise WireError(
                            "item is not one IV block and a padded "
                            "ciphertext of its plaintext length")
                    if not labels:
                        append(pack_payload(item.enc_node_id,
                                            item.enc_version, 0,
                                            plaintext_len))
                    elif plaintext_len != len(labels) * key_size:
                        raise WireError("key item is not whole keys of "
                                        "the message's key size")
                    elif len(labels) == 1:
                        node_id, version = labels[0]
                        append(pack_one_key(item.enc_node_id,
                                            item.enc_version, 1,
                                            node_id, version))
                    else:
                        if plaintext_len > MAX_PLAINTEXT:
                            raise WireError(
                                "key item over the plaintext bound")
                        append(pack_ref(item.enc_node_id, item.enc_version))
                        append(_varint(len(labels)))
                        for node_id, version in labels:
                            append(pack_ref(node_id, version))
                    append(iv)
                    append(ciphertext)
            parts.append(_U32.pack(len(self.body)))
        except struct.error as exc:
            raise WireError(f"field out of range: {exc}") from None
        parts.append(self.body)
        return b"".join(parts)

    def encode(self) -> bytes:
        """Full wire encoding: signed region plus auth trailer."""
        auth = self.auth if self.auth is not None else AuthBlock()
        return self.signed_region() + auth.encode()

    def wire_size(self) -> int:
        """``len(self.encode())`` without building the bytes.

        A receiver handed a parsed message (every member behind one
        socket gets the same object) accounts its bytes with this
        instead of re-encoding the message once per member.
        """
        size = _HEADER.size + 6 + len(self.body)
        items = self.items
        if items:
            # Per item: reference, a one-byte label count, IV, ciphertext,
            # then the labels or a payload's 2-byte plaintext length.
            size += 2 + len(items) * (_REF.size + 1 + len(items[0].iv))
            for item in items:
                count = len(item.labels)
                size += len(item.ciphertext) + (_REF.size * count if count
                                                else 2)
                if count > 0x7F:
                    size += _varint_size(count) - 1
        return size + (self.auth.wire_size() if self.auth is not None
                       else _EMPTY_AUTH_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse wire bytes; raises WireError on malformed input.

        Bytes after the trailer (trace and correlation trailers) are
        ignored."""
        try:
            (magic, wire_version, msg_type, strategy, flags, group_id, seq,
             timestamp_us, root_node_id, root_version) = _HEADER.unpack_from(
                 data, 0)
            offset = _HEADER.size
            (n_items,) = _U16.unpack_from(data, offset)
            offset += 2
            if n_items:
                block, key_size = _SIZES.unpack_from(data, offset)
                offset += 2
        except struct.error as exc:
            raise WireError(f"truncated header: {exc}") from None
        if magic != MAGIC:
            raise WireError(f"bad magic 0x{magic:04x}")
        if wire_version != V3:
            raise WireError(f"unsupported wire version {wire_version}")
        items = []
        if n_items:
            if not block:
                raise WireError("zero cipher block size")
            end = len(data)
            keyed = False
            unpack_ref = _REF.unpack_from
            unpack_one_key = _ONE_KEY_ITEM.unpack_from
            try:
                for _ in range(n_items):
                    count = data[offset + _REF.size]
                    if count == 1 and key_size:
                        (enc_node_id, enc_version, _count, node_id,
                         version) = unpack_one_key(data, offset)
                        labels = ((node_id, version),)
                        plaintext_len = key_size
                        offset += _ONE_KEY_ITEM.size
                        keyed = True
                    else:
                        enc_node_id, enc_version = unpack_ref(data, offset)
                        count, offset = _read_varint(data,
                                                     offset + _REF.size)
                        if count:
                            plaintext_len = count * key_size
                            if not plaintext_len:
                                raise WireError(
                                    "key labels under a zero key size")
                            if plaintext_len > MAX_PLAINTEXT:
                                raise WireError(
                                    "key item over the plaintext bound")
                            flat = struct.unpack_from(f">{2 * count}I",
                                                      data, offset)
                            offset += _REF.size * count
                            labels = tuple(zip(flat[::2], flat[1::2]))
                            keyed = True
                        else:
                            (plaintext_len,) = _U16.unpack_from(data, offset)
                            offset += 2
                            labels = ()
                    ciphertext_at = offset + block
                    iv = data[offset:ciphertext_at]
                    offset = ciphertext_at + (
                        -(-plaintext_len // block) * block or block)
                    if offset > end:
                        raise WireError("truncated item body")
                    items.append(EncryptedItem(
                        enc_node_id, enc_version, iv,
                        data[ciphertext_at:offset], plaintext_len, labels))
            except (IndexError, struct.error) as exc:
                raise WireError(f"truncated item: {exc}") from None
            if key_size and not keyed:
                raise WireError("key size without key items")
        try:
            (body_len,) = _U32.unpack_from(data, offset)
        except struct.error as exc:
            raise WireError(f"truncated body length: {exc}") from None
        offset += 4
        body = data[offset:offset + body_len]
        if len(body) != body_len:
            raise WireError("truncated body")
        offset += body_len
        auth, offset = AuthBlock.decode(data, offset)
        return cls(msg_type=msg_type, group_id=group_id, strategy=strategy,
                   flags=flags, seq=seq, timestamp_us=timestamp_us,
                   root_node_id=root_node_id, root_version=root_version,
                   items=items, body=body, auth=auth)
