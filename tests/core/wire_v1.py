"""The v1 wire codec, kept as the oracle for the v2 codec.

This is the codec ``repro.core.messages`` carried before the v2
framing, unchanged but for its names: each item spelled out its IV and
ciphertext lengths, and a Merkle certificate carried the message
digest, a signature length, a 32-bit index and a length byte per
sibling (an empty sibling marking a promoted level).  The differential
tests (``test_wire_v2.py``) build one message in both codecs and
require both round trips to agree on every field the framing does not
own.  Nothing under ``src/`` can read or write these bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.messages import (MAGIC, SIG_MERKLE, SIG_NONE, STRATEGY_NONE,
                                 WireError)

V1 = 1

_HEADER = struct.Struct(">HBBBBIQQII")  # 34 bytes
_ITEM_FIXED = struct.Struct(">IIH")
#: Bytes of an encoded item besides its IV and ciphertext.
_ITEM_OVERHEAD = _ITEM_FIXED.size + 3


@dataclass(frozen=True)
class EncryptedItem:
    """One encrypted unit of a rekey message.

    ``enc_node_id``/``enc_version`` reference the key the payload is
    encrypted under; ``plaintext_len`` strips the zero padding after
    decryption.
    """

    enc_node_id: int
    enc_version: int
    iv: bytes
    ciphertext: bytes
    plaintext_len: int

    def encode(self) -> bytes:
        """Binary encoding: refs, lengths, IV, ciphertext."""
        return b"".join((
            _ITEM_FIXED.pack(self.enc_node_id, self.enc_version,
                             self.plaintext_len),
            struct.pack(">BH", len(self.iv), len(self.ciphertext)),
            self.iv,
            self.ciphertext,
        ))

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["EncryptedItem", int]:
        """Parse one item at ``offset``; returns (item, next offset)."""
        try:
            enc_node_id, enc_version, plaintext_len = _ITEM_FIXED.unpack_from(
                data, offset)
            offset += _ITEM_FIXED.size
            iv_len, ct_len = struct.unpack_from(">BH", data, offset)
            offset += 3
            iv = data[offset:offset + iv_len]
            offset += iv_len
            ciphertext = data[offset:offset + ct_len]
            offset += ct_len
        except struct.error as exc:
            raise WireError(f"truncated item: {exc}") from None
        if len(iv) != iv_len or len(ciphertext) != ct_len:
            raise WireError("truncated item body")
        return cls(enc_node_id, enc_version, iv, ciphertext, plaintext_len), offset


@dataclass
class AuthBlock:
    """Integrity/authenticity trailer of a message.

    ``digest`` covers the message bytes before the trailer.  The
    signature is either directly over the digest (``SIG_PER_MESSAGE``) or
    over the root of a Merkle tree of digests (``SIG_MERKLE``), in which
    case ``merkle_index``/``merkle_path`` authenticate this message's
    digest against the signed root (paper §4).
    """

    digest: bytes = b""
    scheme: int = SIG_NONE
    signature: bytes = b""
    merkle_index: int = 0
    merkle_path: List[bytes] = field(default_factory=list)

    def encode(self) -> bytes:
        """Binary trailer encoding (digest, scheme, signature, path)."""
        parts = [struct.pack(">B", len(self.digest)), self.digest,
                 struct.pack(">BH", self.scheme, len(self.signature)),
                 self.signature]
        if self.scheme == SIG_MERKLE:
            parts.append(struct.pack(">IB", self.merkle_index,
                                     len(self.merkle_path)))
            for sibling in self.merkle_path:
                parts.append(struct.pack(">B", len(sibling)))
                parts.append(sibling)
        return b"".join(parts)

    def wire_size(self) -> int:
        """``len(self.encode())`` without building the bytes."""
        size = 4 + len(self.digest) + len(self.signature)
        if self.scheme == SIG_MERKLE:
            size += 5 + len(self.merkle_path) + sum(map(len,
                                                        self.merkle_path))
        return size

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["AuthBlock", int]:
        """Parse the trailer at ``offset``; returns (block, next offset)."""
        try:
            (digest_len,) = struct.unpack_from(">B", data, offset)
            offset += 1
            digest = data[offset:offset + digest_len]
            offset += digest_len
            scheme, sig_len = struct.unpack_from(">BH", data, offset)
            offset += 3
            signature = data[offset:offset + sig_len]
            offset += sig_len
            merkle_index = 0
            merkle_path: List[bytes] = []
            if scheme == SIG_MERKLE:
                merkle_index, path_len = struct.unpack_from(">IB", data, offset)
                offset += 5
                for _ in range(path_len):
                    (sibling_len,) = struct.unpack_from(">B", data, offset)
                    offset += 1
                    merkle_path.append(data[offset:offset + sibling_len])
                    offset += sibling_len
        except struct.error as exc:
            raise WireError(f"truncated auth block: {exc}") from None
        if len(digest) != digest_len or len(signature) != sig_len:
            raise WireError("truncated auth block body")
        return cls(digest, scheme, signature, merkle_index, merkle_path), offset


#: Encoded size of the ``AuthBlock()`` an unauthenticated message carries.
_EMPTY_AUTH_SIZE = AuthBlock().wire_size()


@dataclass
class Message:
    """A parsed protocol message.

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
        parts = [_HEADER.pack(MAGIC, V1, self.msg_type,
                              self.strategy, self.flags, self.group_id,
                              self.seq, self.timestamp_us,
                              self.root_node_id, self.root_version)]
        parts.append(struct.pack(">H", len(self.items)))
        for item in self.items:
            parts.append(item.encode())
        parts.append(struct.pack(">I", len(self.body)))
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
        for item in self.items:
            size += _ITEM_OVERHEAD + len(item.iv) + len(item.ciphertext)
        return size + (self.auth.wire_size() if self.auth is not None
                       else _EMPTY_AUTH_SIZE)

    @classmethod
    def decode(cls, data: bytes) -> "Message":
        """Parse wire bytes; raises WireError on malformed input."""
        try:
            (magic, wire_version, msg_type, strategy, flags, group_id, seq,
             timestamp_us, root_node_id, root_version) = _HEADER.unpack_from(
                 data, 0)
        except struct.error as exc:
            raise WireError(f"truncated header: {exc}") from None
        if magic != MAGIC:
            raise WireError(f"bad magic 0x{magic:04x}")
        if wire_version != V1:
            raise WireError(f"unsupported wire version {wire_version}")
        offset = _HEADER.size
        try:
            (n_items,) = struct.unpack_from(">H", data, offset)
        except struct.error as exc:
            raise WireError(f"truncated item count: {exc}") from None
        offset += 2
        items = []
        for _ in range(n_items):
            item, offset = EncryptedItem.decode(data, offset)
            items.append(item)
        try:
            (body_len,) = struct.unpack_from(">I", data, offset)
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


def from_v2(message) -> Message:
    """The v1 twin of a ``repro.core.messages.Message``."""
    auth = message.auth
    return Message(
        msg_type=message.msg_type, group_id=message.group_id,
        strategy=message.strategy, flags=message.flags, seq=message.seq,
        timestamp_us=message.timestamp_us,
        root_node_id=message.root_node_id,
        root_version=message.root_version,
        items=[EncryptedItem(item.enc_node_id, item.enc_version, item.iv,
                             item.ciphertext, item.plaintext_len)
               for item in message.items],
        body=message.body,
        auth=None if auth is None else AuthBlock(
            auth.digest, auth.scheme, auth.signature, auth.merkle_index,
            list(auth.merkle_path)))
