"""Wire format for protocol and rekey messages.

The paper notes that real rekey messages carry "subgroup labels for new
keys, server digital signature, message integrity check, timestamp, etc."
This module defines that format as a compact binary encoding:

``RekeyMessage``
    header  : magic, version, type, strategy, flags, group id, sequence
              number, timestamp, current group-key (root) reference
    items   : each an :class:`EncryptedItem` — (encrypting-key reference,
              IV, ciphertext).  The plaintext is one or more
              :class:`KeyRecord` entries (node id, version, key bytes),
              zero-padded to the cipher block with an explicit length.
    auth    : optional message digest, optional signature block (either a
              per-message RSA signature or a Merkle certificate, §4).

Control messages (join/leave requests and acks, application data) share
the same header so one datagram parser handles everything.

Encrypting-key references name a key-tree node id + version.  The
sentinel :data:`INDIVIDUAL_KEY` means "the receiver's individual key"
and is used on unicast messages to a requesting user whose leaf id the
user may not know yet.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Hashable, List, Optional, Sequence, Tuple

MAGIC = 0x4B47  # "KG"
WIRE_VERSION = 1

# Message types.
MSG_JOIN_REQUEST = 1
MSG_JOIN_ACK = 2
MSG_JOIN_DENIED = 3
MSG_LEAVE_REQUEST = 4
MSG_LEAVE_ACK = 5
MSG_REKEY = 6
MSG_DATA = 7
MSG_LEAVE_DENIED = 8
# Telemetry scrape (out of band for the protocol: the request body is
# empty, the response body is a repro-metrics/1 JSON document).
MSG_STATS_REQUEST = 9
MSG_STATS_RESPONSE = 10
# Recovery protocol (relaxes the paper's §5 reliable-delivery
# assumption).  A desynchronized member asks for its current path keys
# (request body: UTF-8 user id); the server unicasts them in one item
# encrypted under the member's individual key (reply body: status byte
# + leaf node id).  Heartbeats carry the member's current group-key view
# in the header root reference so the server can detect staleness.
MSG_RESYNC_REQUEST = 11
MSG_RESYNC_REPLY = 12
MSG_HEARTBEAT = 13
# Admission control (async serving layer): the server is saturated and
# shed this request without processing it.  The client may retry after
# backing off; no group state changed.
MSG_BUSY = 14
# Subgroup multicast ("subcast", repro.subcast): one payload sealed to
# an arbitrary member subset via a key cover (paper §2.1).  The first
# item is the payload ciphertext under a fresh message key, referenced
# by the SUBCAST_MESSAGE_KEY sentinel; every further item seals one
# copy of that message key under one cover key, so exactly the covered
# members can open the payload.  The request body is the
# repro.subcast.wire encoding (sender, targets, payload).
MSG_SUBCAST = 15
MSG_SUBCAST_REQUEST = 16

# Rekeying strategies (wire codes).
STRATEGY_NONE = 0
STRATEGY_USER_ORIENTED = 1
STRATEGY_KEY_ORIENTED = 2
STRATEGY_GROUP_ORIENTED = 3
STRATEGY_STAR = 4
STRATEGY_HYBRID = 5

# Signature schemes in the auth block.
SIG_NONE = 0
SIG_PER_MESSAGE = 1
SIG_MERKLE = 2

# Sentinel encrypting-key reference: the receiver's individual key.
INDIVIDUAL_KEY = 0xFFFFFFFF
# Sentinel node id for a subcast's ephemeral message key; the version
# field carries the subcast sequence number, so a key record named
# (SUBCAST_MESSAGE_KEY, seq) pairs with the payload item referencing
# the same (id, seq).  Tree node ids are allocated monotonically from
# 0 (cluster root layers from 0xF0000000) and never reach either
# sentinel in practice.
SUBCAST_MESSAGE_KEY = 0xFFFFFFFE

_HEADER = struct.Struct(">HBBBBIQQII")  # 34 bytes
_ITEM_FIXED = struct.Struct(">IIH")
#: Bytes of an encoded item besides its IV and ciphertext.
_ITEM_OVERHEAD = _ITEM_FIXED.size + 3
_RECORD_FIXED = struct.Struct(">II")


class WireError(ValueError):
    """Raised when decoding malformed bytes."""


@dataclass(frozen=True)
class KeyRecord:
    """A (node id, version, key bytes) triple carried inside a ciphertext."""

    node_id: int
    version: int
    key: bytes

    def encode(self) -> bytes:
        """Fixed-size binary encoding (id, version, key bytes)."""
        return _RECORD_FIXED.pack(self.node_id, self.version) + self.key


def decode_key_records(plaintext: bytes, key_size: int) -> List[KeyRecord]:
    """Parse the decrypted payload of an item into key records."""
    record_size = _RECORD_FIXED.size + key_size
    if len(plaintext) % record_size:
        raise WireError("payload is not a whole number of key records")
    records = []
    for offset in range(0, len(plaintext), record_size):
        node_id, version = _RECORD_FIXED.unpack_from(plaintext, offset)
        key = plaintext[offset + _RECORD_FIXED.size:offset + record_size]
        records.append(KeyRecord(node_id, version, key))
    return records


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


def encrypt_records(suite, key: bytes, iv: bytes,
                    records: Sequence[KeyRecord],
                    enc_node_id: int, enc_version: int) -> EncryptedItem:
    """Encrypt key records under ``key`` into an :class:`EncryptedItem`.

    Zero padding with explicit length keeps single-key items to exactly
    two cipher blocks (matching the paper's compact rekey messages).
    """
    plaintext = b"".join(record.encode() for record in records)
    block = suite.block_size
    padded = plaintext.ljust(-(-len(plaintext) // block) * block, b"\x00")
    cipher = suite.new_cipher(key)
    from ..crypto import modes
    ciphertext = modes.cbc_encrypt_nopad(cipher, padded, iv)
    return EncryptedItem(enc_node_id, enc_version, iv, ciphertext,
                         len(plaintext))


def decrypt_records(suite, key: bytes, item: EncryptedItem) -> List[KeyRecord]:
    """Decrypt an item back into key records."""
    from ..crypto import modes
    cipher = suite.new_cipher(key)
    padded = modes.cbc_decrypt_nopad(cipher, item.ciphertext, item.iv)
    if item.plaintext_len > len(padded):
        raise WireError("plaintext length exceeds ciphertext capacity")
    return decode_key_records(padded[:item.plaintext_len], suite.key_size)


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
        parts = [_HEADER.pack(MAGIC, WIRE_VERSION, self.msg_type,
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
        if wire_version != WIRE_VERSION:
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


# -- destinations -------------------------------------------------------------

DEST_ALL = "all"          # multicast to the whole group
DEST_SUBGROUP = "subgroup"  # multicast to userset(node_id)
DEST_USER = "user"          # unicast
DEST_USERS = "users"        # explicit user list (multi-unicast)

#: The audiences (:mod:`repro.transport.audience`) of a member of a
#: single group: just the whole group, the audience ``DEST_ALL`` names.
GROUP: Tuple[Hashable, ...] = (None,)


@dataclass
class Destination:
    """Where an outbound message goes (resolved by the transport layer)."""

    kind: str
    node_id: Optional[int] = None
    user_id: Optional[str] = None
    user_ids: Tuple[str, ...] = ()
    #: ``DEST_ALL`` only: one member that needs no copy (a joiner, whose
    #: keys travel by unicast).
    exclude: Optional[str] = None

    @classmethod
    def to_all(cls, exclude: Optional[str] = None) -> "Destination":
        """Multicast to the whole group (minus ``exclude``)."""
        return cls(DEST_ALL, exclude=exclude)

    @classmethod
    def to_subgroup(cls, node_id: int) -> "Destination":
        """Multicast to the users holding tree node ``node_id``."""
        return cls(DEST_SUBGROUP, node_id=node_id)

    @classmethod
    def to_user(cls, user_id: str) -> "Destination":
        """Unicast to one user."""
        return cls(DEST_USER, user_id=user_id)

    @classmethod
    def to_users(cls, user_ids: Sequence[str]) -> "Destination":
        """Multi-unicast to an explicit user list."""
        return cls(DEST_USERS, user_ids=tuple(user_ids))


@dataclass
class OutboundMessage:
    """A message plus its destination and, if explicit, its receivers.

    A group-addressed message (``DEST_ALL``) names the group, never its
    members: ``receivers`` is always ``()`` and every transport resolves
    the address from its audience index (:mod:`repro.transport.
    audience`).  ``audience`` says *which* group when one transport
    carries several (a cluster tags each shard's multicasts with the
    shard's name); ``None`` is the whole group.  Any other address
    lists its ``receivers``, filled in by the server after the
    processing clock stops.
    """

    destination: Destination
    message: Message
    receivers: Tuple[str, ...] = ()
    encoded: bytes = b""
    audience: Optional[Hashable] = None

    @property
    def size(self) -> int:
        """Encoded size in bytes."""
        return len(self.encoded)
