"""Wire format (v4) for protocol and rekey messages.

The paper notes that real rekey messages carry "subgroup labels for new
keys, server digital signature, message integrity check, timestamp, etc."
This module defines that format as one compact binary encoding; every
multi-byte integer is big-endian.

``Message``
    header  : magic, version (4), type, strategy, flags, group id,
              sequence number, timestamp, current group-key (root)
              reference — 34 bytes
    items   : a 2-byte count; if nonzero, one byte of payload IV size
              ``b`` (the cipher block; ``0`` when no item is a payload
              item) and one of key size ``k`` (``0`` when no item
              carries keys), then each :class:`EncryptedItem` as its
              encrypting-key reference (node id, version) and a varint
              (LEB128) count ``n`` of key labels.
              A key item (``n >= 1``) follows with its ``n`` labels
              (node id, version) in clear and the CBC encryption of the
              ``n`` key bytes alone under an IV both sides derive
              (:func:`key_item_iv`), ``n * k`` bytes: 25 bytes for one
              DES key.
              A payload item (``n = 0``: a subcast payload or
              application data) follows with its 2-byte
              ``plaintext_len``, a random ``b``-byte IV and a ciphertext
              of ``b * max(1, ceil(plaintext_len / b))`` bytes, zero
              padded.  Neither IV nor ciphertext length travels.
    body    : a 4-byte length, then the bytes
    auth    : the :class:`AuthBlock` trailer, not covered by the digest.
              Digest or per-message signature: digest length (1), digest,
              scheme (1), signature length (2), signature.  A Merkle
              certificate (§4): ``0`` (no digest: the receiver recomputes
              it), scheme, then varints of the signature length,
              the signature, varints of the leaf index and leaf count,
              one byte of sibling size ``d``, and ``d`` bytes per real
              sibling from the leaf up.  The leaf index and count say
              which levels promote their node without a partner, so
              neither those levels nor any sibling carries a length.
              With RSA-512 and MD5 a certificate in a batch of fewer
              than 128 messages is ``70 + 16p`` bytes for ``p`` real
              siblings.

Labels are metadata the header and the encrypting-key references
already expose; they sit in the signed region, so the digest or
signature covers them; DESIGN §18 argues why a key item's IV may be
derived from them.  :func:`encrypt_records` and
:func:`decrypt_records` turn :class:`KeyRecord` lists into key items and
back.

The trailer is self-delimiting: trace and correlation trailers
(:mod:`repro.serve.wire`) ride after it and :meth:`Message.decode`
ignores them.  There is one format and no version knob; a decoder
refuses every other version, and an encoder refuses a message the
format cannot carry (a field out of range, a payload item whose IV is
not the message's one block size or whose ciphertext is not its padded
plaintext length, a key item with an IV or whose ciphertext is not its
key bytes, key items of different key sizes, a certificate whose
siblings do not fit its leaf position) with :class:`WireError`.

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
WIRE_VERSION = 4

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
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
#: An item's encrypting-key reference, and a key label.
_REF = struct.Struct(">II")
#: A label and a reference: a key item's IV under a 16-byte block.
_LABEL_REF = struct.Struct(">IIII")
#: The block-size and key-size bytes of a message with items.
_SIZES = struct.Struct(">BB")
#: A payload item's reference, zero label count and plaintext length.
_PAYLOAD_ITEM = struct.Struct(">IIBH")
#: A one-key item's reference, label count (1) and label.
_ONE_KEY_ITEM = struct.Struct(">IIBII")
#: Scheme and signature length of a digest or per-message trailer.
_SCHEME_SIG = struct.Struct(">BH")
#: A Merkle certificate's first two bytes: no digest, the scheme.
_CERTIFICATE_LEAD = bytes((0, SIG_MERKLE))
#: Largest plaintext an item carries (``plaintext_len`` is 16 bits; a
#: key item's ``n * k`` keeps the same bound).
MAX_PLAINTEXT = 0xFFFF
#: Largest value a Merkle certificate's varints carry (5 bytes).
_VARINT_MAX = 0xFFFFFFFF
#: ``_varint`` of every value below 128, prebuilt.
_ONE_BYTE = [bytes((value,)) for value in range(0x80)]


class WireError(ValueError):
    """Raised when decoding malformed bytes, or when encoding a message
    the wire cannot carry (a field out of range, a non-canonical item
    or certificate)."""


def ciphertext_size(plaintext_len: int, block: int) -> int:
    """The one ciphertext length an item of ``plaintext_len`` bytes has:
    zero-padded to whole cipher blocks, and never shorter than one."""
    return -(-max(plaintext_len, 1) // block) * block


def _sizes(items: Sequence["EncryptedItem"]) -> Tuple[int, int]:
    """A message's payload IV size and key size, read off its first
    payload and key items (``0`` if none); the encoder checks the rest."""
    block = next((len(item.iv) for item in items if not item.labels), 0)
    key_size = next((item.plaintext_len // len(item.labels)
                     for item in items if item.labels), 0)
    return block, key_size


def merkle_shape(index: int, leaves: int) -> List[bool]:
    """Per level from the leaf up: does leaf ``index`` of a Merkle tree
    over ``leaves`` digests meet a sibling (``False``: the node is the
    odd one out and is promoted unchanged)?"""
    if not 0 <= index < leaves:
        raise WireError(f"Merkle leaf {index} of {leaves}")
    shape = []
    while leaves > 1:
        shape.append(index ^ 1 < leaves)
        index //= 2
        leaves = (leaves + 1) // 2
    return shape


def _varint(value: int) -> bytes:
    """LEB128: seven bits a byte, low group first."""
    if 0 <= value < 0x80:
        return _ONE_BYTE[value]
    if not 0 <= value <= _VARINT_MAX:
        raise WireError(f"varint field out of range: {value}")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def _varint_size(value: int) -> int:
    """``len(_varint(value))``."""
    return (value.bit_length() + 6) // 7 or 1


def _read_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Parse a minimal LEB128 varint at ``offset``: (value, next offset)."""
    if offset < len(data) and data[offset] < 0x80:
        return data[offset], offset + 1
    value = 0
    for shift in range(0, 35, 7):
        if offset >= len(data):
            raise WireError("truncated varint")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if (byte == 0 and shift) or value > _VARINT_MAX:
                raise WireError("non-canonical varint")
            return value, offset
    raise WireError("varint longer than five bytes")


@dataclass(frozen=True)
class KeyRecord:
    """A new key: its label (node id, version) and its bytes."""

    node_id: int
    version: int
    key: bytes


@dataclass(frozen=True)
class EncryptedItem:
    """One encrypted unit of a rekey message.

    ``enc_node_id``/``enc_version`` reference the key the ciphertext is
    encrypted under.  A key item names its keys in ``labels`` (node id,
    version per key) and encrypts only their bytes under a derived IV,
    so its ``iv`` is empty and its ciphertext and ``plaintext_len`` are
    the labels' count times the key size.  A payload item has no labels,
    a one-block ``iv``, a ``plaintext_len`` that strips the zero padding
    after decryption, and a :func:`ciphertext_size`-byte ciphertext.
    """

    enc_node_id: int
    enc_version: int
    iv: bytes
    ciphertext: bytes
    plaintext_len: int
    labels: Tuple[Tuple[int, int], ...] = ()


def key_item_iv(block: int, label: Tuple[int, int], enc_node_id: int,
                enc_version: int) -> bytes:
    """The IV of a key item whose first label is ``label``: the label,
    then under a 16-byte block the encrypting-key reference."""
    if block == _REF.size:
        return _REF.pack(*label)
    if block == _LABEL_REF.size:
        return _LABEL_REF.pack(*label, enc_node_id, enc_version)
    raise WireError(f"no key-item IV for a {block}-byte block")


def encrypt_records(suite, key: bytes, records: Sequence[KeyRecord],
                    enc_node_id: int, enc_version: int) -> EncryptedItem:
    """Encrypt key records under ``key`` into a key item.

    The labels travel in clear and only the key bytes are encrypted:
    one cipher block per DES or AES-128 key, under the IV the labels
    give (:func:`key_item_iv`).
    """
    key_bytes = b"".join(record.key for record in records)
    if not records or len(key_bytes) != len(records) * suite.key_size:
        raise WireError("a key item carries one or more keys of the suite")
    labels = tuple((record.node_id, record.version) for record in records)
    from ..crypto import modes
    ciphertext = modes.cbc_encrypt_nopad(
        suite.new_cipher(key), key_bytes,
        key_item_iv(suite.block_size, labels[0], enc_node_id, enc_version))
    return EncryptedItem(enc_node_id, enc_version, b"", ciphertext,
                         len(key_bytes), labels)


def decrypt_records(suite, key: bytes, item: EncryptedItem) -> List[KeyRecord]:
    """Decrypt a key item back into key records."""
    labels = item.labels
    key_size = suite.key_size
    plaintext_len = item.plaintext_len
    if not labels or plaintext_len != len(labels) * key_size or item.iv:
        raise WireError("item does not carry keys of this suite")
    from ..crypto import modes
    plaintext = modes.cbc_decrypt_nopad(
        suite.new_cipher(key), item.ciphertext,
        key_item_iv(suite.block_size, labels[0], item.enc_node_id,
                    item.enc_version))
    if plaintext_len != len(plaintext):
        raise WireError("key labels do not match the ciphertext")
    return [KeyRecord(node_id, version,
                      plaintext[offset:offset + key_size])
            for offset, (node_id, version)
            in zip(range(0, plaintext_len, key_size), labels)]


@dataclass
class AuthBlock:
    """Integrity/authenticity trailer of a message.

    ``digest`` covers the message bytes before the trailer.  The
    signature is either directly over the digest (``SIG_PER_MESSAGE``) or
    over the root of a Merkle tree of digests (``SIG_MERKLE``, paper
    §4), in which case ``merkle_index`` and ``merkle_leaves`` place this
    message's digest among the batch's ``merkle_leaves`` and
    ``merkle_path`` holds one sibling per level, empty where the node
    was promoted.  A Merkle certificate carries no digest: the receiver
    recomputes it.
    """

    digest: bytes = b""
    scheme: int = SIG_NONE
    signature: bytes = b""
    merkle_index: int = 0
    merkle_path: List[bytes] = field(default_factory=list)
    merkle_leaves: int = 1

    def encode(self) -> bytes:
        """Binary trailer encoding (see the module docstring)."""
        try:
            if self.scheme != SIG_MERKLE:
                return b"".join((_U8.pack(len(self.digest)), self.digest,
                                 _SCHEME_SIG.pack(self.scheme,
                                                  len(self.signature)),
                                 self.signature))
            siblings = self._siblings()
            return b"".join((
                _CERTIFICATE_LEAD,
                _varint(len(self.signature)), self.signature,
                _varint(self.merkle_index), _varint(self.merkle_leaves),
                _U8.pack(len(siblings[0]) if siblings else 0), *siblings))
        except struct.error as exc:
            raise WireError(f"auth field out of range: {exc}") from None

    def _siblings(self) -> List[bytes]:
        """The real siblings of a canonical Merkle certificate."""
        if self.digest:
            raise WireError("a Merkle certificate carries no digest")
        shape = merkle_shape(self.merkle_index, self.merkle_leaves)
        if [bool(sibling) for sibling in self.merkle_path] != shape:
            raise WireError("sibling path does not fit the leaf position")
        siblings = [sibling for sibling in self.merkle_path if sibling]
        if len(set(map(len, siblings))) > 1:
            raise WireError("siblings differ in length")
        return siblings

    def wire_size(self) -> int:
        """``len(self.encode())`` without building the bytes."""
        if self.scheme != SIG_MERKLE:
            return 4 + len(self.digest) + len(self.signature)
        signature = len(self.signature)
        return (3 + _varint_size(signature) + signature
                + _varint_size(self.merkle_index)
                + _varint_size(self.merkle_leaves)
                + sum(map(len, self.merkle_path)))

    @classmethod
    def decode(cls, data: bytes, offset: int) -> Tuple["AuthBlock", int]:
        """Parse the trailer at ``offset``; returns (block, next offset)."""
        try:
            (digest_len,) = _U8.unpack_from(data, offset)
            offset += 1
            digest = data[offset:offset + digest_len]
            offset += digest_len
            (scheme,) = _U8.unpack_from(data, offset)
            offset += 1
            if scheme != SIG_MERKLE:
                (sig_len,) = _U16.unpack_from(data, offset)
                offset += 2
                signature = data[offset:offset + sig_len]
                offset += sig_len
                if len(digest) != digest_len or len(signature) != sig_len:
                    raise WireError("truncated auth block body")
                return cls(digest, scheme, signature), offset
        except struct.error as exc:
            raise WireError(f"truncated auth block: {exc}") from None
        if digest_len:
            raise WireError("a Merkle certificate carries no digest")
        sig_len, offset = _read_varint(data, offset)
        signature = data[offset:offset + sig_len]
        offset += sig_len
        index, offset = _read_varint(data, offset)
        leaves, offset = _read_varint(data, offset)
        shape = merkle_shape(index, leaves)
        if len(signature) != sig_len or offset >= len(data):
            raise WireError("truncated Merkle certificate")
        sibling_len = data[offset]
        offset += 1
        if any(shape) and not sibling_len:
            raise WireError("empty Merkle sibling")
        path = []
        for real in shape:
            if real:
                path.append(data[offset:offset + sibling_len])
                offset += sibling_len
            else:
                path.append(b"")
        if offset > len(data):
            raise WireError("truncated Merkle path")
        return cls(b"", SIG_MERKLE, signature, index, path, leaves), offset


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
        items = self.items
        try:
            parts = [_HEADER.pack(MAGIC, WIRE_VERSION, self.msg_type,
                                  self.strategy, self.flags, self.group_id,
                                  self.seq, self.timestamp_us,
                                  self.root_node_id, self.root_version),
                     _U16.pack(len(items))]
            if items:
                block, key_size = _sizes(items)
                parts.append(_SIZES.pack(block, key_size))
                pack_ref = _REF.pack
                pack_one_key = _ONE_KEY_ITEM.pack
                pack_payload = _PAYLOAD_ITEM.pack
                append = parts.append
                for item in items:
                    ciphertext = item.ciphertext
                    labels = item.labels
                    plaintext_len = item.plaintext_len
                    if not labels:
                        iv = item.iv
                        # ciphertext_size(plaintext_len, block), inline.
                        if not block or len(iv) != block or len(
                                ciphertext) != (-(-plaintext_len // block)
                                                * block or block):
                            raise WireError(
                                "payload item is not one IV block and a "
                                "padded ciphertext of its plaintext length")
                        append(pack_payload(item.enc_node_id,
                                            item.enc_version, 0,
                                            plaintext_len))
                        append(iv)
                    elif (item.iv or not key_size
                            or plaintext_len != len(ciphertext)
                            or plaintext_len != len(labels) * key_size):
                        raise WireError("key item is not whole keys of "
                                        "the message's key size, without "
                                        "an IV")
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
            # Per item: reference, a one-byte label count, a payload's IV,
            # ciphertext, then the labels or a payload's 2-byte length.
            size += 2 + len(items) * (_REF.size + 1)
            for item in items:
                count = len(item.labels)
                size += len(item.iv) + len(item.ciphertext) + (
                    _REF.size * count if count else 2)
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
        if wire_version != WIRE_VERSION:
            raise WireError(f"unsupported wire version {wire_version}")
        items = []
        if n_items:
            end = len(data)
            keyed = paid = False
            unpack_ref = _REF.unpack_from
            unpack_one_key = _ONE_KEY_ITEM.unpack_from
            try:
                for _ in range(n_items):
                    count = data[offset + _REF.size]
                    iv = b""
                    if count == 1 and key_size:
                        (enc_node_id, enc_version, _count, node_id,
                         version) = unpack_one_key(data, offset)
                        labels = ((node_id, version),)
                        plaintext_len = size = key_size
                        offset += _ONE_KEY_ITEM.size
                        keyed = True
                    else:
                        enc_node_id, enc_version = unpack_ref(data, offset)
                        count, offset = _read_varint(data,
                                                     offset + _REF.size)
                        if count:
                            plaintext_len = size = count * key_size
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
                            if not block:
                                raise WireError(
                                    "payload item under a zero block size")
                            (plaintext_len,) = _U16.unpack_from(data, offset)
                            offset += 2 + block
                            iv = data[offset - block:offset]
                            size = -(-plaintext_len // block) * block or block
                            labels = ()
                            paid = True
                    ciphertext_at = offset
                    offset += size
                    if offset > end:
                        raise WireError("truncated item body")
                    items.append(EncryptedItem(
                        enc_node_id, enc_version, iv,
                        data[ciphertext_at:offset], plaintext_len, labels))
            except (IndexError, struct.error) as exc:
                raise WireError(f"truncated item: {exc}") from None
            if key_size and not keyed:
                raise WireError("key size without key items")
            if block and not paid:
                raise WireError("block size without payload items")
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
