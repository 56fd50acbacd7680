"""Client layer: processes rekey messages and tracks held keys (paper §5).

A client knows its individual key and the keys on its path to the root
(at most ``h`` of them).  On each rekey message it verifies the digest /
signature, then decrypts every item whose encrypting-key reference
matches a key it holds, installing the key records found inside.  Items
may arrive in any order (group-oriented messages interleave levels), so
decryption iterates to a fixed point.

The per-message statistics the client layer gathers (bytes received,
decryptions performed, keys changed) are what Table 6 and Figure 12
report.

:meth:`GroupClient.receive` is the member side's one datagram
dispatch: every transport handler, shim and example hands what arrives
to it, whatever its type.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from ..crypto.modes import PaddingError
from ..observability import StageClock
from .messages import (INDIVIDUAL_KEY, MSG_DATA, MSG_JOIN_ACK,
                       MSG_JOIN_DENIED, MSG_LEAVE_ACK, MSG_LEAVE_DENIED,
                       MSG_REKEY, MSG_RESYNC_REPLY, MSG_SUBCAST,
                       SUBCAST_MESSAGE_KEY, Message, WireError,
                       decrypt_records)
from .resync import RESYNC_NOT_MEMBER, RESYNC_OK, parse_resync_body
from .signing import SigningError, verify_message

_CONTROL_TYPES = (MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_LEAVE_ACK,
                  MSG_LEAVE_DENIED)


class ClientError(ValueError):
    """Raised on protocol violations observed by the client."""


class StaleKeyError(ClientError):
    """Raised when traffic arrives under a group key we do not hold.

    The failed decrypt is the client's §5 desync signal: it marks the
    client desynchronized so the member layer can request a resync.
    """


class SubcastNotAddressed(ClientError):
    """Raised when no held key opens any of a subcast's cover items.

    Unlike :class:`StaleKeyError` this is *not* a desync signal: a
    member outside the target subset receives the multicast (transports
    dedup per reply path) and correctly cannot decrypt it — that is the
    security property, not a protocol fault.
    """


@dataclass
class ClientStats:
    """Counters a client accumulates while processing messages."""

    rekey_messages: int = 0
    rekey_bytes: int = 0
    decryptions: int = 0
    keys_changed: int = 0
    verify_failures: int = 0
    processing_seconds: float = 0.0    # CPU time (StageClock)
    desyncs_detected: int = 0
    resyncs: int = 0
    subcasts_opened: int = 0
    #: Data messages under a group key we did not hold (see receive).
    data_failures: int = 0

    def snapshot(self) -> "ClientStats":
        """An independent copy of the counters."""
        return replace(self)


class GroupClient:
    """A group member's key state machine."""

    def __init__(self, user_id: str, suite, server_public_key=None,
                 verify: bool = True):
        self.user_id = user_id
        self.suite = suite
        self.server_public_key = server_public_key
        self.verify = verify
        self.individual_key: Optional[bytes] = None
        # The id of this user's individual-key leaf node, learned from
        # the join ack.  Rekey items addressed to us after a leaf split
        # reference the individual key by this id.
        self.leaf_node_id: Optional[int] = None
        # node_id -> (version, key bytes)
        self.keys: Dict[int, Tuple[int, bytes]] = {}
        self.root_ref: Optional[Tuple[int, int]] = None
        # Set when gap detection notices we can no longer follow the
        # rekey stream (an item referencing a key version we never saw,
        # or a data message under an unheld group key).  Cleared by a
        # successful resync or by a message that restores the group key.
        self.desynced = False
        # Set by a RESYNC_NOT_MEMBER reply: the server evicted us.
        self.evicted = False
        self.stats = ClientStats()

    # -- key state ------------------------------------------------------------

    def set_individual_key(self, key: bytes) -> None:
        """Install the individual key (the paper's authentication result)."""
        if len(key) != self.suite.key_size:
            raise ClientError(
                f"individual key must be {self.suite.key_size} bytes")
        self.individual_key = key

    def holds(self, node_id: int, version: int) -> bool:
        """True iff this exact (node id, version) key is held."""
        held = self.keys.get(node_id)
        return held is not None and held[0] == version

    def group_key(self) -> Optional[bytes]:
        """The current group key, or None if not yet learned."""
        if self.root_ref is None:
            return None
        node_id, version = self.root_ref
        held = self.keys.get(node_id)
        if held is None or held[0] != version:
            return None
        return held[1]

    def key_count(self) -> int:
        """Number of distinct keys held (individual key included)."""
        return len(self.keys) + (1 if self.individual_key else 0)

    def forget_all(self) -> None:
        """Drop all group state (used after leaving)."""
        self.keys.clear()
        self.root_ref = None
        self.desynced = False

    # -- the one dispatch -----------------------------------------------------

    def receive(self, data: bytes) -> Tuple[int, Optional[bytes]]:
        """Handle one inbound datagram of any type.

        Decodes it once and routes it: rekeys to :meth:`process_message`,
        resync replies to :meth:`process_resync`, join/leave acks and
        denials to :meth:`process_control`, data to :meth:`open_data`.
        Returns ``(message type, plaintext)``; the plaintext is set only
        for a data message that opened.  A data message under a group key
        we do not hold is absorbed (gap detection has flagged us, and
        ``stats.data_failures`` counts it); other types (busy, stats,
        subcast) come back unprocessed.  Every other error is raised as
        the ``process_*`` call raised it, so callers on hostile paths
        wrap this in their own ``try``.
        """
        message = Message.decode(data)
        msg_type = message.msg_type
        if msg_type == MSG_REKEY:
            self.process_message(message)
        elif msg_type == MSG_RESYNC_REPLY:
            self.process_resync(message)
        elif msg_type in _CONTROL_TYPES:
            self.process_control(message)
        elif msg_type == MSG_DATA:
            try:
                return msg_type, self.open_data(message)
            except StaleKeyError:
                self.stats.data_failures += 1
        return msg_type, None

    # -- message processing ---------------------------------------------------

    def set_leaf(self, node_id: int) -> None:
        """Record the tree node id of our individual-key leaf."""
        self.leaf_node_id = node_id

    def process_control(self, data: Union[bytes, Message]) -> Message:
        """Handle a join/leave ack; returns the parsed message."""
        message = data if isinstance(data, Message) else Message.decode(data)
        if self.verify:
            verify_message(self.suite, message, self.server_public_key)
        if message.msg_type == MSG_JOIN_ACK and len(message.body) >= 4:
            self.set_leaf(int.from_bytes(message.body[:4], "big"))
        elif message.msg_type == MSG_LEAVE_ACK:
            self.forget_all()
        return message

    def _lookup_encrypting_key(self, item) -> Optional[bytes]:
        if item.enc_node_id == INDIVIDUAL_KEY or (
                self.leaf_node_id is not None
                and item.enc_node_id == self.leaf_node_id):
            return self.individual_key
        held = self.keys.get(item.enc_node_id)
        if held is not None and held[0] == item.enc_version:
            return held[1]
        return None

    def process_message(self, data: Union[bytes, Message]) -> int:
        """Handle one rekey message; returns the number of keys changed.

        Raises :class:`SigningError` when verification is enabled and the
        message fails its digest or signature check.
        """
        clock = StageClock()
        if isinstance(data, Message):
            message = data
            size = data.wire_size()
        else:
            message = Message.decode(data)
            size = len(data)
        if message.msg_type != MSG_REKEY:
            raise ClientError(f"not a rekey message (type {message.msg_type})")
        if self.verify:
            try:
                verify_message(self.suite, message, self.server_public_key)
            except SigningError:
                self.stats.verify_failures += 1
                raise
        self.stats.rekey_messages += 1
        self.stats.rekey_bytes += size

        changed, leftovers = self._install_items(message.items)
        self._adopt_root(message.root_node_id, message.root_version)
        self.stats.keys_changed += changed
        self.stats.processing_seconds += clock.stop()
        # Gap detection (the §5 reliable-delivery assumption, relaxed):
        # an undecryptable leftover referencing a *newer* version of a
        # key we hold means we missed the rekey that produced it.
        keys = self.keys
        for item in leftovers:
            held = keys.get(item.enc_node_id)
            if held is not None and item.enc_version > held[0]:
                self._mark_desync()
                return changed
        if self.root_ref is not None and self.group_key() is None:
            self._mark_desync()
        elif self.desynced and self.group_key() is not None:
            self.desynced = False
        return changed

    def _adopt_root(self, node_id: int, version: int) -> None:
        """Adopt a message's group-key reference unless it is stale.

        Same root node: only move the version forward (a delayed or
        replayed message must not roll the group-key pointer back).  A
        different root node (tree restructured, or a cluster's root
        layer vs shard stream) is adopted as-is — cross-node staleness
        cannot be ordered locally and is repaired by resync instead.
        """
        if (self.root_ref is not None and node_id == self.root_ref[0]
                and version < self.root_ref[1]):
            return
        self.root_ref = (node_id, version)

    def _mark_desync(self) -> None:
        if not self.desynced:
            self.desynced = True
            self.stats.desyncs_detected += 1

    def _install_items(self, items) -> Tuple[int, list]:
        """Decrypt what we can, iterating to a fixed point.

        Returns ``(keys changed, undecryptable leftovers)``.  Installs
        are version-gated: a record older than the held version is a
        stale duplicate and must not downgrade the key map.

        One pass over ``items``; an item we cannot open yet waits under
        the node id of the key it references and is looked at again
        only if that key gets installed.  A group-oriented rekey
        carries ``d(h-1)`` items of which a member opens at most ``h``,
        so this loop is the receiver's hot path.
        """
        keys = self.keys
        waiting: Dict[int, list] = {}
        changed = 0
        ready = list(items)
        while ready:
            retry = []
            for item in ready:
                key = self._lookup_encrypting_key(item)
                if key is None:
                    waiting.setdefault(item.enc_node_id, []).append(item)
                    continue
                try:
                    records = decrypt_records(self.suite, key, item)
                except (PaddingError, WireError, ValueError) as exc:
                    raise ClientError(f"undecryptable item: {exc}") from None
                self.stats.decryptions += 1
                for record in records:
                    current = keys.get(record.node_id)
                    if current is not None and record.version < current[0]:
                        continue  # stale duplicate: never downgrade
                    if current != (record.version, record.key):
                        keys[record.node_id] = (record.version, record.key)
                        changed += 1
                        if record.node_id in waiting:
                            retry.extend(waiting.pop(record.node_id))
            ready = retry
        return changed, [item for held_up in waiting.values()
                         for item in held_up]

    # -- resynchronization ----------------------------------------------------

    def process_resync(self, data: Union[bytes, Message]) -> int:
        """Handle a ``MSG_RESYNC_REPLY``; returns the resync status.

        An ``RESYNC_OK`` reply carries our full current key path in one
        item under our individual key; its header root reference is
        authoritative (it names the group key as of reply construction).
        ``RESYNC_NOT_MEMBER`` means the server no longer considers us a
        member (e.g. evicted after heartbeat silence): all group state
        is dropped and :attr:`evicted` is set so the member layer can
        decide whether to rejoin.
        """
        message = data if isinstance(data, Message) else Message.decode(data)
        if message.msg_type != MSG_RESYNC_REPLY:
            raise ClientError(
                f"not a resync reply (type {message.msg_type})")
        if self.verify:
            try:
                verify_message(self.suite, message, self.server_public_key)
            except SigningError:
                self.stats.verify_failures += 1
                raise
        status, leaf_node_id = parse_resync_body(message.body)
        if status == RESYNC_NOT_MEMBER:
            self.forget_all()
            self.evicted = True
            return status
        if status != RESYNC_OK:
            raise ClientError(f"unknown resync status {status}")
        if leaf_node_id != INDIVIDUAL_KEY:
            self.set_leaf(leaf_node_id)
        changed, leftovers = self._install_items(message.items)
        if leftovers:
            raise ClientError("resync reply item not decryptable under "
                              "the individual key")
        self._adopt_root(message.root_node_id, message.root_version)
        self.stats.keys_changed += changed
        self.stats.resyncs += 1
        if self.group_key() is not None:
            self.desynced = False
        return status

    # -- application data -------------------------------------------------------

    def open_data(self, data: Union[bytes, Message]) -> bytes:
        """Decrypt an application data message sent under the group key."""
        message = data if isinstance(data, Message) else Message.decode(data)
        if message.msg_type != MSG_DATA:
            raise ClientError("not a data message")
        if self.verify:
            verify_message(self.suite, message, self.server_public_key)
        if not self.holds(message.root_node_id, message.root_version):
            self._mark_desync()
            raise StaleKeyError(
                "data message under a group key we do not hold")
        if len(message.items) != 1:
            raise ClientError("data message must carry exactly one item")
        item = message.items[0]
        if item.labels:
            raise ClientError("data message item carries key labels")
        group_key = self.keys[message.root_node_id][1]
        from ..crypto import modes
        cipher = self.suite.new_cipher(group_key)
        padded = modes.cbc_decrypt_nopad(cipher, item.ciphertext, item.iv)
        if item.plaintext_len > len(padded):
            raise ClientError("corrupt data message length")
        return padded[:item.plaintext_len]

    # -- subgroup multicast ------------------------------------------------------

    def open_subcast(self, data: Union[bytes, Message]) -> bytes:
        """Decrypt a ``MSG_SUBCAST`` addressed to a subset we are in.

        The first item is the payload under the subcast's ephemeral
        message key; each further item seals that message key under one
        cover key.  We peel the one cover item a held (node id,
        version) key opens — covers are disjoint subtrees, so a target
        member holds exactly one — then open the payload.  Raises
        :class:`SubcastNotAddressed` when no held key matches: we are
        outside the target subset, or our key material is stale
        (evicted members never decrypt post-eviction subcasts — the
        cover references post-rekey key versions).
        """
        message = data if isinstance(data, Message) else Message.decode(data)
        if message.msg_type != MSG_SUBCAST:
            raise ClientError(
                f"not a subcast message (type {message.msg_type})")
        if self.verify:
            try:
                verify_message(self.suite, message, self.server_public_key)
            except SigningError:
                self.stats.verify_failures += 1
                raise
        if not message.items:
            raise ClientError("subcast carries no items")
        payload_item = message.items[0]
        if payload_item.enc_node_id != SUBCAST_MESSAGE_KEY \
                or payload_item.labels:
            raise ClientError("subcast payload item missing")
        subcast_id = payload_item.enc_version
        message_key: Optional[bytes] = None
        for item in message.items[1:]:
            key = self._lookup_encrypting_key(item)
            if key is None:
                continue
            try:
                records = decrypt_records(self.suite, key, item)
            except (PaddingError, WireError, ValueError) as exc:
                raise ClientError(f"undecryptable cover item: {exc}") \
                    from None
            self.stats.decryptions += 1
            for record in records:
                if (record.node_id == SUBCAST_MESSAGE_KEY
                        and record.version == subcast_id):
                    message_key = record.key
            if message_key is not None:
                break
        if message_key is None:
            raise SubcastNotAddressed(
                "no held key opens any cover item of this subcast")
        from ..crypto import modes
        cipher = self.suite.new_cipher(message_key)
        padded = modes.cbc_decrypt_nopad(cipher, payload_item.ciphertext,
                                         payload_item.iv)
        if payload_item.plaintext_len > len(padded):
            raise ClientError("corrupt subcast payload length")
        self.stats.decryptions += 1
        self.stats.subcasts_opened += 1
        return padded[:payload_item.plaintext_len]
