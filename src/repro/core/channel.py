"""Authenticated group data channel over the group key.

The paper focuses on key management and notes (§1, footnote 2) that
given a shared group key, confidentiality is immediate and "authenticity
and integrity can be provided ... using standard techniques".  This
module is those standard techniques: a member-to-group channel that
provides, per data frame,

* confidentiality  — CBC encryption under a key *derived* from the
  group key (never the group key itself, so rekey traffic and data
  traffic use independent keys);
* integrity + group authenticity — HMAC under a second derived key
  (proves the sender was a group member at this epoch; individual
  sender authenticity would need signatures, as §4 discusses for the
  server);
* replay protection — per-sender sequence numbers with a sliding
  acceptance window;
* epoch binding — frames name the group-key version they were sealed
  under; an old epoch's frames are rejected once the group rekeys, so
  departed members' frames die with their keys;
* optional *individual* sender authenticity — §4 notes that "it is
  possible for a user to masquerade as the server"; symmetrically, any
  member can masquerade as another under a shared MAC key.  Passing a
  per-sender RSA keypair (and registering peers' public keys) adds a
  signature over each frame, pinning the claimed sender identity.

Both the server and any member can run a channel; members feed it from
their :class:`~repro.core.client.GroupClient`.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Callable, Dict, Optional, Tuple

from ..crypto import hmac as hmac_module
from ..crypto import modes
from .messages import (MAX_PLAINTEXT, MSG_DATA, EncryptedItem, Message,
                       WireError, ciphertext_size)

_FRAME = struct.Struct(">B")          # sender length
_SEQ = struct.Struct(">Q")

REPLAY_WINDOW = 64


class ChannelError(ValueError):
    """Raised when a frame fails authentication, replay or epoch checks."""


def derive_keys(suite, group_key: bytes) -> Tuple[bytes, bytes]:
    """Derive (encryption key, MAC key) from the group key.

    HMAC with the suite digest (SHA-1 when the suite carries no digest,
    so encryption-only suites still get channel authenticity).
    """
    digest_factory = suite.digest_factory
    if digest_factory is None:
        digest_factory = hashlib.sha1
    enc = hmac_module.new(group_key, b"keygraph-channel-encrypt",
                          digest_factory).digest()
    while len(enc) < suite.key_size:
        enc += hmac_module.new(group_key, enc, digest_factory).digest()
    mac = hmac_module.new(group_key, b"keygraph-channel-mac",
                          digest_factory).digest()
    return enc[:suite.key_size], mac


class ReplayWindow:
    """Sliding-window duplicate/replay detector for one sender."""

    def __init__(self, size: int = REPLAY_WINDOW):
        self.size = size
        self.highest = 0
        self._mask = 0

    def check_and_update(self, seq: int) -> None:
        """Accept ``seq`` exactly once; raise ChannelError otherwise."""
        if seq <= 0:
            raise ChannelError("sequence numbers start at 1")
        if seq > self.highest:
            shift = seq - self.highest
            self._mask = ((self._mask << shift) | 1) & ((1 << self.size) - 1)
            self.highest = seq
            return
        offset = self.highest - seq
        if offset >= self.size:
            raise ChannelError(f"frame {seq} is older than the replay window")
        if self._mask & (1 << offset):
            raise ChannelError(f"replayed frame {seq}")
        self._mask |= 1 << offset


class SecureGroupChannel:
    """Seal/open authenticated data frames under the current group key.

    ``key_source`` returns ``(root_node_id, root_version, group_key)``
    for the *current* epoch, or None when no group key is held.
    ``iv_source`` supplies fresh IVs (defaults to os.urandom).
    """

    def __init__(self, suite, sender_id: str,
                 key_source: Callable[[], Optional[Tuple[int, int, bytes]]],
                 iv_source: Optional[Callable[[], bytes]] = None,
                 accept_previous_epochs: int = 0,
                 signing_keypair=None):
        if not sender_id or len(sender_id.encode("utf-8")) > 255:
            raise ChannelError("sender id must be 1..255 UTF-8 bytes")
        self.suite = suite
        self.sender_id = sender_id
        self._key_source = key_source
        if iv_source is None:
            import os
            iv_source = lambda: os.urandom(suite.block_size)
        self._iv_source = iv_source
        self._send_seq = 0
        self._windows: Dict[str, ReplayWindow] = {}
        # Recent epochs kept for in-flight frames that raced a rekey.
        self.accept_previous_epochs = accept_previous_epochs
        self._epoch_cache: Dict[Tuple[int, int], bytes] = {}
        # Optional individual sender authenticity (RSA over the frame).
        self._signing_keypair = signing_keypair
        self._peer_keys: Dict[str, object] = {}
        self.require_sender_signatures = False

    def register_peer(self, sender_id: str, public_key) -> None:
        """Trust ``public_key`` to speak for ``sender_id``.

        Once any peer is registered, frames claiming a registered
        identity must carry a valid signature; set
        ``require_sender_signatures`` to insist on signatures from
        *every* sender.
        """
        self._peer_keys[sender_id] = public_key

    @classmethod
    def for_client(cls, client, **kwargs) -> "SecureGroupChannel":
        """Channel fed by a :class:`~repro.core.client.GroupClient`."""
        def source():
            if client.root_ref is None:
                return None
            key = client.group_key()
            if key is None:
                return None
            return (client.root_ref[0], client.root_ref[1], key)
        return cls(client.suite, client.user_id, source, **kwargs)

    @classmethod
    def for_server(cls, server, **kwargs) -> "SecureGroupChannel":
        """Channel fed by a :class:`~repro.core.server.GroupKeyServer`."""
        def source():
            if server.n_users == 0:
                return None
            node_id, version = server.group_key_ref()
            return (node_id, version, server.group_key())
        return cls(server.suite, "@server", source,
                   iv_source=server.material.new_iv, **kwargs)

    # -- sending -----------------------------------------------------------

    def seal(self, payload: bytes) -> bytes:
        """Produce an authenticated, encrypted frame for the group."""
        epoch = self._key_source()
        if epoch is None:
            raise ChannelError("no group key available to seal under")
        if len(payload) > MAX_PLAINTEXT:
            raise ChannelError(f"payload of {len(payload)} bytes exceeds "
                               f"the {MAX_PLAINTEXT}-byte item limit")
        node_id, version, group_key = epoch
        self._remember_epoch(node_id, version, group_key)
        enc_key, mac_key = derive_keys(self.suite, group_key)
        self._send_seq += 1
        sender = self.sender_id.encode("utf-8")
        iv = self._iv_source()
        cipher = self.suite.new_cipher(enc_key)
        padded_len = ciphertext_size(len(payload), self.suite.block_size)
        ciphertext = modes.cbc_encrypt_nopad(
            cipher, payload.ljust(padded_len, b"\x00"), iv)
        item = EncryptedItem(node_id, version, iv, ciphertext, len(payload))
        body = (_FRAME.pack(len(sender)) + sender
                + _SEQ.pack(self._send_seq))
        message = Message(msg_type=MSG_DATA, root_node_id=node_id,
                          root_version=version, seq=self._send_seq,
                          items=[item], body=body)
        mac = hmac_module.new(mac_key, message.signed_region(),
                              self._mac_digest()).digest()
        from .messages import SIG_NONE, SIG_PER_MESSAGE, AuthBlock
        if self._signing_keypair is not None:
            # Individual sender authenticity: RSA over (MAC || region).
            from ..crypto import rsa as rsa_module
            digest = self._channel_digest(mac + message.signed_region())
            signature = rsa_module.sign_digest(
                self._signing_keypair, digest, self._rsa_algorithm())
            message.auth = AuthBlock(digest=mac, scheme=SIG_PER_MESSAGE,
                                     signature=signature)
        else:
            message.auth = AuthBlock(digest=mac, scheme=SIG_NONE)
        return message.encode()

    def _channel_digest(self, data: bytes) -> bytes:
        return self._mac_digest()(data).digest()

    def _rsa_algorithm(self) -> str:
        return self.suite.digest_name or "sha1"

    def _mac_digest(self):
        factory = self.suite.digest_factory
        if factory is None:
            factory = hashlib.sha1
        return factory

    def _remember_epoch(self, node_id: int, version: int,
                        group_key: bytes) -> None:
        self._epoch_cache[(node_id, version)] = group_key
        # Trim to current + allowed previous epochs.
        while len(self._epoch_cache) > 1 + self.accept_previous_epochs:
            oldest = min(self._epoch_cache, key=lambda ref: ref[1])
            del self._epoch_cache[oldest]

    # -- receiving -----------------------------------------------------------

    def open(self, frame: bytes) -> Tuple[bytes, str, int]:
        """Verify and decrypt a frame; returns (payload, sender, seq)."""
        try:
            message = Message.decode(frame)
        except WireError as exc:
            raise ChannelError(f"malformed frame: {exc}") from None
        if message.msg_type != MSG_DATA or len(message.items) != 1:
            raise ChannelError("not a data frame")

        # Epoch check before anything else.
        epoch = self._key_source()
        if epoch is not None:
            self._remember_epoch(*epoch)
        ref = (message.root_node_id, message.root_version)
        group_key = self._epoch_cache.get(ref)
        if group_key is None:
            raise ChannelError(
                f"frame from unknown epoch {ref} (stale or future key)")
        enc_key, mac_key = derive_keys(self.suite, group_key)

        # Authenticity: constant-time MAC comparison.
        expected = hmac_module.new(mac_key, message.signed_region(),
                                   self._mac_digest()).digest()
        if message.auth is None or not hmac_module.compare_digest(
                message.auth.digest, expected):
            raise ChannelError("frame MAC verification failed")

        # Parse sender/seq and enforce replay protection.
        body = message.body
        if len(body) < 1:
            raise ChannelError("truncated frame body")
        (sender_len,) = _FRAME.unpack_from(body, 0)
        if len(body) < 1 + sender_len + _SEQ.size:
            raise ChannelError("truncated frame body")
        sender = body[1:1 + sender_len].decode("utf-8", errors="replace")
        (seq,) = _SEQ.unpack_from(body, 1 + sender_len)

        # Individual sender authenticity (when keys are pinned).
        peer_key = self._peer_keys.get(sender)
        if peer_key is not None or self.require_sender_signatures:
            from .messages import SIG_PER_MESSAGE
            if peer_key is None:
                raise ChannelError(
                    f"no pinned public key for sender {sender!r}")
            if message.auth.scheme != SIG_PER_MESSAGE                     or not message.auth.signature:
                raise ChannelError(
                    f"frame from {sender!r} lacks a sender signature")
            from ..crypto import rsa as rsa_module
            digest = self._channel_digest(
                message.auth.digest + message.signed_region())
            try:
                rsa_module.verify_digest(peer_key, digest,
                                         message.auth.signature,
                                         self._rsa_algorithm())
            except rsa_module.SignatureError:
                raise ChannelError(
                    f"sender signature for {sender!r} does not verify"
                ) from None

        window = self._windows.setdefault(sender, ReplayWindow())
        window.check_and_update(seq)

        item = message.items[0]
        if item.labels:
            raise ChannelError("frame item carries key labels")
        cipher = self.suite.new_cipher(enc_key)
        padded = modes.cbc_decrypt_nopad(cipher, item.ciphertext, item.iv)
        if item.plaintext_len > len(padded):
            raise ChannelError("corrupt frame length")
        return padded[:item.plaintext_len], sender, seq
