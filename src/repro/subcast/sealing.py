"""Sealing a payload to a key cover: the subcast message builder.

One subcast is one ciphertext no matter how many cover keys address it:
the payload is encrypted once under a fresh *message key*, and the
message key is sealed once per cover key.  A member holding any cover
key peels two layers (cover key → message key → payload); everyone
else — non-members, evicted members holding stale key versions,
members outside the target subset — holds none of the referenced
(node id, version) keys and provably cannot decrypt.

Determinism contract: all key/IV draws come from the sealer's own
:class:`~repro.core.pipeline.KeyMaterialSource`, built with a
*dedicated DRBG personalization* per hosting server (``subcast-seal``,
``cluster-subcast``) — sealing a subcast never
perturbs the rekey key stream, so a run with interleaved subcasts
stays byte-identical to its subcast-free control on every rekey
message.  The subcast bytes themselves are pinned by golden digests
(``tests/subcast/test_sealing.py``).

A cover item's IV is derived from its label (``SUBCAST_MESSAGE_KEY``,
sequence number), which must never repeat: the sealer refuses, before
any draw, a sequence number past :data:`MAX_SUBCAST_ID`.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence, Tuple

from ..core.messages import (MSG_SUBCAST, SUBCAST_MESSAGE_KEY, Destination,
                             EncryptedItem, KeyRecord, Message,
                             OutboundMessage, ciphertext_size,
                             encrypt_records)
from ..core.pipeline import KeyMaterialSource, Sequencer
from ..core.server import ServerError
from ..crypto import modes

#: A cover entry: the (node id, version) wire reference members hold
#: the key under, plus the key bytes to seal with.
CoverKey = Tuple[int, int, bytes]

#: The largest sequence number a subcast label's version field carries.
MAX_SUBCAST_ID = 0xFFFFFFFF


class SubcastError(ServerError):
    """A refused subcast: an empty cover or target, or a sequence
    number past :data:`MAX_SUBCAST_ID`."""


class SubcastSealer:
    """Builds signed ``MSG_SUBCAST`` messages from a key cover.

    The sealer is deliberately tree-agnostic: callers (the three server
    flavors) compute the cover with whatever covering algorithm their
    config selects and hand over ``(node_id, version, key)`` triples.
    ``seal_lock`` serializes signing with any staged pipeline runs
    sharing the signer (the same discipline as control messages).
    """

    def __init__(self, suite, material: KeyMaterialSource, signer,
                 sequencer: Sequencer, *, group_id: int = 1,
                 seal_lock: Optional[threading.Lock] = None):
        self.suite = suite
        self.material = material
        self.signer = signer
        self.sequencer = sequencer
        self.group_id = group_id
        self.seal_lock = seal_lock if seal_lock is not None \
            else threading.Lock()

    def seal(self, cover: Sequence[CoverKey], payload: bytes, *,
             receivers: Sequence[str],
             root_ref: Tuple[int, int]) -> OutboundMessage:
        """One payload ciphertext plus per-cover-key sealed message keys.

        ``cover`` must address exactly ``receivers`` (the covering
        algorithms guarantee this); ``root_ref`` stamps the current
        group-key reference into the header so receivers can detect
        staleness without treating the subcast as a rekey.
        """
        if not cover:
            raise SubcastError("subcast needs a non-empty key cover")
        if not receivers:
            raise SubcastError("subcast needs at least one receiver")
        if self.sequencer.value >= MAX_SUBCAST_ID:
            raise SubcastError("sequence numbers past the subcast id "
                               "range: a label would repeat")
        seq = subcast_id = self.sequencer.next()
        # Draw order is part of the byte-determinism contract: message
        # key, then payload IV.
        message_key = self.material.new_key()
        payload_iv = self.material.new_iv()
        padded = payload.ljust(
            ciphertext_size(len(payload), self.suite.block_size), b"\x00")
        cipher = self.suite.new_cipher(message_key)
        ciphertext = modes.cbc_encrypt_nopad(cipher, padded, payload_iv)
        items: List[EncryptedItem] = [
            EncryptedItem(SUBCAST_MESSAGE_KEY, subcast_id, payload_iv,
                          ciphertext, len(payload))]
        record = KeyRecord(SUBCAST_MESSAGE_KEY, subcast_id, message_key)
        for node_id, version, key in sorted(cover,
                                            key=lambda entry: entry[0]):
            items.append(encrypt_records(self.suite, key, [record],
                                         node_id, version))
        root_id, root_version = root_ref
        message = Message(
            msg_type=MSG_SUBCAST, group_id=self.group_id, seq=seq,
            timestamp_us=time.time_ns() // 1000,
            root_node_id=root_id, root_version=root_version, items=items)
        with self.seal_lock:
            self.signer.seal([message])
        return OutboundMessage(Destination.to_users(tuple(receivers)),
                               message, tuple(receivers), message.encode())
