"""Resync reply construction/parsing (shared by every server flavor).

The paper assumes "a reliable message delivery system, for both unicast
and multicast" (§5); this module is half of the mechanism that relaxes
it.  A desynchronized member sends ``MSG_RESYNC_REQUEST`` (body: its
UTF-8 user id) and the server answers with one ``MSG_RESYNC_REPLY``
unicast:

* body — one status byte (:data:`RESYNC_OK` / :data:`RESYNC_NOT_MEMBER`)
  followed by the member's 4-byte leaf node id;
* items — for ``RESYNC_OK``, exactly one :class:`~repro.core.messages.
  EncryptedItem` holding every key record on the member's current path
  (leaf parent up to the group key), encrypted under the member's
  *individual* key and referenced by the :data:`~repro.core.messages.
  INDIVIDUAL_KEY` sentinel — decryptable no matter how stale the
  member's group state is;
* header — the current group-key ``(node id, version)`` reference, which
  the client adopts as authoritative.

The reply is signed like any other server message, so a forged resync
cannot inject keys.  Building one draws nothing (the item's IV comes
from its first label), so serving resyncs never perturbs the rekey key
stream — a chaos run's server-side key state stays byte-identical to a
fault-free control run's.
"""

from __future__ import annotations

import struct
import time
from typing import Sequence, Tuple

from .messages import (INDIVIDUAL_KEY, MSG_RESYNC_REPLY, Destination,
                       KeyRecord, Message, OutboundMessage, WireError,
                       encrypt_records)

#: Resync reply status codes (first body byte).
RESYNC_OK = 0
RESYNC_NOT_MEMBER = 1

_BODY = struct.Struct(">BI")


def encode_resync_body(status: int, leaf_node_id: int) -> bytes:
    """Pack the reply body: status byte + leaf node id."""
    return _BODY.pack(status, leaf_node_id & 0xFFFFFFFF)


def parse_resync_body(body: bytes) -> Tuple[int, int]:
    """Unpack a reply body into ``(status, leaf node id)``."""
    try:
        return _BODY.unpack_from(body, 0)
    except struct.error as exc:
        raise WireError(f"truncated resync body: {exc}") from None


def build_resync_reply(suite, signer, sequencer, *, group_id: int,
                       user_id: str, status: int, leaf_node_id: int,
                       records: Sequence[KeyRecord] = (),
                       root_ref: Tuple[int, int] = (0, 0),
                       individual_key: bytes = b"") -> OutboundMessage:
    """Assemble and sign one resync reply unicast for ``user_id``."""
    items = []
    if status == RESYNC_OK and records:
        items.append(encrypt_records(suite, individual_key, records,
                                     INDIVIDUAL_KEY, 0))
    message = Message(
        msg_type=MSG_RESYNC_REPLY,
        group_id=group_id,
        seq=sequencer.next(),
        timestamp_us=time.time_ns() // 1000,
        root_node_id=root_ref[0],
        root_version=root_ref[1],
        items=items,
        body=encode_resync_body(status, leaf_node_id),
    )
    signer.seal([message])
    return OutboundMessage(Destination.to_user(user_id), message,
                           (user_id,), message.encode())
