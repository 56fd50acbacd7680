"""What a sent message says, digested independently of its framing.

The byte goldens (``tests/core/test_pipeline_equivalence.py``,
``tests/subcast/test_sealing.py``) pin every wire byte, so a change of
framing moves them all.  This digest pins the content instead: it
decodes the bytes and hashes the header fields except the wire
version, each item's key reference, IV, ciphertext and plaintext
length, the body, the destination and receivers, the signature scheme,
the Merkle leaf index and the number of real (non-promoted) siblings.
Signatures and sibling digests are left out: they sign the framed
bytes, so they move with the framing by design.  A framing change
that keeps this digest carries the same keys to the same members.
"""

from repro.core.messages import SIG_MERKLE, Message


def message_content(encoded: bytes) -> tuple:
    """The framing-independent content of one encoded message."""
    message = Message.decode(encoded)
    auth = message.auth
    merkle = auth.scheme == SIG_MERKLE
    return (message.msg_type, message.group_id, message.strategy,
            message.flags, message.seq, message.timestamp_us,
            message.root_node_id, message.root_version,
            tuple((item.enc_node_id, item.enc_version, item.iv,
                   item.ciphertext, item.plaintext_len)
                  for item in message.items),
            message.body, auth.scheme,
            auth.merkle_index if merkle else None,
            sum(1 for sibling in auth.merkle_path if sibling)
            if merkle else None)


def update_content(h, out, receivers) -> None:
    """Feed one outbound message's content and audience into ``h``."""
    dest = out.destination
    h.update(repr((message_content(out.encoded),
                   (dest.kind, dest.node_id, dest.user_id, dest.user_ids,
                    dest.exclude),
                   tuple(receivers))).encode())
