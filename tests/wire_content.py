"""What a sent message says, digested independently of its framing.

The byte goldens (``tests/core/test_pipeline_equivalence.py``,
``tests/subcast/test_sealing.py``) pin every wire byte, so a change of
framing moves them all.  Three digests pin less:

* the *content* digest decodes the bytes and hashes the header fields
  except the wire version, each item's key reference, key labels, IV,
  ciphertext and plaintext length, the body, the destination and
  receivers, the signature scheme, the Merkle leaf index and the number
  of real (non-promoted) siblings.  Signatures and sibling digests are
  left out: they sign the framed bytes, so they move with the framing
  by design.  A framing change that keeps this digest carries the same
  ciphertexts to the same members.
* the *key-level* digest drops the ciphertexts too and hashes, instead,
  what every ``encrypt_records`` call was given (key, records,
  encrypting-key reference).  A change of what an item encrypts (v3
  moved the key labels out of the ciphertext) keeps it: the same keys
  travel under the same keys, with the same IVs, to the same members.
* the *key-stream* digest hashes the ``encrypt_records`` calls alone,
  in call order: which keys the server drew, and under which key it
  sent each.  It holds across a change of IVs (v4 derives a key item's
  IV instead of drawing it).  v3 passed each call an IV too, which the
  digest left out; it was computed there with the key items' IV draws
  diverted to a second DRBG, so that the stream held only keys.
"""

import importlib
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.core import messages
from repro.core.messages import SIG_MERKLE, Message

#: Every module that calls ``encrypt_records`` by name.
_ENCRYPTING_MODULES = ("repro.core.strategies.base", "repro.core.resync",
                       "repro.subcast.sealing")


def _fields(encoded: bytes, item_fields) -> tuple:
    """One encoded message's header fields except the wire version,
    ``item_fields(item)`` per item, the body, the signature scheme, the
    Merkle leaf index and the number of real siblings."""
    message = Message.decode(encoded)
    auth = message.auth
    merkle = auth.scheme == SIG_MERKLE
    return (message.msg_type, message.group_id, message.strategy,
            message.flags, message.seq, message.timestamp_us,
            message.root_node_id, message.root_version,
            tuple(map(item_fields, message.items)),
            message.body, auth.scheme,
            auth.merkle_index if merkle else None,
            sum(1 for sibling in auth.merkle_path if sibling)
            if merkle else None)


def message_content(encoded: bytes) -> tuple:
    """The framing-independent content of one encoded message."""
    return _fields(encoded, lambda item: (
        item.enc_node_id, item.enc_version, item.labels, item.iv,
        item.ciphertext, item.plaintext_len))


def message_keys(encoded: bytes) -> tuple:
    """What one encoded message says above the cipher: its content but
    each item's ciphertext, labels and plaintext length (a framing may
    choose what it encrypts)."""
    return _fields(encoded, lambda item: (
        item.enc_node_id, item.enc_version, item.iv))


def _update(h, fields, out, receivers) -> None:
    dest = out.destination
    h.update(repr((fields,
                   (dest.kind, dest.node_id, dest.user_id, dest.user_ids,
                    dest.exclude),
                   tuple(receivers))).encode())


def update_content(h, out, receivers) -> None:
    """Feed one outbound message's content and audience into ``h``."""
    _update(h, message_content(out.encoded), out, receivers)


def update_keys(h, out, receivers) -> None:
    """Feed one outbound message's key-level content and audience into
    ``h`` (:func:`tracing_encryptions` feeds the records)."""
    _update(h, message_keys(out.encoded), out, receivers)


@contextmanager
def recording_encryptions(record):
    """While active, call ``record(key, records, enc_node_id,
    enc_version)`` before every ``encrypt_records`` call, in call
    order."""
    real = messages.encrypt_records

    def recorded(suite, key, records, enc_node_id, enc_version):
        record(key, records, enc_node_id, enc_version)
        return real(suite, key, records, enc_node_id, enc_version)

    with ExitStack() as stack:
        for name in _ENCRYPTING_MODULES:
            stack.enter_context(mock.patch.object(
                importlib.import_module(name), "encrypt_records", recorded))
        yield


def encryption_recorder(h):
    """A ``recording_encryptions`` recorder feeding ``h`` the key, each
    record's (node id, version, key) and the encrypting-key reference
    of every call."""
    def record(key, records, enc_node_id, enc_version):
        h.update(repr((key, tuple((record.node_id, record.version,
                                   record.key) for record in records),
                       enc_node_id, enc_version)).encode())
    return record


def tracing_encryptions(h):
    """While active, feed every ``encrypt_records`` call into ``h``
    (:func:`encryption_recorder`): the key-stream digest.  With
    :func:`update_keys` it is the key-level digest: which key travels
    under which key, to whom, whatever the framing encrypts around
    it."""
    return recording_encryptions(encryption_recorder(h))
