"""Byte-determinism of the sealing layer.

The subcast wire bytes are part of the reproducibility contract: same
seed, same membership history, same targets, same payload => identical
``MSG_SUBCAST`` bytes, on the served tree and on the ``KeyTree``
reference, pinned by a golden digest.  And sealing draws from a dedicated DRBG personalization, so a
run with interleaved subcasts keeps every *rekey* message byte-for-byte
identical to its subcast-free control run.
"""

import hashlib
import time as _time
from contextlib import contextmanager

import pytest

from repro.core import server as server_module
from repro.core.client import GroupClient
from repro.core.messages import (MSG_SUBCAST, SUBCAST_MESSAGE_KEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.keygraph.covering import greedy_tree_cover
from repro.subcast import SubcastError, SubcastSealer

from ..keygraph.reference import swap_in_reference
from ..wire_content import tracing_encryptions, update_content, update_keys


@contextmanager
def frozen_clock(value_ns=1_234_567_891_000):
    real = _time.time_ns
    _time.time_ns = lambda: value_ns
    try:
        yield
    finally:
        _time.time_ns = real


MEMBERS = [f"u{index:03d}" for index in range(48)]
TARGETS = MEMBERS[8:24] + MEMBERS[40:43]
# Re-pinned three times: for the v2 wire framing, after GOLDEN_CONTENT
# held on v1 and v2; for v3, after GOLDEN_KEYS held on v2 and v3; and for
# v4, after GOLDEN_KEY_STREAM held on v3 and v4.
GOLDEN = "cf245735ba0049505c5945331e975d9fd1863d20adec12629d8ad765cf1149a8"
# Framing-independent content of the same message (tests/wire_content.py),
# computed on the v1 wire and kept by v2; re-pinned for v3, whose cover
# items encrypt the message key alone, and for v4, whose cover items
# send no IV.
GOLDEN_CONTENT = (
    "1181e83b4dbb0f30ec3f219dca06f1890aaaf9cbc8da873ddef4fa0a855b2a67")


# Key-level digest (tests/wire_content.py: the sealing encryptions and the
# message above the cipher), computed on the v2 wire and kept by v3;
# re-pinned for v4, whose encryptions take and whose cover items carry
# no IV.
GOLDEN_KEYS = (
    "e1470a4c6e384769f7405b9d80d9aa52c365a1d505b4566aea8fb808a218e491")


# Key-stream digest (tests/wire_content.py: every sealing encryption's
# key, records and encrypting-key reference) of two subcasts.  Computed
# on the v3 wire, whose cover items drew their IVs after the payload IV,
# with those draws diverted to a second DRBG so that the sealer's stream
# held only message keys and payload IVs; v4 reproduces it unpatched.
GOLDEN_KEY_STREAM = (
    "85bf31c270fb14cffac422c96d16bec356465372c89f483f65a7ff445269a02d")


def build_server(seed=b"seal-golden"):
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", signing="none", seed=seed))
    server.bootstrap([(user, server.new_individual_key())
                      for user in MEMBERS])
    return server


def test_flat_and_object_backends_seal_identical_bytes(monkeypatch):
    """The served server against one on the KeyTree reference, which
    covers through the reference cover (greedy over node handles)."""
    with frozen_clock():
        blob_flat = build_server().subcast(TARGETS, b"golden").encoded
    monkeypatch.setattr(server_module, "tree_subset_cover",
                        greedy_tree_cover)
    reference = swap_in_reference(build_server())
    with frozen_clock():
        blob_obj = reference.subcast(TARGETS, b"golden").encoded
    assert blob_obj == blob_flat


def test_golden_digest_pins_the_wire_bytes():
    server = build_server()
    keys = hashlib.sha256()
    with frozen_clock(), tracing_encryptions(keys):
        out = server.subcast(TARGETS, b"golden")
    update_keys(keys, out, out.receivers)
    assert keys.hexdigest() == GOLDEN_KEYS
    content = hashlib.sha256()
    update_content(content, out, out.receivers)
    assert content.hexdigest() == GOLDEN_CONTENT
    assert hashlib.sha256(out.encoded).hexdigest() == GOLDEN


def subcast_key_stream():
    """The key stream of two subcasts: the golden one, then one to eight
    members outside its targets."""
    server = build_server()
    stream = hashlib.sha256()
    with frozen_clock(), tracing_encryptions(stream):
        server.subcast(TARGETS, b"golden")
        server.subcast(MEMBERS[:8], b"second")
    return stream.hexdigest()


def test_key_stream_without_cover_iv_draws():
    assert subcast_key_stream() == GOLDEN_KEY_STREAM


def test_message_layout():
    with frozen_clock():
        out = build_server().subcast(TARGETS, b"layout-check")
    message = Message.decode(out.encoded)
    assert message.msg_type == MSG_SUBCAST
    # items[0] is the payload ciphertext under the fresh message key,
    # referenced by the sentinel id and the subcast id.
    payload_item = message.items[0]
    assert payload_item.enc_node_id == SUBCAST_MESSAGE_KEY
    assert payload_item.enc_version == message.seq & 0xFFFFFFFF
    assert payload_item.plaintext_len == len(b"layout-check")
    # Cover items reference real tree keys, in ascending node-id order.
    cover_ids = [item.enc_node_id for item in message.items[1:]]
    assert cover_ids == sorted(cover_ids)
    assert all(node_id != SUBCAST_MESSAGE_KEY for node_id in cover_ids)
    assert sorted(out.receivers) == sorted(set(TARGETS))


def test_sealer_rejects_empty_inputs():
    server = build_server()
    sealer = server.subcast_sealer
    assert isinstance(sealer, SubcastSealer)
    with pytest.raises(SubcastError):
        sealer.seal([], b"x", receivers=["u001"], root_ref=(1, 0))
    cover = [(1, 0, bytes(server.suite.key_size))]
    with pytest.raises(SubcastError):
        sealer.seal(cover, b"x", receivers=[], root_ref=(1, 0))


def run_history(with_subcasts):
    server = build_server(seed=b"seal-perturb")
    rekey_blobs = []
    with frozen_clock():
        for index in range(5):
            joiner = f"j{index}"
            server.register_individual_key(joiner,
                                           server.new_individual_key())
            outcome = server.join(joiner)
            rekey_blobs.extend(m.encoded for m in outcome.rekey_messages)
            if with_subcasts:
                server.subcast(MEMBERS[index:index + 4], b"interleaved")
            outcome = server.leave(MEMBERS[index])
            rekey_blobs.extend(m.encoded for m in outcome.rekey_messages)
    return rekey_blobs


def strip_seq(blobs):
    """Rekey item bytes without the header (subcasts shift seq/ts)."""
    stripped = []
    for blob in blobs:
        message = Message.decode(blob)
        stripped.append(tuple(
            (item.enc_node_id, item.enc_version, item.labels, item.iv,
             item.ciphertext, item.plaintext_len)
            for item in message.items))
    return stripped


def test_subcasts_never_perturb_the_rekey_stream():
    control = run_history(with_subcasts=False)
    interleaved = run_history(with_subcasts=True)
    assert strip_seq(control) == strip_seq(interleaved)


def test_open_subcast_round_trip():
    server = build_server()
    user = TARGETS[0]
    leaf = server.tree.leaf_of(user)
    client = GroupClient(user, server.suite)
    client.set_individual_key(leaf.key)
    client.set_leaf(leaf.node_id)
    for node in leaf.path_to_root():
        client.keys[node.node_id] = (node.version, node.key)
    out = server.subcast(TARGETS, b"round-trip")
    assert client.open_subcast(out.encoded) == b"round-trip"
    assert client.stats.subcasts_opened == 1
