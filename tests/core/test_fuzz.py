"""Fuzzing the wire format and the client's input handling.

A key server's clients parse datagrams from the network; malformed or
corrupted input must fail *cleanly* (typed errors), never crash with an
arbitrary exception or silently install wrong keys.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.client import ClientError, GroupClient
from repro.core.messages import (MAX_PLAINTEXT, MSG_REKEY,
                                 MSG_SUBCAST_REQUEST, EncryptedItem,
                                 KeyRecord, Message, WireError,
                                 encrypt_records)
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.core.signing import NullSigner, SigningError
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG


@given(data=st.binary(max_size=300))
@settings(max_examples=200)
def test_decode_random_bytes_raises_wire_error_only(data):
    try:
        Message.decode(data)
    except WireError:
        pass  # the only acceptable failure mode


def _subcast_request(sender, targets, payload):
    from repro.subcast.wire import encode_subcast_request
    return Message(msg_type=MSG_SUBCAST_REQUEST, body=encode_subcast_request(
        sender, targets, payload)).encode()


@given(data=st.binary(max_size=200))
@example(data=_subcast_request("a", ["u1", "u2"], b"x" * 65529))
@example(data=_subcast_request("a", ["a"], b"x" * 65529))
@example(data=_subcast_request("a", ["a"], b"x" * (MAX_PLAINTEXT + 1)))
@settings(max_examples=50, deadline=None)  # sealing 64 KiB takes ~0.2 s
def test_server_datagram_handler_raises_server_error_only(data):
    server = GroupKeyServer(ServerConfig(
        suite=PAPER_SUITE_NO_SIG, signing="none", seed=b"fuzz"))
    server.bootstrap([("a", server.new_individual_key())])
    try:
        server.handle_datagram(data)
    except ServerError:
        pass


@pytest.mark.parametrize("oversized", ["subcast", "datagram", "data"])
def test_refused_oversized_payload_draws_no_sequence_number(oversized):
    """An oversized subcast or data payload is refused as a ServerError
    before any draw: the next op carries the next sequence number."""
    server = GroupKeyServer(ServerConfig(seed=b"oversized"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(4)])
    first = server.join("n0", server.new_individual_key())
    payload = b"x" * (MAX_PLAINTEXT + 1)
    with pytest.raises(ServerError):
        if oversized == "subcast":
            server.subcast(["u1", "u2"], payload)
        elif oversized == "datagram":
            server.handle_datagram(
                _subcast_request("u0", ["u1", "u2"], payload))
        else:
            server.seal_group_message(payload)
    second = server.join("n1", server.new_individual_key())
    seqs = sorted(out.message.seq for out in first.all_messages
                  + second.all_messages)
    assert seqs == list(range(1, len(seqs) + 1))


def _valid_rekey_bytes():
    item = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                           [KeyRecord(3, 1, b"K" * 8)], 0xFFFFFFFF, 0)
    message = Message(msg_type=MSG_REKEY, root_node_id=3, root_version=1,
                      items=[item])
    NullSigner(PAPER_SUITE_NO_SIG).seal([message])
    return message.encode()


@given(position=st.integers(min_value=0, max_value=200),
       flip=st.integers(min_value=1, max_value=255))
@settings(max_examples=120)
def test_single_byte_corruption_never_crashes_client(position, flip):
    baseline = _valid_rekey_bytes()
    position %= len(baseline)
    corrupted = bytearray(baseline)
    corrupted[position] ^= flip
    client = GroupClient("victim", PAPER_SUITE_NO_SIG, verify=True)
    client.set_individual_key(bytes(8))
    try:
        client.process_message(bytes(corrupted))
    except (WireError, ClientError, SigningError):
        pass  # typed rejection — fine


@given(position=st.integers(min_value=0, max_value=200),
       flip=st.integers(min_value=1, max_value=255))
@settings(max_examples=120)
def test_corruption_with_digest_never_installs_keys(position, flip):
    """With the digest on, any bit flip is detected before any key is
    installed (the digest covers the whole signed region)."""
    baseline = _valid_rekey_bytes()
    position %= len(baseline)
    corrupted = bytearray(baseline)
    corrupted[position] ^= flip
    client = GroupClient("victim", PAPER_SUITE_NO_SIG, verify=True)
    client.set_individual_key(bytes(8))
    try:
        client.process_message(bytes(corrupted))
    except (WireError, ClientError, SigningError):
        assert client.keys == {}  # rejected before any install
        return
    # The flip landed in the auth trailer padding/len bytes in a way that
    # still verifies -> the payload was untouched, keys are correct.
    assert client.keys.get(3) == (1, b"K" * 8)


@given(data=st.binary(max_size=150))
@settings(max_examples=60)
def test_client_control_random_bytes(data):
    client = GroupClient("victim", PAPER_SUITE_NO_SIG, verify=True)
    client.set_individual_key(bytes(8))
    try:
        client.process_control(data)
    except (WireError, ClientError, SigningError):
        pass


@given(n_items=st.integers(min_value=0, max_value=6), data=st.data())
@settings(max_examples=40, deadline=None)
def test_arbitrary_valid_items_roundtrip(n_items, data):
    """Arbitrary well-formed messages always decode to themselves."""
    items = []
    for index in range(n_items):
        records = [KeyRecord(data.draw(st.integers(0, 2**32 - 1)),
                             data.draw(st.integers(0, 2**32 - 1)),
                             data.draw(st.binary(min_size=8, max_size=8)))]
        items.append(encrypt_records(
            PAPER_SUITE_NO_SIG,
            data.draw(st.binary(min_size=8, max_size=8)),
            records,
            data.draw(st.integers(0, 2**32 - 1)),
            data.draw(st.integers(0, 2**32 - 1))))
    message = Message(msg_type=MSG_REKEY, items=items,
                      seq=data.draw(st.integers(0, 2**63)))
    NullSigner(PAPER_SUITE_NO_SIG).seal([message])
    decoded = Message.decode(message.encode())
    assert len(decoded.items) == n_items
    assert decoded.seq == message.seq
    for original, parsed in zip(items, decoded.items):
        assert parsed.ciphertext == original.ciphertext
        assert parsed.enc_node_id == original.enc_node_id
