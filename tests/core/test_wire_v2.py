"""The v2 wire codec against the v1 oracle, under hostile input, and
its certificate checks.

``wire_v1.py`` is the codec the v2 framing replaced.  A message built
once and round-tripped through both codecs must come back the same in
every field the framing does not own: v1 carried a Merkle digest and
v2 a leaf count instead, everything else agrees.  Messages from real
servers cover odd flush windows (promoted Merkle levels), RSA-2048
(Table 4) and the AES suite.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (MSG_REKEY, SIG_MERKLE, SIG_NONE,
                                 SIG_PER_MESSAGE, WIRE_VERSION, AuthBlock,
                                 EncryptedItem, Message, WireError,
                                 ciphertext_size, merkle_shape)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.core.signing import MerkleSigner, SigningError, verify_message
from repro.crypto.suite import MODERN_SUITE, PAPER_SUITE, CipherSuite
from repro.observability.spans import SpanContext
from repro.serve.wire import attach_trailers, split_trailers

from . import wire_v1

# -- the differential ---------------------------------------------------------


def _fields(message):
    """Every field the framing does not own."""
    auth = message.auth
    return (message.msg_type, message.group_id, message.strategy,
            message.flags, message.seq, message.timestamp_us,
            message.root_node_id, message.root_version,
            [(item.enc_node_id, item.enc_version, item.iv, item.ciphertext,
              item.plaintext_len) for item in message.items],
            message.body, auth.scheme, auth.signature,
            auth.digest if auth.scheme != SIG_MERKLE else None,
            auth.merkle_index, list(auth.merkle_path))


def assert_codecs_agree(message):
    v2 = Message.decode(message.encode())
    v1 = wire_v1.Message.decode(wire_v1.from_v2(message).encode())
    assert _fields(v2) == _fields(v1)
    if message.auth is not None and message.auth.scheme == SIG_MERKLE:
        assert v2.auth.merkle_leaves == message.auth.merkle_leaves
    return v2


@st.composite
def items(draw, block):
    plaintext_len = draw(st.integers(0, 300))
    return EncryptedItem(
        draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1)),
        draw(st.binary(min_size=block, max_size=block)),
        draw(st.binary(min_size=ciphertext_size(plaintext_len, block),
                       max_size=ciphertext_size(plaintext_len, block))),
        plaintext_len)


@st.composite
def auth_blocks(draw):
    scheme = draw(st.sampled_from([SIG_NONE, SIG_PER_MESSAGE, SIG_MERKLE]))
    signature = draw(st.binary(max_size=300))
    if scheme != SIG_MERKLE:
        return AuthBlock(draw(st.binary(max_size=64)), scheme, signature)
    leaves = draw(st.integers(1, 2**20))
    index = draw(st.integers(0, leaves - 1))
    size = draw(st.sampled_from([16, 20, 32]))
    path = [draw(st.binary(min_size=size, max_size=size)) if real else b""
            for real in merkle_shape(index, leaves)]
    return AuthBlock(scheme=SIG_MERKLE, signature=signature,
                     merkle_index=index, merkle_path=path,
                     merkle_leaves=leaves)


@st.composite
def messages(draw):
    block = draw(st.sampled_from([8, 16]))
    return Message(
        msg_type=draw(st.integers(0, 255)),
        group_id=draw(st.integers(0, 2**32 - 1)),
        strategy=draw(st.integers(0, 255)),
        flags=draw(st.integers(0, 255)),
        seq=draw(st.integers(0, 2**64 - 1)),
        timestamp_us=draw(st.integers(0, 2**64 - 1)),
        root_node_id=draw(st.integers(0, 2**32 - 1)),
        root_version=draw(st.integers(0, 2**32 - 1)),
        items=draw(st.lists(items(block), max_size=5)),
        body=draw(st.binary(max_size=80)),
        auth=draw(st.one_of(st.none(), auth_blocks())))


@given(message=messages())
@settings(max_examples=150)
def test_v2_round_trip_agrees_with_the_v1_oracle(message):
    assert_codecs_agree(message)


def _served_batches(suite, signing="merkle"):
    """A server's join, leave and odd flush windows (3, 5 and 7
    messages: promoted Merkle levels) under ``suite``."""
    server = GroupKeyServer(ServerConfig(degree=3, suite=suite,
                                         signing=signing,
                                         seed=b"wire-v2-differential"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(11)])
    batches = [server.join("j0", server.new_individual_key()),
               server.leave("u3")]
    for window in (2, 4, 6):
        batches.append(server.flush(
            [(f"w{window}-{i}", server.new_individual_key())
             for i in range(window)], [f"u{window}"]))
    return server, [[out.message for out in outcome.rekey_messages]
                    for outcome in batches]


@pytest.fixture(scope="module")
def rsa2048_suite():
    return CipherSuite("des", "md5", 2048)


@pytest.mark.parametrize("suite_name", ["paper", "rsa2048", "aes"])
def test_served_messages_agree_and_verify(suite_name, rsa2048_suite):
    suite = {"paper": PAPER_SUITE, "rsa2048": rsa2048_suite,
             "aes": MODERN_SUITE}[suite_name]
    server, batches = _served_batches(suite)
    public_key = server.signing_keypair.public_key
    sizes = {len(batch) for batch in batches}
    assert {3, 5, 7} <= sizes
    promoted = 0
    for batch in batches:
        for message in batch:
            decoded = assert_codecs_agree(message)
            verify_message(suite, decoded, public_key)
            promoted += decoded.auth.merkle_path.count(b"")
    assert promoted > 0


def test_certificate_bytes_for_the_paper_suite():
    """RSA-512 and MD5: ``70 + 16p`` bytes for ``p`` real siblings in a
    batch of fewer than 128 messages (each varint one byte), against
    v1's ``89 + 17p`` plus a byte per promoted level."""
    for count in (1, 2, 3, 5, 8, 127):
        server_messages = [Message(msg_type=MSG_REKEY, seq=i)
                           for i in range(count)]
        signer = MerkleSigner(PAPER_SUITE, _paper_keypair())
        signer.seal(server_messages)
        for message in server_messages:
            auth = message.auth
            real = sum(1 for sibling in auth.merkle_path if sibling)
            assert len(auth.encode()) == 70 + 16 * real
            v1 = wire_v1.from_v2(message).auth
            v1.digest = bytes(16)
            promoted = len(auth.merkle_path) - real
            assert len(v1.encode()) == 89 + 17 * real + promoted


_KEYPAIR = []


def _paper_keypair():
    if not _KEYPAIR:
        _KEYPAIR.append(PAPER_SUITE.generate_signing_keypair(
            seed=b"wire-v2"))
    return _KEYPAIR[0]


# -- hostile input (random bytes: test_fuzz.py) --------------------------


@given(message=messages(), position=st.integers(0, 10**6),
       value=st.integers(0, 255), cut=st.integers(0, 10**6))
@settings(max_examples=300)
def test_mutated_messages_raise_only_wire_error(message, position, value,
                                                cut):
    encoded = bytearray(message.encode())
    encoded[position % len(encoded)] = value
    try:
        Message.decode(bytes(encoded[:cut % (len(encoded) + 1)]))
    except WireError:
        pass


@pytest.mark.parametrize("tail", [
    b"\x02" + b"\xff\xff\xff\xff\x0f",                    # 4 GiB signature
    b"\x02\x00" + b"\xfe\xff\xff\xff\x0f\xff\xff\xff\xff\x0f\xff",
    b"\x02\x00\xff\xff\xff\xff\x0f\x00",                   # leaf past count
    b"\x02\x80\x80\x80\x80\x80\x01",                       # 6-byte varint
    b"\x02\x80\x00",                                       # padded varint
])
def test_hostile_certificates_fail_small(tail):
    """Lengths and counts claimed in a certificate cost nothing until
    the bytes are there."""
    region = Message(msg_type=MSG_REKEY).signed_region()
    tracemalloc.start()
    with pytest.raises(WireError):
        Message.decode(region + b"\x00" + tail)
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1 << 16


def test_claimed_item_count_fails_small():
    header = bytearray(Message(msg_type=MSG_REKEY).signed_region())
    header[34:36] = b"\xff\xff"
    tracemalloc.start()
    with pytest.raises(WireError):
        Message.decode(bytes(header[:36]) + b"\xff" + bytes(64))
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1 << 16


@given(message=messages(), trace_id=st.integers(1, 2**64 - 1),
       token=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
@settings(max_examples=60)
def test_trace_and_correlation_trailers_are_ignored(message, trace_id,
                                                    token):
    encoded = message.encode()
    datagram = attach_trailers(encoded, SpanContext(trace_id, 7), token)
    assert Message.decode(datagram) == Message.decode(encoded)
    payload, trace, got = split_trailers(datagram)
    assert (payload, trace, got) == (encoded, SpanContext(trace_id, 7), token)


# -- certificate security -----------------------------------------------------


@pytest.fixture(scope="module")
def signed_batch():
    """Five Merkle-signed messages: leaf 4 is promoted twice."""
    batch = [Message(msg_type=MSG_REKEY, seq=i,
                     items=[EncryptedItem(i, 0, bytes(8), bytes(16), 16)])
             for i in range(5)]
    MerkleSigner(PAPER_SUITE, _paper_keypair()).seal(batch)
    return batch


def _rejects(data):
    """``data`` decodes to nothing that verifies."""
    try:
        verify_message(PAPER_SUITE, Message.decode(bytes(data)),
                       _paper_keypair().public_key)
    except (WireError, SigningError):
        return True
    return False


def test_untouched_certificates_verify(signed_batch):
    for message in signed_batch:
        assert not _rejects(message.encode())


def test_version_splice_between_v1_and_v2(signed_batch):
    for message in signed_batch:
        v2 = bytearray(message.encode())
        v2[2] = 1
        assert _rejects(v2)
        v1 = bytearray(wire_v1.from_v2(message).encode())
        assert v1[2] == 1 and _rejects(v1)
        v1[2] = WIRE_VERSION
        assert _rejects(v1)


def _sibling_offsets(message):
    """(start, size) of each real sibling in the encoded message."""
    encoded = message.encode()
    siblings = [s for s in message.auth.merkle_path if s]
    size = sum(map(len, siblings))
    start = len(encoded) - size
    return encoded, [(start + 16 * i, 16) for i in range(len(siblings))]


def test_tampered_sibling(signed_batch):
    for message in signed_batch:
        encoded, offsets = _sibling_offsets(message)
        for start, size in offsets:
            for position in (start, start + size - 1):
                tampered = bytearray(encoded)
                tampered[position] ^= 0x01
                assert _rejects(tampered)


def test_shifted_sibling(signed_batch):
    message = signed_batch[0]          # three real siblings
    encoded, offsets = _sibling_offsets(message)
    start = offsets[0][0]
    path = encoded[start:]
    for shifted in (path[16:] + path[:16], path[1:] + path[:1],
                    path[16:32] + path[:16] + path[32:]):
        assert _rejects(encoded[:start] + shifted)


def test_sibling_moved_onto_a_promoted_level(signed_batch):
    message = signed_batch[4]      # leaf 4 of 5: promoted, promoted, real
    auth = message.auth
    assert [bool(s) for s in auth.merkle_path] == [False, False, True]
    moved = AuthBlock(scheme=SIG_MERKLE, signature=auth.signature,
                      merkle_index=4, merkle_leaves=5,
                      merkle_path=[auth.merkle_path[2], b"", b""])
    with pytest.raises(WireError):
        moved.encode()
    in_memory = Message(**{**message.__dict__, "auth": moved})
    with pytest.raises(SigningError):
        verify_message(PAPER_SUITE, in_memory, _paper_keypair().public_key)
    # On the wire the levels follow from the leaf count: claiming six
    # leaves makes level 0 real, and the one sibling lands there.
    encoded = bytearray(message.encode())
    count_at = len(encoded) - 16 - 2
    assert encoded[count_at] == 5
    encoded[count_at] = 6
    assert _rejects(encoded)


def test_truncated_trailer(signed_batch):
    for message in signed_batch:
        encoded = message.encode()
        for cut in range(len(message.signed_region()), len(encoded)):
            with pytest.raises(WireError):
                Message.decode(encoded[:cut])
