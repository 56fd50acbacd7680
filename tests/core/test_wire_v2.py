"""The v4 wire codec against the v3 oracle, under hostile input, and
its certificate checks.

``wire_v3.py`` is the codec the v4 framing replaced: it sent a random
IV with every key item, where v4 derives a key item's IV from its
first label (and, under a 16-byte block, its encrypting-key reference)
and sends none.  The same records encrypted into both codecs must
decrypt to the same key records, and a message built once in both must
come back the same in every field the framing does not own.  Messages
from real servers cover odd flush windows (promoted Merkle levels),
RSA-2048 (Table 4) and the AES suite.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientError, GroupClient
from repro.core.messages import (MSG_DATA, MSG_REKEY, MSG_SUBCAST,
                                 SIG_MERKLE, SIG_NONE,
                                 SIG_PER_MESSAGE, SUBCAST_MESSAGE_KEY,
                                 WIRE_VERSION, AuthBlock, EncryptedItem,
                                 KeyRecord, Message, WireError,
                                 ciphertext_size, decrypt_records,
                                 encrypt_records, key_item_iv, merkle_shape)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.core.signing import (MerkleSigner, PerMessageSigner,
                                SigningError, verify_message)
from repro.crypto.suite import (MODERN_SUITE, PAPER_SUITE,
                                PAPER_SUITE_NO_SIG, CipherSuite)
from repro.observability.spans import SpanContext
from repro.serve.wire import attach_trailers, split_trailers

from ..wire_content import recording_encryptions
from . import wire_v3

# -- the differential ---------------------------------------------------------

_u32 = st.integers(0, 2**32 - 1)


def _fields(message):
    """Every field but the items the framing does not own."""
    auth = message.auth
    return (message.msg_type, message.group_id, message.strategy,
            message.flags, message.seq, message.timestamp_us,
            message.root_node_id, message.root_version,
            message.body, auth.scheme, auth.signature,
            auth.digest if auth.scheme != SIG_MERKLE else None,
            auth.merkle_index, list(auth.merkle_path), auth.merkle_leaves)


def _twin(message, items):
    """``message`` with v3 ``items``."""
    return wire_v3.Message(**{**message.__dict__, "items": items})


def _payload_twin(item):
    assert not item.labels
    return wire_v3.EncryptedItem(item.enc_node_id, item.enc_version,
                                 item.iv, item.ciphertext,
                                 item.plaintext_len)


def assert_codecs_agree(suite, message, keys, twin_items):
    """``message`` (v4) and its twin with ``twin_items`` (v3) round-trip
    to the same fields; ``keys[i]`` opens key item ``i`` in both."""
    v4 = Message.decode(message.encode())
    v3 = wire_v3.Message.decode(_twin(message, twin_items).encode())
    assert _fields(v4) == _fields(v3)
    assert len(v4.items) == len(v3.items) == len(keys)
    for item, twin, key in zip(v4.items, v3.items, keys):
        assert (item.enc_node_id, item.enc_version, item.labels) == \
            (twin.enc_node_id, twin.enc_version, twin.labels)
        if key is None:
            assert (item.iv, item.ciphertext, item.plaintext_len) == \
                (twin.iv, twin.ciphertext, twin.plaintext_len)
        else:
            assert decrypt_records(suite, key, item) == \
                wire_v3.decrypt_records(suite, key, twin)
            # No IV travels; the ciphertext is the key bytes' length.
            assert item.iv == b"" and len(twin.iv) == suite.block_size
            assert len(item.ciphertext) == len(twin.ciphertext) == \
                len(item.labels) * suite.key_size
    assert message.wire_size() == len(message.encode())
    # v4 saves one IV block per key item and nothing else.
    assert len(_twin(message, twin_items).encode()) - \
        len(message.encode()) == suite.block_size * sum(
            1 for item in message.items if item.labels)
    return v4


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


def _headers(draw):
    return dict(msg_type=draw(st.integers(0, 255)), group_id=draw(_u32),
                strategy=draw(st.integers(0, 255)),
                flags=draw(st.integers(0, 255)),
                seq=draw(st.integers(0, 2**64 - 1)),
                timestamp_us=draw(st.integers(0, 2**64 - 1)),
                root_node_id=draw(_u32), root_version=draw(_u32),
                body=draw(st.binary(max_size=80)),
                auth=draw(st.one_of(st.none(), auth_blocks())))


@st.composite
def item_specs(draw, suite):
    """(v4 item, v3 item, key opening them or None for a payload)."""
    block = suite.block_size
    enc_node_id, enc_version = draw(_u32), draw(_u32)
    if draw(st.booleans()):
        key = draw(st.binary(min_size=suite.key_size,
                             max_size=suite.key_size))
        records = draw(st.lists(st.builds(
            KeyRecord, _u32, _u32, st.binary(min_size=suite.key_size,
                                             max_size=suite.key_size)),
            min_size=1, max_size=3))
        item = encrypt_records(suite, key, records, enc_node_id,
                               enc_version)
        # Under the derived IV the v3 codec encrypts the same bytes.
        derived = key_item_iv(block, item.labels[0], enc_node_id,
                              enc_version)
        assert wire_v3.encrypt_records(
            suite, key, derived, records, enc_node_id,
            enc_version).ciphertext == item.ciphertext
        iv = draw(st.binary(min_size=block, max_size=block))
        return (item, wire_v3.encrypt_records(suite, key, iv, records,
                                              enc_node_id, enc_version),
                key)
    plaintext_len = draw(st.integers(0, 100))
    item = EncryptedItem(
        enc_node_id, enc_version,
        draw(st.binary(min_size=block, max_size=block)),
        draw(st.binary(min_size=ciphertext_size(plaintext_len, block),
                       max_size=ciphertext_size(plaintext_len, block))),
        plaintext_len)
    return item, _payload_twin(item), None


_3DES = CipherSuite("des3", "md5", None)


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_v4_round_trip_agrees_with_the_v3_oracle(data):
    suite = data.draw(st.sampled_from([PAPER_SUITE_NO_SIG, _3DES,
                                       MODERN_SUITE]))
    specs = data.draw(st.lists(item_specs(suite), max_size=4))
    message = Message(items=[item for item, _twin, _key in specs],
                      **_headers(data.draw))
    assert_codecs_agree(suite, message, [key for *_items, key in specs],
                        [twin for _item, twin, _key in specs])


def _served_batches(suite, signing="merkle"):
    """A server's join, leave and odd flush windows (3, 5 and 7
    messages: promoted Merkle levels) under ``suite``, and every
    encryption it made: (encrypting-key ref, ciphertext) -> (key,
    records)."""
    server = GroupKeyServer(ServerConfig(degree=3, suite=suite,
                                         signing=signing,
                                         seed=b"wire-v2-differential"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(11)])
    calls = {}

    def record(key, records, enc_node_id, enc_version):
        item = encrypt_records(suite, key, records, enc_node_id,
                               enc_version)
        calls[enc_node_id, enc_version, item.ciphertext] = (key, records)

    with recording_encryptions(record):
        batches = [server.join("j0", server.new_individual_key()),
                   server.leave("u3")]
        for window in (2, 4, 6):
            batches.append(server.flush(
                [(f"w{window}-{i}", server.new_individual_key())
                 for i in range(window)], [f"u{window}"]))
    return server, calls, [[out.message for out in outcome.rekey_messages]
                           for outcome in batches]


@pytest.fixture(scope="module")
def rsa2048_suite():
    return CipherSuite("des", "md5", 2048)


@pytest.mark.parametrize("suite_name", ["paper", "rsa2048", "aes"])
def test_served_messages_agree_and_verify(suite_name, rsa2048_suite):
    """Every served key item, encrypted again by the v3 codec from the
    records the server encrypted, opens to the same records."""
    suite = {"paper": PAPER_SUITE, "rsa2048": rsa2048_suite,
             "aes": MODERN_SUITE}[suite_name]
    server, calls, batches = _served_batches(suite)
    public_key = server.signing_keypair.public_key
    sizes = {len(batch) for batch in batches}
    assert {3, 5, 7} <= sizes
    promoted = 0
    for batch in batches:
        for message in batch:
            keys, twins = [], []
            for index, item in enumerate(message.items):
                key, records = calls[item.enc_node_id, item.enc_version,
                                     item.ciphertext]
                assert decrypt_records(suite, key, item) == list(records)
                keys.append(key)
                twins.append(wire_v3.encrypt_records(
                    suite, key, bytes([index]) * suite.block_size, records,
                    item.enc_node_id, item.enc_version))
            decoded = assert_codecs_agree(suite, message, keys, twins)
            verify_message(suite, decoded, public_key)
            promoted += decoded.auth.merkle_path.count(b"")
    assert promoted > 0


def test_certificate_bytes_for_the_paper_suite():
    """RSA-512 and MD5: ``70 + 16p`` bytes for ``p`` real siblings in a
    batch of fewer than 128 messages (each varint one byte)."""
    for count in (1, 2, 3, 5, 8, 127):
        server_messages = [Message(msg_type=MSG_REKEY, seq=i)
                           for i in range(count)]
        signer = MerkleSigner(PAPER_SUITE, _paper_keypair())
        signer.seal(server_messages)
        for message in server_messages:
            auth = message.auth
            real = sum(1 for sibling in auth.merkle_path if sibling)
            assert len(auth.encode()) == 70 + 16 * real


_KEYPAIR = []


def _paper_keypair():
    if not _KEYPAIR:
        _KEYPAIR.append(PAPER_SUITE.generate_signing_keypair(
            seed=b"wire-v2"))
    return _KEYPAIR[0]


@st.composite
def items_of(draw, block, key_size):
    """A canonical v4 item: a key item of ``key_size`` keys (no IV) or
    a payload item (ciphertext bytes random)."""
    if draw(st.booleans()):
        labels = tuple(draw(st.lists(st.tuples(_u32, _u32), min_size=1,
                                     max_size=4)))
        plaintext_len = size = len(labels) * key_size
        iv = b""
    else:
        labels = ()
        plaintext_len = draw(st.integers(0, 300))
        size = ciphertext_size(plaintext_len, block)
        iv = draw(st.binary(min_size=block, max_size=block))
    return EncryptedItem(draw(_u32), draw(_u32), iv,
                         draw(st.binary(min_size=size, max_size=size)),
                         plaintext_len, labels)


@st.composite
def messages(draw):
    block = draw(st.sampled_from([8, 16]))
    key_size = draw(st.sampled_from([8, 16, 24]))
    return Message(items=draw(st.lists(items_of(block, key_size),
                                       max_size=5)),
                   **_headers(draw))


@given(message=messages())
@settings(max_examples=100)
def test_v4_round_trip_is_exact(message):
    decoded = Message.decode(message.encode())
    assert decoded.items == message.items
    assert message.wire_size() == len(message.encode())


@st.composite
def v3_messages(draw):
    """A canonical v3 message: every item sends a one-block IV."""
    block = draw(st.sampled_from([8, 16]))
    key_size = draw(st.sampled_from([8, 16, 24]))
    items = []
    for item in draw(st.lists(items_of(block, key_size), max_size=5)):
        items.append(wire_v3.EncryptedItem(
            item.enc_node_id, item.enc_version,
            draw(st.binary(min_size=block, max_size=block)),
            item.ciphertext.ljust(ciphertext_size(item.plaintext_len,
                                                  block), b"\x00"),
            item.plaintext_len, item.labels))
    return wire_v3.Message(items=items, **_headers(draw))


@given(message=v3_messages())
@settings(max_examples=50)
def test_v3_round_trip_is_exact(message):
    """The v3 oracle round-trips on its own, so a disagreement in the
    differential is v4's."""
    decoded = wire_v3.Message.decode(message.encode())
    assert decoded.items == message.items
    assert message.wire_size() == len(message.encode())


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


def _fails_small(data):
    """``data`` raises WireError having allocated under 64 KiB."""
    tracemalloc.start()
    try:
        with pytest.raises(WireError):
            Message.decode(data)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_claimed_item_count_fails_small():
    header = bytearray(Message(msg_type=MSG_REKEY).signed_region())
    header[34:36] = b"\xff\xff"
    _fails_small(bytes(header[:36]) + b"\xff\x08" + bytes(64))


def _one_item(sizes, item, tail=bytes(64)):
    """A rekey message whose one item is the raw bytes ``item``, after
    the block-size and key-size bytes ``sizes``."""
    header = bytearray(Message(msg_type=MSG_REKEY).signed_region()[:36])
    header[34:36] = b"\x00\x01"
    return bytes(header) + sizes + item + tail


_REF = bytes(8)
_NO_BODY = Message(msg_type=MSG_REKEY).encode()[36:]


@pytest.mark.parametrize("data", [
    # A label count that runs past the data.
    _one_item(b"\x00\x08", _REF + b"\x7f", tail=bytes(40)),
    _one_item(b"\x00\x01", _REF + b"\xff\xff\x03", tail=bytes(40)),
    # n * key size over 65,535, with every byte it claims present (and
    # a count of 2**32 - 1).
    _one_item(b"\x00\xff", _REF + b"\x82\x02",
              tail=bytes(8 * 258 + 258 * 255) + _NO_BODY),
    _one_item(b"\x00\x08", _REF + b"\x81\x40"),
    _one_item(b"\x00\x08", _REF + b"\xff\xff\xff\xff\x0f"),
    # A key-size byte of 0 under a labelled item.
    _one_item(b"\x00\x00", _REF + b"\x01"),
    # A key size with no key item to use it.
    _one_item(b"\x08\x08", _REF + b"\x00\x00\x00",
              tail=bytes(16) + _NO_BODY),
    # A label count past five varint bytes; a padded count.
    _one_item(b"\x00\x08", _REF + b"\x80\x80\x80\x80\x80\x01"),
    _one_item(b"\x00\x08", _REF + b"\x81\x00"),
    # A block size with no payload item to use it.
    _one_item(b"\x08\x08", _REF + b"\x01" + bytes(16), tail=_NO_BODY),
    # A payload item under a block size of 0.
    _one_item(b"\x00\x00", _REF + b"\x00\x00\x08",
              tail=bytes(16) + _NO_BODY),
], ids=["count-past-data", "long-count-past-data", "over-bound-present",
        "over-bound", "count-2**32-1", "zero-key-size", "key-size-unused",
        "six-byte-count", "padded-count", "block-size-unused",
        "zero-block-size"])
def test_hostile_key_items_fail_small(data):
    _fails_small(data)


@pytest.mark.parametrize("suite", [PAPER_SUITE_NO_SIG, MODERN_SUITE],
                         ids=["des", "aes"])
def test_every_truncation_of_key_items_fails_small(suite):
    """Cut anywhere, a message of IV-less key items (one key, two keys)
    raises only WireError, having allocated under 64 KiB."""
    key = bytes(suite.key_size)
    message = Message(msg_type=MSG_REKEY, seq=7, items=[
        encrypt_records(suite, key, [KeyRecord(3, 1, key)], 2, 0),
        encrypt_records(suite, key, [KeyRecord(4, 2, key),
                                     KeyRecord(5, 3, key)], 3, 1)])
    encoded = message.encode()
    assert Message.decode(encoded).items == message.items
    for cut in range(len(encoded)):
        _fails_small(encoded[:cut])


@pytest.mark.parametrize("msg_type", [MSG_DATA, MSG_SUBCAST])
def test_labels_on_a_payload_item_open_nothing(msg_type):
    """The codec tells a payload item from a key item by its labels
    alone; a data or subcast message whose payload item carries labels
    decodes, as a key item without an IV, and the client refuses to
    open it."""
    payload = EncryptedItem(
        SUBCAST_MESSAGE_KEY if msg_type == MSG_SUBCAST else 5, 1,
        b"", bytes(8), 8, ((1, 0),))
    encoded = Message(msg_type=msg_type, root_node_id=5, root_version=1,
                      items=[payload]).encode()
    assert Message.decode(encoded).items == [payload]
    client = GroupClient("victim", PAPER_SUITE_NO_SIG, verify=False)
    client.keys[5] = (1, bytes(8))
    opener = client.open_data if msg_type == MSG_DATA \
        else client.open_subcast
    with pytest.raises(ClientError):
        opener(encoded)


def test_a_key_size_byte_only_with_key_items():
    """The key-size byte is 0 exactly when no item carries labels, and
    the block-size byte exactly when no item is a payload."""
    payload = EncryptedItem(1, 0, bytes(8), bytes(8), 8)
    key = encrypt_records(PAPER_SUITE, bytes(8),
                          [KeyRecord(5, 1, bytes(8))], 2, 0)
    assert Message(msg_type=MSG_REKEY, items=[payload]).encode()[36:38] \
        == b"\x08\x00"
    assert Message(msg_type=MSG_REKEY,
                   items=[payload, key]).encode()[36:38] == b"\x08\x08"
    assert Message(msg_type=MSG_REKEY, items=[key]).encode()[36:38] \
        == b"\x00\x08"
    empty_payload = _one_item(b"\x08\x00", _REF + b"\x00\x00\x00",
                              tail=bytes(16) + _NO_BODY)
    assert Message.decode(empty_payload).items == [
        EncryptedItem(0, 0, bytes(8), bytes(8), 0)]


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


@pytest.fixture(scope="module", params=["merkle", "per-message"])
def keyed_batch(request):
    """Three signed messages of one-, two- and three-key items."""
    batch = [Message(msg_type=MSG_REKEY, seq=i, items=[encrypt_records(
                 PAPER_SUITE, bytes(8),
                 [KeyRecord(10 + j, j, bytes([j]) * 8)
                  for j in range(i + 1)], 2, 0)])
             for i in range(3)]
    signer = MerkleSigner if request.param == "merkle" \
        else PerMessageSigner
    signer(PAPER_SUITE, _paper_keypair()).seal(batch)
    return batch


def _v3_twin(message):
    """``message`` in the v3 codec, key items under a random-looking IV."""
    twins = []
    for item in message.items:
        if not item.labels:
            twins.append(_payload_twin(item))
            continue
        records = decrypt_records(PAPER_SUITE, bytes(8), item)
        twins.append(wire_v3.encrypt_records(
            PAPER_SUITE, bytes(8), b"\xa5" * 8, records, item.enc_node_id,
            item.enc_version))
    return _twin(message, twins)


def test_version_splice_between_v3_and_v4(signed_batch, keyed_batch):
    """A v4 message relabelled v3, its v3 twin, and the twin signed as
    v3 then relabelled v4: none decodes to anything that verifies."""
    for message in signed_batch + keyed_batch:
        v4 = bytearray(message.encode())
        v4[2] = 3
        assert _rejects(v4)
        twin = _v3_twin(message)
        v3 = bytearray(twin.encode())
        assert v3[2] == 3 and _rejects(v3)
        PerMessageSigner(PAPER_SUITE, _paper_keypair()).seal([twin])
        v3 = bytearray(twin.encode())
        v3[2] = WIRE_VERSION
        assert _rejects(v3)


def test_rewritten_label_fails_verification(keyed_batch):
    """Labels travel in clear inside the signed region: rewriting a
    node id or a version still decodes, fails the signature, and no
    longer decrypts to the keys under their labels (the first label is
    the IV: its key's bytes change too)."""
    for message in keyed_batch:
        encoded = message.encode()
        assert not _rejects(encoded)
        records = decrypt_records(PAPER_SUITE, bytes(8), message.items[0])
        labels_at = 38 + 8 + 1          # sizes, reference, label count
        for index, _label in enumerate(message.items[0].labels):
            for field_at in (0, 4):      # node id, version
                tampered = bytearray(encoded)
                tampered[labels_at + 8 * index + field_at + 3] ^= 0x01
                decoded = Message.decode(bytes(tampered))
                assert decoded.items[0].labels != message.items[0].labels
                with pytest.raises(SigningError):
                    verify_message(PAPER_SUITE, decoded,
                                   _paper_keypair().public_key)
                opened = decrypt_records(PAPER_SUITE, bytes(8),
                                         decoded.items[0])
                assert opened != records
                assert (opened[0].key != records[0].key) == (index == 0)


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
