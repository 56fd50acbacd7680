"""Wire format: encode/decode round trips and malformed input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dataclasses

from repro.core.messages import (INDIVIDUAL_KEY, MAX_PLAINTEXT, MSG_DATA,
                                 MSG_JOIN_REQUEST, MSG_REKEY, SIG_MERKLE,
                                 SIG_NONE, SIG_PER_MESSAGE, AuthBlock,
                                 Destination, EncryptedItem, KeyRecord,
                                 Message, WireError, ciphertext_size,
                                 decrypt_records, encrypt_records,
                                 key_item_iv, merkle_shape)
from repro.crypto.suite import MODERN_SUITE, PAPER_SUITE, CipherSuite


def sample_item(enc_node=7, version=3):
    return EncryptedItem(enc_node, version, bytes(8), bytes(16), 16)


def key_item(enc_node=7, version=3, labels=((4, 1),)):
    """A DES key item of ``len(labels)`` keys (ciphertext zeros)."""
    return EncryptedItem(enc_node, version, b"",
                         bytes(8 * len(labels)), 8 * len(labels), labels)


def test_message_roundtrip_full():
    message = Message(
        msg_type=MSG_REKEY, group_id=42, strategy=2, flags=1, seq=123456,
        timestamp_us=1_700_000_000_000_000, root_node_id=99, root_version=5,
        items=[sample_item(), sample_item(8, 1)],
        auth=AuthBlock(digest=bytes(16), scheme=SIG_PER_MESSAGE,
                       signature=bytes(64)))
    decoded = Message.decode(message.encode())
    assert decoded.msg_type == MSG_REKEY
    assert decoded.group_id == 42
    assert decoded.strategy == 2
    assert decoded.flags == 1
    assert decoded.seq == 123456
    assert decoded.timestamp_us == 1_700_000_000_000_000
    assert decoded.root_node_id == 99
    assert decoded.root_version == 5
    assert len(decoded.items) == 2
    assert decoded.items[0].enc_node_id == 7
    assert decoded.items[1].enc_version == 1
    assert decoded.auth.scheme == SIG_PER_MESSAGE
    assert decoded.auth.signature == bytes(64)


def test_message_roundtrip_merkle_auth():
    # Leaf 5 of 6: it meets leaf 4, is promoted past the odd level of
    # three, and meets the pair (0..3) at the top.
    auth = AuthBlock(scheme=SIG_MERKLE, signature=b"s" * 64, merkle_index=5,
                     merkle_path=[b"p" * 16, b"", b"q" * 16],
                     merkle_leaves=6)
    message = Message(msg_type=MSG_REKEY, items=[sample_item()], auth=auth)
    decoded = Message.decode(message.encode())
    assert decoded.auth == auth
    assert auth.wire_size() == 70 + 16 * 2


def test_merkle_shape_marks_promoted_levels():
    assert merkle_shape(0, 1) == []
    assert merkle_shape(5, 6) == [True, False, True]
    assert merkle_shape(6, 7) == [False, True, True]
    with pytest.raises(WireError):
        merkle_shape(3, 3)


def test_items_carry_no_lengths():
    # A one-key DES item: 8 bytes of reference, a label count, one
    # 8-byte label and one ciphertext block (25 bytes; no IV); the
    # message adds a block-size and a key-size byte for all its items.
    one = Message(msg_type=MSG_REKEY, items=[key_item()]).encode()
    two = Message(msg_type=MSG_REKEY,
                  items=[key_item(), key_item(8, 1)]).encode()
    three = Message(msg_type=MSG_REKEY, items=[
        key_item(), key_item(8, 1), key_item(9, 0, ((1, 2), (3, 4)))]).encode()
    bare = Message(msg_type=MSG_REKEY).encode()
    assert len(two) - len(one) == 8 + 1 + 8 + 8 == 25
    assert len(one) - len(bare) == 2 + 25
    assert len(three) - len(two) == 8 + 1 + 2 * 8 + 2 * 8
    # A payload item keeps its 16-bit plaintext length instead of labels,
    # and its IV.
    payload = Message(msg_type=MSG_DATA, items=[sample_item()]).encode()
    assert len(payload) - len(bare) == 2 + 8 + 1 + 2 + 8 + 16


@pytest.mark.parametrize("item", [
    EncryptedItem(1, 0, bytes(8), bytes(8), 9),     # ciphertext too short
    EncryptedItem(1, 0, bytes(8), bytes(24), 16),   # too long
    EncryptedItem(1, 0, bytes(8), b"", 0),          # empty plaintext: 1 block
    EncryptedItem(1, 0, bytes(4), bytes(16), 16),   # IV is not the block
    EncryptedItem(2**32, 0, bytes(8), bytes(16), 16),
    EncryptedItem(1, 0, bytes(8), bytes(65536), MAX_PLAINTEXT + 1),
])
def test_encoder_refuses_items_the_wire_cannot_carry(item):
    with pytest.raises(WireError):
        Message(msg_type=MSG_REKEY, items=[sample_item(), item]).encode()


@pytest.mark.parametrize("items", [
    [key_item(), EncryptedItem(1, 0, b"", bytes(16), 16, ((1, 0),))],
    [key_item(), EncryptedItem(1, 0, b"", bytes(24), 24,
                               ((1, 0), (2, 0)))],
    [EncryptedItem(1, 0, b"", bytes(8), 0, ((1, 0),))],
    [key_item(labels=((2**32, 0),))],
    [EncryptedItem(1, 0, b"", bytes(65544), 65544,
                   tuple((i, 0) for i in range(8193)))],
    [EncryptedItem(1, 0, b"", bytes(256), 256, ((1, 0),))],
    [EncryptedItem(1, 0, bytes(8), bytes(8), 8, ((1, 0),))],
    [EncryptedItem(1, 0, b"", bytes(16), 8, ((1, 0),))],
])
def test_encoder_refuses_key_items_the_wire_cannot_carry(items):
    """Key items of different key sizes, an empty key, a label or
    ``n * k`` out of range, an IV, a ciphertext past the key bytes."""
    with pytest.raises(WireError):
        Message(msg_type=MSG_REKEY, items=items).encode()


@pytest.mark.parametrize("message", [
    Message(msg_type=MSG_DATA, seq=2**64),
    Message(msg_type=256),
    Message(msg_type=MSG_DATA, items=[sample_item()] * 0x10000),
    Message(msg_type=MSG_DATA, auth=AuthBlock(digest=bytes(256))),
    Message(msg_type=MSG_DATA, auth=AuthBlock(
        scheme=SIG_PER_MESSAGE, signature=bytes(0x10000))),
    Message(msg_type=MSG_REKEY, auth=AuthBlock(
        digest=bytes(16), scheme=SIG_MERKLE, signature=bytes(64))),
    Message(msg_type=MSG_REKEY, auth=AuthBlock(        # a promoted level
        scheme=SIG_MERKLE, signature=bytes(64), merkle_index=2,
        merkle_path=[bytes(16)], merkle_leaves=3)),
    Message(msg_type=MSG_REKEY, auth=AuthBlock(
        scheme=SIG_MERKLE, signature=bytes(64), merkle_index=2,
        merkle_leaves=2)),
    Message(msg_type=MSG_REKEY, auth=AuthBlock(
        scheme=SIG_MERKLE, signature=bytes(64), merkle_index=0,
        merkle_path=[bytes(16), bytes(20)], merkle_leaves=4)),
])
def test_encoder_refuses_out_of_range_fields(message):
    with pytest.raises(WireError):
        message.encode()


def test_control_message_with_body():
    message = Message(msg_type=MSG_JOIN_REQUEST, body=b"alice")
    decoded = Message.decode(message.encode())
    assert decoded.msg_type == MSG_JOIN_REQUEST
    assert decoded.body == b"alice"
    assert decoded.items == []


def test_signed_region_excludes_auth():
    message = Message(msg_type=MSG_REKEY, items=[sample_item()])
    region = message.signed_region()
    message.auth = AuthBlock(digest=b"x" * 16)
    assert message.signed_region() == region  # auth not covered
    assert message.encode() != region


def test_decode_rejects_bad_magic():
    with pytest.raises(WireError):
        Message.decode(b"\x00\x00" + bytes(40))


def test_decode_rejects_truncation():
    encoded = Message(msg_type=MSG_DATA, items=[sample_item()],
                      body=b"payload").encode()
    for cut in (1, 10, len(encoded) // 2, len(encoded) - 1):
        with pytest.raises(WireError):
            Message.decode(encoded[:cut])


def test_decode_rejects_bad_version():
    encoded = bytearray(Message(msg_type=MSG_DATA).encode())
    encoded[2] = 99  # wire version byte
    with pytest.raises(WireError):
        Message.decode(bytes(encoded))


@given(seq=st.integers(min_value=0, max_value=2**63),
       group_id=st.integers(min_value=0, max_value=2**32 - 1),
       body=st.binary(max_size=64))
@settings(max_examples=30)
def test_header_field_roundtrip(seq, group_id, body):
    message = Message(msg_type=MSG_DATA, group_id=group_id, seq=seq,
                      body=body)
    decoded = Message.decode(message.encode())
    assert decoded.seq == seq
    assert decoded.group_id == group_id
    assert decoded.body == body


_blob = st.binary(max_size=40)


@st.composite
def canonical_items(draw, block, key_size):
    if draw(st.booleans()):
        labels = tuple(draw(st.lists(st.tuples(st.integers(0, 2**32 - 1),
                                               st.integers(0, 2**32 - 1)),
                                     min_size=1, max_size=200)))
        plaintext_len = len(labels) * key_size
        iv, ciphertext = b"", bytes(plaintext_len)
    else:
        labels = ()
        plaintext_len = draw(st.integers(0, 200))
        iv = draw(st.binary(min_size=block, max_size=block))
        ciphertext = bytes(ciphertext_size(plaintext_len, block))
    return EncryptedItem(draw(st.integers(0, 2**32 - 1)),
                         draw(st.integers(0, 2**32 - 1)),
                         iv, ciphertext, plaintext_len, labels)


@st.composite
def certificates(draw):
    leaves = draw(st.integers(1, 300))
    index = draw(st.integers(0, leaves - 1))
    size = draw(st.integers(1, 40))
    path = [draw(st.binary(min_size=size, max_size=size)) if real else b""
            for real in merkle_shape(index, leaves)]
    return AuthBlock(scheme=SIG_MERKLE, signature=draw(_blob),
                     merkle_index=index, merkle_path=path,
                     merkle_leaves=leaves)


_auth = st.one_of(st.none(), certificates(), st.builds(
    AuthBlock, digest=_blob, scheme=st.sampled_from([SIG_NONE,
                                                     SIG_PER_MESSAGE]),
    signature=_blob))


@given(items=st.tuples(st.integers(1, 32), st.integers(1, 32)).flatmap(
           lambda sizes: st.lists(canonical_items(*sizes), max_size=6)),
       body=_blob, auth=_auth)
@settings(max_examples=100)
def test_wire_size_is_the_encoded_length(items, body, auth):
    message = Message(msg_type=MSG_REKEY, items=items, body=body, auth=auth)
    assert message.wire_size() == len(message.encode())
    if auth is not None:
        assert auth.wire_size() == len(auth.encode())


# -- key records -----------------------------------------------------------------


@given(keys=st.lists(st.binary(min_size=8, max_size=8), min_size=1,
                     max_size=5),
       key=st.binary(min_size=8, max_size=8))
@settings(max_examples=30)
def test_encrypt_decrypt_records_roundtrip(keys, key):
    records = [KeyRecord(i, i * 2, k) for i, k in enumerate(keys)]
    item = encrypt_records(PAPER_SUITE, key, records, 12, 1)
    assert item.enc_node_id == 12
    assert item.enc_version == 1
    assert decrypt_records(PAPER_SUITE, key, item) == records


def test_encrypt_records_sizes_are_paper_like():
    # One DES-encrypted key: exactly one cipher block; its label rides
    # in clear.
    item = encrypt_records(PAPER_SUITE, bytes(8),
                           [KeyRecord(1, 1, bytes(8))], 2, 0)
    assert len(item.ciphertext) == 8
    assert item.plaintext_len == 8
    assert item.labels == ((1, 1),)


@pytest.mark.parametrize("cipher, blocks", [
    ("des", 1), ("aes128", 1), ("des3", 3)])
def test_a_one_key_item_is_whole_key_blocks(cipher, blocks):
    """One key item's ciphertext: one block of DES or AES-128, and the
    three blocks of a 24-byte 3DES key."""
    suite = CipherSuite(cipher, None, None)
    key = bytes(range(suite.key_size))
    record = KeyRecord(6, 2, bytes(reversed(key)))
    item = encrypt_records(suite, key, [record],
                           3, 1)
    assert len(item.ciphertext) == blocks * suite.block_size
    encoded = Message(msg_type=MSG_REKEY, items=[item]).encode()
    decoded = Message.decode(encoded).items[0]
    assert decoded == item
    assert decrypt_records(suite, key, decoded) == [record]


def test_encrypt_records_refuses_what_no_item_carries():
    with pytest.raises(WireError):
        encrypt_records(PAPER_SUITE, bytes(8), [], 2, 0)
    with pytest.raises(WireError):
        encrypt_records(PAPER_SUITE, bytes(8),
                        [KeyRecord(1, 1, bytes(16))], 2, 0)


def test_encrypt_records_aes():
    record = KeyRecord(3, 1, bytes(16))
    item = encrypt_records(MODERN_SUITE, bytes(16), [record], 9, 2)
    assert decrypt_records(MODERN_SUITE, bytes(16), item) == [record]


def test_decrypt_records_rejects_bad_length_claim():
    item = encrypt_records(PAPER_SUITE, bytes(8),
                           [KeyRecord(1, 1, bytes(8))], 2, 0)
    for bad in (dataclasses.replace(item, plaintext_len=999),
                dataclasses.replace(item, labels=()),
                dataclasses.replace(item, labels=((1, 1), (2, 2))),
                dataclasses.replace(item, iv=bytes(8))):
        with pytest.raises(WireError):
            decrypt_records(PAPER_SUITE, bytes(8), bad)
    with pytest.raises(WireError):      # a DES item under an AES suite
        decrypt_records(MODERN_SUITE, bytes(16), item)


def test_a_key_item_iv_is_its_first_label():
    """8-byte block: the first label; 16-byte block: the first label and
    the encrypting-key reference.  Nothing else has a derived IV."""
    assert key_item_iv(8, (1, 2), 3, 4) == bytes.fromhex("0000000100000002")
    assert key_item_iv(16, (1, 2), 3, 4) == bytes.fromhex(
        "00000001000000020000000300000004")
    with pytest.raises(WireError):
        key_item_iv(32, (1, 2), 3, 4)
    key = bytes(range(8))
    for records in ([KeyRecord(5, 9, bytes(8))],
                    [KeyRecord(5, 9, bytes(8)), KeyRecord(6, 1, bytes(8))]):
        item = encrypt_records(PAPER_SUITE, key, records, 2, 0)
        assert item.iv == b""
        assert item.ciphertext[:8] == PAPER_SUITE.new_cipher(
            key).encrypt_block(key_item_iv(8, (5, 9), 2, 0))


# -- destinations ---------------------------------------------------------------


def test_destination_constructors():
    assert Destination.to_all().kind == "all"
    assert Destination.to_subgroup(5).node_id == 5
    assert Destination.to_user("bob").user_id == "bob"
    assert Destination.to_users(["a", "b"]).user_ids == ("a", "b")


def test_individual_key_sentinel_reserved():
    assert INDIVIDUAL_KEY == 0xFFFFFFFF
