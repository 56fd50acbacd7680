"""GroupClient: key installation, ordering robustness, verification."""

import pytest

from repro.core.client import ClientError, GroupClient
from repro.core.messages import (MSG_DATA, MSG_JOIN_ACK, MSG_LEAVE_ACK,
                                 MSG_REKEY, EncryptedItem, KeyRecord,
                                 Message, encrypt_records)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.core.signing import SigningError
from repro.crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG

from ..delivery import deliver


def wire_rekey(items, root_ref=(0, 0)):
    message = Message(msg_type=MSG_REKEY, root_node_id=root_ref[0],
                      root_version=root_ref[1], items=items)
    from repro.core.signing import NullSigner
    NullSigner(PAPER_SUITE_NO_SIG).seal([message])
    return message


def make_client(uid="alice"):
    client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=True)
    client.set_individual_key(bytes(8))
    return client


def test_individual_key_validation():
    client = GroupClient("a", PAPER_SUITE_NO_SIG)
    with pytest.raises(ClientError):
        client.set_individual_key(b"short")


def test_install_from_individual_key_sentinel():
    client = make_client()
    records = [KeyRecord(5, 0, b"A" * 8), KeyRecord(9, 2, b"B" * 8)]
    item = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8), records,
                           0xFFFFFFFF, 0)
    changed = client.process_message(wire_rekey([item], (9, 2)).encode())
    assert changed == 2
    assert client.holds(5, 0) and client.holds(9, 2)
    assert client.group_key() == b"B" * 8


def test_fixed_point_handles_any_item_order():
    """Chain items may precede the item that unlocks them."""
    client = make_client()
    # key for node 1 encrypted under node 2's key; node 2's key under
    # the individual key.  Deliver in the 'wrong' order.
    item_locked = encrypt_records(PAPER_SUITE_NO_SIG, b"K" * 8,
                                  [KeyRecord(1, 4, b"R" * 8)], 2, 1)
    item_unlock = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                                  [KeyRecord(2, 1, b"K" * 8)], 0xFFFFFFFF, 0)
    message = wire_rekey([item_locked, item_unlock], (1, 4))
    changed = client.process_message(message.encode())
    assert changed == 2
    assert client.group_key() == b"R" * 8
    assert client.stats.decryptions == 2


def test_fixed_point_follows_a_chain_in_reverse_order():
    """Every item waits on the next one; each is opened exactly once."""
    client = make_client()
    chain = [bytes(8)] + [bytes([65 + i]) * 8 for i in range(5)]
    items = [encrypt_records(PAPER_SUITE_NO_SIG, chain[i],
                             [KeyRecord(i + 1, 7, chain[i + 1])],
                             0xFFFFFFFF if i == 0 else i, 7)
             for i in range(5)]
    foreign = encrypt_records(PAPER_SUITE_NO_SIG, b"X" * 8,
                              [KeyRecord(3, 9, b"S" * 8)], 77, 0)
    message = wire_rekey(list(reversed(items)) + [foreign], (5, 7))
    assert client.process_message(message) == 5
    assert client.group_key() == chain[5]
    assert client.stats.decryptions == 5
    assert not client.desynced


def test_item_waiting_on_a_key_installed_at_another_version():
    """The awaited node arrives, but not the referenced version."""
    client = make_client()
    locked = encrypt_records(PAPER_SUITE_NO_SIG, b"K" * 8,
                             [KeyRecord(1, 4, b"R" * 8)], 2, 6)
    unlock = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                             [KeyRecord(2, 5, b"J" * 8)], 0xFFFFFFFF, 0)
    assert client.process_message(wire_rekey([locked, unlock], (2, 5))) == 1
    assert client.holds(2, 5) and not client.holds(1, 4)
    assert client.stats.decryptions == 1
    # ...and a leftover naming a newer version of a held key is a gap.
    assert client.desynced


def test_parsed_message_is_charged_its_wire_bytes():
    item = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                           [KeyRecord(1, 0, b"A" * 8)], 0xFFFFFFFF, 0)
    message = wire_rekey([item], (1, 0))
    parsed, raw = make_client(), make_client()
    parsed.process_message(message)
    raw.process_message(message.encode())
    assert parsed.stats.rekey_bytes == raw.stats.rekey_bytes \
        == len(message.encode())


def test_undecryptable_items_are_skipped():
    client = make_client()
    foreign = encrypt_records(PAPER_SUITE_NO_SIG, b"X" * 8,
                              [KeyRecord(3, 0, b"S" * 8)], 77, 0)
    mine = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                           [KeyRecord(4, 0, b"M" * 8)], 0xFFFFFFFF, 0)
    changed = client.process_message(wire_rekey([foreign, mine], (4, 0)).encode())
    assert changed == 1
    assert client.holds(4, 0)
    assert not client.holds(3, 0)


def test_version_mismatch_is_not_decrypted():
    client = make_client()
    client.keys[10] = (3, b"V" * 8)
    stale = encrypt_records(PAPER_SUITE_NO_SIG, b"V" * 8,
                            [KeyRecord(11, 0, b"W" * 8)], 10, 9)  # wrong ver
    changed = client.process_message(wire_rekey([stale]).encode())
    assert changed == 0


def test_leaf_node_id_matching():
    client = make_client()
    client.set_leaf(123)
    item = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                           [KeyRecord(50, 0, b"L" * 8)], 123, 0)
    changed = client.process_message(wire_rekey([item], (50, 0)).encode())
    assert changed == 1


def test_rejects_non_rekey_messages():
    client = make_client()
    data = Message(msg_type=MSG_DATA)
    from repro.core.signing import NullSigner
    NullSigner(PAPER_SUITE_NO_SIG).seal([data])
    with pytest.raises(ClientError):
        client.process_message(data.encode())


def test_digest_verification_failure():
    client = make_client()
    message = wire_rekey([])
    encoded = bytearray(message.encode())
    encoded[20] ^= 0xFF  # corrupt the header inside the digest region
    with pytest.raises(SigningError):
        client.process_message(bytes(encoded))
    assert client.stats.verify_failures == 1


def test_verify_disabled_skips_checks():
    client = GroupClient("a", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(bytes(8))
    message = wire_rekey([])
    encoded = bytearray(message.encode())
    encoded[20] ^= 0xFF
    client.process_message(bytes(encoded))  # no exception


def test_process_control_messages():
    client = make_client()
    ack = Message(msg_type=MSG_JOIN_ACK, body=(77).to_bytes(4, "big"))
    from repro.core.signing import NullSigner
    NullSigner(PAPER_SUITE_NO_SIG).seal([ack])
    client.process_control(ack.encode())
    assert client.leaf_node_id == 77

    client.keys[1] = (0, bytes(8))
    leave_ack = Message(msg_type=MSG_LEAVE_ACK)
    NullSigner(PAPER_SUITE_NO_SIG).seal([leave_ack])
    client.process_control(leave_ack.encode())
    assert client.keys == {}
    assert client.root_ref is None


def test_group_key_requires_current_version():
    client = make_client()
    client.keys[9] = (1, b"G" * 8)
    client.root_ref = (9, 2)  # newer than what we hold
    assert client.group_key() is None
    client.root_ref = (9, 1)
    assert client.group_key() == b"G" * 8


def test_key_count():
    client = make_client()
    assert client.key_count() == 1  # just the individual key
    client.keys[1] = (0, bytes(8))
    assert client.key_count() == 2


def test_stats_accumulate():
    client = make_client()
    item = encrypt_records(PAPER_SUITE_NO_SIG, bytes(8),
                           [KeyRecord(1, 0, b"A" * 8)], 0xFFFFFFFF, 0)
    message = wire_rekey([item], (1, 0)).encode()
    client.process_message(message)
    assert client.stats.rekey_messages == 1
    assert client.stats.rekey_bytes == len(message)
    assert client.stats.keys_changed == 1
    snapshot = client.stats.snapshot()
    assert snapshot.rekey_messages == 1


def test_open_data_end_to_end():
    config = ServerConfig(strategy="group", degree=3,
                          suite=PAPER_SUITE, signing="merkle",
                          seed=b"client-data")
    server = GroupKeyServer(config)
    key = server.new_individual_key()
    client = GroupClient("a", PAPER_SUITE, server.public_key)
    client.set_individual_key(key)
    outcome = server.join("a", key)
    client.process_control(outcome.control_messages[0].encoded)
    deliver(server, {"a": client}, outcome.rekey_messages)
    sealed = server.seal_group_message(b"hello group")
    assert client.open_data(sealed.encoded) == b"hello group"

    # Tampered data is rejected by the digest check.
    corrupted = bytearray(sealed.encoded)
    corrupted[40] ^= 1
    with pytest.raises(SigningError):
        client.open_data(bytes(corrupted))


def test_open_data_requires_group_key():
    client = make_client()
    item = EncryptedItem(5, 0, bytes(8), bytes(16), 16)
    message = Message(msg_type=MSG_DATA, root_node_id=5, root_version=0,
                      items=[item])
    from repro.core.signing import NullSigner
    NullSigner(PAPER_SUITE_NO_SIG).seal([message])
    with pytest.raises(ClientError):
        client.open_data(message.encode())
