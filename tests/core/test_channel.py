"""Authenticated group data channel: crypto, replay, epochs."""

import pytest

from repro.core.channel import (ChannelError, ReplayWindow,
                                SecureGroupChannel, derive_keys)
from repro.core.client import GroupClient
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_ENC_ONLY, PAPER_SUITE_NO_SIG

from ..delivery import deliver


def make_world(n=4, suite=PAPER_SUITE_NO_SIG):
    server = GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=suite, signing="none",
        seed=b"channel-tests"))
    clients = {}
    for i in range(n):
        uid = f"u{i}"
        key = server.new_individual_key()
        client = GroupClient(uid, suite, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
        outcome = server.join(uid, key)
        client.process_control(outcome.control_messages[0].encoded)
        deliver(server, clients, outcome.rekey_messages)
    return server, clients


def channels_for(server, clients):
    return ({uid: SecureGroupChannel.for_client(client)
             for uid, client in clients.items()},
            SecureGroupChannel.for_server(server))


# -- key derivation ----------------------------------------------------------


def test_derived_keys_differ_from_group_key_and_each_other():
    enc, mac = derive_keys(PAPER_SUITE_NO_SIG, b"GROUPKEY")
    assert enc != b"GROUPKEY"
    assert enc != mac[:len(enc)]
    assert len(enc) == PAPER_SUITE_NO_SIG.key_size
    enc2, mac2 = derive_keys(PAPER_SUITE_NO_SIG, b"OTHERKEY")
    assert enc != enc2 and mac != mac2


def test_derivation_works_without_suite_digest():
    enc, mac = derive_keys(PAPER_SUITE_ENC_ONLY, b"GROUPKEY")
    assert len(enc) == PAPER_SUITE_ENC_ONLY.key_size
    assert mac


# -- replay window ----------------------------------------------------------------


def test_replay_window_monotone():
    window = ReplayWindow()
    for seq in (1, 2, 5, 6, 100):
        window.check_and_update(seq)
    with pytest.raises(ChannelError):
        window.check_and_update(100)   # exact replay
    with pytest.raises(ChannelError):
        window.check_and_update(5)     # too old (beyond window of 64)
    window.check_and_update(99)        # in-window, unseen: fine
    with pytest.raises(ChannelError):
        window.check_and_update(99)    # now seen


def test_replay_window_rejects_nonpositive():
    with pytest.raises(ChannelError):
        ReplayWindow().check_and_update(0)


# -- sealing/opening ------------------------------------------------------------


def test_member_to_group_roundtrip():
    server, clients = make_world()
    channels, _server_channel = channels_for(server, clients)
    frame = channels["u0"].seal(b"hello from u0")
    for uid in ("u1", "u2", "u3"):
        payload, sender, seq = channels[uid].open(frame)
        assert payload == b"hello from u0"
        assert sender == "u0"
        assert seq == 1


def test_server_to_group_and_back():
    server, clients = make_world()
    channels, server_channel = channels_for(server, clients)
    frame = server_channel.seal(b"server notice")
    payload, sender, _seq = channels["u2"].open(frame)
    assert payload == b"server notice" and sender == "@server"
    reply = channels["u2"].seal(b"ack from u2")
    payload, sender, _seq = server_channel.open(reply)
    assert payload == b"ack from u2" and sender == "u2"


def test_replay_rejected_but_order_tolerated():
    server, clients = make_world()
    channels, _ = channels_for(server, clients)
    frames = [channels["u0"].seal(f"msg {i}".encode()) for i in range(3)]
    receiver = channels["u1"]
    receiver.open(frames[2])           # arrives first
    receiver.open(frames[0])           # reordered: accepted
    receiver.open(frames[1])
    with pytest.raises(ChannelError):
        receiver.open(frames[1])       # replay


def test_tampered_frame_rejected():
    server, clients = make_world()
    channels, _ = channels_for(server, clients)
    frame = bytearray(channels["u0"].seal(b"important"))
    frame[len(frame) // 2] ^= 0x01
    with pytest.raises(ChannelError):
        channels["u1"].open(bytes(frame))


def test_forged_sender_rejected():
    """A non-member (without the group key) cannot forge frames."""
    server, clients = make_world()
    channels, _ = channels_for(server, clients)
    outsider = SecureGroupChannel(
        PAPER_SUITE_NO_SIG, "mallory",
        key_source=lambda: (server.group_key_ref()[0],
                            server.group_key_ref()[1],
                            b"WRONGKEY"))
    frame = outsider.seal(b"fake")
    with pytest.raises(ChannelError):
        channels["u0"].open(frame)


def test_epoch_binding_after_rekey():
    server, clients = make_world()
    channels, _ = channels_for(server, clients)
    stale_frame = channels["u0"].seal(b"before rekey")

    # u3 leaves; the group rekeys.
    departed = clients.pop("u3")
    channels.pop("u3")
    outcome = server.leave("u3")
    deliver(server, clients, outcome.rekey_messages)

    # A fresh receiver channel (current epoch only) rejects the stale frame.
    fresh = SecureGroupChannel.for_client(clients["u1"])
    with pytest.raises(ChannelError):
        fresh.open(stale_frame)
    # New frames flow normally.
    frame = channels["u0"].seal(b"after rekey")
    payload, _sender, _seq = fresh.open(frame)
    assert payload == b"after rekey"


def test_grace_epoch_accepts_in_flight_frames():
    server, clients = make_world()
    sender = SecureGroupChannel.for_client(clients["u0"])
    receiver = SecureGroupChannel.for_client(clients["u1"],
                                             accept_previous_epochs=1)
    # Receiver observes the current epoch...
    receiver.open(sender.seal(b"warm up"))
    in_flight = sender.seal(b"racing the rekey")
    # ...then the group rekeys (a join).
    key = server.new_individual_key()
    newcomer = GroupClient("u9", PAPER_SUITE_NO_SIG, verify=False)
    newcomer.set_individual_key(key)
    clients["u9"] = newcomer
    outcome = server.join("u9", key)
    newcomer.process_control(outcome.control_messages[0].encoded)
    deliver(server, clients, outcome.rekey_messages)
    # The in-flight frame from the previous epoch is still accepted...
    payload, _sender, _seq = receiver.open(in_flight)
    assert payload == b"racing the rekey"
    # ...but a zero-grace receiver would have rejected it (prior test).


def test_departed_member_cannot_read_new_frames():
    server, clients = make_world()
    departed = clients.pop("u2")
    departed_channel = SecureGroupChannel.for_client(departed)
    outcome = server.leave("u2")
    deliver(server, clients, outcome.rekey_messages)
    sender = SecureGroupChannel.for_client(clients["u0"])
    frame = sender.seal(b"post-departure secret")
    with pytest.raises(ChannelError):
        departed_channel.open(frame)


def test_seal_without_group_key():
    client = GroupClient("loner", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(bytes(8))
    channel = SecureGroupChannel.for_client(client)
    with pytest.raises(ChannelError):
        channel.seal(b"into the void")


def test_sender_id_validation():
    with pytest.raises(ChannelError):
        SecureGroupChannel(PAPER_SUITE_NO_SIG, "", lambda: None)
    with pytest.raises(ChannelError):
        SecureGroupChannel(PAPER_SUITE_NO_SIG, "x" * 300, lambda: None)


def test_open_garbage():
    server, clients = make_world(n=1)
    channel = SecureGroupChannel.for_client(clients["u0"])
    with pytest.raises(ChannelError):
        channel.open(b"not a frame")


# -- individual sender authenticity (optional signatures) -----------------------


def test_sender_signatures_accept_genuine_frames():
    from repro.crypto import rsa
    server, clients = make_world()
    alice_keypair = rsa.generate_keypair(512, seed=b"alice-signing")
    sender = SecureGroupChannel.for_client(clients["u0"],
                                           signing_keypair=alice_keypair)
    receiver = SecureGroupChannel.for_client(clients["u1"])
    receiver.register_peer("u0", alice_keypair.public_key)
    frame = sender.seal(b"signed hello")
    payload, who, _seq = receiver.open(frame)
    assert payload == b"signed hello" and who == "u0"


def test_sender_signatures_reject_masquerade():
    """u2 (a legitimate member with the MAC key) cannot pass as u0 once
    u0's public key is pinned."""
    from repro.crypto import rsa
    server, clients = make_world()
    alice_keypair = rsa.generate_keypair(512, seed=b"alice-signing")
    mallory_keypair = rsa.generate_keypair(512, seed=b"mallory-signing")
    receiver = SecureGroupChannel.for_client(clients["u1"])
    receiver.register_peer("u0", alice_keypair.public_key)

    # Unsigned frame claiming to be u0: rejected (key is pinned).
    unsigned_as_u0 = SecureGroupChannel(
        clients["u2"].suite, "u0",
        key_source=lambda: (clients["u2"].root_ref[0],
                            clients["u2"].root_ref[1],
                            clients["u2"].group_key()))
    with pytest.raises(ChannelError):
        receiver.open(unsigned_as_u0.seal(b"fake"))

    # Frame signed with the WRONG key claiming u0: rejected.
    wrong_key_as_u0 = SecureGroupChannel(
        clients["u2"].suite, "u0",
        key_source=lambda: (clients["u2"].root_ref[0],
                            clients["u2"].root_ref[1],
                            clients["u2"].group_key()),
        signing_keypair=mallory_keypair)
    with pytest.raises(ChannelError):
        receiver.open(wrong_key_as_u0.seal(b"fake"))


def test_require_sender_signatures_rejects_unpinned():
    server, clients = make_world()
    receiver = SecureGroupChannel.for_client(clients["u1"])
    receiver.require_sender_signatures = True
    plain_sender = SecureGroupChannel.for_client(clients["u0"])
    with pytest.raises(ChannelError):
        receiver.open(plain_sender.seal(b"anonymous"))


def test_unsigned_senders_still_work_when_not_pinned():
    from repro.crypto import rsa
    server, clients = make_world()
    alice_keypair = rsa.generate_keypair(512, seed=b"alice-signing")
    receiver = SecureGroupChannel.for_client(clients["u1"])
    receiver.register_peer("u0", alice_keypair.public_key)
    # u2 is not pinned: its group-MAC frames still pass.
    other = SecureGroupChannel.for_client(clients["u2"])
    payload, who, _seq = receiver.open(other.seal(b"plain member"))
    assert who == "u2"
