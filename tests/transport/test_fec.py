"""Reed-Solomon erasure coding and FEC multicast."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (MSG_REKEY, Destination, Message,
                                 OutboundMessage)
from repro.transport.fec import (FecError, ReedSolomonCode, decode_packets,
                                 encode_packets, gf_inv, gf_mul)
from repro.transport.fecmulticast import FecMulticast
from repro.transport.inmemory import InMemoryNetwork


# -- GF(256) --------------------------------------------------------------------


def test_gf_field_axioms_spotcheck():
    for a in (1, 2, 7, 19, 255):
        assert gf_mul(a, gf_inv(a)) == 1
        assert gf_mul(a, 1) == a
        assert gf_mul(a, 0) == 0
    # Commutativity and associativity samples.
    assert gf_mul(7, 19) == gf_mul(19, 7)
    assert gf_mul(gf_mul(3, 5), 9) == gf_mul(3, gf_mul(5, 9))


def test_gf_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        gf_inv(0)


@given(a=st.integers(min_value=1, max_value=255))
def test_gf_inverse_property(a):
    assert gf_mul(a, gf_inv(a)) == 1


def test_gf_distributivity():
    for a, b, c in ((3, 100, 200), (255, 1, 17), (9, 9, 9)):
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


# -- Reed-Solomon -----------------------------------------------------------------


def test_code_parameter_validation():
    with pytest.raises(FecError):
        ReedSolomonCode(0, 1)
    with pytest.raises(FecError):
        ReedSolomonCode(200, 100)  # k + r > 255
    with pytest.raises(FecError):
        ReedSolomonCode(2, -1)


def test_no_loss_decode_is_identity():
    code = ReedSolomonCode(3, 2)
    data = [b"AAAA", b"BBBB", b"CCCC"]
    parity = code.encode(data)
    received = {i: block for i, block in enumerate(data + parity)}
    assert code.decode(received) == data


def test_decode_from_parity_only():
    code = ReedSolomonCode(2, 2)
    data = [b"hello...", b"world..."]
    parity = code.encode(data)
    received = {2: parity[0], 3: parity[1]}
    assert code.decode(received) == data


def test_decode_insufficient_blocks():
    code = ReedSolomonCode(3, 2)
    data = [b"AAAA", b"BBBB", b"CCCC"]
    parity = code.encode(data)
    with pytest.raises(FecError):
        code.decode({0: data[0], 3: parity[0]})


def test_encode_validation():
    code = ReedSolomonCode(2, 1)
    with pytest.raises(FecError):
        code.encode([b"one"])
    with pytest.raises(FecError):
        code.encode([b"one", b"longer"])


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_k_of_n_reconstructs(data):
    """THE erasure-code property: any k received indices suffice."""
    k = data.draw(st.integers(min_value=1, max_value=6))
    r = data.draw(st.integers(min_value=0, max_value=5))
    block_size = data.draw(st.integers(min_value=1, max_value=24))
    blocks = [data.draw(st.binary(min_size=block_size, max_size=block_size))
              for _ in range(k)]
    code = ReedSolomonCode(k, r)
    parity = code.encode(blocks)
    assert len(parity) == r
    all_blocks = blocks + parity
    survivors = data.draw(st.permutations(range(k + r)))[:k]
    received = {index: all_blocks[index] for index in survivors}
    assert code.decode(received) == blocks


# -- packetization ----------------------------------------------------------------


@given(payload=st.binary(min_size=1, max_size=400),
       k=st.integers(min_value=1, max_value=8),
       r=st.integers(min_value=0, max_value=4))
@settings(max_examples=40, deadline=None)
def test_packet_roundtrip(payload, k, r):
    packets = encode_packets(payload, k, r)
    assert len(packets) == k + r
    assert decode_packets(packets, k) == payload


def test_packet_roundtrip_with_losses():
    payload = bytes(range(256)) * 3
    packets = encode_packets(payload, 5, 3)
    survivors = [packets[0], packets[2], packets[5], packets[6], packets[7]]
    assert decode_packets(survivors, 5) == payload


def test_packet_header_validation():
    with pytest.raises(FecError):
        decode_packets([b"tiny"], 2)
    with pytest.raises(FecError):
        decode_packets([], 2)
    packets = encode_packets(b"payload", 2, 1)
    other = encode_packets(b"different!", 2, 1)
    with pytest.raises(FecError):
        decode_packets([packets[0], other[1]], 2)


# -- FEC multicast transport ----------------------------------------------------------


def rekey_outbound(receivers, payload=b"R" * 300):
    return OutboundMessage(Destination.to_all(),
                           Message(msg_type=MSG_REKEY), tuple(receivers),
                           payload)


def test_fec_multicast_lossless():
    network = InMemoryNetwork()
    fec = FecMulticast(network, k=4, r=2)
    inbox = []
    fec.attach("a", inbox.append)
    fec.send(rekey_outbound(("a",)))
    assert inbox == [b"R" * 300]
    assert fec.recovered_with_parity == 0


def test_fec_multicast_survives_loss_without_retransmission():
    network = InMemoryNetwork(drop_rate=0.25, seed=b"fec-loss")
    fec = FecMulticast(network, k=4, r=4)
    inboxes = {user: [] for user in ("a", "b", "c")}
    for user, inbox in inboxes.items():
        fec.attach(user, inbox.append)
    n_messages = 40
    for i in range(n_messages):
        fec.send(rekey_outbound(tuple(inboxes), payload=bytes([i]) * 120))
    recovered = sum(len(inbox) for inbox in inboxes.values())
    # 25% loss with r=k parity: virtually everything reconstructs, and
    # nothing was ever retransmitted.
    assert recovered + fec.unrecoverable == n_messages * 3
    assert recovered >= n_messages * 3 * 0.9
    assert fec.recovered_with_parity > 0
    assert network.stats.retransmissions == 0
    # Delivered copies arrive intact and in order.
    for inbox in inboxes.values():
        assert inbox == sorted(inbox)


def test_fec_overhead_accounting():
    fec = FecMulticast(InMemoryNetwork(), k=4, r=2)
    assert fec.overhead == pytest.approx(0.5)
    with pytest.raises(ValueError):
        FecMulticast(InMemoryNetwork(), k=0)


def test_fec_no_duplicate_delivery():
    network = InMemoryNetwork()
    fec = FecMulticast(network, k=2, r=3)  # r > k: extra packets arrive late
    inbox = []
    fec.attach("a", inbox.append)
    fec.send(rekey_outbound(("a",), payload=b"once"))
    assert inbox == [b"once"]


def test_fec_carries_real_rekey_messages():
    """End to end: server rekey -> FEC over 20% loss -> client keys."""
    from repro.core.client import GroupClient
    from repro.core.server import GroupKeyServer, ServerConfig
    from repro.crypto.suite import PAPER_SUITE_NO_SIG

    server = GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"fec-e2e"))
    network = InMemoryNetwork(drop_rate=0.2, seed=b"fec-e2e-loss")
    fec = FecMulticast(network, k=3, r=5)
    clients = {}
    for i in range(9):
        uid = f"u{i}"
        key = server.new_individual_key()
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
        fec.attach(uid, client.process_message)
        outcome = server.join(uid, key)
        client.process_control(outcome.control_messages[0].encoded)
        fec.send_all(outcome.rekey_messages)
    synchronized = sum(1 for client in clients.values()
                      if client.group_key() == server.group_key())
    # With r=5 parity over 20% loss essentially everyone keeps up.
    assert synchronized >= 8
