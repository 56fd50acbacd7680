"""The member side: ``GroupClient.receive`` dispatch, and the
ResilientMember's heartbeats and self-initiated repair."""

import pytest

from repro.core.client import GroupClient
from repro.core.messages import (MSG_BUSY, MSG_DATA, MSG_HEARTBEAT,
                                 MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, MSG_RESYNC_REPLY,
                                 MSG_RESYNC_REQUEST, MSG_STATS_RESPONSE,
                                 MSG_SUBCAST, Message, WireError)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.recovery import ResilientMember

from ..delivery import deliver


def make_pair(n=9):
    server = GroupKeyServer(ServerConfig(
        degree=3, strategy="group", suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"member-tests"))
    members = [(f"u{i}", server.new_individual_key()) for i in range(n)]
    server.bootstrap(members)
    sent = []
    member = ResilientMember("u0", PAPER_SUITE_NO_SIG, verify=False,
                             uplink=sent.append)
    member.client.set_individual_key(dict(members)["u0"])
    return server, member, sent


def _request(msg_type: int, user_id: str) -> bytes:
    return Message(msg_type=msg_type, body=user_id.encode()).encode()


def _synced(server, client: GroupClient) -> GroupClient:
    client.receive(server.resync("u0").encoded)
    assert client.group_key() == server.group_key()
    return client


# Each case: (server, u0's client) -> (datagram, receive's expected
# return, the client that receives it, check of its state afterwards).

def _rekey(server, client):
    _synced(server, client)
    [rekey] = server.leave("u5").rekey_messages
    return rekey.encoded, (MSG_REKEY, None), client, \
        lambda: client.group_key() == server.group_key()


def _resync_ok(server, client):
    return server.resync("u0").encoded, (MSG_RESYNC_REPLY, None), client, \
        lambda: (client.group_key() == server.group_key()
                 and client.stats.resyncs == 1 and not client.evicted)


def _resync_not_member(server, client):
    _synced(server, client)
    server.leave("u0")
    return server.resync("u0").encoded, (MSG_RESYNC_REPLY, None), client, \
        lambda: client.evicted and client.group_key() is None


def _join_ack(server, _client):
    joiner = GroupClient("new", PAPER_SUITE_NO_SIG, verify=False)
    joiner.set_individual_key(server.new_individual_key())
    outcome = server.join("new", joiner.individual_key)
    [ack] = outcome.control_messages
    return ack.encoded, (MSG_JOIN_ACK, None), joiner, \
        lambda: joiner.leaf_node_id == server.tree.leaf_of("new").node_id


def _join_denied(server, client):
    [denial] = server.handle_datagram(_request(MSG_JOIN_REQUEST, "u0"))
    return denial.encoded, (MSG_JOIN_DENIED, None), client, \
        lambda: client.leaf_node_id is None and not client.keys


def _leave_ack(server, client):
    _synced(server, client)
    [ack] = server.leave("u0").control_messages
    return ack.encoded, (MSG_LEAVE_ACK, None), client, \
        lambda: client.group_key() is None and not client.keys


def _leave_denied(server, client):
    _synced(server, client)
    [denial] = server.handle_datagram(_request(MSG_LEAVE_REQUEST, "ghost"))
    return denial.encoded, (MSG_LEAVE_DENIED, None), client, \
        lambda: client.group_key() == server.group_key()


def _data_held(server, client):
    _synced(server, client)
    sealed = server.seal_group_message(b"hello")
    return sealed.encoded, (MSG_DATA, b"hello"), client, \
        lambda: client.stats.data_failures == 0 and not client.desynced


def _data_unheld(server, client):
    _synced(server, client)
    server.leave("u3")  # the client misses this rekey entirely
    sealed = server.seal_group_message(b"secret")
    return sealed.encoded, (MSG_DATA, None), client, \
        lambda: client.stats.data_failures == 1 and client.desynced


def _unprocessed(msg_type, build):
    def case(server, client):
        _synced(server, client)
        before = dict(client.keys), client.stats.snapshot()
        return build(server), (msg_type, None), client, \
            lambda: (dict(client.keys), client.stats) == before
    return case


CASES = {
    "rekey": _rekey,
    "resync-ok": _resync_ok,
    "resync-not-member": _resync_not_member,
    "join-ack": _join_ack,
    "join-denied": _join_denied,
    "leave-ack": _leave_ack,
    "leave-denied": _leave_denied,
    "data-held-key": _data_held,
    "data-unheld-key": _data_unheld,
    "busy": _unprocessed(MSG_BUSY, lambda server: Message(
        msg_type=MSG_BUSY, body=b"u0").encode()),
    "stats": _unprocessed(MSG_STATS_RESPONSE, lambda server: Message(
        msg_type=MSG_STATS_RESPONSE, body=b"{}").encode()),
    "subcast": _unprocessed(MSG_SUBCAST, lambda server: server.subcast(
        ["u0", "u1"], b"to two").encoded),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_receive_dispatches_all_types(case):
    server, member, _sent = make_pair()
    datagram, expected, client, check = CASES[case](server, member.client)
    assert client.receive(datagram) == expected
    assert check()


def test_receive_raises_on_a_malformed_datagram():
    _server, member, _sent = make_pair()
    with pytest.raises(WireError):
        member.client.receive(b"\x00garbage")


def test_receive_follows_rekeys_through_a_transport():
    server, member, _sent = make_pair()
    _synced(server, member.client)
    outcome = server.leave("u5")
    deliver(server, {"u0": member}, outcome.rekey_messages,
            handler=lambda member: member.client.receive)
    assert member.group_key() == server.group_key()


def test_data_under_unheld_key_flags_desync_not_crash():
    server, member, _sent = make_pair()
    member.client.receive(server.resync("u0").encoded)
    server.leave("u3")  # member misses this rekey entirely
    sealed = server.seal_group_message(b"secret")
    assert member.client.receive(sealed.encoded) == (MSG_DATA, None)
    assert member.client.stats.data_failures == 1
    assert member.desynced


def test_heartbeat_carries_key_view():
    server, member, sent = make_pair()
    beat = Message.decode(member.beat())
    assert beat.msg_type == MSG_HEARTBEAT
    assert (beat.root_node_id, beat.root_version) == (0, 0)  # cold
    assert beat.body == b"u0"
    assert len(sent) == 1
    member.client.receive(server.resync("u0").encoded)
    beat = Message.decode(member.beat())
    assert (beat.root_node_id, beat.root_version) == server.group_key_ref()


def test_maintain_requests_resync_only_when_desynced():
    server, member, sent = make_pair()
    member.client.receive(server.resync("u0").encoded)
    assert member.maintain() == []  # healthy: quiet
    server.leave("u3")
    # Trips detection.
    member.client.receive(server.seal_group_message(b"x").encoded)
    datagrams = member.maintain()
    assert len(datagrams) == 1
    assert Message.decode(datagrams[0]).msg_type == MSG_RESYNC_REQUEST
    assert member.resync_requests == 1
    # The request round-trips into a repair.
    member.client.receive(server.resync("u0").encoded)
    assert not member.desynced
    assert member.maintain() == []


def test_maintain_stays_quiet_after_eviction():
    server, member, _sent = make_pair()
    member.client.receive(server.resync("u0").encoded)
    server.leave("u0")
    member.client.receive(server.resync("u0").encoded)  # NOT_MEMBER
    assert member.evicted
    assert member.maintain() == []


def test_request_goes_up_the_uplink():
    _server, member, sent = make_pair()
    datagram = member.request(MSG_JOIN_REQUEST)
    assert sent == [datagram]
    message = Message.decode(datagram)
    assert (message.msg_type, message.body) == (MSG_JOIN_REQUEST, b"u0")
