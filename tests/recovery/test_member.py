"""ResilientMember: dispatch, heartbeats, self-initiated repair."""

from repro.core.messages import (MSG_HEARTBEAT, MSG_RESYNC_REQUEST, Message)
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


def test_handle_dispatches_all_types():
    server, member, _sent = make_pair()
    member.handle(server.resync("u0").encoded)
    assert member.group_key() == server.group_key()
    outcome = server.leave("u5")
    deliver(server, {"u0": member}, outcome.rekey_messages,
            handler=lambda member: member.handle)
    assert member.group_key() == server.group_key()
    member.handle(server.seal_group_message(b"hello").encoded)
    assert member.received == [b"hello"]


def test_data_under_unheld_key_flags_desync_not_crash():
    server, member, _sent = make_pair()
    member.handle(server.resync("u0").encoded)
    server.leave("u3")  # member misses this rekey entirely
    member.handle(server.seal_group_message(b"secret").encoded)
    assert member.data_failures == 1
    assert member.desynced
    assert member.received == []


def test_heartbeat_carries_key_view():
    server, member, sent = make_pair()
    beat = Message.decode(member.beat())
    assert beat.msg_type == MSG_HEARTBEAT
    assert (beat.root_node_id, beat.root_version) == (0, 0)  # cold
    assert beat.body == b"u0"
    assert len(sent) == 1
    member.handle(server.resync("u0").encoded)
    beat = Message.decode(member.beat())
    assert (beat.root_node_id, beat.root_version) == server.group_key_ref()


def test_maintain_requests_resync_only_when_desynced():
    server, member, sent = make_pair()
    member.handle(server.resync("u0").encoded)
    assert member.maintain() == []  # healthy: quiet
    server.leave("u3")
    member.handle(server.seal_group_message(b"x").encoded)  # trips detection
    datagrams = member.maintain()
    assert len(datagrams) == 1
    assert Message.decode(datagrams[0]).msg_type == MSG_RESYNC_REQUEST
    assert member.resync_requests == 1
    # The request round-trips into a repair.
    member.handle(server.resync("u0").encoded)
    assert not member.desynced
    assert member.maintain() == []


def test_maintain_stays_quiet_after_eviction():
    server, member, _sent = make_pair()
    member.handle(server.resync("u0").encoded)
    server.leave("u0")
    member.handle(server.resync("u0").encoded)  # NOT_MEMBER
    assert member.evicted
    assert member.maintain() == []
