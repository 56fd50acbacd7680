"""Coalescing mode: concurrent joins/leaves fold into one flush."""

import asyncio

from repro.core.messages import (INDIVIDUAL_KEY, MSG_JOIN_ACK,
                                 MSG_JOIN_DENIED, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_ACK, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.serve import AsyncKeyService, CoalescingServingCore, ServeConfig
from repro.serve.wire import split_corr_trailer
from repro.transport.udp import UdpGroupMember


def _request(msg_type, user):
    return Message(msg_type=msg_type, body=user.encode("utf-8")).encode()


def _decode(payload):
    return Message.decode(split_corr_trailer(payload)[0])


def _server(seed, **overrides):
    return GroupKeyServer(ServerConfig(signing="none", seed=seed, **overrides))


def _run(coro):
    return asyncio.run(coro)


def test_concurrent_joins_fold_into_one_flush():
    async def scenario():
        server = _server(b"coalesce-test")
        config = ServeConfig(coalesce_interval=0.05, coalesce_max=64,
                             max_inflight=128, tick_interval=0)
        core = CoalescingServingCore(server, config)
        await core.start()
        received = {}
        try:
            users = [f"u{i}" for i in range(12)]

            async def one_join(user):
                await core.submit(
                    _request(MSG_JOIN_REQUEST, user),
                    lambda payload, user=user:
                        received.setdefault(user, []).append(payload),
                    path_id=f"path-{user}")
            await asyncio.gather(*(one_join(user) for user in users))
            assert core._m_flushes.value == 1, \
                "a concurrent burst must rekey exactly once"
            assert [record.op for record in server.history] == ["flush"]
            assert server.tree.n_users == 12
            # Every joiner got its ack, then its path keys.
            for user in users:
                ack, path = map(_decode, received[user][:2])
                assert ack.msg_type == MSG_JOIN_ACK
                assert int.from_bytes(ack.body, "big") \
                    == server.tree.leaf_of(user).node_id
                assert path.msg_type == MSG_REKEY
                assert path.items[0].enc_node_id == INDIVIDUAL_KEY
        finally:
            await core.aclose()
    _run(scenario())


def test_leavers_get_synthesized_acks():
    async def scenario():
        server = _server(b"coalesce-leave")
        config = ServeConfig(coalesce_interval=0.05, max_inflight=128,
                             tick_interval=0)
        core = CoalescingServingCore(server, config)
        await core.start()
        try:
            joins = {}
            await asyncio.gather(*(
                core.submit(_request(MSG_JOIN_REQUEST, f"u{i}"),
                            lambda p, i=i: joins.setdefault(i, p),
                            path_id=None)
                for i in range(6)))
            leave_replies = []
            await core.submit(_request(MSG_LEAVE_REQUEST, "u3"),
                              leave_replies.append, path_id=None)
            assert leave_replies, "leave must be acked at the flush"
            assert _decode(leave_replies[0]).msg_type == MSG_LEAVE_ACK
            assert not server.is_member("u3")
        finally:
            await core.aclose()
    _run(scenario())


def test_join_then_leave_same_interval_cancels():
    async def scenario():
        server = _server(b"coalesce-cancel")
        config = ServeConfig(coalesce_interval=0.2, max_inflight=128,
                             tick_interval=0)
        core = CoalescingServingCore(server, config)
        await core.start()
        try:
            replies = []
            await asyncio.gather(
                core.submit(_request(MSG_JOIN_REQUEST, "ghost"),
                            replies.append, path_id=None),
                core.submit(_request(MSG_LEAVE_REQUEST, "ghost"),
                            replies.append, path_id=None))
            # Both requests answered, no membership change.
            assert sorted(_decode(p).msg_type for p in replies) \
                == [MSG_JOIN_ACK, MSG_LEAVE_ACK]
            assert not server.is_member("ghost")
            assert server.history[-1].encryptions == 0
        finally:
            await core.aclose()
    _run(scenario())


def test_coalesce_max_triggers_early_flush():
    async def scenario():
        server = _server(b"coalesce-early")
        # A long interval that the test never waits out: the early
        # flush must come from the pending-count trigger.
        config = ServeConfig(coalesce_interval=30.0, coalesce_max=4,
                             max_inflight=128, tick_interval=0)
        core = CoalescingServingCore(server, config)
        await core.start()
        try:
            await asyncio.wait_for(
                asyncio.gather(*(
                    core.submit(_request(MSG_JOIN_REQUEST, f"u{i}"),
                                lambda _p: None, path_id=None)
                    for i in range(4))),
                timeout=5.0)
            assert server.tree.n_users == 4
        finally:
            await core.aclose()
    _run(scenario())


def test_access_list_and_roster_are_the_servers():
    """The core serves the key server's group: a joiner off its access
    list is denied at once, and the bootstrapped roster is the group."""
    async def scenario():
        server = _server(b"coalesce-acl", access_list={"alice", "bob"})
        server.bootstrap([("alice", server.new_individual_key())])
        core = CoalescingServingCore(server, ServeConfig(tick_interval=0))
        await core.start()
        try:
            replies = []
            await core.submit(_request(MSG_JOIN_REQUEST, "mallory"),
                              replies.append, path_id=None)
            assert [_decode(p).msg_type for p in replies] \
                == [MSG_JOIN_DENIED]
            await core.submit(_request(MSG_JOIN_REQUEST, "alice"),
                              replies.append, path_id=None)
            assert _decode(replies[-1]).msg_type == MSG_JOIN_DENIED
            await core.submit(_request(MSG_JOIN_REQUEST, "bob"),
                              replies.append, path_id=None)
            assert _decode(replies[-1]).msg_type == MSG_JOIN_ACK
            assert sorted(server.members()) == ["alice", "bob"]
        finally:
            await core.aclose()
    _run(scenario())


def test_udp_member_joins_and_leaves():
    server = _server(b"coalesce-udp")
    keys = {user: server.new_individual_key() for user in ("amy", "ben")}
    for user, key in keys.items():
        server.register_individual_key(user, key)
    core = CoalescingServingCore(server, ServeConfig(
        open_enroll=False, tick_interval=0, coalesce_interval=0.01))

    def drive(address):
        members = [UdpGroupMember(user, PAPER_SUITE_NO_SIG, address,
                                  timeout=10.0) for user in keys]
        try:
            for member in members:
                member.join(keys[member.user_id])
            for member in members:
                member.pump()
            in_sync = [member.client.group_key() == server.group_key()
                       for member in members]
            members[0].leave()
            members[1].pump()
            return in_sync, members[1].client.group_key()
        finally:
            for member in members:
                member.close()

    async def run():
        async with AsyncKeyService(core) as service:
            return await asyncio.to_thread(drive, service.udp_address)
    in_sync, survivor_key = asyncio.run(run())
    assert in_sync == [True, True]
    assert server.members() == ["ben"]
    assert survivor_key == server.group_key()


def test_leaver_evicted_before_its_flush_keeps_the_window():
    async def scenario():
        server = _server(b"coalesce-evict")
        server.bootstrap([(f"u{i}", server.new_individual_key())
                          for i in range(4)])
        core = CoalescingServingCore(server, ServeConfig(
            coalesce_interval=30.0, tick_interval=0))
        await core.start()
        try:
            replies = []
            tasks = [asyncio.ensure_future(core.submit(
                _request(msg_type, user), replies.append, path_id=None))
                for msg_type, user in ((MSG_LEAVE_REQUEST, "u1"),
                                       (MSG_JOIN_REQUEST, "n0"))]
            while len(core._waiters) < 2:
                await asyncio.sleep(0)
            # A recovery tick evicts the leaver before the flush runs.
            server.evict(["u1"])
            core._flush_event.set()
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=5.0)
            assert sorted(_decode(p).msg_type for p in replies) \
                == [MSG_JOIN_ACK, MSG_LEAVE_ACK]
            assert server.is_member("n0") and not server.is_member("u1")
        finally:
            await core.aclose()
    _run(scenario())
