"""Admission and flush regressions for the async serving core.

Every op is served on the event loop, so the op-lock contention these
tests once pinned is gone.  What is left: the coalescing enqueue/waiter
atomicity under interleaved flushes, opportunistic rate-bucket pruning,
the busy reply for admitted ops that die server-side, and admission
against the ops accepted but not yet served.
"""

import asyncio

from repro.batch.rekeying import BatchRekeyServer
from repro.core.messages import (MSG_BUSY, MSG_JOIN_REQUEST, MSG_REKEY,
                                 Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.serve import (CoalescingServingCore, ImmediateServingCore,
                         ServeConfig)
from repro.serve.wire import split_corr_trailer


def _request(msg_type, user):
    return Message(msg_type=msg_type, body=user.encode("utf-8")).encode()


def _server(seed):
    return GroupKeyServer(
        ServerConfig(signing="none", seed=seed, backend="flat"))


def test_coalesce_contended_joiners_still_get_path_keys():
    """Every joiner's reply is its path-keys unicast, never a bare ack.

    Enqueue once fell back to the executor, with the waiter appended
    only after the await resumed — a flush in that window consumed the
    pending join without a waiter and its path-key unicast was silently
    dropped.  Enqueue + registration are one step on the loop, and so
    is the flush; joins arriving between flushes must all keep their
    path keys.
    """
    users = [f"u{i}" for i in range(24)]

    async def scenario():
        server = BatchRekeyServer(seed=b"contend-batch", signing="none")
        core = CoalescingServingCore(server, ServeConfig(
            coalesce=True, coalesce_interval=0.01, coalesce_max=4,
            max_inflight=256, tick_interval=0))
        await core.start()
        replies = {}
        try:
            # Seed the group so a fresh joiner's flush reply must be a
            # path-keys unicast (MSG_REKEY) rather than a first-member
            # degenerate case.
            await asyncio.gather(*(core.submit(
                _request(MSG_JOIN_REQUEST, f"seed{i}"),
                lambda _p: None, path_id=None) for i in range(4)))

            async def join(user):
                await core.submit(
                    _request(MSG_JOIN_REQUEST, user),
                    lambda p, u=user: replies.setdefault(u, p),
                    path_id=None)
            tasks = []
            for user in users:
                tasks.append(asyncio.ensure_future(join(user)))
                # Yield so submits interleave with flush wakeups.
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
        finally:
            await core.aclose()
        return replies

    replies = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert set(replies) == set(users)
    for user, payload in replies.items():
        message = Message.decode(split_corr_trailer(payload)[0])
        assert message.msg_type == MSG_REKEY, \
            f"{user}: join reply lost its path keys ({message.msg_type})"


def test_rate_buckets_pruned_without_ticker():
    """client_rate>0 with tick_interval=0 must not grow buckets forever."""
    core = ImmediateServingCore(
        _server(b"bucket-prune"),
        ServeConfig(tick_interval=0, client_rate=1e9, client_burst=1))
    try:
        for i in range(5000):
            core._admit_rate(f"user-{i}")
        # Refill at this rate is instant, so each opportunistic prune
        # clears the table; growth stays bounded by the prune period.
        assert len(core._buckets) < 2048
    finally:
        core.executor.shutdown(wait=True)


def test_unexpected_rekey_failure_replies_busy():
    """An admitted op that dies server-side still answers the client."""
    async def scenario():
        core = ImmediateServingCore(
            _server(b"rekey-error"), ServeConfig(tick_interval=0))

        async def boom(op, user_id, payload, reply, token):
            raise RuntimeError("injected")
        core._rekey = boom
        replies = []
        try:
            await core.submit(_request(MSG_JOIN_REQUEST, "victim"),
                              replies.append, path_id=None)
        finally:
            await core.aclose()
        assert len(replies) == 1
        message = Message.decode(split_corr_trailer(replies[0])[0])
        assert message.msg_type == MSG_BUSY
        assert core._m_errors.labels(op="join").value == 1
        assert core._m_shed.labels(reason="error").value == 1

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))


def test_admission_counts_ops_read_but_not_yet_served():
    """``max_inflight`` bounds the ops accepted as read, before any runs.

    Ops are served in one step on the loop, so nothing is ever in
    flight while the next datagram is read; the bound has to count
    the accepted queue instead, or a burst is never shed.
    """
    async def scenario():
        core = ImmediateServingCore(
            _server(b"read-admission"),
            ServeConfig(tick_interval=0, max_inflight=2))
        replies = []
        burst = [_request(MSG_JOIN_REQUEST, f"b{i}") for i in range(5)]
        try:
            accepted = [data for data in burst
                        if not core.submit_nowait(data, replies.append)]
            assert len(accepted) == 2
            assert [Message.decode(p).msg_type for p in replies] \
                == [MSG_BUSY] * 3
            for data in accepted:
                await core.submit(data, replies.append)
            assert core._queued == 0
            # Served: the next read is admitted again.
            assert not core.submit_nowait(burst[4], replies.append)
            await core.submit(burst[4], replies.append)
            assert core.backend.is_member("b4")
        finally:
            await core.aclose()
        assert core._m_shed.labels(reason="saturated").value == 3

    asyncio.run(asyncio.wait_for(scenario(), timeout=60))
