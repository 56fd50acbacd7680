"""Graceful shutdown: drain admitted ops, shed stragglers, exact journal.

``aclose()`` must leave no op half-done: everything admitted before the
close either completes (and is journaled) or is shed with ``MSG_BUSY``
— and the journal's final sequence record must equal the server's
applied sequence counter, so a restart resumes exactly where the
shutdown left off.
"""

import asyncio
import os
import tempfile
import time

from repro.core import persistence
from repro.core.messages import (MSG_BUSY, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.keygraph.journal import TreeJournal
from repro.serve import ImmediateServingCore, ServeConfig
from repro.serve.wire import attach_corr_trailer, split_corr_trailer


def _run(coro):
    return asyncio.run(coro)


def _core(**overrides):
    server = GroupKeyServer(ServerConfig(signing="none", seed=b"shutdown"))
    base = dict(tick_interval=0, open_enroll=False)
    base.update(overrides)
    return server, ImmediateServingCore(server, ServeConfig(**base))


def _request(msg_type, user, token):
    return attach_corr_trailer(
        Message(msg_type=msg_type, body=user.encode()).encode(), token)


def _register(server, user):
    server.register_individual_key(user, bytes([1]) * server.suite.key_size)


def test_aclose_drains_admitted_ops():
    async def scenario():
        server, core = _core()
        replies = {}

        async def one_join(index):
            user = f"u{index}"
            _register(server, user)
            box = []
            await core.submit(_request(MSG_JOIN_REQUEST, user, index),
                              box.append, path_id=None)
            replies[user] = box

        tasks = [asyncio.ensure_future(one_join(i)) for i in range(8)]
        await asyncio.sleep(0)  # let the burst be admitted
        await core.aclose()
        await asyncio.gather(*tasks)
        # Every submission got exactly one direct reply: a completed
        # op's ack/rekey, or MSG_BUSY for one shed by the close — no
        # op may vanish without an answer.
        shed = 0
        for user, box in replies.items():
            assert box, f"{user} got no reply at all"
            body, _ = split_corr_trailer(box[0])
            if Message.decode(body).msg_type == MSG_BUSY:
                shed += 1
                assert not server.is_member(user)
            else:
                assert server.is_member(user)
        assert server.n_users + shed == 8
    _run(scenario())


def test_submissions_during_close_shed_busy():
    async def scenario():
        server, core = _core()
        _register(server, "early")
        await core.submit(_request(MSG_JOIN_REQUEST, "early", 1),
                          [].append, path_id=None)
        closer = asyncio.ensure_future(core.aclose())
        await asyncio.sleep(0)
        _register(server, "late")
        box = []
        await core.submit(_request(MSG_JOIN_REQUEST, "late", 2),
                          box.append, path_id=None)
        await closer
        body, _ = split_corr_trailer(box[0])
        assert Message.decode(body).msg_type == MSG_BUSY
        assert not server.is_member("late")
    _run(scenario())


def test_journal_seq_equals_applied_seq_after_close():
    async def scenario(path):
        server, core = _core()
        persistence.attach_journal(server, path)
        try:
            for index in range(6):
                user = f"u{index}"
                _register(server, user)
                await core.submit(_request(MSG_JOIN_REQUEST, user, index),
                                  [].append, path_id=None)
            await core.submit(_request(MSG_LEAVE_REQUEST, "u0", 100),
                              [].append, path_id=None)
        finally:
            await core.aclose()
            server._journal.close()
        return server

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "shard.journal")
        server = _run(scenario(path))
        # The journal's final sequence record equals the applied seq.
        journal_seq = -1
        for record in TreeJournal(path).records(strict=True):
            if "seq" in record:
                journal_seq = record["seq"]
        assert journal_seq == server._seq
        # And a restart lands on the identical server, byte for byte.
        restored = persistence.restore_from_journal(path, strict=True)
        assert persistence.snapshot(restored) == persistence.snapshot(server)


def test_drain_deadline_bounds_close():
    async def scenario():
        server, core = _core(drain_deadline=0.2)
        # A straggler that never finishes: the drain must give up at
        # the deadline instead of hanging the shutdown.
        core._inflight += 1
        started = time.monotonic()
        await core.aclose()
        elapsed = time.monotonic() - started
        assert 0.15 <= elapsed < 2.0
    _run(scenario())
