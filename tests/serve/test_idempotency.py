"""Server-side idempotent replay: retries must not double-execute.

The regression this guards: before the idempotency cache, a retried
join whose original attempt had already executed hit the membership
check and earned ``MSG_JOIN_DENIED`` — a denial for an op that had in
fact succeeded, which the retrying client then surfaced as a failure.
A duplicate must replay the original reply byte for byte instead.
"""

import asyncio

from repro.core.messages import (MSG_BUSY, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                                 Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.serve import ImmediateServingCore, ServeConfig
from repro.serve.wire import attach_corr_trailer, split_corr_trailer


def _run(coro):
    return asyncio.run(coro)


def _core(**overrides):
    server = GroupKeyServer(ServerConfig(signing="none", seed=b"idem-test"))
    base = dict(tick_interval=0, open_enroll=False)
    base.update(overrides)
    return server, ImmediateServingCore(server, ServeConfig(**base))


def _request(msg_type, user, token):
    return attach_corr_trailer(
        Message(msg_type=msg_type, body=user.encode()).encode(), token)


def _join(server, user):
    key = bytes([1]) * server.suite.key_size
    server.register_individual_key(user, key)


def test_duplicate_join_replays_instead_of_denial():
    async def scenario():
        server, core = _core()
        try:
            _join(server, "alice")
            first, second = [], []
            request = _request(MSG_JOIN_REQUEST, "alice", 42)
            await core.submit(request, first.append, path_id=None)
            assert server.is_member("alice")
            seq_before = server._seq

            # The retry: same datagram, same correlation token.
            await core.submit(request, second.append, path_id=None)
            assert server.is_member("alice")
            assert server._seq == seq_before, "duplicate must not rekey"
            assert first and second
            # Byte-for-byte replay of the original reply — in
            # particular NOT a JOIN_DENIED.
            assert second[0] == first[0]
            body, token = split_corr_trailer(second[0])
            assert token == 42
            assert Message.decode(body).msg_type != MSG_JOIN_DENIED
            replays = core._m_idempotent.labels(result="replay")
            assert replays.value == 1
        finally:
            await core.aclose()
    _run(scenario())


def test_duplicate_leave_replays():
    async def scenario():
        server, core = _core()
        try:
            for user in ("a", "b", "c"):
                _join(server, user)
                await core.submit(_request(MSG_JOIN_REQUEST, user, hash(user)
                                           & 0xFFFF), [].append, path_id=None)
            first, second = [], []
            request = _request(MSG_LEAVE_REQUEST, "b", 77)
            await core.submit(request, first.append, path_id=None)
            assert not server.is_member("b")
            seq_before = server._seq
            await core.submit(request, second.append, path_id=None)
            assert server._seq == seq_before
            assert second and second[0] == first[0]
        finally:
            await core.aclose()
    _run(scenario())


def test_concurrent_duplicate_is_absorbed_silently():
    async def scenario():
        server, core = _core()
        try:
            _join(server, "alice")
            first, second = [], []
            request = _request(MSG_JOIN_REQUEST, "alice", 9)
            await asyncio.gather(
                core.submit(request, first.append, path_id=None),
                core.submit(request, second.append, path_id=None))
            # Exactly one execution; the duplicate that raced it was
            # dropped without a reply (same token: the original's
            # reply resolves the retrier's future on a real wire).
            assert server.is_member("alice")
            assert len(first) + len(second) >= 1
            inflight = core._m_idempotent.labels(result="inflight")
            replays = core._m_idempotent.labels(result="replay")
            assert inflight.value + replays.value == 1
        finally:
            await core.aclose()
    _run(scenario())


def test_busy_reply_is_not_cached():
    async def scenario():
        server, core = _core()
        try:
            _join(server, "alice")
            request = _request(MSG_JOIN_REQUEST, "alice", 5)
            # Force a shed: a closing core answers MSG_BUSY.
            core._closing = True
            box = []
            await core.submit(request, box.append, path_id=None)
            body, _ = split_corr_trailer(box[0])
            assert Message.decode(body).msg_type == MSG_BUSY
            # Busy describes the moment, not the op: the retry (same
            # token) must be allowed to actually execute.
            core._closing = False
            box2 = []
            await core.submit(request, box2.append, path_id=None)
            assert server.is_member("alice")
            body2, _ = split_corr_trailer(box2[0])
            assert Message.decode(body2).msg_type != MSG_BUSY
        finally:
            await core.aclose()
    _run(scenario())


def test_untokened_requests_bypass_the_cache():
    async def scenario():
        server, core = _core()
        try:
            _join(server, "alice")
            request = Message(msg_type=MSG_JOIN_REQUEST,
                              body=b"alice").encode()
            first, second = [], []
            await core.submit(request, first.append, path_id=None)
            await core.submit(request, second.append, path_id=None)
            # No token, no replay: the duplicate executes and is denied
            # (the legacy behavior, still correct for bare clients).
            assert Message.decode(second[0]).msg_type == MSG_JOIN_DENIED
        finally:
            await core.aclose()
    _run(scenario())


def test_cache_disabled_by_config():
    async def scenario():
        server, core = _core(idempotency_entries=0)
        try:
            assert core._idem is None
            _join(server, "alice")
            request = _request(MSG_JOIN_REQUEST, "alice", 3)
            first, second = [], []
            await core.submit(request, first.append, path_id=None)
            await core.submit(request, second.append, path_id=None)
            body, _ = split_corr_trailer(second[0])
            assert Message.decode(body).msg_type == MSG_JOIN_DENIED
        finally:
            await core.aclose()
    _run(scenario())
