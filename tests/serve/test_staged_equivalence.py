"""The staged (pipelined) rekey path is byte-identical to the sync path.

The async front end splits ``join``/``leave`` into plan (event loop)
and encrypt/seal/dispatch (worker pool).  All DRBG draws happen during
planning and the seal stage is serialized, so two servers with the
same seed driven through the two paths must emit identical wire bytes
— including when staged stages of consecutive ops overlap.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

from repro.core.server import GroupKeyServer, ServerConfig

FIXED_TIME_NS = 896_745_600_000_000_000  # the paper's year, frozen


def _freeze_time():
    return mock.patch("time.time_ns", return_value=FIXED_TIME_NS)

_OPS = [("join", f"u{i}") for i in range(8)] + [
    ("leave", "u2"), ("join", "v0"), ("leave", "u5"), ("leave", "u0"),
    ("join", "v1"), ("leave", "v0"),
]


def _config(signing, seed=b"staged-eq"):
    return ServerConfig(signing=signing, seed=seed)


def _wire_bytes(outcome):
    return [out.encoded or out.message.encode()
            for out in outcome.all_messages]


def _run_sync(signing):
    server = GroupKeyServer(_config(signing))
    emitted = []
    for op, user in _OPS:
        if op == "join":
            server.register_individual_key(user,
                                           server.new_individual_key())
            outcome = server.join(user)
        else:
            outcome = server.leave(user)
        emitted.extend(_wire_bytes(outcome))
    return emitted, server.group_key(), server.group_key_ref()


def test_staged_matches_sync_byte_for_byte():
    for signing in ("none", "merkle"):
        with _freeze_time():
            sync_bytes, sync_key, sync_ref = _run_sync(signing)
        server = GroupKeyServer(_config(signing))
        emitted = []
        with _freeze_time():
            for op, user in _OPS:
                if op == "join":
                    server.register_individual_key(
                        user, server.new_individual_key())
                    staged = server.begin_join(user)
                else:
                    staged = server.begin_leave(user)
                outcome = staged.encrypt().seal().finish()
                emitted.extend(_wire_bytes(outcome))
        assert emitted == sync_bytes, f"signing={signing}"
        assert server.group_key() == sync_key
        assert server.group_key_ref() == sync_ref


def test_overlapped_stages_match_sync():
    """Plan N+1 while N encrypts: bytes still identical to sync."""
    with _freeze_time():
        sync_bytes, sync_key, _ = _run_sync("merkle")
    server = GroupKeyServer(_config("merkle"))
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        slots = [None] * len(_OPS)

        def heavy(index, staged):
            slots[index] = staged.encrypt().seal().finish()
        futures = []
        freezer = _freeze_time()
        freezer.start()
        for index, (op, user) in enumerate(_OPS):
            # Plans run strictly in op order on this thread; the heavy
            # stages overlap on the pool (the pipeline's seal turnstile
            # admits the seals in plan order).
            if op == "join":
                server.register_individual_key(
                    user, server.new_individual_key())
                staged = server.begin_join(user)
            else:
                staged = server.begin_leave(user)
            futures.append(pool.submit(heavy, index, staged))
        for future in futures:
            future.result()
    finally:
        freezer.stop()
        pool.shutdown()
    emitted = []
    for outcome in slots:
        emitted.extend(_wire_bytes(outcome))
    assert emitted == sync_bytes
    assert server.group_key() == sync_key


def test_async_serving_matches_sync():
    """The full async core (loop + executor) emits the sync bytes."""
    with _freeze_time():
        sync_bytes, sync_key, _ = _run_sync("none")

    async def run():
        from repro.serve import ImmediateServingCore, ServeConfig
        server = GroupKeyServer(_config("none"))
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=False))
        emitted = []

        def collect(payload):
            emitted.append(payload)
        # Every member shares one observed path: each rekey message is
        # delivered exactly once, in routing order, and acks arrive via
        # the same callable — so `emitted` is the full wire sequence.
        for _op, user in _OPS:
            core.fanout.attach(user, collect, path_id="sink")
        from repro.core.messages import (MSG_JOIN_REQUEST,
                                         MSG_LEAVE_REQUEST, Message)
        try:
            for op, user in _OPS:
                if op == "join":
                    server.register_individual_key(
                        user, server.new_individual_key())
                    msg_type = MSG_JOIN_REQUEST
                else:
                    msg_type = MSG_LEAVE_REQUEST
                payload = Message(msg_type=msg_type,
                                  body=user.encode()).encode()
                await core.submit(payload, collect, path_id=None)
        finally:
            await core.aclose()
        return emitted, server.group_key()

    with _freeze_time():
        emitted, group_key = asyncio.run(run())
    assert group_key == sync_key
    # Same multiset is not enough — the serialized submits must yield
    # the exact sync sequence.  The fanout dedups per path, so the
    # sink sees each rekey once; acks arrive via the reply callable.
    assert emitted == sync_bytes
