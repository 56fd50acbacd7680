"""Property: pipelined concurrent joins/leaves always converge.

Any interleaving of concurrent join/leave submissions through the
async core leaves every surviving member able to reach the server's
current group key from the traffic it received — with at most one
resync.  The seal lock serializes message emission, so each member's
stream is some valid serialization; the client state machine plus one
recovery round must absorb whatever order the scheduler produced.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import GroupClient
from repro.core.messages import (MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.serve import ImmediateServingCore, ServeConfig

_USERS = [f"u{i}" for i in range(6)]
_SUITE_KEY_SIZE = 8  # DES, the paper's suite

_ops = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]),
              st.sampled_from(_USERS)),
    min_size=1, max_size=20)


def _individual_key(user):
    index = _USERS.index(user) + 1
    return bytes([index]) * _SUITE_KEY_SIZE


async def _drive(ops):
    server = GroupKeyServer(ServerConfig(
        signing="none", seed=b"pipelined-convergence"))
    core = ImmediateServingCore(
        server, ServeConfig(tick_interval=0, max_inflight=64,
                            open_enroll=False))
    streams = {user: [] for user in _USERS}
    for user in _USERS:
        core.fanout.attach(
            user, streams[user].append, path_id=f"path-{user}")
    try:
        async def one(op, user):
            if op == "join":
                # Constant per-user key: re-registration is idempotent
                # however the concurrent ops interleave.
                server.register_individual_key(user,
                                               _individual_key(user))
                msg_type = MSG_JOIN_REQUEST
            else:
                msg_type = MSG_LEAVE_REQUEST
            payload = Message(msg_type=msg_type,
                              body=user.encode()).encode()
            await core.submit(payload, streams[user].append,
                              path_id=None)
        await asyncio.gather(*(one(op, user) for op, user in ops))
    finally:
        await core.aclose()
    return server, streams


@settings(max_examples=20, deadline=None)
@given(ops=_ops)
def test_any_interleaving_converges_with_at_most_one_resync(ops):
    server, streams = asyncio.run(_drive(ops))
    expected_key = server.group_key() if server.n_users else None
    for user in _USERS:
        if not server.is_member(user):
            continue
        client = GroupClient(user, server.config.suite)
        client.set_individual_key(_individual_key(user))
        for payload in streams[user]:
            message = Message.decode(payload)
            if message.msg_type == MSG_REKEY:
                try:
                    client.process_message(payload)
                except Exception:
                    client.desynced = True
            elif message.msg_type in (MSG_JOIN_ACK, MSG_LEAVE_ACK,
                                      MSG_JOIN_DENIED,
                                      MSG_LEAVE_DENIED):
                client.process_control(message)
        resyncs = 0
        if client.desynced or client.group_key() != expected_key:
            reply = server.resync(user)
            client.process_resync(reply.encoded or
                                  reply.message.encode())
            resyncs = 1
        assert resyncs <= 1
        assert client.group_key() == expected_key, \
            f"{user} failed to converge after {resyncs} resync(s)"
        assert not client.desynced
