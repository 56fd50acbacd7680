"""Every op of the served cores runs on the event-loop thread.

Nothing in the serving cores mutates the key tree, the DRBG or the
recovery tables off the loop, which is why they need no op lock and no
release re-ordering.  This test is what that claim rests on: it records
the thread of every tree and DRBG mutator, and of every datagram the
endpoint writes, while a join, leave, resync, subcast, heartbeat, tick
and stats request are served over UDP through each core flavour.
"""

import asyncio
import socket
import threading

import pytest

from repro.batch.rekeying import BatchRekeyServer
from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (MSG_HEARTBEAT, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, MSG_RESYNC_REQUEST,
                                 MSG_STATS_REQUEST, MSG_SUBCAST_REQUEST,
                                 Message)
from repro.core.server import (GroupKeyServer, KeyServerProtocol,
                               ServerConfig, StagedRekeyOp)
from repro.recovery.manager import RecoveryManager
from repro.serve import (AsyncClusterService, AsyncKeyService,
                         ClusterServingCore, CoalescingServingCore,
                         ImmediateServingCore, ServeConfig)
from repro.serve.wire import attach_corr_trailer, split_corr_trailer
from repro.subcast.wire import encode_subcast_request

MUTATORS = (
    [(GroupKeyServer, name) for name in ("begin_join", "begin_leave", "join",
                                         "leave", "resync", "subcast")]
    + [(StagedRekeyOp, name) for name in ("encrypt", "seal", "finish")]
    + [(KeyServerProtocol, "handle_datagram"),
       (ClusterCoordinator, "subcast"),
       (BatchRekeyServer, "flush"), (BatchRekeyServer, "subcast"),
       (RecoveryManager, "tick")])

#: What each flavour must have been seen doing (beyond replies).
EXPECTED = {
    "immediate": {"KeyServerProtocol.handle_datagram",
                  "GroupKeyServer.begin_join", "GroupKeyServer.begin_leave",
                  "GroupKeyServer.resync", "GroupKeyServer.subcast",
                  "StagedRekeyOp.encrypt", "StagedRekeyOp.seal",
                  "StagedRekeyOp.finish"},
    "coalesce": {"BatchRekeyServer.flush", "BatchRekeyServer.subcast"},
    "cluster": {"KeyServerProtocol.handle_datagram",
                "ClusterCoordinator.subcast", "StagedRekeyOp.finish"},
}


@pytest.fixture
def threads(monkeypatch):
    """name -> the set of thread idents that ran it."""
    seen = {}

    def record(name, fn):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper
    for owner, attr in MUTATORS:
        monkeypatch.setattr(owner, attr, record(f"{owner.__name__}.{attr}",
                                                getattr(owner, attr)))
    transport = asyncio.selector_events._SelectorDatagramTransport
    monkeypatch.setattr(transport, "sendto",
                        record("reply", transport.sendto))
    return seen


class _Client:
    """One member's UDP socket with correlated request/reply."""

    _tokens = iter(range(1, 1 << 30))

    def __init__(self, address):
        self.address = address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)

    def send(self, msg_type, body, token=None):
        request = Message(msg_type=msg_type, body=body).encode()
        if token is not None:
            request = attach_corr_trailer(request, token)
        self.sock.sendto(request, self.address)

    async def rpc(self, msg_type, body, timeout=15.0):
        loop = asyncio.get_running_loop()
        token = next(self._tokens)
        self.send(msg_type, body, token)
        deadline = loop.time() + timeout
        while True:
            data = await asyncio.wait_for(loop.sock_recv(self.sock, 65535),
                                          deadline - loop.time())
            payload, got = split_corr_trailer(data)
            if got == token:
                return Message.decode(payload)


def _service(flavour):
    config = ServeConfig(tcp_port=None, tick_interval=0.05,
                         coalesce=flavour == "coalesce",
                         coalesce_interval=0.01)
    if flavour == "immediate":
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"one-thread", backend="flat"))
        return AsyncKeyService(ImmediateServingCore(server, config))
    if flavour == "coalesce":
        server = BatchRekeyServer(seed=b"one-thread", signing="none")
        return AsyncKeyService(CoalescingServingCore(server, config))
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, signing="none", seed=b"one-thread", backend="flat"))
    coordinator.bootstrap([])
    return AsyncClusterService(ClusterServingCore(coordinator, config))


@pytest.mark.parametrize("flavour", ["immediate", "coalesce", "cluster"])
def test_every_mutation_and_reply_runs_on_the_loop_thread(threads, flavour):
    async def scenario():
        loop_thread = threading.get_ident()
        async with _service(flavour) as service:
            address = getattr(service, "udp_address", None) \
                or service.udp_addresses[0]
            alice, bob = _Client(address), _Client(address)
            try:
                await alice.rpc(MSG_JOIN_REQUEST, b"alice")
                await bob.rpc(MSG_JOIN_REQUEST, b"bob")
                alice.send(MSG_HEARTBEAT, b"alice")
                await alice.rpc(MSG_RESYNC_REQUEST, b"alice")
                await alice.rpc(MSG_SUBCAST_REQUEST, encode_subcast_request(
                    "alice", ["bob"], b"for bob"))
                await alice.rpc(MSG_STATS_REQUEST, b"")
                await bob.rpc(MSG_LEAVE_REQUEST, b"bob")
                for _ in range(200):
                    if "RecoveryManager.tick" in threads:
                        break
                    await asyncio.sleep(0.02)
            finally:
                alice.sock.close()
                bob.sock.close()
        return loop_thread

    loop_thread = asyncio.run(asyncio.wait_for(scenario(), 60))
    missing = EXPECTED[flavour] | {"RecoveryManager.tick", "reply"}
    assert missing <= set(threads), sorted(missing - set(threads))
    off_loop = {name: idents for name, idents in threads.items()
                if idents != {loop_thread}}
    assert not off_loop, sorted(off_loop)
