"""The subcast request path through the async serving cores."""

import asyncio
import socket

from repro.core.messages import (MSG_BUSY, MSG_JOIN_REQUEST, MSG_SUBCAST,
                                 MSG_SUBCAST_REQUEST, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.observability.instrumentation import Instrumentation
from repro.observability.spans import Tracer
from repro.serve import (AsyncKeyService, ImmediateServingCore,
                         ServeConfig)
from repro.serve.wire import attach_corr_trailer, split_corr_trailer
from repro.subcast import encode_subcast_request

_BUFFER = 65535


def _server(tracing=False):
    instrumentation = None
    if tracing:
        instrumentation = Instrumentation("serve-subcast",
                                          tracer=Tracer(capacity=4096))
    server = GroupKeyServer(
        ServerConfig(degree=4, strategy="group", signing="none",
                     seed=b"serve-subcast"),
        instrumentation=instrumentation)
    return server


class _Probe:
    """Raw-body UDP probe (subcast request bodies are not user ids)."""

    def __init__(self, address):
        self.address = address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self._token = 1

    def close(self):
        self.sock.close()

    async def rpc_body(self, msg_type, body, timeout=5.0):
        loop = asyncio.get_running_loop()
        token = self._token
        self._token += 1
        request = attach_corr_trailer(
            Message(msg_type=msg_type, body=body).encode(), token)
        self.sock.sendto(request, self.address)
        deadline = loop.time() + timeout
        while True:
            data = await asyncio.wait_for(
                loop.sock_recv(self.sock, _BUFFER),
                deadline - loop.time())
            payload, got = split_corr_trailer(data)
            if got == token:
                return Message.decode(payload)

    async def rpc(self, msg_type, user_id, timeout=5.0):
        return await self.rpc_body(msg_type, user_id.encode("utf-8"),
                                   timeout)

    async def drain(self, window=0.3):
        loop = asyncio.get_running_loop()
        messages = []
        try:
            while True:
                data = await asyncio.wait_for(
                    loop.sock_recv(self.sock, _BUFFER), window)
                payload, _token = split_corr_trailer(data)
                messages.append(Message.decode(payload))
        except asyncio.TimeoutError:
            return messages


def test_subcast_request_round_trip_with_fanout():
    async def run():
        server = _server()
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True))
        async with AsyncKeyService(core) as service:
            sender = _Probe(service.udp_address)
            target = _Probe(service.udp_address)
            try:
                await sender.rpc(MSG_JOIN_REQUEST, "alice")
                await target.rpc(MSG_JOIN_REQUEST, "bob")
                body = encode_subcast_request("alice", ["alice", "bob"],
                                              b"hi both")
                reply = await sender.rpc_body(MSG_SUBCAST_REQUEST, body)
                # The corr-tagged sealed message is the requester's ack.
                assert reply.msg_type == MSG_SUBCAST
                assert len(reply.items) >= 2
                # The fan-out delivers a copy to each target's path.
                fanned = await target.drain()
                assert any(m.msg_type == MSG_SUBCAST for m in fanned)
            finally:
                sender.close()
                target.close()
            return core
    core = asyncio.run(run())
    metrics = core.instrumentation.registry.snapshot()
    requests = metrics["counters"]["serve_requests_total"]["series"]
    assert any(series["labels"].get("type") == "subcast"
               and series["value"] >= 1 for series in requests)
    sealed = metrics["counters"]["subcast_messages_total"]["series"]
    assert sum(series["value"] for series in sealed) >= 1
    latency = metrics["histograms"]["serve_subcast_seconds"]["series"]
    assert sum(sum(series["counts"]) for series in latency) >= 1


def test_subcast_from_non_member_is_shed():
    async def run():
        server = _server()
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True))
        async with AsyncKeyService(core) as service:
            probe = _Probe(service.udp_address)
            try:
                await probe.rpc(MSG_JOIN_REQUEST, "alice")
                body = encode_subcast_request("ghost", ["alice"], b"x")
                reply = await probe.rpc_body(MSG_SUBCAST_REQUEST, body)
                assert reply.msg_type == MSG_BUSY
            finally:
                probe.close()
    asyncio.run(run())


def test_subcast_spans_connect_to_the_request():
    async def run():
        server = _server(tracing=True)
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True))
        async with AsyncKeyService(core) as service:
            probe = _Probe(service.udp_address)
            try:
                await probe.rpc(MSG_JOIN_REQUEST, "alice")
                await probe.rpc(MSG_JOIN_REQUEST, "bob")
                body = encode_subcast_request("alice", ["bob"], b"traced")
                reply = await probe.rpc_body(MSG_SUBCAST_REQUEST, body)
                assert reply.msg_type == MSG_SUBCAST
            finally:
                probe.close()
        spans = core.instrumentation.tracer.export()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        request = [span for span in by_name.get("serve.request", [])
                   if span["attributes"].get("op") == "subcast"]
        assert request, sorted(by_name)
        trace_id = request[0]["trace_id"]
        for child in ("serve.exec", "subcast.cover", "subcast.seal"):
            assert any(span["trace_id"] == trace_id
                       for span in by_name.get(child, [])), child
    asyncio.run(run())
