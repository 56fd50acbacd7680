"""Live socket round-trips through the async front end."""

import asyncio
import json
import socket

from repro.core.messages import (MSG_BUSY, MSG_HEARTBEAT, MSG_JOIN_ACK,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                                 MSG_RESYNC_REPLY, MSG_RESYNC_REQUEST,
                                 MSG_STATS_REQUEST, MSG_STATS_RESPONSE,
                                 Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.observability.export import validate_snapshot
from repro.serve import (AsyncKeyService, ImmediateServingCore, ServeConfig,
                         attach_corr_trailer, frame, read_frame,
                         split_corr_trailer)

_BUFFER = 65535


def _server(seed=b"endpoint-test", **overrides):
    config = ServerConfig(signing="none", seed=seed,
                          **overrides)
    return GroupKeyServer(config)


class _UdpProbe:
    """One test-side UDP socket with correlated request/reply."""

    def __init__(self, address):
        self.address = address
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self._token = 1

    def close(self):
        self.sock.close()

    async def rpc(self, msg_type, user_id="", timeout=5.0):
        loop = asyncio.get_running_loop()
        token = self._token
        self._token += 1
        request = attach_corr_trailer(
            Message(msg_type=msg_type,
                    body=user_id.encode("utf-8")).encode(), token)
        self.sock.sendto(request, self.address)
        deadline = loop.time() + timeout
        while True:
            data = await asyncio.wait_for(
                loop.sock_recv(self.sock, _BUFFER),
                deadline - loop.time())
            payload, got = split_corr_trailer(data)
            if got == token:
                return Message.decode(payload)

    def send_raw(self, payload):
        self.sock.sendto(payload, self.address)

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


def test_udp_join_leave_round_trip():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                acks = [await probe.rpc(MSG_JOIN_REQUEST, f"u{i}")
                        for i in range(4)]
                assert all(a.msg_type == MSG_JOIN_ACK for a in acks)
                # Root version advances once per join.
                versions = [a.root_version for a in acks]
                assert versions == sorted(versions)
                assert core.backend.n_users == 4
                ack = await probe.rpc(MSG_LEAVE_REQUEST, "u2")
                assert ack.msg_type == MSG_LEAVE_ACK
                assert core.backend.n_users == 3
            finally:
                probe.close()
    asyncio.run(run())


def test_udp_denial_echoes_correlation():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                reply = await probe.rpc(MSG_LEAVE_REQUEST, "nobody")
                assert reply.msg_type == MSG_LEAVE_DENIED
            finally:
                probe.close()
    asyncio.run(run())


def test_udp_resync_and_heartbeat_flow():
    async def run():
        core = ImmediateServingCore(
            _server(), ServeConfig(tick_interval=0.1))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                await probe.rpc(MSG_JOIN_REQUEST, "alice")
                await probe.rpc(MSG_JOIN_REQUEST, "bob")
                reply = await probe.rpc(MSG_RESYNC_REQUEST, "alice")
                assert reply.msg_type == MSG_RESYNC_REPLY
                # A stale heartbeat provokes a resync push at a tick.
                stale = Message(msg_type=MSG_HEARTBEAT, root_node_id=1,
                                root_version=0, body=b"alice")
                probe.send_raw(stale.encode())
                await asyncio.sleep(0.4)
                pushed = await probe.drain()
                assert any(m.msg_type == MSG_RESYNC_REPLY for m in pushed)
            finally:
                probe.close()
    asyncio.run(run())


def test_udp_stats_scrape_validates():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                await probe.rpc(MSG_JOIN_REQUEST, "alice")
                reply = await probe.rpc(MSG_STATS_REQUEST)
                assert reply.msg_type == MSG_STATS_RESPONSE
                document = json.loads(reply.body.decode("utf-8"))
                validate_snapshot(document)
                counters = document["metrics"]["counters"]
                assert any(name.startswith("serve_requests_total")
                           for name in counters)
            finally:
                probe.close()
    asyncio.run(run())


def test_udp_malformed_datagram_ignored():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                probe.send_raw(b"\x00garbage")
                ack = await probe.rpc(MSG_JOIN_REQUEST, "alice")
                assert ack.msg_type == MSG_JOIN_ACK
            finally:
                probe.close()
    asyncio.run(run())


def test_tcp_framed_round_trip():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            reader, writer = await asyncio.open_connection(
                *service.tcp_address)
            try:
                request = attach_corr_trailer(
                    Message(msg_type=MSG_JOIN_REQUEST,
                            body=b"tcp-user").encode(), 77)
                writer.write(frame(request))
                await writer.drain()
                while True:
                    data = await asyncio.wait_for(read_frame(reader), 5.0)
                    assert data is not None
                    payload, token = split_corr_trailer(data)
                    if token == 77:
                        assert Message.decode(payload).msg_type \
                            == MSG_JOIN_ACK
                        break
            finally:
                writer.close()
                await writer.wait_closed()
    asyncio.run(run())


def test_rekey_multicast_reaches_other_members():
    async def run():
        core = ImmediateServingCore(_server(),
                                    ServeConfig(tick_interval=0))
        async with AsyncKeyService(core) as service:
            alice = _UdpProbe(service.udp_address)
            bob = _UdpProbe(service.udp_address)
            try:
                await alice.rpc(MSG_JOIN_REQUEST, "alice")
                await bob.rpc(MSG_JOIN_REQUEST, "bob")
                # Bob's join rekeys the group: alice hears it on her
                # own socket (her join registered the reply path).
                heard = await alice.drain()
                assert heard, "no rekey multicast reached alice"
            finally:
                alice.close()
                bob.close()
    asyncio.run(run())


def test_busy_shed_when_saturated():
    async def run():
        # max_inflight=1 plus a join that holds the only slot: the
        # second concurrent request must shed with MSG_BUSY.
        core = ImmediateServingCore(
            _server(), ServeConfig(max_inflight=1, tick_interval=0))
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                burst = 24
                for index in range(burst):
                    request = attach_corr_trailer(
                        Message(msg_type=MSG_JOIN_REQUEST,
                                body=f"burst-{index}".encode()).encode(),
                        1000 + index)
                    probe.send_raw(request)
                await asyncio.sleep(1.0)
                replies = await probe.drain()
                kinds = {m.msg_type for m in replies}
                assert MSG_BUSY in kinds, kinds
                assert MSG_JOIN_ACK in kinds, kinds
                shed = core._m_shed.labels(reason="saturated").value
                assert shed > 0
            finally:
                probe.close()
    asyncio.run(run())


def test_rate_cap_sheds_per_client():
    async def run():
        config = ServeConfig(client_rate=0.001, client_burst=1,
                             tick_interval=0)
        core = ImmediateServingCore(_server(), config)
        async with AsyncKeyService(core) as service:
            probe = _UdpProbe(service.udp_address)
            try:
                first = await probe.rpc(MSG_JOIN_REQUEST, "greedy")
                assert first.msg_type == MSG_JOIN_ACK
                second = await probe.rpc(MSG_RESYNC_REQUEST, "greedy")
                assert second.msg_type == MSG_BUSY
                # Heartbeats are never rate-capped: a heartbeat still
                # lands (observable via the request counter).
                before = core._m_requests.labels(type="heartbeat").value
                probe.send_raw(Message(
                    msg_type=MSG_HEARTBEAT, body=b"greedy").encode())
                await asyncio.sleep(0.2)
                after = core._m_requests.labels(type="heartbeat").value
                assert after == before + 1
                # Another client is not punished.
                other = await probe.rpc(MSG_JOIN_REQUEST, "calm")
                assert other.msg_type == MSG_JOIN_ACK
                shed = core._m_shed.labels(reason="rate-cap").value
                assert shed >= 1
            finally:
                probe.close()
    asyncio.run(run())
