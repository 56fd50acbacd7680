"""Socket endpoints for the async serving core.

* **UDP** — the paper's deployment shape: one datagram per message.
  Each datagram spawns a task; replies go back to the source address.
* **TCP** — length-prefixed frames (:func:`repro.serve.wire.frame`)
  over one stream per client; frames on one connection are served in
  order, which gives a connected client FIFO semantics for free.

Reply callables handed to the core are **loop-thread-safe**: the
recovery ticker and batch flushes run on executor threads, and asyncio
transports must only be written from the loop thread, so off-loop
writes are marshalled with ``call_soon_threadsafe``.

:class:`AsyncKeyService` serves one core (immediate or coalescing) on
one UDP socket plus an optional TCP listener.
:class:`AsyncClusterService` serves a :class:`~repro.serve.core.
ClusterServingCore` on one UDP (and optionally TCP) endpoint *per
shard* — any endpoint accepts any user's request (the coordinator
routes), but per-shard ports let load spread across sockets the way
the PR4 cluster spreads state across shards.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading
from typing import List, Optional, Tuple

from .config import ServeConfig
from .core import AsyncServingCore, ClusterServingCore
from .wire import frame, read_frame


def _loop_safe_writer(loop: asyncio.AbstractEventLoop, write) -> callable:
    """Wrap a transport write so executor threads can call it."""
    ident = threading.get_ident()

    def reply(payload: bytes) -> None:
        if threading.get_ident() == ident:
            write(payload)
        else:
            loop.call_soon_threadsafe(write, payload)
    return reply


class _UdpProtocol(asyncio.DatagramProtocol):
    """One datagram in, one serving task; replies to the source addr."""

    def __init__(self, core: AsyncServingCore):
        self.core = core
        self.transport = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks = set()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()

    def datagram_received(self, data: bytes, addr) -> None:
        transport = self.transport
        reply = _loop_safe_writer(
            self._loop, lambda payload: transport.sendto(payload, addr))
        # Heartbeats (the overwhelming majority at scale) are served
        # synchronously; only datagrams that need staging or the
        # executor pay for a task.
        if self.core.submit_nowait(data, reply, ("udp", addr)):
            return
        task = self._loop.create_task(
            self.core.submit(data, reply, path_id=("udp", addr)))
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task) -> None:
        self._tasks.discard(task)
        if not task.cancelled() and task.exception() is not None:
            self.core._m_errors.inc(op="submit")

    def error_received(self, exc) -> None:  # ICMP errors: keep serving
        pass


#: ``SO_RCVBUF`` asked for on every UDP socket.  The OS default (208 KiB)
#: overflows behind one long loop iteration at a 1 kHz heartbeat rate,
#: and a dropped request is a client retry seconds later.  A request:
#: the kernel caps it at ``net.core.rmem_max``.  Kernel memory, not RSS.
UDP_RCVBUF = 4 << 20


async def _open_udp(core: AsyncServingCore, config: ServeConfig,
                    port: int):
    """Bind one UDP endpoint for ``core`` and size its receive buffer;
    what the kernel granted is gauge ``serve_udp_rcvbuf_bytes``."""
    transport, _protocol = await \
        asyncio.get_running_loop().create_datagram_endpoint(
            lambda: _UdpProtocol(core), local_addr=(config.host, port))
    sock = transport.get_extra_info("socket")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF)
    core.instrumentation.registry.gauge(
        "serve_udp_rcvbuf_bytes",
        "SO_RCVBUF the kernel granted the UDP endpoint(s).").labels().set(
            sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))
    return transport


async def _serve_tcp_connection(core: AsyncServingCore, reader,
                                writer) -> None:
    loop = asyncio.get_running_loop()
    path_id = ("tcp", id(writer))
    reply = _loop_safe_writer(
        loop, lambda payload: writer.write(frame(payload)))
    try:
        while True:
            data = await read_frame(reader)
            if data is None:
                break
            if not core.submit_nowait(data, reply, path_id):
                await core.submit(data, reply, path_id=path_id)
            await writer.drain()
    finally:
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


class AsyncKeyService:
    """One serving core behind a UDP socket and an optional TCP listener."""

    def __init__(self, core: AsyncServingCore,
                 config: Optional[ServeConfig] = None):
        self.core = core
        self.config = config if config is not None else core.config
        self.udp_address: Optional[Tuple[str, int]] = None
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._udp_transport = None
        self._tcp_server = None

    async def start(self) -> "AsyncKeyService":
        config = self.config
        transport = await _open_udp(self.core, config, config.udp_port)
        self._udp_transport = transport
        self.udp_address = transport.get_extra_info("sockname")
        if config.tcp_port is not None:
            self._tcp_server = await asyncio.start_server(
                self._handle_tcp, config.host, config.tcp_port)
            self.tcp_address = self._tcp_server.sockets[0].getsockname()
        await self.core.start()
        return self

    async def _handle_tcp(self, reader, writer) -> None:
        await _serve_tcp_connection(self.core, reader, writer)

    async def aclose(self) -> None:
        if self._tcp_server is not None:
            self._tcp_server.close()
            with contextlib.suppress(Exception):
                await self._tcp_server.wait_closed()
            self._tcp_server = None
        if self._udp_transport is not None:
            self._udp_transport.close()
            self._udp_transport = None
        await self.core.aclose()

    async def __aenter__(self) -> "AsyncKeyService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


class AsyncClusterService:
    """A sharded cluster core behind per-shard UDP/TCP endpoints."""

    def __init__(self, core: ClusterServingCore,
                 config: Optional[ServeConfig] = None):
        self.core = core
        self.config = config if config is not None else core.config
        self.udp_addresses: List[Tuple[str, int]] = []
        self.tcp_addresses: List[Tuple[str, int]] = []
        self._udp_transports = []
        self._tcp_servers = []

    async def start(self) -> "AsyncClusterService":
        config = self.config
        for index, _shard in enumerate(self.core.coordinator.shards):
            udp_port = config.udp_port + index if config.udp_port else 0
            transport = await _open_udp(self.core, config, udp_port)
            self._udp_transports.append(transport)
            self.udp_addresses.append(
                transport.get_extra_info("sockname"))
            if config.tcp_port is not None:
                tcp_port = (config.tcp_port + index
                            if config.tcp_port else 0)
                server = await asyncio.start_server(
                    self._handle_tcp, config.host, tcp_port)
                self._tcp_servers.append(server)
                self.tcp_addresses.append(
                    server.sockets[0].getsockname())
        await self.core.start()
        return self

    async def _handle_tcp(self, reader, writer) -> None:
        await _serve_tcp_connection(self.core, reader, writer)

    async def aclose(self) -> None:
        for server in self._tcp_servers:
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
        self._tcp_servers = []
        for transport in self._udp_transports:
            transport.close()
        self._udp_transports = []
        await self.core.aclose()

    async def __aenter__(self) -> "AsyncClusterService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()
