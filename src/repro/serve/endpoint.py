"""Socket endpoints for the async serving core.

* **UDP** — the paper's deployment shape: one datagram per message.
  Each readiness event reads every queued datagram, up to
  :data:`MAX_DATAGRAMS_PER_READ`, before any of them is served, so the
  core's admission check sees a burst as a queue it can shed from.
  Replies go back to the source address.
* **TCP** — length-prefixed frames (:func:`repro.serve.wire.frame`)
  over one stream per client; frames on one connection are served in
  order, which gives a connected client FIFO semantics for free.

Every reply is written on the event-loop thread, where the core serves
every op, so reply callables write to the transport directly.

:class:`AsyncKeyService` serves one core on one UDP endpoint (and
optionally one TCP listener) per shard of its key server — one for a
single server.  Any endpoint accepts any user's request (the
coordinator routes), but per-shard ports let load spread across
sockets the way the cluster spreads state across shards.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import socket
from typing import List, Optional, Tuple

from .config import ServeConfig
from .core import AsyncServingCore
from .wire import frame, read_frame

#: Datagrams read per readiness event.  asyncio's transport reads one
#: and leaves the rest of a burst for later loop passes; reading the
#: burst at once lets admission see it, and bounds how long heartbeats
#: and timers wait behind one pass.
MAX_DATAGRAMS_PER_READ = 64

#: Largest UDP payload.
_MAX_DATAGRAM = 65535


class _UdpProtocol(asyncio.DatagramProtocol):
    """Datagrams in, served or queued as read; replies to the source."""

    def __init__(self, core: AsyncServingCore, sock: socket.socket):
        self.core = core
        self.sock = sock
        self.transport = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._tasks = set()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._loop = asyncio.get_running_loop()

    def datagram_received(self, data: bytes, addr) -> None:
        self._accept(data, addr)
        recvfrom = self.sock.recvfrom
        for _ in range(MAX_DATAGRAMS_PER_READ - 1):
            try:
                data, addr = recvfrom(_MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:  # an ICMP error for an earlier send
                continue
            self._accept(data, addr)

    def _accept(self, data: bytes, addr) -> None:
        transport = self.transport

        def reply(payload: bytes) -> None:
            transport.sendto(payload, addr)
        # Heartbeats (the overwhelming majority at scale) are served
        # right here, and a saturated server sheds here; an accepted
        # op is served on a task, after the rest of the burst is read.
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
    loop = asyncio.get_running_loop()
    family, _type, proto, _name, address = (await loop.getaddrinfo(
        config.host, port, type=socket.SOCK_DGRAM))[0]
    sock = socket.socket(family, socket.SOCK_DGRAM, proto)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF)
        sock.bind(address)
        sock.setblocking(False)
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _UdpProtocol(core, sock), sock=sock)
    except BaseException:
        sock.close()
        raise
    core.instrumentation.registry.gauge(
        "serve_udp_rcvbuf_bytes",
        "SO_RCVBUF the kernel granted the UDP endpoint(s).").labels().set(
            sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF))
    return transport


async def _serve_tcp_connection(core: AsyncServingCore, reader,
                                writer) -> None:
    path_id = ("tcp", id(writer))

    def reply(payload: bytes) -> None:
        writer.write(frame(payload))
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
    """One serving core behind one UDP (and optional TCP) endpoint per
    shard of its key server, or one for a single server."""

    def __init__(self, core: AsyncServingCore,
                 config: Optional[ServeConfig] = None):
        self.core = core
        self.config = config if config is not None else core.config
        self.udp_addresses: List[Tuple[str, int]] = []
        self.tcp_addresses: List[Tuple[str, int]] = []
        self._udp_transports = []
        self._tcp_servers = []

    @property
    def udp_address(self) -> Optional[Tuple[str, int]]:
        """The first UDP endpoint (the only one for a single server)."""
        return self.udp_addresses[0] if self.udp_addresses else None

    @property
    def tcp_address(self) -> Optional[Tuple[str, int]]:
        """The first TCP endpoint, when one is configured."""
        return self.tcp_addresses[0] if self.tcp_addresses else None

    async def start(self) -> "AsyncKeyService":
        config = self.config
        shards = len(getattr(self.core.backend, "shards", ())) or 1
        for index in range(shards):
            udp_port = config.udp_port + index if config.udp_port else 0
            transport = await _open_udp(self.core, config, udp_port)
            self._udp_transports.append(transport)
            self.udp_addresses.append(
                transport.get_extra_info("sockname"))
            if config.tcp_port is not None:
                tcp_port = (config.tcp_port + index
                            if config.tcp_port else 0)
                server = await asyncio.start_server(
                    functools.partial(_serve_tcp_connection, self.core),
                    config.host, tcp_port)
                self._tcp_servers.append(server)
                self.tcp_addresses.append(
                    server.sockets[0].getsockname())
        await self.core.start()
        return self

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

    async def __aenter__(self) -> "AsyncKeyService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()


#: The older name of :class:`AsyncKeyService`, kept importable for the
#: frozen benchmark suite.
AsyncClusterService = AsyncKeyService
