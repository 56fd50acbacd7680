"""Loopback UDP transport: the paper's deployment shape over real sockets.

The prototype in the paper ran the key server on one machine and a
client-simulator on another, exchanging join/leave/rekey messages as UDP
datagrams.  Here both ends live on 127.0.0.1:

* :class:`UdpKeyServer` — binds a socket, serves join/leave requests in
  a background thread by delegating to a
  :class:`~repro.core.server.GroupKeyServer`, and "multicasts" rekey
  messages by fanning datagrams out to the registered addresses its
  :class:`~repro.transport.audience.AudienceIndex` resolves (group
  multicast emulation; the paper's experiments also sent each rekey
  message once per destination subgroup).
* :class:`UdpGroupMember` — one socket per client; sends requests,
  receives acks and rekey messages, feeds a
  :class:`~repro.core.client.GroupClient`.

Datagrams are single UDP packets; rekey messages are well under the
loopback MTU for any realistic tree height.

Telemetry rides out of band: when the server's tracer is enabled, each
datagram carries a 20-byte trace trailer *after* the encoded message
(``Message.decode`` ignores trailing bytes, so the wire payload proper
is unchanged), letting a member correlate the rekey messages it
received with the server-side request span.  A ``MSG_STATS_REQUEST``
datagram returns the server's live ``repro-metrics/1`` snapshot —
:func:`scrape_stats` is the client side, and
``python -m repro.observability report --scrape HOST:PORT`` renders it.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Optional, Tuple

from ..core.client import GroupClient
from ..core.messages import (MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_JOIN_REQUEST,
                             MSG_LEAVE_ACK, MSG_LEAVE_DENIED,
                             MSG_LEAVE_REQUEST, MSG_REKEY, MSG_STATS_REQUEST,
                             MSG_STATS_RESPONSE, Message, OutboundMessage)
from ..core.server import GroupKeyServer
from ..observability.export import build_snapshot, validate_snapshot
from ..observability.spans import (SpanContext, attach_trace_trailer,
                                   split_trace_trailer)
from .audience import GROUP, AudienceIndex

_BUFFER = 65535


class UdpTransportError(RuntimeError):
    """Raised on socket-level protocol failures."""


class UdpKeyServer:
    """Serves a :class:`GroupKeyServer` over a loopback UDP socket."""

    def __init__(self, server: GroupKeyServer, host: str = "127.0.0.1",
                 port: int = 0):
        self.server = server
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(0.2)
        self.address: Tuple[str, int] = self._sock.getsockname()
        # Reply paths keyed by source address; members subscribed.
        self._paths = AudienceIndex()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Start the serving thread."""
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop serving and close the socket."""
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._sock.close()

    def __enter__(self) -> "UdpKeyServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving ----------------------------------------------------------------

    def _serve(self) -> None:
        while self._running:
            try:
                data, source = self._sock.recvfrom(_BUFFER)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                self._handle(data, source)
            except Exception:
                # A malformed datagram must not kill the server loop.
                continue

    def _handle(self, data: bytes, source: Tuple[str, int]) -> None:
        message = Message.decode(data)
        if message.msg_type == MSG_STATS_REQUEST:
            self._send_stats(source)
            return
        user_id = message.body.decode("utf-8", errors="replace")
        tracer = self.server.instrumentation.tracer
        with self._lock:
            if message.msg_type == MSG_JOIN_REQUEST:
                self._paths.attach(
                    user_id, lambda payload: self._sock.sendto(payload,
                                                               source),
                    source, audiences=())
            with tracer.span("udp.request", msg_type=message.msg_type,
                             user=user_id) as span:
                outbound = self.server.handle_datagram(data)
                # A joiner is subscribed, a leaver unsubscribed, before
                # the op's rekeys go out.
                self._paths.enroll(
                    user_id, GROUP if self.server.is_member(user_id) else ())
                trace = span.context if span.trace_id else None
                for out in outbound:
                    self._fan_out(out, trace)
                span.set("messages", len(outbound))
            if message.msg_type == MSG_LEAVE_REQUEST:
                # Send the leave ack before dropping the address.
                self._paths.detach(user_id)

    def _fan_out(self, out: OutboundMessage,
                 trace: Optional[SpanContext] = None) -> None:
        payload = out.encoded or out.message.encode()
        if trace is not None:
            # Out-of-band: appended after the encoded message, which
            # decodes identically with or without the trailer.
            payload = attach_trace_trailer(payload, trace)
        for _user_id, send_fn in self._paths.copies(out):
            send_fn(payload)

    def stats_document(self) -> dict:
        """The live ``repro-metrics/1`` snapshot of the served group."""
        instrumentation = self.server.instrumentation
        tracer = instrumentation.tracer
        spans = tracer.export() if tracer.enabled else None
        return build_snapshot(instrumentation.registry,
                              label=instrumentation.name, spans=spans)

    def _send_stats(self, source: Tuple[str, int]) -> None:
        with self._lock:
            body = json.dumps(self.stats_document(),
                              sort_keys=True).encode("utf-8")
        response = Message(msg_type=MSG_STATS_RESPONSE, body=body)
        self._sock.sendto(response.encode(), source)


class UdpGroupMember:
    """A client endpoint: one UDP socket plus a GroupClient state machine."""

    def __init__(self, user_id: str, suite, server_address: Tuple[str, int],
                 server_public_key=None, timeout: float = 5.0):
        self.user_id = user_id
        self.client = GroupClient(user_id, suite, server_public_key)
        self._server_address = server_address
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.settimeout(timeout)
        # Trace context of the most recent datagram that carried one
        # (None until the server sends with tracing enabled).
        self.last_trace: Optional[SpanContext] = None

    def _receive(self) -> Tuple[bytes, Message]:
        """Read one datagram, splitting off any telemetry trailer."""
        data, _source = self._sock.recvfrom(_BUFFER)
        payload, trace = split_trace_trailer(data)
        if trace is not None:
            self.last_trace = trace
        return payload, Message.decode(payload)

    def close(self) -> None:
        """Close the client socket."""
        self._sock.close()

    def __enter__(self) -> "UdpGroupMember":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests ---------------------------------------------------------------

    def _request(self, msg_type: int) -> Message:
        request = Message(msg_type=msg_type,
                          body=self.user_id.encode("utf-8"))
        self._sock.sendto(request.encode(), self._server_address)
        return self._await_ack({MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                MSG_LEAVE_ACK, MSG_LEAVE_DENIED})

    def _await_ack(self, ack_types) -> Message:
        while True:
            try:
                payload, message = self._receive()
            except socket.timeout:
                raise UdpTransportError(
                    f"{self.user_id}: no ack from server") from None
            if message.msg_type == MSG_REKEY:
                self.client.process_message(payload)
                continue
            if message.msg_type in ack_types:
                return self.client.process_control(message)

    def join(self, individual_key: bytes) -> Message:
        """Join the group (the individual key is pre-registered with the
        server, standing in for the authentication exchange)."""
        self.client.set_individual_key(individual_key)
        ack = self._request(MSG_JOIN_REQUEST)
        if ack.msg_type == MSG_JOIN_DENIED:
            raise UdpTransportError(f"{self.user_id}: join denied")
        return ack

    def leave(self) -> Message:
        """Send a leave request and await the ack."""
        ack = self._request(MSG_LEAVE_REQUEST)
        if ack.msg_type == MSG_LEAVE_DENIED:
            raise UdpTransportError(f"{self.user_id}: leave denied")
        return ack

    def pump(self, max_messages: int = 64, timeout: float = 0.2) -> int:
        """Drain pending rekey/data messages; returns how many arrived."""
        self._sock.settimeout(timeout)
        count = 0
        try:
            for _ in range(max_messages):
                payload, message = self._receive()
                if message.msg_type == MSG_REKEY:
                    self.client.process_message(payload)
                    count += 1
        except socket.timeout:
            pass
        return count


def scrape_stats(address: Tuple[str, int], timeout: float = 5.0,
                 retries: int = 2) -> dict:
    """Pull a live ``repro-metrics/1`` snapshot from a UdpKeyServer.

    Stats requests and responses are single datagrams; either can be
    dropped.  ``timeout`` bounds each attempt and the request is
    re-sent up to ``retries`` further times before
    :class:`UdpTransportError` — a lossy network delays the scrape
    instead of hanging (or permanently failing) the caller.  Scrapes
    are idempotent reads, so duplicated requests are harmless.
    """
    if retries < 0:
        raise ValueError("retries must be >= 0")
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        sock.settimeout(timeout)
        request = Message(msg_type=MSG_STATS_REQUEST).encode()
        data = None
        for _attempt in range(retries + 1):
            sock.sendto(request, address)
            try:
                data, _source = sock.recvfrom(_BUFFER)
                break
            except socket.timeout:
                continue
        if data is None:
            raise UdpTransportError(
                f"no stats response from {address} "
                f"after {retries + 1} attempts") from None
    finally:
        sock.close()
    message = Message.decode(data)
    if message.msg_type != MSG_STATS_RESPONSE:
        raise UdpTransportError(
            f"unexpected response type {message.msg_type}")
    document = json.loads(message.body.decode("utf-8"))
    validate_snapshot(document)
    return document
