"""Blocking UDP client of the async key service.

The prototype in the paper ran the key server on one machine and a
client-simulator on another, exchanging join/leave/rekey messages as UDP
datagrams.  The server side is :mod:`repro.serve` (``python -m
repro.serve``); this module is the client side:

* :class:`UdpGroupMember` — one socket around a
  :class:`~repro.recovery.member.ResilientMember`: sends join/leave
  requests and heartbeats, and hands every datagram it receives (acks,
  rekeys, resync replies, data) to the client's one dispatch,
  :meth:`~repro.core.client.GroupClient.receive`.
* :func:`scrape_stats` — one ``MSG_STATS_REQUEST`` round trip for the
  server's live ``repro-metrics/1`` snapshot;
  ``python -m repro.observability report --scrape HOST:PORT`` renders
  it.  Async callers run it through ``asyncio.to_thread``.

Telemetry rides out of band: a traced server appends a 20-byte trace
trailer *after* the encoded message (``Message.decode`` ignores trailing
bytes, so the wire payload proper is unchanged), letting a member
correlate the rekey messages it received with the server-side request
span.
"""

from __future__ import annotations

import json
import socket
from typing import Optional, Tuple

from ..core.messages import (MSG_BUSY, MSG_JOIN_ACK, MSG_JOIN_DENIED,
                             MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                             MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                             MSG_STATS_REQUEST, MSG_STATS_RESPONSE, Message)
from ..observability.export import validate_snapshot
from ..observability.spans import SpanContext, split_trace_trailer
from ..recovery.member import ResilientMember

_BUFFER = 65535

_REPLY_TYPES = (MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_LEAVE_ACK,
                MSG_LEAVE_DENIED)


class UdpTransportError(RuntimeError):
    """Raised on socket-level protocol failures."""


class UdpGroupMember:
    """A client endpoint: one UDP socket around a ResilientMember."""

    def __init__(self, user_id: str, suite, server_address: Tuple[str, int],
                 server_public_key=None, timeout: float = 5.0):
        self.user_id = user_id
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(("127.0.0.1", 0))
        self._timeout = timeout
        self.member = ResilientMember(
            user_id, suite, server_public_key,
            uplink=lambda datagram: self._sock.sendto(datagram,
                                                      server_address))
        self.client = self.member.client
        # Trace context of the most recent datagram that carried one
        # (None until the server sends with tracing enabled).
        self.last_trace: Optional[SpanContext] = None

    def _receive(self, timeout: float) -> int:
        """Hand one datagram, minus any telemetry trailer, to the
        client; returns its message type."""
        self._sock.settimeout(timeout)
        data, _source = self._sock.recvfrom(_BUFFER)
        payload, trace = split_trace_trailer(data)
        if trace is not None:
            self.last_trace = trace
        return self.client.receive(payload)[0]

    def close(self) -> None:
        """Close the client socket."""
        self._sock.close()

    def __enter__(self) -> "UdpGroupMember":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- requests ---------------------------------------------------------------

    def _request(self, msg_type: int) -> int:
        """Send one request; returns the type of the server's answer."""
        self.member.request(msg_type)
        while True:
            try:
                reply = self._receive(self._timeout)
            except socket.timeout:
                raise UdpTransportError(
                    f"{self.user_id}: no ack from server") from None
            if reply == MSG_BUSY:
                raise UdpTransportError(f"{self.user_id}: busy")
            if reply in _REPLY_TYPES:
                return reply

    def join(self, individual_key: bytes) -> None:
        """Join the group (the individual key is pre-registered with the
        server, standing in for the authentication exchange)."""
        self.client.set_individual_key(individual_key)
        if self._request(MSG_JOIN_REQUEST) == MSG_JOIN_DENIED:
            raise UdpTransportError(f"{self.user_id}: join denied")

    def leave(self) -> None:
        """Send a leave request and await the ack."""
        if self._request(MSG_LEAVE_REQUEST) == MSG_LEAVE_DENIED:
            raise UdpTransportError(f"{self.user_id}: leave denied")

    def pump(self, max_messages: int = 64, timeout: float = 0.2) -> int:
        """Drain pending datagrams, then send one heartbeat (the
        server evicts a member it has not heard from); returns how many
        datagrams arrived."""
        count = 0
        try:
            for _ in range(max_messages):
                self._receive(timeout)
                count += 1
        except socket.timeout:
            pass
        self.member.beat()
        return count


def scrape_stats(address: Tuple[str, int], timeout: float = 5.0,
                 retries: int = 2) -> dict:
    """Pull a live ``repro-metrics/1`` snapshot from a key service.

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
