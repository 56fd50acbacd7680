"""FEC-protected multicast transport.

Wraps an :class:`~repro.transport.inmemory.InMemoryNetwork`: every
message is sent as ``k`` data + ``r`` parity datagrams, each subject to
independent loss; a receiver that collects any ``k`` of them
reconstructs the message with no acks and no retransmission (Keystone's
approach to reliable rekey delivery).

Compare with :class:`~repro.transport.reliable.ReliableDelivery`:
retransmission costs round trips per lost copy but adapts to actual
loss; FEC costs a fixed r/k bandwidth overhead and recovers instantly —
the trade the FEC ablation benchmark quantifies.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List

from ..core.messages import OutboundMessage
from .base import Transport
from .fec import FecError, decode_packets, encode_packets
from .inmemory import InMemoryNetwork

_ENVELOPE = struct.Struct(">QB")  # message seq, k


class FecMulticast(Transport):
    """Loss-tolerant multicast via Reed-Solomon parity packets."""

    def __init__(self, network: InMemoryNetwork, k: int = 4, r: int = 2,
                 registry=None):
        super().__init__(registry)
        if k < 1 or r < 0:
            raise ValueError("need k >= 1 and r >= 0")
        self._network = network
        self.audience = network.audience
        self._k = k
        self._r = r
        self._seq = 0
        # Successfully reconstructed / unrecoverable message copies.
        self.recovered_with_parity = 0
        self.unrecoverable = 0
        self._m_recovered = self.registry.counter(
            "fec_recovered_total",
            "Messages reconstructed from a parity packet.").labels()
        self._m_unrecoverable = self.registry.counter(
            "fec_unrecoverable_total",
            "Message copies lost beyond parity protection.").labels()
        self._published_fec = [0, 0]
        self.registry.add_collector(self._collect_fec)

    def _collect_fec(self, registry) -> None:
        for index, (attr, series) in enumerate((
                ("recovered_with_parity", self._m_recovered),
                ("unrecoverable", self._m_unrecoverable))):
            delta = getattr(self, attr) - self._published_fec[index]
            if delta:
                series.inc(delta)
                self._published_fec[index] += delta

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver with per-message reassembly state."""
        pending: Dict[int, List[bytes]] = {}
        done = set()

        def packet_handler(datagram: bytes) -> None:
            seq, k = _ENVELOPE.unpack_from(datagram, 0)
            if seq in done:
                return  # extra parity after reconstruction
            packets = pending.setdefault(seq, [])
            packets.append(datagram[_ENVELOPE.size:])
            if len(packets) >= k:
                # Enough to attempt reconstruction; on success deliver
                # exactly once and drop the bookkeeping.
                try:
                    payload = decode_packets(packets, k)
                except FecError:
                    return  # wait for more packets
                del pending[seq]
                done.add(seq)
                handler(payload)

        self._network.attach(user_id, packet_handler)

    def detach(self, user_id: str) -> None:
        """Remove a receiver."""
        self._network.detach(user_id)

    def send(self, outbound: OutboundMessage) -> None:
        """Encode into k+r packets and deliver each independently."""
        payload = outbound.encoded or outbound.message.encode()
        self._seq += 1
        packets = encode_packets(payload, self._k, self._r)
        self.stats.multicast_sends += 1
        self.stats.bytes_sent += sum(len(p) for p in packets)
        for user_id in self.audience.receivers(outbound):
            delivered = 0
            for packet in packets:
                envelope = _ENVELOPE.pack(self._seq, self._k) + packet
                if self._network.deliver_to(user_id, envelope):
                    delivered += 1
            if delivered >= self._k:
                self.stats.deliveries += 1
                self.stats.bytes_delivered += len(payload)
                if delivered < len(packets):
                    self.recovered_with_parity += 1
            else:
                self.unrecoverable += 1

    @property
    def overhead(self) -> float:
        """Fixed bandwidth overhead of the parity packets."""
        return self._r / self._k
