"""Transports: in-memory bus, reliable delivery, FEC multicast, UDP."""

from .addressing import (AddressedTransport, AddressingStats,
                         MulticastAddressPool)
from .base import Transport, TransportStats
from .fec import FecError, ReedSolomonCode, decode_packets, encode_packets
from .fecmulticast import FecMulticast
from .inmemory import InMemoryNetwork, UnknownReceiverError
from .reliable import DeliveryFailure, ReliableDelivery
from .udp import UdpGroupMember, UdpTransportError

__all__ = [
    "Transport", "TransportStats",
    "AddressedTransport", "AddressingStats", "MulticastAddressPool",
    "InMemoryNetwork", "UnknownReceiverError",
    "ReliableDelivery", "DeliveryFailure",
    "FecMulticast", "FecError", "ReedSolomonCode",
    "encode_packets", "decode_packets",
    "UdpGroupMember", "UdpTransportError",
]
