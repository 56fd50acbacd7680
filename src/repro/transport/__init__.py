"""Transports: in-memory bus, reliable delivery, UDP."""

from .addressing import (AddressedTransport, AddressingStats,
                         MulticastAddressPool)
from .base import Transport, TransportStats
from .inmemory import InMemoryNetwork, UnknownReceiverError
from .reliable import DeliveryFailure, ReliableDelivery
from .udp import UdpGroupMember, UdpTransportError

__all__ = [
    "Transport", "TransportStats",
    "AddressedTransport", "AddressingStats", "MulticastAddressPool",
    "InMemoryNetwork", "UnknownReceiverError",
    "ReliableDelivery", "DeliveryFailure",
    "UdpGroupMember", "UdpTransportError",
]
