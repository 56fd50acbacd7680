"""Multicast address allocation (paper §7).

Subgroup multicast needs addresses: "It is possible to support subgroup
multicast ... by allocating a large number of multicast addresses, one
for each subgroup that share a key in the key tree being used.  A more
practical approach, however, is to allocate just a small number of
multicast addresses (e.g., one for each child of the key tree's root
node)".

:class:`MulticastAddressPool` models that constraint: a bounded pool of
multicast addresses assigned on demand to subgroup destinations.  A
message to a subgroup with no address (pool exhausted) degrades to
per-member unicast.  Wrapping a transport with
:class:`AddressedTransport` therefore measures, per rekeying strategy,

* how many distinct multicast addresses the strategy actually needs,
* how many message copies the network carries once the pool is bounded

— the §7 numbers behind the hybrid strategy's design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from ..core.messages import DEST_ALL, DEST_SUBGROUP, OutboundMessage
from .base import Transport


@dataclass
class AddressingStats:
    """What the bounded address pool did."""

    multicast_sends: int = 0       # sent on a (sub)group address
    unicast_fallbacks: int = 0     # messages degraded to unicast
    copies_sent: int = 0           # total point-to-point copies carried
    addresses_requested: int = 0   # distinct subgroups that wanted one
    addresses_assigned: int = 0


class MulticastAddressPool:
    """A bounded pool of multicast addresses, assigned on demand.

    The group address (DEST_ALL) is always available and does not count
    against the pool, matching the paper's setting where the group
    address exists and only *subgroup* addresses are scarce.
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("limit must be >= 0")
        self.limit = limit
        self._assigned: Dict[int, int] = {}  # subgroup node id -> address
        self._requested: Set[int] = set()

    def address_for(self, node_id: int) -> Optional[int]:
        """The subgroup's address, newly assigned if the pool allows."""
        self._requested.add(node_id)
        if node_id in self._assigned:
            return self._assigned[node_id]
        if len(self._assigned) < self.limit:
            address = len(self._assigned) + 1
            self._assigned[node_id] = address
            return address
        return None

    def release(self, node_id: int) -> None:
        """Return a subgroup's address to the pool (e.g. node spliced)."""
        self._assigned.pop(node_id, None)

    @property
    def assigned(self) -> int:
        """Addresses currently assigned."""
        return len(self._assigned)

    @property
    def requested(self) -> int:
        """Distinct subgroups that ever asked for an address."""
        return len(self._requested)


class AddressedTransport(Transport):
    """Delivers through a wrapped transport under address scarcity."""

    def __init__(self, inner: Transport, pool: MulticastAddressPool):
        super().__init__()
        self.audience = inner.audience
        self._inner = inner
        self.pool = pool
        self.addressing = AddressingStats()

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver on the wrapped transport."""
        self._inner.attach(user_id, handler)

    def detach(self, user_id: str) -> None:
        """Remove a receiver from the wrapped transport."""
        self._inner.detach(user_id)

    def send(self, outbound: OutboundMessage) -> None:
        """Deliver, accounting multicast-address use and fallbacks."""
        destination = outbound.destination
        if destination.kind == DEST_ALL:
            # The group address always exists: one network send.
            self.addressing.multicast_sends += 1
            self.addressing.copies_sent += 1
        elif destination.kind == DEST_SUBGROUP:
            self.addressing.addresses_requested = self.pool.requested + 1
            address = self.pool.address_for(destination.node_id)
            self.addressing.addresses_requested = self.pool.requested
            self.addressing.addresses_assigned = self.pool.assigned
            if address is not None:
                self.addressing.multicast_sends += 1
                self.addressing.copies_sent += 1
            else:
                # Pool exhausted: per-member unicast.
                self.addressing.unicast_fallbacks += 1
                self.addressing.copies_sent += len(outbound.receivers)
        else:
            # Plain unicast destinations.
            self.addressing.copies_sent += len(outbound.receivers)
        self._inner.send(outbound)
