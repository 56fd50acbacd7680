"""Cluster front-end: routes member datagrams shard-ward.

Members speak the existing wire protocol to *one* logical endpoint; the
front-end owns the routing decision (the consistent-hash ring, via the
coordinator) so members never know — or care — which shard holds their
subtree.  The same front-end answers ``MSG_STATS_REQUEST`` with the
coordinator's merged, cluster-wide ``repro-metrics/1`` snapshot, so one
scrape covers the whole fleet.

Delivery runs over the existing transport stack (default: an
:class:`~repro.transport.inmemory.InMemoryNetwork` in non-strict mode —
a reply may be addressed to a user the simulation has not attached);
members subscribe to the whole group and their shard's audience.  A
member's handler is usually its client's one dispatch,
:meth:`~repro.core.client.GroupClient.receive`.
"""

from __future__ import annotations

import json
from typing import Callable, List

from ..core.messages import (MSG_HEARTBEAT, MSG_JOIN_REQUEST,
                             MSG_LEAVE_REQUEST, MSG_RESYNC_REQUEST,
                             MSG_STATS_REQUEST, MSG_STATS_RESPONSE,
                             Destination, Message, OutboundMessage, WireError)
from ..observability.export import validate_snapshot
from ..transport.inmemory import InMemoryNetwork
from .coordinator import ClusterCoordinator


class RoutingError(ValueError):
    """Raised on datagrams the front-end cannot route."""


class ClusterFrontEnd:
    """The members' single entry point to a sharded cluster."""

    def __init__(self, coordinator: ClusterCoordinator, transport=None):
        self.coordinator = coordinator
        self.transport = (transport if transport is not None
                          else InMemoryNetwork(strict=False))
        #: Optional :class:`~repro.recovery.manager.RecoveryManager`
        #: consuming heartbeats and driving resync pushes/evictions.
        self.recovery = None
        self._m_routed = coordinator.instrumentation.registry.counter(
            "cluster_routed_datagrams_total",
            "Member datagrams routed through the front-end, by shard.",
            labels=("shard",))

    def enable_recovery(self, policy=None):
        """Arm heartbeat-driven recovery over this front-end's transport.

        Returns the manager; call its ``tick()`` once per protocol round
        (and ``track()`` members as they join) to get resync pushes,
        dead-member eviction and overload shedding.
        """
        from ..recovery import RecoveryManager
        self.recovery = RecoveryManager(self.coordinator, self.transport,
                                        policy=policy)
        return self.recovery

    # -- membership of the delivery fabric ---------------------------------

    def attach_member(self, user_id: str,
                      handler: Callable[[bytes], object]) -> None:
        """Subscribe a member's datagram handler to the delivery fabric."""
        self.transport.attach(user_id, handler)
        self.transport.enroll(user_id, self.coordinator.audiences(user_id))

    def detach_member(self, user_id: str) -> None:
        """Unsubscribe a member."""
        self.transport.detach(user_id)

    # -- the request path --------------------------------------------------

    def submit(self, data: bytes) -> List[OutboundMessage]:
        """Route one member datagram; deliver and return the outputs.

        Stats requests are answered locally (returned, not transported —
        the scraper is not a group member).  Join/leave requests are
        routed to the owning shard via the coordinator and every
        resulting control/rekey message is pushed onto the transport,
        once the requester's audiences follow its op (joiner in, leaver
        out).
        """
        try:
            message = Message.decode(data)
        except WireError as exc:
            raise RoutingError(f"malformed datagram: {exc}") from None
        if message.msg_type == MSG_STATS_REQUEST:
            body = json.dumps(self.coordinator.stats_document(),
                              sort_keys=True).encode("utf-8")
            response = Message(msg_type=MSG_STATS_RESPONSE, body=body)
            return [OutboundMessage(Destination.to_all(), response, (),
                                    response.encode())]
        if message.msg_type not in (MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                                    MSG_RESYNC_REQUEST, MSG_HEARTBEAT):
            raise RoutingError(
                f"unroutable message type {message.msg_type}")
        user_id = message.body.decode("utf-8", errors="replace")
        shard = self.coordinator.shard_of(user_id)
        self._m_routed.inc(shard=str(shard.shard_id))
        if self.recovery is not None and message.msg_type in (
                MSG_RESYNC_REQUEST, MSG_HEARTBEAT):
            # The recovery manager owns liveness bookkeeping; it serves
            # resyncs through the same coordinator.
            outputs = self.recovery.receive(data)
        else:
            outputs = self.coordinator.handle_datagram(data)
            self.transport.enroll(user_id,
                                  self.coordinator.audiences(user_id))
        for outbound in outputs:
            self.transport.send(outbound)
        return outputs

    # -- stats -------------------------------------------------------------

    def stats_document(self) -> dict:
        """One validated cluster-wide snapshot, as a scraper would see it."""
        outputs = self.submit(
            Message(msg_type=MSG_STATS_REQUEST).encode())
        document = json.loads(outputs[0].message.body.decode("utf-8"))
        validate_snapshot(document)
        return document

