"""Member-side resilience shim around :class:`~repro.core.client.
GroupClient`.

Inbound datagrams go to the client's own dispatch,
:meth:`~repro.core.client.GroupClient.receive`.  A
:class:`ResilientMember` owns one client and adds the outbound half a
lossy network demands, beside plain join/leave requests (:meth:`request`):

* heartbeats (:meth:`beat`) carrying the member's current group-key
  view in the header root ref, so the server can spot staleness without
  the member even knowing it is stale;
* self-initiated repair (:meth:`maintain`): when the client's gap
  detection trips, send ``MSG_RESYNC_REQUEST`` up the uplink instead of
  waiting for the server's heartbeat-driven push.

The uplink is an injected callable ``send(datagram: bytes)`` so the
shim works over any stack (direct server, cluster front end, or a test
harness capturing datagrams).
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..core.client import GroupClient
from ..core.messages import MSG_HEARTBEAT, MSG_RESYNC_REQUEST, Message


class ResilientMember:
    """One group member with gap detection, heartbeats and resync."""

    def __init__(self, user_id: str, suite, server_public_key=None, *,
                 uplink: Optional[Callable[[bytes], None]] = None,
                 verify: bool = True):
        self.client = GroupClient(user_id, suite, server_public_key,
                                  verify=verify)
        self.uplink = uplink
        self._seq = 0
        #: Resync requests sent by :meth:`maintain`.
        self.resync_requests = 0

    # -- state passthrough -------------------------------------------------

    @property
    def user_id(self) -> str:
        return self.client.user_id

    @property
    def desynced(self) -> bool:
        return self.client.desynced

    @property
    def evicted(self) -> bool:
        return self.client.evicted

    def group_key(self) -> Optional[bytes]:
        return self.client.group_key()

    # -- outbound ----------------------------------------------------------

    def _send(self, msg_type: int, stamped: bool = True,
              **header) -> bytes:
        """Send one datagram naming us up the uplink; returns it.

        ``stamped`` adds a fresh sequence number and send time.
        """
        if stamped:
            self._seq += 1
            header.update(seq=self._seq,
                          timestamp_us=time.time_ns() // 1000)
        datagram = Message(msg_type=msg_type,
                           body=self.user_id.encode("utf-8"),
                           **header).encode()
        if self.uplink is not None:
            self.uplink(datagram)
        return datagram

    def request(self, msg_type: int) -> bytes:
        """Send a join or leave request; returns it."""
        return self._send(msg_type, stamped=False)

    def beat(self) -> bytes:
        """Send a heartbeat carrying our group-key view in the root ref
        ((0, 0) = none); returns it."""
        node_id, version = self.client.root_ref or (0, 0)
        return self._send(MSG_HEARTBEAT, root_node_id=node_id,
                          root_version=version)

    def maintain(self) -> List[bytes]:
        """Run one self-repair round.

        If the client has detected a gap (and was not evicted), send a
        resync request.  Returns the datagrams sent.
        """
        if self.evicted or not self.desynced:
            return []
        self.resync_requests += 1
        return [self._send(MSG_RESYNC_REQUEST)]
