"""Socket fan-out: the async serving layer's outbound transport.

The simulation transports (:mod:`repro.transport.inmemory`) deliver by
calling member handlers; a live server instead *sends* — each member's
join registered a reply path (a UDP source address or a TCP stream),
and a rekey multicast fans out one datagram per distinct reply path.

:class:`SocketFanout` implements the :class:`~repro.transport.base.
Transport` interface over such reply paths, which makes the PR5
recovery stack work unmodified against live sockets: a
:class:`~repro.recovery.manager.RecoveryManager` pushes resyncs and
eviction rekeys through ``send``/``send_all`` exactly as it does over
the in-memory bus.

There are two kinds of address, and one ``send`` that serves both:

* **Group addresses** (``Destination.to_all()``) are resolved *here*,
  the way a multicast network resolves a group address: the server
  names the group, never its members.  The fan-out keeps, per
  *audience*, an index ``path -> members attached behind it`` and
  writes a group-addressed message once to every path of the audience
  — O(reply paths), whatever the group size, and without reading the
  message's ``receivers``.  The audience ``None`` is the whole group;
  a cluster additionally keeps one audience per shard
  (``OutboundMessage.audience``), so a shard's rekey reaches no path
  that holds only other shards' members.
* **Explicit addresses** (unicast, ``to_users``, subcast target lists,
  the key-/user-oriented strategies' subgroups) name their receivers,
  and are looked up user by user.

**The index invariant.**  For every audience *A* and path *p*,
``index[A][p]`` holds exactly the attached users on *p* that are
members of *A*, in the order they got there.  The serving core keeps
"member of" true from the membership events it already sees: what the
backend says at attach time, a join's or leave's release, a recovery
eviction, a denied join.  An attached non-member (a heartbeat from a
user evicted while it was down) keeps its reply path — it is owed a
``RESYNC_NOT_MEMBER`` unicast — but sits in no audience.

Serving-specific behaviours, the same for both address kinds:

* **Address-level dedup** — the load generator multiplexes thousands
  of simulated clients over a few sockets, so a group-wide rekey to
  10,000 members must not become 10,000 loopback datagrams to 32
  addresses.  ``send`` emits one copy per *distinct* reply path, which
  is exactly real multicast semantics (the paper's server sends to a
  group address, not per member).
* **A per-copy drop filter** — the chaos harness injects loss between
  the serialized message and the socket (``drop_filter(user_id,
  payload) -> bool``, asked once per distinct path with the earliest
  member on it), so the PR5 fault profiles apply to the async front
  end without a custom lossy socket layer.
"""

from __future__ import annotations

import threading
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Tuple)

from ..core.messages import DEST_ALL, OutboundMessage
from ..observability.metrics import MetricRegistry
from ..transport.base import Transport

#: A registered reply path: a hashable identity (e.g. a UDP address)
#: plus the callable that writes one payload to it.
SendFn = Callable[[bytes], None]

#: The audiences of a member of a single group: just the whole group.
GROUP: Tuple[Hashable, ...] = (None,)


class _Path:
    """One reply path inside one audience."""

    __slots__ = ("send_fn", "members")

    def __init__(self):
        self.send_fn: Optional[SendFn] = None
        # An ordered set: the first key is the drop filter's
        # representative, the size the path's member count.
        self.members: Dict[str, None] = {}


class SocketFanout(Transport):
    """Fan outbound messages out to registered per-user reply paths."""

    def __init__(self, registry: Optional[MetricRegistry] = None):
        super().__init__(registry)
        # user id -> (path identity, send callable, audiences).
        # Identity is kept separate from the callable so dedup works
        # across users that share a socket (callables are fresh
        # closures per attach).
        self._paths: Dict[str, Tuple[Hashable, SendFn,
                                     Tuple[Hashable, ...]]] = {}
        # audience -> path identity -> the members attached behind it.
        self._index: Dict[Hashable, Dict[Hashable, _Path]] = {}
        # Recovery ticks and batch flushes send (and evict) from
        # executor threads while the loop attaches; the index is two
        # dicts deep, so its updates are not atomic on their own.
        self._lock = threading.Lock()
        #: Optional chaos hook: ``drop_filter(user_id, payload)`` True
        #: drops that path's copy before the socket write.
        self.drop_filter: Optional[Callable[[str, bytes], bool]] = None

    def attach(self, user_id: str, handler: SendFn,
               path_id: Optional[Hashable] = None,
               audiences: Iterable[Hashable] = GROUP) -> None:
        """Register ``user_id``'s reply path.

        ``handler`` writes one payload; ``path_id`` identifies the
        underlying socket/peer for multicast dedup (defaults to the
        handler object itself, which disables sharing).  ``audiences``
        are the groups the user is a *member* of right now — ``()`` for
        a user that is reachable but in no group (yet).
        """
        with self._lock:
            self._place(user_id, path_id if path_id is not None else handler,
                        handler, tuple(audiences))

    def enroll(self, user_id: str,
               audiences: Iterable[Hashable] = GROUP) -> None:
        """Make an attached user a member of exactly ``audiences``.

        The membership half of :meth:`attach`, for the moment a join is
        released: the path is already known, the user only now counts.
        No-op for a user with no reply path.
        """
        with self._lock:
            entry = self._paths.get(user_id)
            if entry is not None:
                self._place(user_id, entry[0], entry[1], tuple(audiences))

    def detach(self, user_id: str) -> None:
        """Remove a reply path (no-op when absent)."""
        with self._lock:
            entry = self._paths.pop(user_id, None)
            if entry is not None:
                self._unindex(user_id, entry[0], entry[2])

    def _place(self, user_id, path_id, handler, audiences) -> None:
        old = self._paths.get(user_id)
        self._paths[user_id] = (path_id, handler, audiences)
        if old is not None:
            if old[0] == path_id and old[2] == audiences:
                # The common re-attach (every heartbeat): same place
                # in the index, fresh callable.
                for audience in audiences:
                    self._index[audience][path_id].send_fn = handler
                return
            self._unindex(user_id, old[0], old[2])
        for audience in audiences:
            paths = self._index.setdefault(audience, {})
            path = paths.get(path_id)
            if path is None:
                path = paths[path_id] = _Path()
            path.send_fn = handler
            path.members[user_id] = None

    def _unindex(self, user_id, path_id, audiences) -> None:
        for audience in audiences:
            paths = self._index[audience]
            members = paths[path_id].members
            del members[user_id]
            if not members:
                del paths[path_id]
                if not paths:
                    del self._index[audience]

    def known(self, user_id: str) -> bool:
        """True iff ``user_id`` has a registered reply path."""
        return user_id in self._paths

    def __len__(self) -> int:
        return len(self._paths)

    def audience_paths(self, audience: Hashable = None
                       ) -> Dict[Hashable, int]:
        """``{path identity: member count}`` of one audience."""
        with self._lock:
            return {path_id: len(path.members) for path_id, path
                    in self._index.get(audience, {}).items()}

    def _group_copies(self, outbound: OutboundMessage
                      ) -> List[Tuple[str, SendFn]]:
        """(representative, callable) per path of the message's audience.

        A path whose only member is the message's ``exclude`` (a joiner
        alone on its socket) gets no copy; a joiner that shares its
        socket does not suppress the others' copy.
        """
        exclude = outbound.destination.exclude
        with self._lock:
            return [(next(iter(path.members)), path.send_fn)
                    for path in self._index.get(outbound.audience,
                                                {}).values()
                    if not (exclude in path.members
                            and len(path.members) == 1)]

    def _listed_copies(self, receivers: Iterable[str]
                       ) -> List[Tuple[str, SendFn]]:
        """(first receiver, callable) per distinct path of the list."""
        seen = set()
        copies = []
        for user_id in receivers:
            entry = self._paths.get(user_id)
            if entry is None or entry[0] in seen:
                continue
            seen.add(entry[0])
            copies.append((user_id, entry[1]))
        return copies

    def send(self, outbound: OutboundMessage,
             payload: Optional[bytes] = None) -> None:
        """Deliver ``outbound`` once per distinct reply path.

        A group-addressed message goes to every path of its audience
        (its ``receivers`` are not read); any other to the paths of
        its listed receivers.  ``payload`` overrides the wire bytes
        (used to append trailers); default is the outbound's encoded
        message.
        """
        data = payload if payload is not None else (
            outbound.encoded or outbound.message.encode())
        if outbound.destination.kind == DEST_ALL:
            copies = self._group_copies(outbound)
        else:
            copies = self._listed_copies(outbound.receivers)
        if len(copies) > 1:
            self.stats.multicast_sends += 1
        elif copies:
            self.stats.unicast_sends += 1
        drop_filter = self.drop_filter
        for user_id, send_fn in copies:
            # A lost multicast datagram is lost for every member behind
            # that path, so the filter is asked once per path.
            if drop_filter is not None and drop_filter(user_id, data):
                self.stats.drops += 1
                continue
            try:
                send_fn(data)
            except OSError:
                self.stats.drops += 1
                continue
            self.stats.bytes_sent += len(data)
            self.stats.deliveries += 1
            self.stats.bytes_delivered += len(data)
