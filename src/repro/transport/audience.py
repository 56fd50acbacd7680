"""The audience index: whom a group address reaches.

The paper's server sends each rekey once, to a group address, and the
network works out whom that reaches.  Every transport resolves
``Destination.to_all()`` through an :class:`AudienceIndex`, so no rekey
plan enumerates the group.  An attached user has a reply path (an
identity plus the callable that writes to it; users sharing an identity
share the path, and get one copy).  Attaching subscribes to audiences —
``None`` is the whole group, a cluster adds one per shard — as an IP
multicast join does; an attached non-member keeps its path and is in no
audience.  Callers keep the index true with two ordering rules: a
joiner is enrolled *before* its op's outputs are sent, and a leaver or
evictee leaves its audiences *before* its rekey is sent (DESIGN §14).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..core.messages import DEST_ALL, OutboundMessage

#: Writes one payload to a reply path.
SendFn = Callable[[bytes], None]

#: The audiences of a member of a single group: just the whole group.
GROUP: Tuple[Hashable, ...] = (None,)


class _Path:
    """One reply path inside one audience."""

    __slots__ = ("send_fn", "members")

    def __init__(self):
        self.send_fn: Optional[SendFn] = None
        # An ordered set: the first key is the path's representative,
        # the size its member count.
        self.members: Dict[str, None] = {}


class AudienceIndex:
    """Per audience, ``path -> the members attached behind it``."""

    def __init__(self):
        # user id -> (path identity, send callable, audiences).
        # Identity is kept separate from the callable so dedup works
        # across users that share a socket (callables are fresh
        # closures per attach).
        self._paths: Dict[str, Tuple[Hashable, SendFn,
                                     Tuple[Hashable, ...]]] = {}
        # audience -> path identity -> the members attached behind it.
        self._index: Dict[Hashable, Dict[Hashable, _Path]] = {}
        # Recovery ticks and batch flushes send (and evict) from
        # executor threads while the event loop attaches; the index is
        # two dicts deep, so its updates are not atomic on their own.
        self._lock = threading.Lock()

    def attach(self, user_id: str, send_fn: SendFn,
               path_id: Optional[Hashable] = None,
               audiences: Sequence[Hashable] = GROUP) -> None:
        """Register ``user_id``'s reply path, subscribed to ``audiences``
        (``()``: reachable but in no group).  ``path_id`` identifies the
        socket or peer for dedup (default: the callable, no sharing)."""
        with self._lock:
            self._place(user_id, path_id if path_id is not None else send_fn,
                        send_fn, tuple(audiences))

    def enroll(self, user_id: str,
               audiences: Sequence[Hashable] = GROUP) -> None:
        """Make an attached user a member of exactly ``audiences`` (no-op
        for a user with no reply path)."""
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

    def _place(self, user_id, path_id, send_fn, audiences) -> None:
        old = self._paths.get(user_id)
        self._paths[user_id] = (path_id, send_fn, audiences)
        if old is not None:
            if old[0] == path_id and old[2] == audiences:
                # The common re-attach (every served heartbeat): same
                # place in the index, fresh callable.
                for audience in audiences:
                    self._index[audience][path_id].send_fn = send_fn
                return
            self._unindex(user_id, old[0], old[2])
        for audience in audiences:
            paths = self._index.setdefault(audience, {})
            path = paths.get(path_id)
            if path is None:
                path = paths[path_id] = _Path()
            path.send_fn = send_fn
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

    def send_fn(self, user_id: str) -> Optional[SendFn]:
        """The callable of ``user_id``'s reply path (None when absent)."""
        entry = self._paths.get(user_id)
        return entry[1] if entry is not None else None

    def paths(self, audience: Hashable = None) -> Dict[Hashable, int]:
        """``{path identity: member count}`` of one audience."""
        with self._lock:
            return {path_id: len(path.members) for path_id, path
                    in self._index.get(audience, {}).items()}

    def copies(self, outbound: OutboundMessage
               ) -> List[Tuple[str, SendFn]]:
        """(representative, callable) per path ``outbound`` reaches.

        A group address reaches every path of its audience without
        reading ``receivers``, except a path whose *only* member is the
        ``exclude`` (a joiner alone on its socket).  Any other address
        reaches the distinct paths of its known listed receivers.
        """
        destination = outbound.destination
        if destination.kind == DEST_ALL:
            exclude = destination.exclude
            with self._lock:
                return [(next(iter(path.members)), path.send_fn)
                        for path in self._index.get(outbound.audience,
                                                    {}).values()
                        if not (exclude in path.members
                                and len(path.members) == 1)]
        seen = set()
        copies = []
        for user_id in outbound.receivers:
            entry = self._paths.get(user_id)
            if entry is None or entry[0] in seen:
                continue
            seen.add(entry[0])
            copies.append((user_id, entry[1]))
        return copies

    def count(self, outbound: OutboundMessage) -> int:
        """``len(self.copies(outbound))``, in O(1) for a group address."""
        destination = outbound.destination
        if destination.kind != DEST_ALL:
            return len(self.copies(outbound))
        audience = outbound.audience
        with self._lock:
            paths = self._index.get(audience, {})
            entry = self._paths.get(destination.exclude)
            alone = (entry is not None and audience in entry[2]
                     and len(paths[entry[0]].members) == 1)
            return len(paths) - alone

    def receivers(self, outbound: OutboundMessage) -> Sequence[str]:
        """Whom an in-memory transport (every user its own path)
        delivers to: a group address's subscribers minus ``exclude``, in
        subscription order, or the listed receivers as they are."""
        if outbound.destination.kind == DEST_ALL:
            return [user_id for user_id, _send in self.copies(outbound)]
        return outbound.receivers
