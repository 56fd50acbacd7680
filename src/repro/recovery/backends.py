"""Backend adapters the :class:`~repro.recovery.manager.RecoveryManager`
drives.

Each backend normalizes one server flavor to the small surface the
manager needs: membership, the current group-key reference, building a
resync reply, and evicting a batch of dead members.  ``supports_batch``
tells the manager whether a deep eviction queue collapses into one
group-oriented flush (the overload-shedding path) or is processed as
individual leave rekeys.

Each backend also answers, once for every front end, which transport
audiences (:mod:`repro.transport.audience`) a user is in right now —
the question a serving core, a cluster front end, a chaos harness and
the simulation runner ask whenever an op changes membership.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence, Tuple

from ..core.messages import OutboundMessage
from ..transport.audience import GROUP


class ServerBackend:
    """Adapter over an immediate-mode :class:`~repro.core.server.
    GroupKeyServer` (tree or star)."""

    supports_batch = False

    def __init__(self, server):
        self.server = server

    def is_member(self, user_id: str) -> bool:
        return self.server.is_member(user_id)

    def audiences(self, user_id: str) -> Tuple[Hashable, ...]:
        """The whole group for a member, no audience otherwise."""
        return GROUP if self.server.is_member(user_id) else ()

    def members(self) -> List[str]:
        return list(self.server.members())

    def group_key_ref(self) -> Tuple[int, int]:
        return self.server.group_key_ref()

    def resync(self, user_id: str) -> OutboundMessage:
        return self.server.resync(user_id)

    def evict(self, user_ids: Sequence[str]) -> List[OutboundMessage]:
        """One leave rekey per dead member, in order."""
        messages: List[OutboundMessage] = []
        for user_id in user_ids:
            messages.extend(self.server.leave(user_id).rekey_messages)
        return messages


class BatchBackend(ServerBackend):
    """Adapter over a :class:`~repro.batch.rekeying.BatchRekeyServer`.

    Evictions — however many — fold into *one* flush: this is the
    overload-shedding path, turning a deep dead-member queue into a
    single group-oriented rekey instead of N per-leave rekeys.
    """

    supports_batch = True

    def evict(self, user_ids: Sequence[str]) -> List[OutboundMessage]:
        """Queue every dead member, rekey once."""
        for user_id in user_ids:
            self.server.request_leave(user_id)
        result = self.server.flush()
        messages: List[OutboundMessage] = []
        if result.rekey_message is not None:
            messages.append(result.rekey_message)
        messages.extend(result.joiner_messages)
        return messages


class ClusterBackend(ServerBackend):
    """Adapter over a sharded :class:`~repro.cluster.coordinator.
    ClusterCoordinator` (resync served by the owning shard + root
    layer; evictions are cluster leaves)."""

    def __init__(self, coordinator):
        super().__init__(coordinator)
        self.coordinator = coordinator

    def audiences(self, user_id: str) -> Tuple[Hashable, ...]:
        """A member is in the whole group (root-layer rekeys) and in
        its owning shard's audience (the coordinator tags shard rekeys
        with it)."""
        shard = self.coordinator.shard_of(user_id)
        return (None, shard.name) if shard.server.is_member(user_id) else ()
