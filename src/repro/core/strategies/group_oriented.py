"""Group-oriented rekeying (paper §3.3/§3.4, Figures 7 and 9).

The server builds a *single* rekey message holding all new keys and
multicasts it to the entire group (plus, on a join, one unicast to the
joining user).  Best for the server — one message, ``2(h-1)`` / ``d(h-1)``
encryptions, no subgroup multicast needed — but each client receives a
message of size O(d log n) containing keys it does not need.
"""

from __future__ import annotations

from typing import List

from ...keygraph.tree import JoinResult, KeyTree, LeaveResult
from ..messages import STRATEGY_GROUP_ORIENTED, Destination, EncryptedItem
from .base import (PlannedMessage, RekeyContext, join_cover_key,
                   new_key_record, requesting_user_message)


class GroupOrientedStrategy:
    """One multicast with every new key: best for the server."""

    name = "group"
    wire_code = STRATEGY_GROUP_ORIENTED

    def rekey_join(self, tree: KeyTree, result: JoinResult,
                   ctx: RekeyContext) -> List[PlannedMessage]:
        # Figure 7 step (4): {K'_0}_{K_0}, ..., {K'_j}_{K_j} to the old group.
        """Figure 7: one multicast with all new keys + joiner unicast."""
        items: List[EncryptedItem] = []
        for index, change in enumerate(result.changes):
            cover_key, enc_id, enc_version = join_cover_key(result, change, index)
            items.append(ctx.encrypt(cover_key, [new_key_record(change)],
                                     enc_id, enc_version))
        plans = []
        # Audience: the pre-join group — non-empty iff the tree holds
        # anyone besides the joiner.
        if items and tree.n_users > 1:
            plans.append(PlannedMessage(
                Destination.to_all(exclude=result.user_id), items))
        plans.append(requesting_user_message(result, ctx))
        return plans

    def rekey_leave(self, tree: KeyTree, result: LeaveResult,
                    ctx: RekeyContext) -> List[PlannedMessage]:
        # Figure 9: L_i = {K'_i} under the key of *every* child of x_i
        # (the rekeyed child contributes its new key); one multicast.
        """Figure 9: a single multicast; each new key under every child key."""
        items: List[EncryptedItem] = []
        changes = result.changes
        changed_nodes = {change.node.node_id: change for change in changes}
        for index, change in enumerate(changes):
            record = new_key_record(change)
            for child in change.node.children:
                child_change = changed_nodes.get(child.node_id)
                if child_change is not None:
                    # Child is x_{i+1}: encrypt under its new key.
                    items.append(ctx.encrypt(child_change.new_key, [record],
                                             child.node_id, child.version))
                else:
                    items.append(ctx.encrypt(child.key, [record],
                                             child.node_id, child.version))
        if not items or tree.root is None or not tree.n_users:
            return []
        return [PlannedMessage(Destination.to_all(), items)]
