"""Hybrid group/key-oriented rekeying (paper §7).

The paper suggests allocating "just a small number of multicast
addresses (e.g., one for each child of the key tree's root node) and
[using] a rekeying strategy that is a hybrid of group-oriented and
key-oriented rekeying".

This strategy does exactly that: for each child ``c`` of the root it
builds one message containing precisely the encrypted items useful to
users below ``c`` (key-oriented in spirit), and multicasts it on ``c``'s
address (group-oriented in spirit).  Clients therefore receive smaller
messages than with group-oriented rekeying, while the server sends at
most ``d`` messages per request and needs only ``d`` multicast
addresses.
"""

from __future__ import annotations

from typing import Dict, List

from ...keygraph.tree import JoinResult, KeyTree, LeaveResult, TreeNode
from ..messages import STRATEGY_HYBRID, Destination, EncryptedItem
from .base import (PlannedMessage, RekeyContext, frontier_receivers,
                   join_cover_key, new_key_record, requesting_user_message,
                   subtree_receivers)


class HybridStrategy:
    """Group-oriented within each top-level subtree; d multicast groups."""

    name = "hybrid"
    wire_code = STRATEGY_HYBRID

    def _top_level_subtree(self, tree: KeyTree, node: TreeNode) -> TreeNode:
        """The root child whose subtree contains ``node`` (or root itself)."""
        current = node
        while current.parent is not None and current.parent != tree.root:
            current = current.parent
        return current

    def rekey_join(self, tree: KeyTree, result: JoinResult,
                   ctx: RekeyContext) -> List[PlannedMessage]:
        """Key-oriented items partitioned per top-level subtree address."""
        changes = result.changes
        # Encrypt each new key once, exactly as key-oriented does.
        items: List[EncryptedItem] = []
        for index, change in enumerate(changes):
            cover_key, enc_id, enc_version = join_cover_key(result, change, index)
            items.append(ctx.encrypt(cover_key, [new_key_record(change)],
                                     enc_id, enc_version))
        # Root item ({K'_0}_{K_0}) is useful to everyone; deeper items only
        # to the top-level subtree containing the rekeyed path.
        plans = []
        if tree.root is not None and len(changes) > 0:
            deep_subtree = (self._top_level_subtree(tree, changes[-1].node)
                            if len(changes) > 1 else None)
            for top_child in tree.root.children:
                if top_child == result.leaf:
                    continue
                # Non-empty unless this top-level subtree holds only the
                # joiner (then it IS the joiner's leaf, skipped above, or
                # the fresh interior over the joiner alone - impossible:
                # a split interior always keeps the displaced leaf too).
                if deep_subtree is not None and top_child == deep_subtree:
                    useful = items  # whole path changed inside this subtree
                else:
                    useful = items[:1]  # only the new group key
                plans.append(PlannedMessage(
                    Destination.to_subgroup(top_child.node_id), list(useful),
                    frontier_receivers(tree, top_child, result.leaf,
                                       result.user_id)))
        plans.append(requesting_user_message(result, ctx))
        return plans

    def rekey_leave(self, tree: KeyTree, result: LeaveResult,
                    ctx: RekeyContext) -> List[PlannedMessage]:
        """Group-oriented items partitioned per top-level subtree address."""
        changes = result.changes
        if not changes or tree.root is None:
            return []
        changed_nodes = {change.node.node_id: change for change in changes}
        # Encrypt exactly the items group-oriented would, but remember
        # which top-level subtree each item is useful to.
        per_subtree: Dict[int, List[EncryptedItem]] = {}
        for change in changes:
            record = new_key_record(change)
            for child in change.node.children:
                child_change = changed_nodes.get(child.node_id)
                if child_change is not None:
                    item = ctx.encrypt(child_change.new_key, [record],
                                       child.node_id, child.version)
                else:
                    item = ctx.encrypt(child.key, [record],
                                       child.node_id, child.version)
                if change.node == tree.root:
                    # Items decryptable with a root-child key: useful to
                    # exactly that top-level subtree.
                    per_subtree.setdefault(child.node_id, []).append(item)
                else:
                    subtree = self._top_level_subtree(tree, change.node)
                    per_subtree.setdefault(subtree.node_id, []).append(item)
        plans = []
        for top_child in tree.root.children:
            useful = per_subtree.get(top_child.node_id, [])
            if not useful:
                continue
            plans.append(PlannedMessage(
                Destination.to_subgroup(top_child.node_id), useful,
                subtree_receivers(tree, top_child)))
        return plans
