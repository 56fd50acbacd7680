"""Interval batch rekeying: the window planner (the paper's future work).

With very frequent joins and leaves, rekeying after *every* request still
repeats work: consecutive requests often rekey overlapping tree paths
(every request changes the root key).  Batch insertion and deletion in
LKH collects the requests of a window and rekeys once — the paper's
group-oriented rekey applied to the whole window:

* departed leaves are detached, arriving users are attached (reusing
  vacated positions first, which keeps the tree balanced under churn);
* every key on a path from any edit point to the root is replaced once,
  no matter how many requests touched it;
* one group-oriented style rekey message carries all new keys, with each
  new key encrypted under each child of its node (new child keys for
  changed children), plus one unicast bundle per joiner.

This module is only the planner over a key tree: :func:`apply_window`
edits the tree and :func:`plan_window` schedules the messages.  The key
server runs them as one operation,
:meth:`~repro.core.server.GroupKeyServer.flush`, with its own key
stream, signer, journal and access control; journal replay runs
:func:`apply_window` alone with the recorded keys.
:func:`individual_cost_estimate` is what serving the same requests one
at a time would have cost (the formulas the per-request server obeys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.messages import INDIVIDUAL_KEY, Destination, KeyRecord
from ..core.strategies.base import PlannedMessage, RekeyContext


@dataclass
class WindowEdit:
    """What :func:`apply_window` changed."""

    #: Interior nodes whose key was replaced, top-down.
    replaced: List[object]
    #: Each joiner's new leaf, in window order.
    joined: Dict[str, object]


def apply_window(tree, joins: Sequence[Tuple[str, bytes]],
                 leaves: Sequence[str],
                 new_key: Callable[[], bytes]) -> WindowEdit:
    """Apply a window's leaves then joins, and replace each dirty key once.

    All tree surgery goes through the tree's named primitives
    (detach/attach/split/splice), so the same edit runs unchanged over
    the served flat tree and the ``KeyTree`` reference.  ``new_key`` draws the
    replacement keys in the order the tree draws its own, so a replay
    that feeds the recorded keys back reproduces the tree exactly.
    """
    # 1. Detach departing leaves, remembering vacated parents.
    dirty: Dict[int, object] = {}
    vacancies: List[object] = []
    for user_id in leaves:
        parent = tree.detach_user(user_id)
        if parent is not None:
            vacancies.append(parent)
            _mark_path(parent, dirty)

    # 2. Attach joiners, preferring vacated positions.
    joined: Dict[str, object] = {}
    for user_id, key in joins:
        spot = None
        while vacancies:
            candidate = vacancies.pop()
            if tree.is_attached(candidate) and tree.has_room(candidate):
                spot = candidate
                break
        leaf = tree.new_leaf(user_id, key)
        joined[user_id] = leaf
        if tree.root is None:
            _mark_path(tree.start_root(leaf), dirty)
            continue
        if spot is None:
            spot, split = tree.find_joining_point()
            if split is not None:
                spot = tree.split_node(split)
        tree.attach_leaf(leaf, spot)
        _mark_path(spot, dirty)

    # 3. Splice out interiors left empty or with one child.
    _compact(tree, dirty)

    # 4. Replace every dirty key once, top down (parents referenced by
    #    new child keys).
    replaced = _dirty_top_down(tree, dirty)
    for node in replaced:
        node.replace_key(new_key())
    return WindowEdit(replaced, joined)


def plan_window(tree, edit: WindowEdit,
                ctx: RekeyContext) -> List[PlannedMessage]:
    """The window's messages: one group rekey, one unicast per joiner.

    The group rekey carries each replaced key under each of its
    children's current keys; each joiner gets its whole path under its
    individual key.
    """
    plans: List[PlannedMessage] = []
    items = []
    for node in edit.replaced:
        record = KeyRecord(node.node_id, node.version, node.key)
        for child in node.children:
            items.append(ctx.encrypt(child.key, [record],
                                     child.node_id, child.version))
    if items:
        plans.append(PlannedMessage(Destination.to_all(), items))
    for user_id, leaf in edit.joined.items():
        records = [KeyRecord(n.node_id, n.version, n.key)
                   for n in leaf.path_to_root()[1:]]
        item = ctx.encrypt(leaf.key, records, INDIVIDUAL_KEY, 0)
        plans.append(PlannedMessage(
            Destination.to_user(user_id), [item],
            (lambda uid=user_id: (uid,))))
    return plans


def individual_cost_estimate(n_users: int, degree: int, n_joins: int,
                             n_leaves: int) -> int:
    """Group-oriented encryptions for the same requests served one at a
    time, on a group of ``n_users``."""
    height = math.ceil(math.log(max(n_users, 2), degree)) + 1
    return n_joins * 2 * (height - 1) + n_leaves * degree * (height - 1)


def _mark_path(node, dirty: Dict[int, object]) -> None:
    # A previously marked ancestor implies the rest of the path is
    # already marked.
    while node is not None and node.node_id not in dirty:
        dirty[node.node_id] = node
        node = node.parent


def _compact(tree, dirty: Dict[int, object]) -> None:
    """Remove childless interiors; splice single-child interiors."""
    changed = True
    while changed:
        changed = False
        for node in list(dirty.values()):
            # node_id is read up front: once a slot-backed handle is
            # dropped or spliced its storage may be recycled.
            node_id = node.node_id
            if node_id not in dirty or node.is_leaf:
                continue
            if node == tree.root:
                if len(node.children) == 0 and tree.n_users == 0:
                    tree.clear_root()
                    dirty.clear()
                    return
                continue
            if len(node.children) == 0:
                tree.drop_childless(node)
            elif len(node.children) == 1:
                tree.splice_out(node)
            else:
                continue
            del dirty[node_id]
            changed = True


def _dirty_top_down(tree, dirty: Dict[int, object]) -> List[object]:
    ordered: List[object] = []
    if tree.root is None:
        return ordered
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if node.node_id in dirty and not node.is_leaf:
            ordered.append(node)
        stack.extend(node.children)
    return ordered
