"""Shared machinery for the rekeying strategies (paper §3.3–3.4).

A strategy turns a key-tree edit (:class:`~repro.keygraph.tree.JoinResult`
or :class:`~repro.keygraph.tree.LeaveResult`) into *planned messages*:
destination + encrypted items.  The server wraps the plans into wire
messages, signs and sends them.

Who enumerates.  Nobody, for a group address: a
``Destination.to_all()`` plan carries no receiver resolver, and every
transport resolves the address from its audience index
(:mod:`repro.transport.audience`) — the paper's "one multicast per
request", with no per-op work that grows with the group.  Explicitly
addressed plans (unicast, the key-/user-oriented and hybrid subgroups)
carry a *lazy* resolver, called after the processing clock stops: their
receivers *are* their address.

The :class:`RekeyContext` carries the cipher suite and the encryption
counters the experiments report (number of key-encryptions, per Table
2's cost measure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ...keygraph.tree import JoinResult, KeyTree, LeaveResult, PathChange, TreeNode
from ..messages import (INDIVIDUAL_KEY, Destination, EncryptedItem,
                        KeyRecord, encrypt_records)


@dataclass
class PendingItem:
    """A deferred encryption: everything needed to build the item later.

    The pipeline's plan stage captures the inputs and the encrypt stage
    materializes :attr:`value`.  Until then the pending item stands in
    for the :class:`EncryptedItem` inside a plan's item list.
    """

    key: bytes
    records: List[KeyRecord]
    enc_node_id: int
    enc_version: int
    value: Optional[EncryptedItem] = None

    def materialize(self, suite) -> EncryptedItem:
        """Perform the captured encryption (idempotent)."""
        if self.value is None:
            self.value = encrypt_records(suite, self.key, self.records,
                                         self.enc_node_id, self.enc_version)
        return self.value


def resolve_item(item) -> EncryptedItem:
    """An item as wire-ready: a materialized pending item or itself."""
    if isinstance(item, PendingItem):
        if item.value is None:
            raise ValueError("pending item not yet materialized")
        return item.value
    return item


@dataclass
class RekeyContext:
    """Per-request state handed to a strategy.

    With ``defer=False`` (the default), :meth:`encrypt` performs the
    encryption immediately.  The staged pipeline passes ``defer=True``:
    the plan stage then only *schedules* encryptions (capturing key and
    records) and the pipeline's encrypt stage executes them all via
    :meth:`materialize`.  Encryption draws nothing (a key item's IV
    comes from its labels), so both modes produce identical bytes.
    """

    suite: object
    encryptions: int = 0
    defer: bool = False
    pending: List[PendingItem] = field(default_factory=list)

    def encrypt(self, key: bytes, records: Sequence[KeyRecord],
                enc_node_id: int, enc_version: int):
        """Encrypt ``records`` under ``key``; counts one encryption per record.

        The paper's cost measure is the number of *keys encrypted*
        (Table 2); a bundle of m keys in one CBC pass counts m.
        Returns an :class:`EncryptedItem`, or a :class:`PendingItem` in
        deferred mode.
        """
        self.encryptions += len(records)
        if self.defer:
            item = PendingItem(key, list(records), enc_node_id, enc_version)
            self.pending.append(item)
            return item
        return encrypt_records(self.suite, key, records, enc_node_id,
                               enc_version)

    def materialize(self) -> None:
        """Execute every deferred encryption (the pipeline encrypt stage).

        One item at a time, through the same :func:`encrypt_records`
        path an immediate encryption takes.  A rekey's items number
        d(h-1) at most for a group leave (Table 2), too few for any
        across-items batching to pay for itself.
        """
        for item in self.pending:
            item.materialize(self.suite)


@dataclass
class PlannedMessage:
    """A strategy's output unit, pre-wire-format.

    ``resolve_receivers`` lists the user ids an *explicit* address names
    (``None`` for a group address, which the transport resolves).  It
    is lazy: the pipeline calls it after the processing clock stops and
    before any further tree edit.  The strategy guarantees the audience
    is non-empty via cheap structural checks.
    """

    destination: Destination
    items: List[EncryptedItem]
    resolve_receivers: Optional[Callable[[], Tuple[str, ...]]] = None


def fixed_receivers(*user_ids: str) -> Callable[[], Tuple[str, ...]]:
    """A resolver returning a constant receiver tuple."""
    receivers = tuple(user_ids)
    return lambda: receivers


def subtree_receivers(tree: KeyTree,
                      node: TreeNode) -> Callable[[], Tuple[str, ...]]:
    """Lazy enumeration of the users below ``node``."""
    return lambda: tuple(tree.userset(node))


def frontier_receivers(tree: KeyTree, node: TreeNode, below: TreeNode,
                       exclude: str) -> Callable[[], Tuple[str, ...]]:
    """Lazy ``userset(node) - userset(below) - {exclude}`` (Figure 6)."""
    def resolve() -> Tuple[str, ...]:
        outside = set(tree.userset(below))
        outside.add(exclude)
        return tuple(user for user in tree.userset(node)
                     if user not in outside)
    return resolve


def new_key_record(change: PathChange) -> KeyRecord:
    """The key record announcing a path change's new key."""
    return KeyRecord(change.node.node_id, change.node.version, change.new_key)


def join_cover_key(result: JoinResult, change: PathChange,
                   index: int) -> Tuple[bytes, int, int]:
    """Key covering the *pre-join* holders of a changed node.

    Normally that is the node's old key.  When the join split a leaf, the
    joining point is a freshly created interior node whose "old key" was
    never distributed; its only pre-join holder is the displaced user, so
    that user's individual (leaf) key is the cover.

    Returns ``(key_bytes, enc_node_id, enc_version)``.
    """
    is_fresh_interior = (result.split_leaf is not None
                         and index == len(result.changes) - 1)
    if is_fresh_interior:
        leaf = result.split_leaf
        return leaf.key, leaf.node_id, leaf.version
    return change.old_key, change.node.node_id, change.old_version


def join_frontier(tree: KeyTree, result: JoinResult, index: int):
    """The Figure 6 frontier for changed node ``x_index``.

    Returns ``(resolve, destination)`` for the audience
    ``userset(K_i) - userset(K_{i+1}) - {joiner}`` — the users whose
    deepest needed new key is ``K'_i`` — or ``None`` when that audience
    is structurally empty.  The emptiness test is O(d): the audience is
    empty iff every child of ``x_i`` is either the next path node or the
    joiner's new leaf.
    """
    changes = result.changes
    node = changes[index].node
    if index + 1 < len(changes):
        below = changes[index + 1].node
    else:
        below = result.leaf
    has_audience = any(child != below and child != result.leaf
                       for child in node.children)
    if not has_audience:
        return None
    resolve = frontier_receivers(tree, node, below, result.user_id)
    destination = Destination.to_subgroup(node.node_id)
    return resolve, destination


def requesting_user_message(result: JoinResult, ctx: RekeyContext) -> PlannedMessage:
    """The unicast to the joiner: all path keys under its individual key.

    Figure 6/7 step (5): ``s -> u : {K'_0, ..., K'_j}_{k_u}``.
    """
    records = [new_key_record(change) for change in result.changes]
    item = ctx.encrypt(result.leaf.key, records, INDIVIDUAL_KEY, 0)
    return PlannedMessage(Destination.to_user(result.user_id), [item],
                          fixed_receivers(result.user_id))


def other_children(node: TreeNode, excluded: Optional[TreeNode]) -> List[TreeNode]:
    """Children of ``node`` other than ``excluded`` (the rekeyed child)."""
    return [child for child in node.children if child != excluded]


def rekeyed_child(result: LeaveResult, index: int) -> Optional[TreeNode]:
    """The child of ``x_index`` that lies on the rekeyed path (x_{index+1})."""
    changes = result.changes
    if index + 1 < len(changes):
        return changes[index + 1].node
    return None
