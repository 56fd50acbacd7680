"""Array-backed key tree: the million-member storage engine.

``KeyTree`` stores one Python object per k-node — at n = 1M that is
several million heap objects, each with pointer-chased parent/child
links, which caps group size on memory and traversal cost long before
the paper's O(log n) rekeying does.  :class:`FlatKeyTree` implements the
same surface over contiguous storage instead:

* topology in flat integer arrays (``parent``, ``first_child``,
  ``next_sibling``, ``n_children``) indexed by slot;
* identity and freshness in ``node_id`` / ``version`` int arrays;
* key material in a :class:`KeyArena` — one flat byte buffer with a
  fixed per-slot stride;
* subtree sizes and two *relative-depth aggregates* per slot
  (``open_d``: depth of the shallowest non-full interior in the slot's
  subtree; ``leaf_d``: depth of the shallowest leaf) that turn the
  paper's breadth-first joining-point search from O(n) into an
  O(log n) root-to-target descent.

Byte-identity with the ``KeyTree`` reference is the contract: both
draw keys from the shared keygen in exactly the same order, assign the
same node ids, and pick the same joining points, so rekey messages are
bit-for-bit identical (pinned by the lockstep equivalence suite and the
golden digests).

Slots freed by leaves/splices are recycled through a free list while
``node_id`` allocation stays strictly increasing, mirroring ``KeyTree``'s
id sequence.  Handles (:class:`FlatNode`) are cheap ephemeral
views; a handle to a detached node is valid until the next mutation.
Detached nodes that leave the tree for good (a departed member's leaf,
a spliced interior) are returned as plain :class:`TreeNode` snapshots so
results stay readable after the slot is recycled.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .graph import KeyGraph
from .tree import JoinResult, KeyTreeError, LeaveResult, PathChange, TreeNode

# Relative-depth sentinel: "no such node in this subtree".
_INF = 1 << 30


class KeyArena:
    """Flat byte storage for fixed-stride key material, indexed by slot.

    The stride locks to the length of the first key stored.  Keys of a
    different length (possible with exotic test keygens) overflow to a
    side dict rather than corrupting the arena.
    """

    __slots__ = ("_buf", "stride", "_odd")

    def __init__(self) -> None:
        self._buf = bytearray()
        self.stride = 0
        self._odd: Dict[int, bytes] = {}

    def store(self, slot: int, key: bytes) -> None:
        """Set the key bytes for ``slot``."""
        if self.stride == 0:
            self.stride = len(key)
        if len(key) != self.stride or self.stride == 0:
            self._odd[slot] = bytes(key)
            return
        self._odd.pop(slot, None)
        end = (slot + 1) * self.stride
        if len(self._buf) < end:
            self._buf.extend(bytes(end - len(self._buf)))
        self._buf[slot * self.stride:end] = key

    def get(self, slot: int) -> bytes:
        """The key bytes for ``slot``."""
        odd = self._odd.get(slot)
        if odd is not None:
            return odd
        offset = slot * self.stride
        return bytes(self._buf[offset:offset + self.stride])

    def view(self, slot: int) -> memoryview:
        """Zero-copy view of ``slot``'s key bytes (regular keys only)."""
        odd = self._odd.get(slot)
        if odd is not None:
            return memoryview(odd)
        offset = slot * self.stride
        return memoryview(self._buf)[offset:offset + self.stride]

    def discard(self, slot: int) -> None:
        """Drop any overflow entry for a recycled slot."""
        self._odd.pop(slot, None)

    @property
    def nbytes(self) -> int:
        """Bytes held by the arena buffer."""
        return len(self._buf)


class FlatNode:
    """An ephemeral handle onto one slot of a :class:`FlatKeyTree`.

    Exposes the same read surface as :class:`TreeNode` (``node_id``,
    ``key``, ``version``, ``user_id``, ``size``, ``is_leaf``,
    ``parent``, ``children``, ``replace_key``, ``path_to_root``) so the
    strategies, persistence, analysis and observability layers work
    unchanged over either tree.
    """

    __slots__ = ("_tree", "index")

    def __init__(self, tree: "FlatKeyTree", index: int):
        self._tree = tree
        self.index = index

    @property
    def node_id(self) -> int:
        return self._tree._node_id[self.index]

    @property
    def version(self) -> int:
        return self._tree._version[self.index]

    @property
    def key(self) -> bytes:
        return self._tree.arena.get(self.index)

    @property
    def user_id(self) -> Optional[str]:
        return self._tree._user_of[self.index]

    @property
    def size(self) -> int:
        return self._tree._size[self.index]

    @property
    def is_leaf(self) -> bool:
        return self._tree._user_of[self.index] is not None

    @property
    def parent(self) -> Optional["FlatNode"]:
        p = self._tree._parent[self.index]
        return FlatNode(self._tree, p) if p >= 0 else None

    @property
    def children(self) -> List["FlatNode"]:
        tree = self._tree
        out = []
        c = tree._first_child[self.index]
        while c >= 0:
            out.append(FlatNode(tree, c))
            c = tree._next_sibling[c]
        return out

    def replace_key(self, new_key: bytes) -> None:
        """Install fresh key material and bump the version."""
        self._tree.arena.store(self.index, new_key)
        self._tree._version[self.index] += 1

    def path_to_root(self) -> List["FlatNode"]:
        """Nodes from ``self`` (inclusive) up to and including the root."""
        tree = self._tree
        path = []
        i = self.index
        while i >= 0:
            path.append(FlatNode(tree, i))
            i = tree._parent[i]
        return path

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FlatNode):
            return self._tree is other._tree and self.index == other.index
        if isinstance(other, TreeNode):
            return self.node_id == other.node_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.index)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" user={self.user_id}" if self.user_id else ""
        return f"<FlatNode #{self.index} id={self.node_id}{tag}>"


class FlatKeyTree:
    """Single-root key tree over flat arrays; same surface as KeyTree."""

    def __init__(self, degree: int, keygen: Callable[[], bytes]):
        if degree < 2:
            raise KeyTreeError("tree degree must be >= 2")
        self.degree = degree
        self._keygen = keygen
        self._next_id = 0
        self._root = -1
        # Topology (slot-indexed, -1 = none).
        self._parent = array("i")
        self._first_child = array("i")
        self._next_sibling = array("i")
        self._n_children = array("i")
        # Identity / freshness.
        self._node_id = array("q")
        self._version = array("q")
        # Subtree user counts and the two relative-depth aggregates.
        self._size = array("i")
        self._open_d = array("i")
        self._leaf_d = array("i")
        self._user_of: List[Optional[str]] = []
        self.arena = KeyArena()
        self._leaves: Dict[str, int] = {}
        self._free: List[int] = []

    # -- slot management ---------------------------------------------------

    def _alloc_raw(self, node_id: int, key: bytes,
                   user_id: Optional[str]) -> int:
        is_leaf = user_id is not None
        if self._free:
            i = self._free.pop()
            self._parent[i] = -1
            self._first_child[i] = -1
            self._next_sibling[i] = -1
            self._n_children[i] = 0
            self._node_id[i] = node_id
            self._version[i] = 0
            self._size[i] = 1 if is_leaf else 0
            self._open_d[i] = _INF if is_leaf else 0
            self._leaf_d[i] = 0 if is_leaf else _INF
            self._user_of[i] = user_id
        else:
            i = len(self._parent)
            self._parent.append(-1)
            self._first_child.append(-1)
            self._next_sibling.append(-1)
            self._n_children.append(0)
            self._node_id.append(node_id)
            self._version.append(0)
            self._size.append(1 if is_leaf else 0)
            self._open_d.append(_INF if is_leaf else 0)
            self._leaf_d.append(0 if is_leaf else _INF)
            self._user_of.append(user_id)
        self.arena.store(i, key)
        return i

    def _alloc(self, key: bytes, user_id: Optional[str]) -> int:
        node_id = self._next_id
        self._next_id += 1
        return self._alloc_raw(node_id, key, user_id)

    def _free_slot(self, i: int) -> None:
        self._user_of[i] = None
        self._parent[i] = -1
        self._next_sibling[i] = -1
        self.arena.discard(i)
        self._free.append(i)

    # -- linkage helpers ---------------------------------------------------

    def _append_child(self, p: int, c: int) -> None:
        self._next_sibling[c] = -1
        self._parent[c] = p
        last = self._first_child[p]
        if last < 0:
            self._first_child[p] = c
        else:
            nxt = self._next_sibling[last]
            while nxt >= 0:
                last = nxt
                nxt = self._next_sibling[last]
            self._next_sibling[last] = c
        self._n_children[p] += 1

    def _remove_child(self, p: int, c: int) -> None:
        prev = -1
        cur = self._first_child[p]
        while cur >= 0 and cur != c:
            prev = cur
            cur = self._next_sibling[cur]
        if cur < 0:  # pragma: no cover - structural invariant
            raise KeyTreeError(f"slot {c} is not a child of slot {p}")
        if prev < 0:
            self._first_child[p] = self._next_sibling[c]
        else:
            self._next_sibling[prev] = self._next_sibling[c]
        self._parent[c] = -1
        self._next_sibling[c] = -1
        self._n_children[p] -= 1

    def _replace_child(self, p: int, old: int, new: int) -> None:
        prev = -1
        cur = self._first_child[p]
        while cur >= 0 and cur != old:
            prev = cur
            cur = self._next_sibling[cur]
        if cur < 0:  # pragma: no cover - structural invariant
            raise KeyTreeError(f"slot {old} is not a child of slot {p}")
        self._next_sibling[new] = self._next_sibling[old]
        self._parent[new] = p
        if prev < 0:
            self._first_child[p] = new
        else:
            self._next_sibling[prev] = new
        self._parent[old] = -1
        self._next_sibling[old] = -1

    # -- aggregate maintenance ---------------------------------------------

    def _recompute_agg(self, i: int) -> bool:
        """Refresh ``open_d``/``leaf_d`` at slot ``i``; True if changed."""
        if self._user_of[i] is not None:
            new_open, new_leaf = _INF, 0
        else:
            min_open = _INF
            min_leaf = _INF
            c = self._first_child[i]
            while c >= 0:
                if self._open_d[c] < min_open:
                    min_open = self._open_d[c]
                if self._leaf_d[c] < min_leaf:
                    min_leaf = self._leaf_d[c]
                c = self._next_sibling[c]
            if self._n_children[i] < self.degree:
                new_open = 0
            else:
                new_open = min_open + 1 if min_open < _INF else _INF
            new_leaf = min_leaf + 1 if min_leaf < _INF else _INF
        if new_open == self._open_d[i] and new_leaf == self._leaf_d[i]:
            return False
        self._open_d[i] = new_open
        self._leaf_d[i] = new_leaf
        return True

    def _update_up(self, i: int) -> None:
        """Recompute aggregates from slot ``i`` up while they change."""
        while i >= 0 and self._recompute_agg(i):
            i = self._parent[i]

    def _bump_sizes(self, i: int, delta: int) -> None:
        while i >= 0:
            self._size[i] += delta
            i = self._parent[i]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, members: Iterable[Tuple[str, bytes]], degree: int,
              keygen: Callable[[], bytes]) -> "FlatKeyTree":
        """Bulk-build a full, balanced tree over ``(user, key)`` pairs.

        Same top-down division, node-id assignment and keygen draw order
        as the ``KeyTree`` reference's ``build`` — the built trees are
        byte-identical.
        """
        tree = cls(degree, keygen)
        members = list(members)
        leaf_slots = []
        for user_id, key in members:
            i = tree._alloc(key, user_id)
            tree._leaves[user_id] = i
            leaf_slots.append(i)
        if not leaf_slots:
            return tree
        root = tree._alloc(keygen(), None)
        tree._root = root
        stack: List[Tuple[int, List[int], bool]] = [(root, leaf_slots, False)]
        while stack:
            parent, slots, needs_interior = stack.pop()
            if needs_interior:
                interior = tree._alloc(keygen(), None)
                tree._append_child(parent, interior)
                parent = interior
            if len(slots) <= degree:
                for s in slots:
                    tree._append_child(parent, s)
                continue
            quotient, remainder = divmod(len(slots), degree)
            chunks = []
            start = 0
            for index in range(degree):
                length = quotient + (1 if index < remainder else 0)
                chunks.append(slots[start:start + length])
                start += length
            for chunk in reversed(chunks):
                stack.append((parent, chunk, len(chunk) > 1))
        tree._refresh_subtree(root)
        return tree

    def _refresh_subtree(self, root: int) -> None:
        """Fill sizes and aggregates bottom-up below ``root``."""
        order = []
        queue = deque([root])
        while queue:
            i = queue.popleft()
            order.append(i)
            c = self._first_child[i]
            while c >= 0:
                queue.append(c)
                c = self._next_sibling[c]
        for i in reversed(order):
            if self._user_of[i] is None:
                total = 0
                c = self._first_child[i]
                while c >= 0:
                    total += self._size[c]
                    c = self._next_sibling[c]
                self._size[i] = total
            self._recompute_agg(i)

    def load_nodes(self, entries: List[dict], root_id: Optional[int],
                   next_id: int) -> None:
        """Reconstruct topology from snapshot entries (persistence)."""
        by_id: Dict[int, int] = {}
        for entry in entries:
            slot = self._alloc_raw(entry["id"], bytes.fromhex(entry["key"]),
                                   entry["user"])
            self._version[slot] = entry["version"]
            by_id[entry["id"]] = slot
        for entry in entries:
            slot = by_id[entry["id"]]
            for child_id in entry["children"]:
                self._append_child(slot, by_id[child_id])
        self._next_id = next_id
        if root_id is not None:
            self._root = by_id[root_id]
            self._refresh_subtree(self._root)
            # Rebuild the member registry in DFS pre-order, matching the
            # ``KeyTree``'s restore order exactly.
            stack = [self._root]
            while stack:
                i = stack.pop()
                user = self._user_of[i]
                if user is not None:
                    self._leaves[user] = i
                children = []
                c = self._first_child[i]
                while c >= 0:
                    children.append(c)
                    c = self._next_sibling[c]
                stack.extend(reversed(children))
        self.validate()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def n_users(self) -> int:
        """Current group size."""
        return len(self._leaves)

    @property
    def root(self) -> Optional[FlatNode]:
        """Handle onto the root (group key) slot, or None when empty."""
        return FlatNode(self, self._root) if self._root >= 0 else None

    def users(self) -> List[str]:
        """Current member ids."""
        return list(self._leaves)

    def has_user(self, user_id: str) -> bool:
        """True iff ``user_id`` is a member."""
        return user_id in self._leaves

    def leaf_of(self, user_id: str) -> FlatNode:
        """The user's individual-key leaf handle."""
        try:
            return FlatNode(self, self._leaves[user_id])
        except KeyError:
            raise KeyTreeError(f"unknown user {user_id!r}") from None

    def group_key_node(self) -> FlatNode:
        """The root (group key) node; raises if empty."""
        if self._root < 0:
            raise KeyTreeError("tree is empty")
        return FlatNode(self, self._root)

    def nodes(self) -> Iterable[FlatNode]:
        """All k-nodes, breadth-first from the root."""
        if self._root < 0:
            return
        queue = deque([self._root])
        while queue:
            i = queue.popleft()
            yield FlatNode(self, i)
            c = self._first_child[i]
            while c >= 0:
                queue.append(c)
                c = self._next_sibling[c]

    @property
    def n_keys(self) -> int:
        """Total number of keys held by the server (O(1) here)."""
        return len(self._parent) - len(self._free) if self._root >= 0 else 0

    def nodes_with_depth(self) -> Iterable[Tuple[FlatNode, int]]:
        """(node, depth) pairs, breadth-first; root depth 0, iterative."""
        if self._root < 0:
            return
        queue = deque([(self._root, 0)])
        while queue:
            i, depth = queue.popleft()
            yield FlatNode(self, i), depth
            c = self._first_child[i]
            while c >= 0:
                queue.append((c, depth + 1))
                c = self._next_sibling[c]

    def height(self) -> int:
        """Paper height h: edges on the longest u-node -> root path.

        One breadth-first pass over slots (no per-leaf upward walks, no
        handle churn).
        """
        if self._root < 0:
            return 0
        best = 0
        user_of = self._user_of
        first_child = self._first_child
        next_sibling = self._next_sibling
        queue = deque([(self._root, 0)])
        while queue:
            i, depth = queue.popleft()
            if user_of[i] is not None:
                best = max(best, depth + 1)
            c = first_child[i]
            while c >= 0:
                queue.append((c, depth + 1))
                c = next_sibling[c]
        return best

    def user_key_path(self, user_id: str) -> List[FlatNode]:
        """The keys user ``user_id`` holds, leaf (individual key) first."""
        return self.leaf_of(user_id).path_to_root()

    def userset(self, node: FlatNode) -> List[str]:
        """Users holding the key at ``node`` (in stable subtree order)."""
        if node.index == self._root:
            return list(self._leaves)
        result = []
        stack = [node.index]
        while stack:
            i = stack.pop()
            user = self._user_of[i]
            if user is not None:
                result.append(user)
                continue
            children = []
            c = self._first_child[i]
            while c >= 0:
                children.append(c)
                c = self._next_sibling[c]
            stack.extend(reversed(children))
        return result

    def subtree_size(self, node: FlatNode) -> int:
        """Number of users below ``node`` (O(1): maintained per slot)."""
        return self._size[node.index]

    # -- surgery primitives (batch flush, cluster namespacing) --------------

    def new_leaf(self, user_id: str, key: bytes) -> FlatNode:
        """Allocate and register a (detached) leaf for ``user_id``."""
        if user_id in self._leaves:
            raise KeyTreeError(f"user {user_id!r} is already a member")
        i = self._alloc(key, user_id)
        self._leaves[user_id] = i
        return FlatNode(self, i)

    def start_root(self, leaf: FlatNode) -> FlatNode:
        """Create the root (group key) node above a first, sole leaf."""
        root = self._alloc(self._keygen(), None)
        self._append_child(root, leaf.index)
        self._size[root] = self._size[leaf.index]
        self._recompute_agg(root)
        self._root = root
        return FlatNode(self, root)

    def attach_leaf(self, leaf: FlatNode, spot: FlatNode) -> None:
        """Attach a detached leaf below ``spot``; updates sizes."""
        self._append_child(spot.index, leaf.index)
        self._bump_sizes(spot.index, +1)
        self._update_up(spot.index)

    def split_node(self, victim: FlatNode) -> FlatNode:
        """Replace ``victim`` with a fresh interior that adopts it."""
        v = victim.index
        parent = self._parent[v]
        interior = self._alloc(self._keygen(), None)
        if parent < 0:
            self._root = interior
        else:
            self._replace_child(parent, v, interior)
        self._append_child(interior, v)
        self._size[interior] = self._size[v]
        self._recompute_agg(interior)
        if parent >= 0:
            self._update_up(parent)
        return FlatNode(self, interior)

    def detach_user(self, user_id: str) -> Optional[FlatNode]:
        """Detach a member's leaf; returns the vacated parent handle."""
        try:
            i = self._leaves.pop(user_id)
        except KeyError:
            raise KeyTreeError(f"unknown user {user_id!r}") from None
        parent = self._parent[i]
        if parent < 0:
            self._free_slot(i)
            self._root = -1
            return None
        self._remove_child(parent, i)
        self._free_slot(i)
        self._bump_sizes(parent, -1)
        self._update_up(parent)
        return FlatNode(self, parent)

    def splice_out(self, node: FlatNode) -> FlatNode:
        """Splice a single-child interior out; returns its parent."""
        i = node.index
        only = self._first_child[i]
        parent = self._parent[i]
        self._replace_child(parent, i, only)
        self._free_slot(i)
        self._update_up(parent)
        return FlatNode(self, parent)

    def drop_childless(self, node: FlatNode) -> None:
        """Remove a childless interior from its parent and recycle it."""
        i = node.index
        parent = self._parent[i]
        self._remove_child(parent, i)
        self._free_slot(i)
        self._update_up(parent)

    def clear_root(self) -> None:
        """Forget (and recycle) the root; the tree has no members left."""
        if self._root >= 0:
            self._free_slot(self._root)
            self._root = -1

    def has_room(self, node: FlatNode) -> bool:
        """True iff ``node`` can take another child."""
        return self._n_children[node.index] < self.degree

    def is_attached(self, node: FlatNode) -> bool:
        """True iff ``node`` is still part of the tree."""
        return self._parent[node.index] >= 0 or node.index == self._root

    def shift_node_ids(self, base: int) -> None:
        """Add ``base`` to every node id (cluster shard namespacing)."""
        for node in self.nodes():
            self._node_id[node.index] += base
        self._next_id += base

    # -- joining -----------------------------------------------------------

    def _find_joining_point_idx(self) -> Tuple[int, int]:
        """(joining slot, leaf-to-split slot or -1): O(log n) descent.

        Follows the ``open_d``/``leaf_d`` aggregates from the root,
        taking the leftmost child that achieves the minimum depth at
        each level.  The reached node is exactly the one ``KeyTree``'s
        breadth-first scan returns: minimum depth first, and
        leftmost (lexicographically smallest root path) among ties —
        which is BFS visit order.
        """
        r = self._root
        assert r >= 0
        if self._open_d[r] < _INF:
            depth = self._open_d[r]
            i = r
            while depth > 0:
                target = depth - 1
                c = self._first_child[i]
                while c >= 0 and self._open_d[c] != target:
                    c = self._next_sibling[c]
                assert c >= 0, "open_d aggregate out of sync"
                i = c
                depth = target
            return i, -1
        depth = self._leaf_d[r]
        i = r
        while depth > 0:
            target = depth - 1
            c = self._first_child[i]
            while c >= 0 and self._leaf_d[c] != target:
                c = self._next_sibling[c]
            assert c >= 0, "leaf_d aggregate out of sync"
            i = c
            depth = target
        return i, i

    def find_joining_point(self) -> Tuple[FlatNode, Optional[FlatNode]]:
        """Public joining-point heuristic (same contract as KeyTree)."""
        jp, split = self._find_joining_point_idx()
        return (FlatNode(self, jp),
                FlatNode(self, split) if split >= 0 else None)

    _find_joining_point = find_joining_point

    def join(self, user_id: str, individual_key: bytes) -> JoinResult:
        """Attach a new user and rekey the path above the joining point."""
        leaf = self.new_leaf(user_id, individual_key)
        if self._root < 0:
            root = self.start_root(leaf)
            return JoinResult(user_id, leaf, changes=[
                PathChange(root, root.key, root.version, root.key)])
        jp, split = self._find_joining_point_idx()
        split_leaf = None
        if split >= 0:
            split_leaf = FlatNode(self, split)
            jp = self.split_node(split_leaf).index
        self.attach_leaf(leaf, FlatNode(self, jp))
        changes = self._rekey_path(jp)
        return JoinResult(user_id, leaf, changes, split_leaf=split_leaf)

    def _rekey_path(self, i: int) -> List[PathChange]:
        """Replace every key from slot ``i`` to the root, root first."""
        path = []
        while i >= 0:
            path.append(i)
            i = self._parent[i]
        changes = []
        for slot in reversed(path):
            old_key = self.arena.get(slot)
            old_version = self._version[slot]
            self.arena.store(slot, self._keygen())
            self._version[slot] += 1
            changes.append(PathChange(FlatNode(self, slot), old_key,
                                      old_version, self.arena.get(slot)))
        return changes

    # -- leaving -----------------------------------------------------------

    def leave(self, user_id: str) -> LeaveResult:
        """Detach a user and rekey the path above the leaving point."""
        try:
            i = self._leaves[user_id]
        except KeyError:
            raise KeyTreeError(f"unknown user {user_id!r}") from None
        # Snapshot the departing leaf before its slot is recycled, so
        # the result stays readable after further mutations.
        removed = TreeNode(self._node_id[i], self.arena.get(i), user_id)
        removed.version = self._version[i]
        parent_handle = self.detach_user(user_id)
        if parent_handle is None:
            return LeaveResult(user_id, removed, changes=[])
        parent = parent_handle.index

        spliced: List[TreeNode] = []
        leaving_point = parent
        if self._n_children[leaving_point] == 1 \
                and self._parent[leaving_point] >= 0:
            snap = TreeNode(self._node_id[leaving_point],
                            self.arena.get(leaving_point), None)
            snap.version = self._version[leaving_point]
            spliced.append(snap)
            leaving_point = self.splice_out(
                FlatNode(self, leaving_point)).index

        if not self._leaves:
            self.clear_root()
            return LeaveResult(user_id, removed, changes=[], spliced=spliced)

        changes = self._rekey_path(leaving_point)
        return LeaveResult(user_id, removed, changes, spliced=spliced)

    # -- validation / export -----------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise KeyTreeError on violation."""
        if self._root < 0:
            if self._leaves:
                raise KeyTreeError("empty root but users remain")
            return
        seen_leaves: Dict[str, int] = {}
        live = 0
        for node in self.nodes():
            i = node.index
            live += 1
            n_children = self._n_children[i]
            if n_children > self.degree:
                raise KeyTreeError(
                    f"node {node.node_id} exceeds degree {self.degree}")
            user = self._user_of[i]
            if user is not None:
                if n_children:
                    raise KeyTreeError(f"leaf {node.node_id} has children")
                seen_leaves[user] = i
            elif not n_children:
                raise KeyTreeError(
                    f"interior node {node.node_id} has no children")
            counted = 0
            total_size = 0
            c = self._first_child[i]
            while c >= 0:
                if self._parent[c] != i:
                    raise KeyTreeError(
                        f"parent pointer broken at {self._node_id[c]}")
                counted += 1
                total_size += self._size[c]
                c = self._next_sibling[c]
            if counted != n_children:
                raise KeyTreeError(
                    f"child count stale at {node.node_id}: "
                    f"{n_children} != {counted}")
            expected_size = 1 if user is not None else total_size
            if self._size[i] != expected_size:
                raise KeyTreeError(
                    f"size cache stale at {node.node_id}: "
                    f"{self._size[i]} != {expected_size}")
            if self._recompute_agg(i):
                raise KeyTreeError(
                    f"depth aggregates stale at {node.node_id}")
        if seen_leaves != self._leaves:
            raise KeyTreeError("leaf registry out of sync with tree")
        if live != len(self._parent) - len(self._free):
            raise KeyTreeError("free list out of sync with live slots")

    def to_key_graph(self) -> KeyGraph:
        """Export as a formal :class:`KeyGraph` (u-nodes at leaves)."""
        graph = KeyGraph()
        for node in self.nodes():
            graph.add_k_node(node.node_id)
        for node in self.nodes():
            for child in node.children:
                graph.add_edge(child.node_id, node.node_id)
            if node.is_leaf:
                graph.add_u_node(node.user_id)
                graph.add_edge(node.user_id, node.node_id)
        return graph

    # -- capacity accounting (benchmarks) ----------------------------------

    def storage_bytes(self) -> int:
        """Approximate bytes held by the flat storage (arrays + arena)."""
        arrays = (self._parent, self._first_child, self._next_sibling,
                  self._n_children, self._node_id, self._version,
                  self._size, self._open_d, self._leaf_d)
        total = sum(a.itemsize * len(a) for a in arrays)
        return total + self.arena.nbytes
