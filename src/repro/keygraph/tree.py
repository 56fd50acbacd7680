"""Operational key tree (LKH) with join/leave editing (paper §2.2, §3).

The server maintains a single-root tree of k-nodes: the root holds the
group key, leaves hold individual keys (one per user), interior nodes
hold subgroup keys.  ``degree`` bounds the number of children of any
k-node.  The paper's height ``h`` counts edges on the longest u-node to
root path, so a user in a full balanced tree of ``n = d**(h-1)`` users
holds exactly ``h`` keys.

The class implements the paper's maintenance heuristic: "the server
employs a heuristic that attempts to build and maintain a key tree that
is full and balanced".  Joins attach at the shallowest non-full interior
node (splitting a shallowest leaf when the tree is full); leaves splice
out interior nodes left with a single child.

Key material lives on the nodes; every node carries a stable integer id
and a version number that increments on each key replacement, so rekey
messages can reference keys unambiguously.

No server builds this class: every server runs
:class:`~repro.keygraph.flat.FlatKeyTree`, the same tree over flat
arrays.  ``KeyTree`` is its reference implementation — one plain object
per k-node — and the lockstep tests hold the flat engine to it node id
for node id and byte for byte (the role :mod:`repro.crypto.reference`
plays for the ciphers).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .graph import KeyGraph


class KeyTreeError(ValueError):
    """Raised on invalid tree edits (unknown user, duplicate join, ...)."""


class TreeNode:
    """A k-node of the key tree.

    ``user_id`` is set exactly on leaf nodes, which hold that user's
    individual key.
    """

    __slots__ = ("node_id", "key", "version", "parent", "children",
                 "user_id", "size")

    def __init__(self, node_id: int, key: bytes,
                 user_id: Optional[str] = None):
        self.node_id = node_id
        self.key = key
        self.version = 0
        self.parent: Optional["TreeNode"] = None
        self.children: List["TreeNode"] = []
        self.user_id = user_id
        # Number of users in this subtree, maintained incrementally so
        # userset-size queries are O(1) (a leaf counts itself).
        self.size = 1 if user_id is not None else 0

    @property
    def is_leaf(self) -> bool:
        """True iff this node holds a user's individual key."""
        return self.user_id is not None

    def replace_key(self, new_key: bytes) -> None:
        """Install fresh key material and bump the version."""
        self.key = new_key
        self.version += 1

    def path_to_root(self) -> List["TreeNode"]:
        """Nodes from ``self`` (inclusive) up to and including the root."""
        path = []
        node: Optional[TreeNode] = self
        while node is not None:
            path.append(node)
            node = node.parent
        return path

    def __eq__(self, other: object) -> bool:
        # Node ids are unique within a tree, so id equality is node
        # equality; FlatKeyTree hands out a fresh handle (FlatNode)
        # per access, which makes identity useless as an equality test
        # across the tree-consuming code.
        if isinstance(other, TreeNode):
            return self.node_id == other.node_id
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" user={self.user_id}" if self.user_id else ""
        return f"<TreeNode {self.node_id} v{self.version}{tag}>"


class PathChange:
    """One rekeyed node: its old key material and the fresh key.

    A plain ``__slots__`` class (not a dataclass): rekey bursts allocate
    one per changed node, and large-n churn makes the per-instance dict
    overhead measurable.
    """

    __slots__ = ("node", "old_key", "old_version", "new_key")

    def __init__(self, node, old_key: bytes, old_version: int,
                 new_key: bytes):
        self.node = node
        self.old_key = old_key
        self.old_version = old_version
        self.new_key = new_key

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PathChange):
            return (self.node == other.node
                    and self.old_key == other.old_key
                    and self.old_version == other.old_version
                    and self.new_key == other.new_key)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"PathChange(node={self.node!r}, "
                f"old_version={self.old_version})")


class JoinResult:
    """Outcome of a join edit.

    ``changes`` lists rekeyed nodes ordered root-first (x_0 ... x_j in the
    paper's Figure 6 notation — x_j is the joining point).  ``leaf`` is the
    new individual-key node of the joining user.  ``split_leaf`` is set
    when the heuristic had to split an existing leaf to make room; the
    displaced user's individual-key node was re-attached below the new
    interior node.
    """

    __slots__ = ("user_id", "leaf", "changes", "split_leaf")

    def __init__(self, user_id: str, leaf, changes: List[PathChange],
                 split_leaf=None):
        self.user_id = user_id
        self.leaf = leaf
        self.changes = changes
        self.split_leaf = split_leaf

    @property
    def joining_point(self):
        """The k-node the new leaf was attached to."""
        return self.changes[-1].node if self.changes else self.leaf

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"JoinResult(user_id={self.user_id!r}, "
                f"changes={len(self.changes)})")


class LeaveResult:
    """Outcome of a leave edit.

    ``changes`` lists rekeyed nodes root-first (x_0 ... x_j, where x_j is
    the leaving point).  ``removed_leaf`` is the departed user's
    individual-key node (already detached).  ``spliced`` contains interior
    nodes removed because they were left with a single child.
    """

    __slots__ = ("user_id", "removed_leaf", "changes", "spliced")

    def __init__(self, user_id: str, removed_leaf,
                 changes: List[PathChange], spliced=None):
        self.user_id = user_id
        self.removed_leaf = removed_leaf
        self.changes = changes
        self.spliced = spliced if spliced is not None else []

    @property
    def leaving_point(self):
        """The rekeyed parent of the removed leaf."""
        return self.changes[-1].node if self.changes else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LeaveResult(user_id={self.user_id!r}, "
                f"changes={len(self.changes)})")


class KeyTree:
    """Single-root key tree with bounded degree and balance maintenance."""

    def __init__(self, degree: int, keygen: Callable[[], bytes]):
        if degree < 2:
            raise KeyTreeError("tree degree must be >= 2")
        self.degree = degree
        self._keygen = keygen
        self._next_id = 0
        self.root: Optional[TreeNode] = None
        self._leaves: Dict[str, TreeNode] = {}

    # -- construction ------------------------------------------------------

    def _new_node(self, key: bytes, user_id: Optional[str] = None) -> TreeNode:
        node = TreeNode(self._next_id, key, user_id)
        self._next_id += 1
        return node

    @classmethod
    def build(cls, members: Iterable[Tuple[str, bytes]], degree: int,
              keygen: Callable[[], bytes]) -> "KeyTree":
        """Bulk-build a full, balanced tree over ``(user, individual_key)``.

        Equivalent steady-state shape to the paper's initialisation by n
        joins, in O(n) without generating rekey traffic.  The tree is
        divided top-down so every interior node (the root included) gets
        its full fan-out of d children whenever n allows — when n is not
        a power of d, bottom-up grouping would otherwise leave the root
        under-full (e.g. two children for n = 8192, d = 4), which skews
        the per-client key-change statistics of Figure 12.
        """
        tree = cls(degree, keygen)
        leaves = [tree._new_node(key, user_id) for user_id, key in members]
        if not leaves:
            return tree
        for node in leaves:
            tree._leaves[node.user_id] = node

        # Iterative top-down division (an explicit stack instead of
        # recursion, so degree-2 builds at large n cannot hit Python's
        # recursion limit).  Frames are (parent, nodes, needs_interior);
        # chunks are pushed in reverse so pops occur in chunk order,
        # and a multi-node chunk draws its interior key at the moment
        # its frame is popped — before any of its descendants.  That
        # reproduces the recursive version's DFS pre-order keygen call
        # sequence (and node-id assignment) exactly, so every derived
        # key byte is identical to the recursive build's.
        root = tree._new_node(keygen())
        tree.root = root
        stack: List[Tuple[TreeNode, List[TreeNode], bool]] = [
            (root, leaves, False)]
        while stack:
            parent, nodes, needs_interior = stack.pop()
            if needs_interior:
                interior = tree._new_node(keygen())
                interior.parent = parent
                parent.children.append(interior)
                parent = interior
            if len(nodes) <= degree:
                for node in nodes:
                    node.parent = parent
                    parent.children.append(node)
                continue
            # Split into d nearly equal chunks; wrap multi-node chunks
            # in a subgroup-key interior (when their frame is popped).
            quotient, remainder = divmod(len(nodes), degree)
            chunks = []
            start = 0
            for index in range(degree):
                length = quotient + (1 if index < remainder else 0)
                chunks.append(nodes[start:start + length])
                start += length
            for chunk in reversed(chunks):
                stack.append((parent, chunk, len(chunk) > 1))
        # Subtree sizes cannot be filled during the pre-order pass (an
        # interior's final size is unknown until its subtree is built),
        # so fill them bottom-up afterwards: reversed BFS order visits
        # every child before its parent.
        order = list(tree.nodes())
        for node in reversed(order):
            if not node.is_leaf:
                node.size = sum(child.size for child in node.children)
        return tree

    def load_nodes(self, entries: List[dict], root_id: Optional[int],
                   next_id: int) -> None:
        """Reconstruct topology from snapshot entries (persistence).

        Entries carry ``id``/``version``/``key`` (hex)/``user``/
        ``children`` (ids).  Sizes are filled bottom-up and the member
        registry rebuilt in DFS pre-order — both iteratively, so a
        degree-2 tree at large n cannot hit the recursion limit.
        """
        by_id: Dict[int, TreeNode] = {}
        for entry in entries:
            node = TreeNode(entry["id"], bytes.fromhex(entry["key"]),
                            entry["user"])
            node.version = entry["version"]
            by_id[node.node_id] = node
        for entry in entries:
            node = by_id[entry["id"]]
            for child_id in entry["children"]:
                child = by_id[child_id]
                child.parent = node
                node.children.append(child)
        self._next_id = next_id
        if root_id is not None:
            self.root = by_id[root_id]
            order = list(self.nodes())
            for node in reversed(order):
                if node.is_leaf:
                    node.size = 1
                else:
                    node.size = sum(child.size for child in node.children)
            stack = [self.root]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    self._leaves[node.user_id] = node
                stack.extend(reversed(node.children))
        self.validate()

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._leaves)

    @property
    def n_users(self) -> int:
        """Current group size."""
        return len(self._leaves)

    def users(self) -> List[str]:
        """Current member ids."""
        return list(self._leaves)

    def has_user(self, user_id: str) -> bool:
        """True iff ``user_id`` is a member."""
        return user_id in self._leaves

    def leaf_of(self, user_id: str) -> TreeNode:
        """The user's individual-key leaf node."""
        try:
            return self._leaves[user_id]
        except KeyError:
            raise KeyTreeError(f"unknown user {user_id!r}") from None

    def group_key_node(self) -> TreeNode:
        """The root (group key) node; raises if empty."""
        if self.root is None:
            raise KeyTreeError("tree is empty")
        return self.root

    def nodes(self) -> Iterable[TreeNode]:
        """All k-nodes, breadth-first from the root."""
        if self.root is None:
            return
        queue = deque([self.root])
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children)

    def nodes_with_depth(self) -> Iterable[Tuple[TreeNode, int]]:
        """(node, depth) pairs, breadth-first; root depth 0.

        The iterative traversal helper shape metrics build on: one
        queue-driven pass hands every node its depth, so callers never
        re-walk a root path per leaf (O(n·h)) nor recurse (a height-h
        call stack overflows CPython's recursion limit long before the
        million-member trees the flat engine targets).
        """
        if self.root is None:
            return
        queue = deque([(self.root, 0)])
        while queue:
            node, depth = queue.popleft()
            yield node, depth
            for child in node.children:
                queue.append((child, depth + 1))

    @property
    def n_keys(self) -> int:
        """Total number of keys held by the server (Table 1 'Tree' row)."""
        return sum(1 for _ in self.nodes())

    def height(self) -> int:
        """Paper height h: edges on the longest u-node -> root path.

        The u-node hangs below its leaf k-node, so h is one more than the
        deepest leaf's k-node depth... precisely: a user's key count is
        its leaf depth + 1 (leaf itself plus ancestors), which equals the
        number of edges from the u-node to the root.  Computed in one
        breadth-first pass (not a per-leaf path walk).
        """
        best = 0
        for node, depth in self.nodes_with_depth():
            if node.is_leaf:
                best = max(best, depth + 1)
        return best

    def user_key_path(self, user_id: str) -> List[TreeNode]:
        """The keys user ``user_id`` holds, leaf (individual key) first."""
        return self.leaf_of(user_id).path_to_root()

    def userset(self, node: TreeNode) -> List[str]:
        """Users holding the key at ``node`` (in stable subtree order)."""
        if node is self.root:
            # Fast path: the whole membership, straight from the registry.
            return list(self._leaves)
        result = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                result.append(current.user_id)
            else:
                stack.extend(reversed(current.children))
        return result

    def subtree_size(self, node: TreeNode) -> int:
        """Number of users below ``node`` (O(1): maintained on the node)."""
        return node.size

    # -- surgery primitives (batch flush, cluster namespacing) --------------
    #
    # Callers that edit the tree (the per-request join/leave below, the
    # batch flush in ``batch.planner``, cluster namespacing) go through
    # these named operations instead of reaching into node internals, so
    # an array-backed tree (``flat.FlatKeyTree``) can implement the same
    # surface over indices instead of objects.

    def new_leaf(self, user_id: str, key: bytes) -> TreeNode:
        """Allocate and register a (detached) leaf for ``user_id``."""
        if user_id in self._leaves:
            raise KeyTreeError(f"user {user_id!r} is already a member")
        leaf = self._new_node(key, user_id)
        self._leaves[user_id] = leaf
        return leaf

    def start_root(self, leaf: TreeNode) -> TreeNode:
        """Create the root (group key) node above a first, sole leaf."""
        root = self._new_node(self._keygen())
        leaf.parent = root
        root.children.append(leaf)
        root.size = leaf.size
        self.root = root
        return root

    def attach_leaf(self, leaf: TreeNode, spot: TreeNode) -> None:
        """Attach a detached leaf below ``spot``; updates subtree sizes."""
        leaf.parent = spot
        spot.children.append(leaf)
        node: Optional[TreeNode] = spot
        while node is not None:
            node.size += 1
            node = node.parent

    def split_node(self, victim: TreeNode) -> TreeNode:
        """Replace ``victim`` with a fresh interior that adopts it.

        Draws one key for the new interior.  Used when the joining
        heuristic must split a leaf to make room.
        """
        parent = victim.parent
        interior = self._new_node(self._keygen())
        if parent is None:
            self.root = interior
        else:
            parent.children[parent.children.index(victim)] = interior
            interior.parent = parent
        victim.parent = interior
        interior.children.append(victim)
        interior.size = victim.size
        return interior

    def detach_user(self, user_id: str) -> Optional[TreeNode]:
        """Detach a member's leaf; returns the vacated parent.

        Returns ``None`` (and empties the tree) when the leaf had no
        parent.  Subtree sizes along the path are updated.
        """
        leaf = self.leaf_of(user_id)
        del self._leaves[user_id]
        parent = leaf.parent
        leaf.parent = None
        if parent is None:
            self.root = None
            return None
        parent.children.remove(leaf)
        node: Optional[TreeNode] = parent
        while node is not None:
            node.size -= 1
            node = node.parent
        return parent

    def splice_out(self, node: TreeNode) -> TreeNode:
        """Splice a single-child interior out; returns its parent."""
        only_child = node.children[0]
        parent = node.parent
        parent.children[parent.children.index(node)] = only_child
        only_child.parent = parent
        return parent

    def drop_childless(self, node: TreeNode) -> None:
        """Remove a childless interior from its parent."""
        node.parent.children.remove(node)
        node.parent = None

    def clear_root(self) -> None:
        """Forget the root (the tree has no members left)."""
        self.root = None

    def has_room(self, node: TreeNode) -> bool:
        """True iff ``node`` can take another child."""
        return len(node.children) < self.degree

    def is_attached(self, node: TreeNode) -> bool:
        """True iff ``node`` is still part of the tree."""
        return node.parent is not None or node == self.root

    def find_joining_point(self) -> Tuple[TreeNode, Optional[TreeNode]]:
        """Public alias of the joining-point heuristic (batch flush)."""
        return self._find_joining_point()

    def shift_node_ids(self, base: int) -> None:
        """Add ``base`` to every node id (cluster shard namespacing)."""
        for node in self.nodes():
            node.node_id += base
        self._next_id += base

    # -- joining ---------------------------------------------------------------

    def _find_joining_point(self) -> Tuple[TreeNode, Optional[TreeNode]]:
        """Pick where to attach a new leaf, keeping the tree balanced.

        Returns ``(joining_point, leaf_to_split)``.  When every interior
        node on the shallow frontier is full, the shallowest leaf is
        split: a fresh interior node takes its place and adopts both the
        displaced leaf and the new one.
        """
        assert self.root is not None
        # Breadth-first: the first interior node with room is the
        # shallowest one, which keeps the tree balanced.
        queue = deque([self.root])
        shallowest_leaf = None
        while queue:
            node = queue.popleft()
            if node.is_leaf:
                if shallowest_leaf is None:
                    shallowest_leaf = node
                continue
            if len(node.children) < self.degree:
                return node, None
            queue.extend(node.children)
        assert shallowest_leaf is not None
        return shallowest_leaf, shallowest_leaf

    def join(self, user_id: str, individual_key: bytes) -> JoinResult:
        """Attach a new user and rekey the path above the joining point.

        Every key from the joining point to the root is replaced (the new
        member must not be able to read past traffic).  Returns the edit
        record the rekeying strategies consume.
        """
        leaf = self.new_leaf(user_id, individual_key)

        if self.root is None:
            # First member: root (group key) above the single leaf.
            root = self.start_root(leaf)
            return JoinResult(user_id, leaf, changes=[
                PathChange(root, root.key, root.version, root.key)])

        joining_point, leaf_to_split = self._find_joining_point()
        split_leaf = None
        if leaf_to_split is not None:
            # Split: new interior node replaces the leaf in its parent,
            # adopting the displaced leaf and the new one.
            joining_point = self.split_node(leaf_to_split)
            split_leaf = leaf_to_split

        self.attach_leaf(leaf, joining_point)

        changes = []
        for node in reversed(joining_point.path_to_root()):  # root first
            old_key, old_version = node.key, node.version
            node.replace_key(self._keygen())
            changes.append(PathChange(node, old_key, old_version, node.key))
        return JoinResult(user_id, leaf, changes, split_leaf=split_leaf)

    # -- leaving -----------------------------------------------------------------

    def leave(self, user_id: str) -> LeaveResult:
        """Detach a user and rekey the path above the leaving point.

        Every key the departed user held (other than its individual key)
        is replaced.  Interior nodes left with a single child are spliced
        out so the tree stays compact.
        """
        leaf = self.leaf_of(user_id)
        parent = self.detach_user(user_id)
        if parent is None:
            # Sole node: empty the tree.
            return LeaveResult(user_id, leaf, changes=[])

        spliced = []
        leaving_point = parent
        if len(leaving_point.children) == 1 and leaving_point.parent is not None:
            # Splice out the now-redundant interior node: its single
            # child takes its place.  (The root is kept even with one
            # child so the group key node id stays stable.)
            spliced.append(leaving_point)
            leaving_point = self.splice_out(leaving_point)

        if not self._leaves:
            self.root = None
            return LeaveResult(user_id, leaf, changes=[], spliced=spliced)

        changes = []
        for node in reversed(leaving_point.path_to_root()):  # root first
            old_key, old_version = node.key, node.version
            node.replace_key(self._keygen())
            changes.append(PathChange(node, old_key, old_version, node.key))
        return LeaveResult(user_id, leaf, changes, spliced=spliced)

    # -- validation / export --------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise KeyTreeError on violation."""
        if self.root is None:
            if self._leaves:
                raise KeyTreeError("empty root but users remain")
            return
        seen_leaves = {}
        for node in self.nodes():
            if len(node.children) > self.degree:
                raise KeyTreeError(
                    f"node {node.node_id} exceeds degree {self.degree}")
            if node.is_leaf:
                if node.children:
                    raise KeyTreeError(
                        f"leaf {node.node_id} has children")
                seen_leaves[node.user_id] = node
            else:
                if not node.children:
                    raise KeyTreeError(
                        f"interior node {node.node_id} has no children")
            for child in node.children:
                if child.parent is not node:
                    raise KeyTreeError(
                        f"parent pointer broken at {child.node_id}")
            expected_size = (1 if node.is_leaf
                             else sum(child.size for child in node.children))
            if node.size != expected_size:
                raise KeyTreeError(
                    f"size cache stale at {node.node_id}: "
                    f"{node.size} != {expected_size}")
        if seen_leaves != self._leaves:
            raise KeyTreeError("leaf registry out of sync with tree")

    def to_key_graph(self) -> KeyGraph:
        """Export as a formal :class:`KeyGraph` (u-nodes attached to leaves)."""
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
