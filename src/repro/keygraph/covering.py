"""The key-covering problem (paper §2.1).

Given a secure group ``(U, K, R)`` and a target subset ``S`` of ``U``,
find a minimum-size subset ``K'`` of ``K`` with ``userset(K') == S``.
The server solves instances of this to rekey after a leave: the new key
must reach exactly ``userset(k) - {u}``.  The subcast subsystem
(:mod:`repro.subcast`) solves it for arbitrary ``S``: one payload
sealed to exactly a pay-per-view tier or a regional subset instead of
``|S|`` unicasts.

The general problem is NP-hard (reduction from exact cover; the paper's
technical report TR 97-23).  This module provides:

* :func:`exact_cover` — optimal, by breadth-first search over subset
  sizes; exponential, guarded for small key sets;
* :func:`greedy_cover` — polynomial greedy heuristic in the style of
  greedy set cover (the classic ``H_k`` approximation), restricted to
  *admissible* keys (keys whose userset is contained in S, since a
  cover may not over-shoot S);
* :func:`partition_cover` — first-fit-decreasing approximation in the
  style of Chan–Rajaraman–Sun–Zhu (arXiv 0904.4061): one pass over
  the admissible keys in decreasing coverage order.  On *laminar*
  instances — exactly the structured subset families 0904.4061's
  hierarchy decompositions produce, and what a key tree's usersets
  are — the pass keeps the maximal admissible subtrees and the result
  is a minimum cover;
* :func:`tree_cover` — the closed-form optimal cover for a key tree
  when S is "everyone except one user", which the leave protocols use;
* :func:`complement_cover` — its generalization to "everyone except
  X" by subtree subtraction (evicted/ineligible exclusion lists);
* :func:`tree_subset_cover` — the optimal cover of an *arbitrary*
  subset on a key tree in ``O(|S| · log n)``, walking
  :class:`~repro.keygraph.flat.FlatKeyTree`'s arrays without ever
  materializing a userset (the million-member subcast engine);
* :func:`greedy_tree_cover` — :func:`greedy_cover` semantics directly
  on a key tree (the reference the structural cover is tested
  against).
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from .flat import FlatKeyTree, FlatNode
from .graph import SecureGroup
from .tree import KeyTree, TreeNode


class CoverError(ValueError):
    """Raised when no cover exists or guards are exceeded."""


def _admissible_keys(group: SecureGroup, target: FrozenSet) -> List:
    """Keys whose userset is a nonempty subset of the target."""
    keys = []
    for key in group.keys:
        userset = group.userset(key)
        if userset and userset <= target:
            keys.append(key)
    return keys


def is_cover(group: SecureGroup, keys: Iterable, target: Iterable) -> bool:
    """True iff ``userset(keys) == target`` exactly."""
    return group.userset_of_keys(keys) == frozenset(target)


def exact_cover(group: SecureGroup, target: Iterable,
                max_keys: int = 20) -> List:
    """Minimum-size key cover by exhaustive search over subset sizes.

    Exponential in the number of admissible keys; raises
    :class:`CoverError` when that count exceeds ``max_keys`` or no cover
    exists.
    """
    target = frozenset(target)
    if not target <= group.users:
        raise CoverError("target contains unknown users")
    if not target:
        return []
    admissible = _admissible_keys(group, target)
    if len(admissible) > max_keys:
        raise CoverError(
            f"{len(admissible)} admissible keys exceeds the exact-search "
            f"guard of {max_keys} and the search is exponential in that "
            f"count; use greedy_cover (H_k-approximate) or "
            f"partition_cover (optimal on laminar/tree instances), or "
            f"tree_subset_cover when the group is a key tree")
    if group.userset_of_keys(admissible) != target:
        raise CoverError("no exact cover exists for this target")
    for size in range(1, len(admissible) + 1):
        for combo in combinations(admissible, size):
            if group.userset_of_keys(combo) == target:
                return list(combo)
    raise CoverError("no exact cover exists for this target")  # pragma: no cover


def greedy_cover(group: SecureGroup, target: Iterable) -> List:
    """Greedy key cover: repeatedly take the admissible key covering the
    most uncovered users.  Correct (covers exactly the target) but not
    always minimal — the classic ln(n) approximation behaviour.

    Usersets are cached once up front and the per-key residual gains
    are maintained incrementally (subtracting each selection's gain
    from the others), so a full run costs ``O(|keys| · |S|)`` rather
    than recomputing every userset on every selection round.
    """
    target = frozenset(target)
    if not target <= group.users:
        raise CoverError("target contains unknown users")
    if not target:
        return []
    admissible = _admissible_keys(group, target)
    if group.userset_of_keys(admissible) != target:
        raise CoverError("no exact cover exists for this target")
    uncovered: Set = set(target)
    chosen: List = []
    # Sort for determinism before greedy selection.
    pool = sorted(admissible, key=repr)
    # Admissible usersets are subsets of the target, so each residual
    # starts as the full userset and *is* ``userset & uncovered`` at
    # every round as long as selections' gains are subtracted.
    residuals: Dict = {key: set(group.userset(key)) for key in pool}
    while uncovered:
        best = max(pool, key=lambda key: len(residuals[key]))
        gain = residuals.pop(best)
        if not gain:
            raise CoverError("greedy cover stalled")  # pragma: no cover
        chosen.append(best)
        uncovered -= gain
        pool.remove(best)
        for key in pool:
            residual = residuals[key]
            if residual:
                residual -= gain
    return chosen


def partition_cover(group: SecureGroup, target: Iterable) -> List:
    """First-fit-decreasing cover (0904.4061-style approximation).

    One pass over the admissible keys in decreasing userset size,
    taking every key that still contributes an uncovered user —
    ``O(K log K + Σ|userset|)`` total, no per-round rescans.  Every
    selected key contributes at least one new user, so the result is
    always a valid exact cover (at most ``|S|`` keys).

    On laminar userset families — key trees, and the hierarchical
    decompositions the Chan–Rajaraman–Sun–Zhu algorithms build — an
    admissible key's userset is nested inside any larger admissible
    key it meets, so the decreasing pass keeps exactly the *maximal*
    admissible sets and the cover is minimum, at linear cost where the
    exact search is exponential.
    """
    target = frozenset(target)
    if not target <= group.users:
        raise CoverError("target contains unknown users")
    if not target:
        return []
    admissible = _admissible_keys(group, target)
    if group.userset_of_keys(admissible) != target:
        raise CoverError("no exact cover exists for this target")
    ordered = sorted(admissible,
                     key=lambda key: (-len(group.userset(key)), repr(key)))
    uncovered: Set = set(target)
    chosen: List = []
    for key in ordered:
        if not uncovered:
            break
        userset = group.userset(key)
        if not uncovered.isdisjoint(userset):
            chosen.append(key)
            uncovered -= userset
    if uncovered:  # pragma: no cover - admissibility union checked above
        raise CoverError("partition cover stalled")
    return chosen


def group_from_set_cover(universe: Iterable,
                         subsets: List[Iterable]) -> SecureGroup:
    """Encode a set-cover instance as a secure group (NP-hardness).

    The paper states "the key-covering problem in general is NP-hard"
    (with the reduction in its technical report TR 97-23).  This helper
    makes the reduction concrete: elements become users, each candidate
    set becomes a key held by exactly its elements, and a minimum key
    cover of the whole universe *is* a minimum set cover — so a
    polynomial optimal key-cover algorithm would solve set cover.

    Each user also gets an individual key (as the model requires), which
    never helps a cover of more than one element, preserving optima for
    instances whose optimal cover is below universe size.
    """
    universe = list(universe)
    if not universe:
        raise CoverError("empty universe")
    users = [f"e{element}" for element in universe]
    relation = []
    keys = []
    for index, subset in enumerate(subsets):
        key = f"S{index}"
        keys.append(key)
        for element in subset:
            if element not in universe:
                raise CoverError(f"subset {index} leaves the universe")
            relation.append((f"e{element}", key))
    for user in users:
        keys.append(f"ind-{user}")
        relation.append((user, f"ind-{user}"))
    return SecureGroup(users, keys, relation)


# -- tree-structural covers ----------------------------------------------------
#
# On a key tree the usersets form a laminar family, so minimum covers
# have closed forms: a set of subtree roots.  The three functions below
# return *node handles* (TreeNode or FlatNode), deterministically
# ordered by node id, so callers can seal against (node_id, version,
# key) without a SecureGroup materialization.


def tree_cover(tree: KeyTree, excluded_user: str) -> List[TreeNode]:
    """Optimal cover of ``all users - {excluded}`` on a key tree.

    This is the structure the leave protocols exploit: for every node on
    the excluded user's path, take the keys of its *other* children.  The
    result has at most ``(d-1) * (h-1)`` nodes and is minimal for a tree.
    """
    leaf = tree.leaf_of(excluded_user)
    cover: List[TreeNode] = []
    node = leaf
    while node.parent is not None:
        for sibling in node.parent.children:
            if sibling != node:
                cover.append(sibling)
        node = node.parent
    return cover


def complement_cover(tree, excluded: Iterable) -> List:
    """Optimal cover of ``all users - X`` by subtree subtraction.

    The natural shape for "everyone except these evicted/ineligible
    members": mark every node on an excluded user's path *tainted*,
    then take each untainted child of a tainted node — each is a
    maximal subtree containing no excluded user.  ``O(|X| · d · h)``,
    independent of group size; works on either tree class.  Excluding
    nobody covers with the group key alone; excluding everybody yields
    the empty cover.
    """
    excluded = set(excluded)
    missing = [user for user in excluded if not tree.has_user(user)]
    if missing:
        raise CoverError(f"excluded users not in the tree: "
                         f"{sorted(missing)[:4]}")
    root = tree.group_key_node()
    if not excluded:
        return [root]
    tainted: Set = set()
    for user in excluded:
        node = tree.leaf_of(user)
        while node is not None and node not in tainted:
            tainted.add(node)
            node = node.parent
    cover = [child
             for node in tainted
             for child in node.children
             if child not in tainted]
    cover.sort(key=lambda node: node.node_id)
    return cover


def tree_subset_cover(tree: FlatKeyTree, users: Iterable) -> List[FlatNode]:
    """Optimal cover of an arbitrary subset on a key tree, O(|S|·log n).

    Walks each selected leaf's root path accumulating per-node counts
    of selected descendants; a node is *fully selected* when its count
    equals its subtree size, and the cover is the fully-selected nodes
    whose parents are not (the maximal fully-selected subtrees) —
    minimum for a tree, since any admissible key is such a subtree.

    The walk runs directly over the parent/size arrays — integer slots
    in, integer slots out, no node handles, no userset materialization
    — which is what keeps a 10k-member cover of a million-member group
    in milliseconds.  :func:`greedy_tree_cover` returns the same cover
    (same node ids, same order) on a lockstep ``KeyTree``.
    """
    subset = set(users)
    if not subset:
        raise CoverError("empty subcast target")
    leaves = tree._leaves
    parent = tree._parent
    size = tree._size
    counts: Dict[int, int] = {}
    for user in subset:
        slot = leaves.get(user)
        if slot is None:
            raise CoverError(f"target user {user!r} is not in the tree")
        while slot >= 0:
            counts[slot] = counts.get(slot, 0) + 1
            slot = parent[slot]
    node_id = tree._node_id
    cover_slots = []
    for slot, count in counts.items():
        if count != size[slot]:
            continue
        up = parent[slot]
        if up < 0 or counts[up] != size[up]:
            cover_slots.append(slot)
    cover_slots.sort(key=lambda slot: node_id[slot])
    return [FlatNode(tree, slot) for slot in cover_slots]


def greedy_tree_cover(tree, users: Iterable) -> List:
    """:func:`greedy_cover` semantics directly on a key tree.

    Materializes the userset of every admissible node and runs the
    classic greedy selection with incremental residuals — the reference
    :func:`tree_subset_cover` is tested against.  On a tree the
    admissible nodes are the fully-selected subtrees and greedy keeps
    exactly the maximal ones, so the chosen *set* equals
    :func:`tree_subset_cover`'s (the result is node-id sorted to make
    that identity literal), at ``Σ|userset|`` materialization cost.
    Walks node handles, so it runs on ``KeyTree`` and ``FlatKeyTree``.
    """
    subset = set(users)
    if not subset:
        raise CoverError("empty subcast target")
    counts: Dict = {}
    for user in subset:
        try:
            node = tree.leaf_of(user)
        except Exception:
            raise CoverError(f"target user {user!r} is not in the tree") \
                from None
        while node is not None:
            counts[node] = counts.get(node, 0) + 1
            node = node.parent
    admissible = [node for node, count in counts.items()
                  if count == node.size]
    pool = sorted(admissible, key=lambda node: node.node_id)
    residuals = {node: set(tree.userset(node)) for node in pool}
    uncovered = set(subset)
    chosen: List = []
    while uncovered:
        best = max(pool, key=lambda node: len(residuals[node]))
        gain = residuals.pop(best)
        if not gain:  # pragma: no cover - admissible nodes span the subset
            raise CoverError("greedy tree cover stalled")
        chosen.append(best)
        uncovered -= gain
        pool.remove(best)
        for node in pool:
            residual = residuals[node]
            if residual:
                residual -= gain
    chosen.sort(key=lambda node: node.node_id)
    return chosen
