"""Tree backend selection: the ``TreeBackend`` protocol and registry.

The tree-consuming layers (``core.server``, ``batch.rekeying``,
``cluster.coordinator``, ``core.persistence``) construct their key tree
through :func:`make_tree` / :func:`build_tree` with a backend *name*
from config, instead of importing a concrete node class.  Two backends
ship:

``object``
    :class:`~repro.keygraph.tree.KeyTree` — one Python object per
    k-node.  Simple, debuggable, the reference implementation.

``flat``
    :class:`~repro.keygraph.flat.FlatKeyTree` — contiguous int arrays
    for topology, a flat byte arena for key material, O(log n)
    joining-point descent.  The million-member engine.

Both implement the same surface (the :class:`TreeBackend` protocol
below) and are pinned byte-identical by the lockstep equivalence suite:
same node ids, same keygen draw order, same joining points, same wire
bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

from .flat import FlatKeyTree
from .tree import JoinResult, KeyTree, KeyTreeError, LeaveResult


@runtime_checkable
class TreeBackend(Protocol):
    """The surface every key-tree storage engine implements.

    Node values are opaque *handles* exposing ``node_id``, ``key``,
    ``version``, ``user_id``, ``size``, ``is_leaf``, ``parent``,
    ``children``, ``replace_key`` and ``path_to_root``; handles from the
    same tree compare equal by node identity (``==``, never ``is``).
    """

    degree: int

    # queries
    def __len__(self) -> int: ...
    def users(self) -> List[str]: ...
    def has_user(self, user_id: str) -> bool: ...
    def leaf_of(self, user_id: str): ...
    def group_key_node(self): ...
    def nodes(self) -> Iterable: ...
    def nodes_with_depth(self) -> Iterable[Tuple[object, int]]: ...
    def height(self) -> int: ...
    def userset(self, node) -> List[str]: ...  # a fresh list, caller-owned
    def subtree_size(self, node) -> int: ...
    def validate(self) -> None: ...

    # whole-group edits
    def join(self, user_id: str, individual_key: bytes) -> JoinResult: ...
    def leave(self, user_id: str) -> LeaveResult: ...

    # surgery primitives (batch flush, cluster namespacing)
    def new_leaf(self, user_id: str, key: bytes): ...
    def start_root(self, leaf): ...
    def attach_leaf(self, leaf, spot) -> None: ...
    def split_node(self, victim): ...
    def detach_user(self, user_id: str): ...
    def splice_out(self, node): ...
    def drop_childless(self, node) -> None: ...
    def clear_root(self) -> None: ...
    def has_room(self, node) -> bool: ...
    def is_attached(self, node) -> bool: ...
    def find_joining_point(self) -> Tuple[object, Optional[object]]: ...
    def shift_node_ids(self, base: int) -> None: ...


BACKENDS: Dict[str, type] = {
    "object": KeyTree,
    "flat": FlatKeyTree,
}

DEFAULT_BACKEND = "object"


def resolve_backend(name: Optional[str]) -> type:
    """The tree class registered under ``name`` (None = default)."""
    key = DEFAULT_BACKEND if name is None else name
    try:
        return BACKENDS[key]
    except KeyError:
        raise KeyTreeError(
            f"unknown tree backend {name!r}; "
            f"expected one of {sorted(BACKENDS)}") from None


def make_tree(backend: Optional[str], degree: int,
              keygen: Callable[[], bytes]):
    """Construct an empty tree on the named backend."""
    return resolve_backend(backend)(degree, keygen)


def build_tree(backend: Optional[str],
               members: Iterable[Tuple[str, bytes]], degree: int,
               keygen: Callable[[], bytes]):
    """Bulk-build a tree on the named backend (no rekey traffic)."""
    return resolve_backend(backend).build(members, degree, keygen)
