"""Run a flat-built server on the ``KeyTree`` reference.

Every server builds :class:`~repro.keygraph.flat.FlatKeyTree`.  The
lockstep tests hold it to :class:`~repro.keygraph.tree.KeyTree` by
rebuilding the reference from the flat tree's snapshot entries (same
node ids, versions, keys and child order) and swapping it in, so the
same server, strategy, signer and key stream then run on the reference.
"""

from repro.cluster.coordinator import ClusterCoordinator, RootKeyLayer
from repro.core.persistence import _tree_to_dict
from repro.keygraph.tree import KeyTree


def _twin(tree, keygen) -> KeyTree:
    data = _tree_to_dict(tree)
    twin = KeyTree(data["degree"], keygen)
    twin.load_nodes(data["nodes"], data["root"], data["next_id"])
    return twin


def swap_in_reference(owner):
    """Swap a ``KeyTree`` twin into ``owner``'s tree; returns ``owner``.

    ``owner`` is a ``GroupKeyServer``, a ``RootKeyLayer`` or a
    ``ClusterCoordinator`` (every shard and the root layer).  Swap after
    ``bootstrap``, which builds a fresh ``FlatKeyTree``.  The twin draws
    new keys from the keygen the flat tree drew from.
    """
    if isinstance(owner, ClusterCoordinator):
        for shard in owner.shards:
            swap_in_reference(shard.server)
        swap_in_reference(owner.root_layer)
    elif isinstance(owner, RootKeyLayer):
        owner._tree = _twin(owner.tree, owner.material.new_key)
    else:
        owner.tree = _twin(owner.tree, owner._new_key)
    return owner
