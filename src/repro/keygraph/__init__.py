"""Key graphs: the formal model of secure groups (paper §2).

* :class:`~repro.keygraph.graph.KeyGraph` — generic DAG key graphs and
  their ``(U, K, R)`` semantics (:class:`~repro.keygraph.graph.SecureGroup`);
* :class:`~repro.keygraph.flat.FlatKeyTree` — the operational LKH key
  tree with the full/balanced maintenance heuristic, over flat arrays;
  every server builds it;
* :class:`~repro.keygraph.tree.KeyTree` — the same tree as one object
  per k-node: the reference the lockstep tests hold the flat engine to;
* :class:`~repro.keygraph.star.StarGroup` — the conventional baseline;
* :class:`~repro.keygraph.complete.CompleteGroup` — one key per subset;
* :mod:`~repro.keygraph.covering` — the (NP-hard) key-covering problem.
"""

from .analysis import TreeShape, assert_balanced, leaf_depth_histogram, measure
from .complete import CompleteGroup, CompleteGroupError
from .flat import FlatKeyTree, FlatNode, KeyArena
from .covering import (CoverError, complement_cover, exact_cover,
                       greedy_cover, greedy_tree_cover, is_cover,
                       partition_cover, tree_cover, tree_subset_cover)
from .graph import (K_NODE, U_NODE, KeyGraph, KeyGraphError, SecureGroup,
                    figure1_example)
from .materialized import (GraphRekeyOutcome, MaterializedGraphError,
                           MaterializedKeyGraph)
from .star import StarGroup, StarError, StarRekey
from .tree import (JoinResult, KeyTree, KeyTreeError, LeaveResult,
                   PathChange, TreeNode)

__all__ = [
    "KeyGraph", "KeyGraphError", "SecureGroup", "figure1_example",
    "U_NODE", "K_NODE",
    "KeyTree", "KeyTreeError", "TreeNode", "PathChange",
    "JoinResult", "LeaveResult",
    "FlatKeyTree", "FlatNode", "KeyArena",
    "StarGroup", "StarError", "StarRekey",
    "CompleteGroup", "CompleteGroupError",
    "CoverError", "exact_cover", "greedy_cover", "is_cover", "tree_cover",
    "complement_cover", "tree_subset_cover", "greedy_tree_cover",
    "partition_cover",
    "TreeShape", "measure", "leaf_depth_histogram", "assert_balanced",
    "MaterializedKeyGraph", "MaterializedGraphError", "GraphRekeyOutcome",
]
