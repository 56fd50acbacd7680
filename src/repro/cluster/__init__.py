"""Sharded key-server cluster (one logical group across N shards).

* :mod:`~repro.cluster.partition` — deterministic consistent-hash ring;
* :mod:`~repro.cluster.coordinator` — per-shard
  :class:`~repro.core.server.GroupKeyServer` subtrees composed under a
  root key layer, one group-oriented multicast per operation;
* :mod:`~repro.cluster.failover` — warm standby: a follower of the
  shard's op journal, byte-identical O(1) promotion;
* :mod:`~repro.cluster.routing` — the members' single front-end plus the
  cluster-wide stats scrape.
"""

from .coordinator import (MAX_SHARDS, ROOT_LAYER_BASE, SHARD_ID_SPACE,
                          ClusterConfig, ClusterCoordinator, ClusterError,
                          ClusterRecord, ClusterRekeyOutcome, RootKeyLayer,
                          Shard, namespace_tree, shard_id_base)
from .failover import FailoverError, WarmStandby
from .partition import (DEFAULT_VNODES, HashRing, PartitionError, ShardId,
                        ring_point)
from .routing import ClusterFrontEnd, RoutingError

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterError",
    "ClusterRecord",
    "ClusterRekeyOutcome",
    "RootKeyLayer",
    "Shard",
    "namespace_tree",
    "shard_id_base",
    "SHARD_ID_SPACE",
    "ROOT_LAYER_BASE",
    "MAX_SHARDS",
    "WarmStandby",
    "FailoverError",
    "HashRing",
    "PartitionError",
    "ShardId",
    "DEFAULT_VNODES",
    "ring_point",
    "ClusterFrontEnd",
    "RoutingError",
]
