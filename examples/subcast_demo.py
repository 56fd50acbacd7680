#!/usr/bin/env python3
"""Subgroup messaging: the key-covering problem, solved and sealed.

The paper's §2.1 asks how to message an *arbitrary subset* of a
secure group: pick a set of keys whose usersets exactly tile the
subset (the key-covering problem — NP-hard in general), then seal one
message key under each.  This demo walks the whole PR 9 pipeline:

* the covering ladder on a hard instance (exact vs greedy vs
  first-fit-decreasing) and on a key tree, where the minimum cover is
  just the maximal fully-selected subtrees;
* how subset *shape* drives cover size: a clustered member window
  collapses to a handful of subtree keys while a scattered sample
  degenerates toward individual keys;
* sealed delivery: exactly the targets decrypt, outsiders and evicted
  members fail closed;
* the cluster lift: a fully-targeted shard rides one root-layer key.

Run:  python examples/subcast_demo.py
"""

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.core.client import GroupClient, SubcastNotAddressed
from repro.core.server import GroupKeyServer, ServerConfig
from repro.keygraph.covering import (exact_cover, greedy_cover,
                                     group_from_set_cover,
                                     partition_cover, tree_subset_cover)


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def primed_client(server, user):
    leaf = server.tree.leaf_of(user)
    client = GroupClient(user, server.suite, server.public_key)
    client.set_individual_key(leaf.key)
    client.set_leaf(leaf.node_id)
    for node in leaf.path_to_root():
        client.keys[node.node_id] = (node.version, node.key)
    return client


def covering_ladder():
    banner("the covering ladder (general instance)")
    # Encode a set-cover instance as a group: elements are users, each
    # candidate set is a key held by exactly its elements.
    universe = list(range(8))
    subsets = [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [1, 3, 5, 7],
               [0, 2, 4, 6], [6, 7]]
    group = group_from_set_cover(universe, subsets)
    target = [f"e{e}" for e in (0, 1, 2, 3, 6, 7)]
    for name, algorithm in (("exact (exhaustive)", exact_cover),
                            ("greedy (H_k approx)", greedy_cover),
                            ("first-fit-decreasing", partition_cover)):
        cover = algorithm(group, target)
        print(f"  {name:22}: {len(cover)} keys")


def tree_shapes():
    banner("subset shape drives cover size (n=4096 tree)")
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", signing="none",
        seed=b"subcast-demo"))
    members = [f"u{index:04d}" for index in range(4096)]
    server.bootstrap([(user, server.new_individual_key())
                      for user in members])
    shapes = {
        "clustered window": members[512:768],       # 256 contiguous
        "scattered sample": members[7::16],         # 256 spread out
    }
    for label, subset in shapes.items():
        cover = tree_subset_cover(server.tree, subset)
        print(f"  {label:18}: |S|={len(subset)} -> {len(cover)} cover keys")
    return server, members


def sealed_delivery(server, members):
    banner("sealed delivery: exactly the targets decrypt")
    targets = members[100:140]
    out = server.subcast(targets, b"quarterly numbers, subgroup only")
    print(f"  {len(targets)} targets, {len(out.message.items) - 1} "
          f"cover keys, {len(out.encoded)} wire bytes")

    insider = primed_client(server, targets[0])
    print(f"  target {targets[0]}      : "
          f"{insider.open_subcast(out.encoded)!r}")

    bystander = primed_client(server, members[0])
    try:
        bystander.open_subcast(out.encoded)
    except SubcastNotAddressed:
        print(f"  member {members[0]} (not targeted): SubcastNotAddressed")

    victim = targets[-1]
    stale = primed_client(server, victim)
    server.leave(victim)
    out2 = server.subcast(targets[:-1], b"post-eviction follow-up")
    try:
        stale.open_subcast(out2.encoded)
    except SubcastNotAddressed:
        print(f"  evicted {victim}    : fails closed "
              f"(holds only stale key versions)")


def cluster_lift():
    banner("cluster: a fully-targeted shard lifts to the root layer")
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=4, degree=4, signing="none", seed=b"subcast-demo-cl"))
    members = [f"c{index:03d}" for index in range(128)]
    coordinator.bootstrap([(user, coordinator.new_individual_key())
                           for user in members])
    by_shard = {}
    for user in members:
        by_shard.setdefault(coordinator.shard_of(user).shard_id,
                            []).append(user)
    whole_shard = by_shard[0]
    few_others = by_shard[1][:3]
    out = coordinator.subcast(whole_shard + few_others, b"mixed targets")
    print(f"  shard 0 in full ({len(whole_shard)} members) + "
          f"{len(few_others)} members of shard 1")
    print(f"  -> {len(out.message.items) - 1} cover keys "
          f"(1 root-layer ref for shard 0, individual/subtree keys "
          f"for the rest)")
    out = coordinator.subcast(members, b"all hands")
    print(f"  whole cluster ({len(members)} members) -> "
          f"{len(out.message.items) - 1} cover key")


def main():
    covering_ladder()
    server, members = tree_shapes()
    sealed_delivery(server, members)
    cluster_lift()
    print()


if __name__ == "__main__":
    main()
