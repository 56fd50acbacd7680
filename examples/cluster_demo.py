#!/usr/bin/env python3
"""Sharded key-server cluster: partitioned LKH, failover, one scrape.

The paper sizes a *single* key server against the whole group (§5's
scalability analysis).  This demo runs the cluster extension instead:
the logical group is consistent-hash partitioned over four shard
servers, each owning a full LKH subtree, with a small root key layer
spanning the shard roots.  A join or leave rekeys only the owning
shard's O(log shard_size) path plus the O(log n_shards) root layer —
per-operation cost is bounded by the shard size, not the group size.

The demo then kills a shard mid-workload and promotes its warm standby
(a follower of the shard's op journal): members keep decrypting with the keys
they already hold, no out-of-band recovery.  Finally one stats request
returns a single cluster-wide ``repro-metrics/1`` snapshot merging
every shard's telemetry.

Run:  python examples/cluster_demo.py
"""

from repro.cluster import ClusterConfig, ClusterCoordinator, ClusterFrontEnd
from repro.core.messages import MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST
from repro.crypto import PAPER_SUITE
from repro.observability import Instrumentation, Tracer
from repro.observability.export import to_prometheus, validate_snapshot
from repro.recovery import ResilientMember


def main():
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=4, degree=4, signing="merkle",
                      seed=b"cluster-demo"),
        instrumentation=Instrumentation("cluster", tracer=Tracer()))
    coordinator.bootstrap([])
    front_end = ClusterFrontEnd(coordinator)
    members = {}

    def join(user_id):
        member = ResilientMember(user_id, PAPER_SUITE,
                                 coordinator.public_key,
                                 uplink=front_end.submit)
        key = coordinator.new_individual_key()
        coordinator.register_individual_key(user_id, key)
        member.client.set_individual_key(key)
        front_end.attach_member(user_id, member.client.receive)
        member.request(MSG_JOIN_REQUEST)
        members[user_id] = member

    print("== 1. one endpoint, four shards ==")
    for index in range(24):
        join(f"user-{index:02d}")
    for shard in coordinator.shards:
        print(f"  shard {shard.shard_id}: {shard.server.n_users:2d} members "
              f"(node ids {shard.server.tree.root.node_id:#010x}...)")
    group_key = coordinator.group_key()
    synced = sum(member.group_key() == group_key
                 for member in members.values())
    print(f"  {synced}/{len(members)} members hold the cluster group key")

    print("\n== 2. per-op cost is shard-local ==")
    record = coordinator.history[-1]
    print(f"  last join: {record.shard_encryptions} shard-layer + "
          f"{record.root_encryptions} root-layer encryptions "
          f"({coordinator.n_users} members total)")

    print("\n== 3. kill a shard, promote the warm standby ==")
    coordinator.enable_standbys()
    victim = coordinator.shard_of("user-05").shard_id
    # More churn after arming: the standby follows each op as it commits.
    for index in range(24, 28):
        join(f"user-{index:02d}")
    coordinator.fail_shard(victim)
    coordinator.promote_standby(victim)
    print(f"  shard {victim} failed and was promoted from its standby")
    departed = members.pop("user-05")
    departed.request(MSG_LEAVE_REQUEST)  # served by the successor
    front_end.detach_member("user-05")
    group_key = coordinator.group_key()
    synced = sum(member.group_key() == group_key
                 for member in members.values())
    print(f"  post-failover leave: {synced}/{len(members)} members "
          f"followed, departed member excluded: "
          f"{departed.group_key() != group_key}")

    print("\n== 4. one scrape, cluster-wide ==")
    document = front_end.stats_document()
    validate_snapshot(document)
    lines = to_prometheus(document).splitlines()
    print(f"  snapshot valid ({len(document['metrics']['counters'])} counter "
          f"families, {len(lines)} exposition lines); samples:")
    for line in lines:
        if line.startswith(("cluster_shard_members", "cluster_failovers",
                            "cluster_encryptions_total")):
            print(f"    {line}")


if __name__ == "__main__":
    main()
