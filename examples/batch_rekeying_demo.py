#!/usr/bin/env python3
"""Batch rekeying under flash-crowd churn (extension beyond the paper).

Per-request rekeying changes the group key on *every* join/leave — with
a flash crowd, the root key is replaced hundreds of times a second and
most of that work overlaps.  ``GroupKeyServer.flush`` serves an
interval's requests as one rekey, replacing each affected key once.

Run:  python examples/batch_rekeying_demo.py
"""

from repro.batch import individual_cost_estimate
from repro.core import GroupClient, GroupKeyServer, ServerConfig
from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.transport import InMemoryNetwork


def make_server(seed):
    return GroupKeyServer(ServerConfig(degree=4, suite=SUITE,
                                       signing="none", seed=seed))


def main():
    server = make_server(b"batch-demo")
    enrollment = [(f"u{i}", server.new_individual_key())
                  for i in range(256)]
    server.bootstrap(enrollment)

    # Keep real clients for 256 members so we can prove the flush output
    # actually resynchronises everyone.
    clients = {}
    for uid, key in enrollment:
        client = GroupClient(uid, SUITE, verify=False)
        client.set_individual_key(key)
        client.set_leaf(server.tree.leaf_of(uid).node_id)
        for node in server.tree.user_key_path(uid)[1:]:
            client.keys[node.node_id] = (node.version, node.key)
        client.root_ref = (server.tree.root.node_id,
                           server.tree.root.version)
        clients[uid] = client

    print("flash crowd: 32 leaves + 32 joins arrive within one interval")
    leavers = [f"u{i}" for i in range(32)]
    for uid in leavers:
        del clients[uid]
    joiners = {f"crowd{i}": server.new_individual_key() for i in range(32)}

    estimate = individual_cost_estimate(server.n_users, 4, len(joiners),
                                        len(leavers))
    outcome = server.flush(joiners.items(), leavers)
    encryptions = outcome.record.encryptions
    group_rekey, *unicasts = outcome.rekey_messages
    print(f"  one flush: {encryptions} encryptions vs {estimate} for "
          f"per-request rekeying -> {1 - encryptions / estimate:.0%} saved")
    print(f"  one multicast of {len(group_rekey.encoded)} bytes + "
          f"{len(unicasts)} joiner unicasts")

    # Deliver and verify synchrony.
    for uid, key in joiners.items():
        client = GroupClient(uid, SUITE, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
    # The network: the flushed group is subscribed, the leavers are not.
    network = InMemoryNetwork()
    for uid, client in clients.items():
        network.attach(uid, client.process_message)
    network.send_all(outcome.rekey_messages)

    group_key = server.tree.root.key
    in_sync = sum(1 for client in clients.values()
                  if client.group_key() == group_key)
    print(f"  {in_sync}/{len(clients)} members hold the new group key")

    print("\nsaving vs batch size (same total churn):")
    for batch_size in (1, 4, 16, 64):
        probe = make_server(b"probe")
        probe.bootstrap([(f"u{i}", probe.new_individual_key())
                         for i in range(256)])
        batched = individual = 0
        for start in range(0, 64, batch_size):
            window = range(start, start + batch_size)
            individual += individual_cost_estimate(
                probe.n_users, 4, batch_size, batch_size)
            batched += probe.flush(
                [(f"j{i}", probe.new_individual_key()) for i in window],
                [f"u{i}" for i in window]).record.encryptions
        print(f"  batch={batch_size:3d}: {batched:5d} encryptions "
              f"({1 - batched / individual:.0%} saved)")


if __name__ == "__main__":
    main()
