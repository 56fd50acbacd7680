#!/usr/bin/env python3
"""Batch rekeying under flash-crowd churn (extension beyond the paper).

Per-request rekeying changes the group key on *every* join/leave — with
a flash crowd, the root key is replaced hundreds of times a second and
most of that work overlaps.  The interval batching extension collects an
interval's requests and rekeys each affected path once.

Run:  python examples/batch_rekeying_demo.py
"""

from repro.batch import BatchRekeyServer
from repro.core import GroupClient
from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.transport import InMemoryNetwork


def main():
    server = BatchRekeyServer(degree=4, suite=SUITE, seed=b"batch-demo")
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
    for i in range(32):
        server.request_leave(f"u{i}")
        del clients[f"u{i}"]
    joiners = {}
    for i in range(32):
        key = server.new_individual_key()
        joiners[f"crowd{i}"] = key
        server.request_join(f"crowd{i}", key)

    result = server.flush()
    print(f"  one flush: {result.encryptions} encryptions vs "
          f"{result.individual_cost_estimate} for per-request rekeying "
          f"-> {result.saving:.0%} saved")
    print(f"  one multicast of "
          f"{len(result.rekey_message.encoded)} bytes + "
          f"{len(result.joiner_messages)} joiner unicasts")

    # Deliver and verify synchrony.
    for uid, key in joiners.items():
        client = GroupClient(uid, SUITE, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
    # The network: the flushed group is subscribed, the leavers are not.
    network = InMemoryNetwork()
    for uid, client in clients.items():
        network.attach(uid, client.process_message)
    network.send(result.rekey_message)
    network.send_all(result.joiner_messages)

    group_key = server.tree.root.key
    in_sync = sum(1 for client in clients.values()
                  if client.group_key() == group_key)
    print(f"  {in_sync}/{len(clients)} members hold the new group key")

    print("\nsaving vs batch size (same total churn):")
    for batch_size in (1, 4, 16, 64):
        probe = BatchRekeyServer(degree=4, suite=SUITE, seed=b"probe")
        probe.bootstrap([(f"u{i}", probe.new_individual_key())
                         for i in range(256)])
        batched = individual = 0
        leaver = joiner = 0
        for _ in range(64 // batch_size):
            for _ in range(batch_size):
                probe.request_leave(f"u{leaver}")
                leaver += 1
                probe.request_join(f"j{joiner}",
                                   probe.new_individual_key())
                joiner += 1
            flush = probe.flush()
            batched += flush.encryptions
            individual += flush.individual_cost_estimate
        print(f"  batch={batch_size:3d}: {batched:5d} encryptions "
              f"({1 - batched / individual:.0%} saved)")


if __name__ == "__main__":
    main()
