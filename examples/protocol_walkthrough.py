#!/usr/bin/env python3
"""The paper's Figure 5 worked example, down to the wire bytes.

Builds the exact tree of Figure 5 — root k1-8 over subgroups
k123 = {u1,u2,u3}, k456 = {u4,u5,u6}, k78 = {u7,u8} — then walks u9's
join and leave under each rekeying strategy, printing every rekey
message: destination, audience, the encrypted items inside, and sizes.
Compare with §3.3/§3.4's message lists; the structure matches line for
line.

Run:  python examples/protocol_walkthrough.py
"""

from repro.core.messages import DEST_ALL, DEST_SUBGROUP, DEST_USER
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.transport import InMemoryNetwork


def build_figure5(strategy):
    """Eight members under degree 3: exactly Figure 5's upper tree."""
    server = GroupKeyServer(ServerConfig(
        strategy=strategy, degree=3, suite=SUITE, signing="none",
        seed=b"figure5"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(1, 9)])
    return server


def label_for(server, node_id):
    """Human label for a k-node: the users below it (k78-style)."""
    if server.tree is None:
        return f"k{node_id}"
    for node in server.tree.nodes():
        if node.node_id == node_id:
            users = sorted(server.tree.userset(node))
            suffix = "".join(u[1:] for u in users)
            return f"k{suffix}" if suffix else f"k{node_id}"
    return f"k(old #{node_id})"


def describe(server, outcome):
    # A group address names no member: the network resolves it to
    # whoever is subscribed once the op is applied.
    network = InMemoryNetwork()
    for user in server.members():
        network.attach(user, lambda payload: None)
    for message in outcome.rekey_messages:
        destination = message.destination
        if destination.kind == DEST_ALL:
            where = "multicast to the whole group"
        elif destination.kind == DEST_SUBGROUP:
            where = f"subgroup multicast [{label_for(server, destination.node_id)}]"
        elif destination.kind == DEST_USER:
            where = f"unicast to {destination.user_id}"
        else:
            where = f"to {destination.user_ids}"
        audience = ",".join(sorted(network.audience.receivers(message)))
        print(f"    -> {where}  ({message.size} bytes, "
              f"receivers: {audience})")
        for item in message.message.items:
            if item.enc_node_id == 0xFFFFFFFF:
                under = "the receiver's individual key"
            else:
                under = label_for(server, item.enc_node_id)
            n_keys = len(item.labels)
            plural = "s" if n_keys != 1 else ""
            print(f"         {{{n_keys} new key{plural}}} encrypted under "
                  f"{under}")


def main():
    for strategy, join_note, leave_note in (
            ("user", "3 messages, 5 encryptions (= h(h+1)/2 - 1)",
             "4 messages, 6 encryptions (= (d-1)h(h-1)/2)"),
            ("key", "3 combined messages, 4 encryptions (= 2(h-1))",
             "4 messages, ~d(h-1) encryptions with shared chain items"),
            ("group", "1 multicast + 1 unicast, 4 encryptions",
             "a single multicast, d(h-1) encryptions")):
        print(f"\n{'=' * 68}\n{strategy.upper()}-ORIENTED REKEYING"
              f"\n{'=' * 68}")
        server = build_figure5(strategy)
        print(f"Figure 5 upper tree: n=8, d=3, h={server.tree.height()}; "
              f"group key {label_for(server, server.tree.root.node_id)}")

        print(f"\n  u9 joins (paper: {join_note}):")
        outcome = server.join("u9", server.new_individual_key())
        describe(server, outcome)
        print(f"    [measured: {outcome.record.n_rekey_messages} messages, "
              f"{outcome.record.encryptions} encryptions]")

        print(f"\n  u9 leaves (paper: {leave_note}):")
        outcome = server.leave("u9")
        describe(server, outcome)
        print(f"    [measured: {outcome.record.n_rekey_messages} messages, "
              f"{outcome.record.encryptions} encryptions]")


if __name__ == "__main__":
    main()
