#!/usr/bin/env python3
"""General key graphs and the key-covering problem (paper §2).

The paper's experiments use key *trees*, but its model — and its title —
is key *graphs*: arbitrary DAGs of users and keys, where rekeying after
a leave means solving a key-covering problem.  This example works
directly with the paper's Figure 1 graph:

    u1 -> k1, k12
    u2 -> k2, k12, k234
    u3 -> k3, k234
    u4 -> k4, k234          k12, k234 -> k1234 (the group key)

and shows a covering-driven leave and join, plus the exact/greedy
covering solvers and a Graphviz export of the graph.

Run:  python examples/general_key_graphs.py
"""

from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.crypto.drbg import HmacDrbg
from repro.transport import InMemoryNetwork
from repro.keygraph import (MaterializedKeyGraph, exact_cover,
                            figure1_example, greedy_cover)


def main():
    # -- the formal model --------------------------------------------------
    graph = figure1_example()
    graph.validate()
    group = graph.secure_group()
    print("Figure 1 secure group (U, K, R):")
    for user in sorted(group.users):
        print(f"  keyset({user}) = {sorted(group.keyset(user))}")
    print(f"  userset(k234)   = {sorted(group.userset('k234'))}")

    # -- the key covering problem ------------------------------------------
    print("\nkey covering (the NP-hard core of rekeying, §2.1):")
    target = ["u2", "u3", "u4"]          # everyone but u1
    print(f"  cover {{u2,u3,u4}} exactly  -> {exact_cover(group, target)}")
    target = ["u1", "u2", "u3"]
    print(f"  cover {{u1,u2,u3}} exactly  -> "
          f"{sorted(exact_cover(group, target))} (no single key fits)")
    print(f"  greedy gives the same size -> "
          f"{sorted(greedy_cover(group, target))}")

    # -- operational rekeying over the graph ---------------------------------
    source = HmacDrbg(b"general-graphs-demo")
    material, individual = MaterializedKeyGraph.figure1(
        SUITE, lambda: source.generate(8))

    # The network resolves the rekey's group address to its subscribers.
    network = InMemoryNetwork()
    for user in material.users():
        network.attach(user, lambda payload: None)

    print("\nu1 leaves; covering drives the rekey:")
    outcome = material.leave("u1")
    network.detach("u1")
    print(f"  replaced keys : {sorted(outcome.replaced)}")
    print(f"  encryptions   : {outcome.encryptions} "
          "(k12' under k2; k1234' under k234 — the minimal covers)")
    print(f"  rekey message : {len(outcome.messages[0].encoded)} bytes to "
          f"{network.audience.count(outcome.messages[0])} users")

    print("\nu5 joins holding k234; its closure is rekeyed:")
    outcome = material.join("u5", source.generate(8), ["k234"])
    print(f"  replaced keys : {sorted(outcome.replaced)}")
    print(f"  messages      : {len(outcome.messages)} "
          "(old-key multicast + joiner bundle)")

    # -- visualization ----------------------------------------------------------
    print("\nGraphviz DOT of the current graph "
          "(pipe into `dot -Tpng` to draw):\n")
    print(material.graph.to_dot("figure-1 after churn"))


if __name__ == "__main__":
    main()
