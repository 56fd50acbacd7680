"""Ablations for the design discussions the paper makes without tables.

* :func:`star_vs_tree` — the Introduction's motivation: star (conventional)
  leave cost is O(n); the key tree makes it O(log n).
* :func:`iolus_comparison` — §6: where the "1 affects n" work lands.
  Iolus makes joins/leaves cheap but pays per data message (agents
  re-encrypt the message key); LKH pays ~d log n per membership change
  and exactly 1 encryption per data message.
* :func:`hybrid_tradeoff` — §7: the hybrid strategy with d multicast
  addresses sits between group- and key-oriented rekeying on both server
  message count and client received bytes.
* :func:`batch_saving` — batching an interval's requests reuses path
  rekeying across requests.
"""

from __future__ import annotations

from typing import Dict, List

from ..batch import individual_cost_estimate
from ..iolus import IolusSystem
from ..simulation.runner import ExperimentConfig, run_experiment
from .common import QUICK, Scale, TableData, strategy_experiment

#: Optional subsystems the ablations can switch on against the same
#: deterministic workload.  :func:`feature_flags` runs every entry with
#: the op journal attached and checks both the live and the replayed
#: server against the baseline.
FEATURE_FLAGS: Dict[str, Dict[str, str]] = {
    "tree-journal": {
        "description": ("append-only op journal with restart-by-replay "
                        "(core.persistence.attach_journal)"),
    },
}


def star_vs_tree(scale: Scale = QUICK) -> TableData:
    """Intro motivation: star leave is Theta(n), tree is Theta(log n)."""
    rows = []
    for size in scale.group_sizes:
        star = run_experiment(ExperimentConfig(
            initial_size=size, n_requests=min(scale.n_requests, 40),
            graph="star", signing="none", client_mode="none",
            seed=b"ablate-star"))
        tree = run_experiment(ExperimentConfig(
            initial_size=size, n_requests=min(scale.n_requests, 40),
            degree=4, strategy="group", signing="none", client_mode="none",
            seed=b"ablate-star"))
        star_leave = star.server_metrics.leave.encryptions.mean
        tree_leave = tree.server_metrics.leave.encryptions.mean
        rows.append([size, star_leave, tree_leave,
                     star_leave / tree_leave if tree_leave else 0.0])
    return TableData(
        title="Ablation: star vs key tree (leave encryptions per request)",
        headers=["group size", "star leave enc", "tree leave enc",
                 "star/tree ratio"],
        rows=rows,
        notes=("Expected shape: star grows linearly in n, the tree "
               "logarithmically, so the ratio grows ~n/log n."),
    )


def iolus_comparison(scale: Scale = QUICK,
                     data_messages_per_membership_op: int = 4) -> TableData:
    """Total crypto ops for a mixed workload, LKH vs Iolus."""
    n_ops = min(scale.n_requests, 40)
    rows = []
    for label, fanout, levels in (("small", 4, 2), ("large", 4, 3)):
        iolus = IolusSystem(agent_fanout=fanout, agent_levels=levels,
                            seed=b"ablate-iolus")
        n_clients = fanout ** levels * 4
        for i in range(n_clients):
            iolus.join(f"c{i}")
        iolus.history.clear()
        membership_crypto = 0
        data_crypto = 0
        for i in range(n_ops):
            membership_crypto += iolus.leave(f"c{i}").crypto_ops
            membership_crypto += iolus.join(f"c{i}").crypto_ops
            for _ in range(data_messages_per_membership_op):
                record, _received = iolus.multicast(
                    f"c{i}", b"payload")
                data_crypto += record.crypto_ops

        lkh = run_experiment(ExperimentConfig(
            initial_size=n_clients, n_requests=2 * n_ops,
            degree=4, strategy="group", signing="none",
            client_mode="none", seed=b"ablate-iolus"))
        lkh_membership = sum(r.encryptions for r in lkh.records)
        # LKH data message: one encryption under the group key, ever.
        lkh_data = 2 * n_ops * data_messages_per_membership_op

        rows.append([label, n_clients, iolus.trusted_entities(),
                     membership_crypto, data_crypto,
                     membership_crypto + data_crypto,
                     1, lkh_membership, lkh_data,
                     lkh_membership + lkh_data])
    return TableData(
        title=("Ablation (paper §6): Iolus vs LKH crypto operations, "
               f"{data_messages_per_membership_op} data msgs per join+leave"
               " pair"),
        headers=["config", "clients", "iolus trusted entities",
                 "iolus membership ops", "iolus data ops", "iolus total",
                 "lkh trusted entities", "lkh membership ops",
                 "lkh data ops", "lkh total"],
        rows=rows,
        notes=("Expected shape: Iolus is cheaper on membership changes, "
               "LKH is cheaper on data messages (1 encryption vs ~one "
               "per agent), and Iolus needs every agent trusted while "
               "LKH needs one trusted server."),
    )


def hybrid_tradeoff(scale: Scale = QUICK) -> TableData:
    """Section 7: the hybrid strategy between group- and key-oriented."""
    rows = []
    for strategy in ("key", "hybrid", "group"):
        result = strategy_experiment(scale, strategy, degree=4,
                                     signing="merkle", seed=b"ablate-hybrid")
        metrics = result.server_metrics
        client = result.client_metrics
        rows.append([
            strategy,
            metrics.leave.n_messages.mean,
            client.received_size("leave").mean,
            metrics.leave.total_bytes.mean,
        ])
    return TableData(
        title="Ablation (paper §7): hybrid strategy trade-off (leaves)",
        headers=["strategy", "server msgs/leave",
                 "client recv bytes/leave", "server total bytes/leave"],
        rows=rows,
        notes=("Expected shape: hybrid needs only d multicast addresses; "
               "its server message count sits at ~d (vs 1 for group, "
               "(d-1)(h-1) for key) and its per-client received bytes sit "
               "below group-oriented."),
    )


def multicast_addresses(scale: Scale = QUICK,
                        pool_limit: int = 4) -> TableData:
    """§7: how many multicast addresses does each strategy need?

    Runs each strategy's rekey traffic through a bounded multicast
    address pool (``pool_limit`` subgroup addresses, as the paper
    suggests: "one for each child of the key tree's root node") and
    counts degradations to unicast plus total message copies carried.
    """
    from ..simulation.clients import ClientSimulator
    from ..simulation.runner import ExperimentConfig
    from ..simulation.workload import generate_workload, initial_members
    from ..core.server import GroupKeyServer
    from ..transport.addressing import AddressedTransport, MulticastAddressPool
    from ..transport.inmemory import InMemoryNetwork

    n = min(scale.initial_size, 256)
    n_requests = min(scale.n_requests, 50)
    rows = []
    for strategy in ("user", "key", "hybrid", "group"):
        config = ExperimentConfig(
            initial_size=n, n_requests=n_requests, degree=4,
            strategy=strategy, signing="none", seed=b"ablate-addr")
        server = GroupKeyServer(config.server_config())
        members = initial_members(n)
        member_keys = [(m, server.new_individual_key()) for m in members]
        server.bootstrap(member_keys)
        simulator = ClientSimulator(config.suite, verify=False)
        for user_id, key in member_keys:
            simulator.add_member(user_id, key)
        simulator.prime_from_server(server)
        transport = AddressedTransport(
            InMemoryNetwork(), MulticastAddressPool(pool_limit))
        for user_id in members:
            transport.attach(user_id, simulator.handler_for(user_id))
        requests = generate_workload(members, n_requests,
                                     seed=b"ablate-addr-load")
        for request in requests:
            if request.op == "join":
                key = server.new_individual_key()
                client = simulator.add_member(request.user_id, key)
                transport.attach(request.user_id,
                                 simulator.handler_for(request.user_id))
                outcome = server.join(request.user_id, key)
                client.process_control(outcome.control_messages[0].encoded)
            else:
                outcome = server.leave(request.user_id)
            transport.send_all(outcome.rekey_messages)
            if request.op == "leave":
                simulator.remove_member(request.user_id)
                transport.detach(request.user_id)
        simulator.assert_synchronized(server)
        stats = transport.addressing
        rows.append([strategy, pool_limit,
                     stats.addresses_requested,
                     stats.unicast_fallbacks,
                     stats.copies_sent,
                     round(stats.copies_sent / n_requests, 1)])
    return TableData(
        title=(f"Ablation (paper §7): multicast address needs "
               f"(n={n}, d=4, pool of {pool_limit} subgroup addresses)"),
        headers=["strategy", "pool", "subgroup addresses wanted",
                 "unicast fallbacks", "network copies",
                 "copies per request"],
        rows=rows,
        notes=("Expected shape: group-oriented needs no subgroup "
               "addresses; hybrid fits the d-address pool exactly (no "
               "fallbacks); user/key-oriented want one address per "
               "subgroup key and degrade to unicast once the pool "
               "overflows, inflating network copies."),
    )


def client_side_work(scale: Scale = QUICK) -> TableData:
    """Where the work lands on the *client* side (§5 Table 6 discussion).

    "group-oriented rekeying, which has the best performance on the
    server side, requires more work on the client side to process a
    larger message" — measured here with fully simulated clients:
    per-client processing time, bytes and decryptions per request.
    """
    from ..simulation.runner import ExperimentConfig, run_experiment

    n = min(scale.initial_size, 256)
    n_requests = min(scale.n_requests, 60)
    rows = []
    for strategy in ("user", "key", "group"):
        result = run_experiment(ExperimentConfig(
            initial_size=n, n_requests=n_requests, degree=4,
            strategy=strategy, signing="none", client_mode="full",
            seed=b"ablate-client"))
        metrics = result.client_metrics
        totals = result.client_totals
        per_message_ms = (totals.processing_seconds * 1000
                          / max(1, totals.rekey_messages))
        rows.append([strategy,
                     metrics.received_size().mean,
                     per_message_ms,
                     totals.decryptions / max(1, totals.rekey_messages),
                     metrics.key_changes_per_client()])
    return TableData(
        title=(f"Ablation: client-side work per request "
               f"(n={n}, d=4, full client simulation)"),
        headers=["strategy", "recv bytes/client", "client ms/message",
                 "decryptions/message", "key changes/client"],
        rows=rows,
        notes=("Expected shape: received bytes and per-message client "
               "processing rank user < key <= group (the server-side "
               "ranking reversed); key changes are ~d/(d-1) for all."),
    )


def tree_drift(scale: Scale = QUICK, n_operations: int = 2000,
               checkpoints: int = 8) -> TableData:
    """Does the balance heuristic hold up under long random churn?

    The paper runs 1000 requests per experiment and notes the tree is
    "unlikely [to be] truly full and balanced at any time"; this ablation
    runs a longer workload and samples the tree shape periodically.  The
    claim that must hold: height stays within one level of the balanced
    optimum, so the O(log n) costs never silently degrade.
    """
    from ..crypto import drbg
    from ..keygraph.analysis import measure
    from ..keygraph.flat import FlatKeyTree
    from ..simulation.workload import JOIN, generate_workload, initial_members

    source = drbg.make_source(b"drift")
    keygen = lambda: source.generate(8)
    members = initial_members(scale.initial_size)
    tree = FlatKeyTree.build([(m, keygen()) for m in members], 4, keygen)
    requests = generate_workload(members, n_operations, seed=b"drift-load")

    rows = []
    interval = max(1, n_operations // checkpoints)
    for index, request in enumerate(requests):
        if request.op == JOIN:
            tree.join(request.user_id, keygen())
        else:
            tree.leave(request.user_id)
        if (index + 1) % interval == 0 or index == n_operations - 1:
            shape = measure(tree)
            rows.append([index + 1, shape.n_users, shape.height,
                         shape.optimal_height, shape.height_slack,
                         shape.interior_fill, shape.key_overhead])
    tree.validate()
    return TableData(
        title=(f"Ablation: tree shape under {n_operations} random "
               f"operations (start n={scale.initial_size}, d=4)"),
        headers=["ops", "users", "height", "optimal", "slack",
                 "interior fill", "key overhead"],
        rows=rows,
        notes=("Expected shape: slack stays <= 1 level and interior fill "
               "stays high throughout, so per-request cost never leaves "
               "the O(log n) regime."),
    )


def feature_flags(scale: Scale = QUICK) -> TableData:
    """Every :data:`FEATURE_FLAGS` entry vs the baseline server.

    Each flag runs the identical seeded workload on a baseline server
    and on a flagged server and must land in the *same cryptographic
    state* (group key, root reference, key count, membership) — the
    features are durability engines, not protocol changes.  The flagged
    server additionally restarts from its journal and checks the
    replayed server is snapshot-identical.
    """
    import os
    import tempfile
    import time as _time

    from ..core import persistence
    from ..core.server import GroupKeyServer, ServerConfig
    from ..simulation.workload import JOIN, generate_workload, initial_members

    n = min(scale.initial_size, 128)
    n_requests = min(scale.n_requests, 60)

    def run(journal_path=None):
        config = ServerConfig(degree=4, strategy="group", signing="none",
                              seed=b"ablate-flags")
        server = GroupKeyServer(config)
        members = initial_members(n)
        member_keys = [(m, server.new_individual_key()) for m in members]
        if journal_path is not None:
            persistence.attach_journal(server, journal_path)
        server.bootstrap(member_keys)
        requests = generate_workload(members, n_requests,
                                     seed=b"ablate-flags-load")
        started = _time.perf_counter()
        for request in requests:
            if request.op == JOIN:
                server.join(request.user_id, server.new_individual_key())
            else:
                server.leave(request.user_id)
        seconds = _time.perf_counter() - started
        # One subcast to a deterministic subset: its cover references
        # are part of the compared state, and its sequence bump is
        # journaled like any op.
        survivors = sorted(server.members())
        out = server.subcast(survivors[:max(1, len(survivors) // 3)],
                             b"ablate-subcast")
        cover_refs = tuple((item.enc_node_id, item.enc_version)
                           for item in out.message.items[1:])
        state = (server.group_key(), server.group_key_ref(),
                 server.tree.n_keys, tuple(survivors), cover_refs)
        return server, state, seconds

    rows = []
    for name in FEATURE_FLAGS:
        _base_server, base_state, base_s = run()
        fd, journal_path = tempfile.mkstemp(suffix=".kgj")
        os.close(fd)
        try:
            server, state, flag_s = run(journal_path=journal_path)
            replayed = persistence.restore_from_journal(journal_path)
            replay_ok = (persistence.snapshot(replayed)
                         == persistence.snapshot(server))
        finally:
            os.unlink(journal_path)
        rows.append([name, n_requests, state == base_state, replay_ok,
                     round(base_s * 1000, 1), round(flag_s * 1000, 1)])
    return TableData(
        title=(f"Ablation: feature flags vs baseline "
               f"(n={n}, d=4, group-oriented)"),
        headers=["flag", "requests", "state identical", "replay identical",
                 "baseline ms", "flagged ms"],
        rows=rows,
        notes=("Expected shape: the journal lands in exactly the "
               "baseline cryptographic state (it changes durability, "
               "never protocol bytes) and its replay is snapshot-"
               "identical; journaling adds write overhead."),
    )


def batch_saving(scale: Scale = QUICK,
                 batch_sizes: List[int] = (1, 4, 16, 64)) -> TableData:
    """Extension: encryption saving of interval batch rekeying."""
    from ..core.server import GroupKeyServer, ServerConfig
    rows = []
    for batch_size in batch_sizes:
        server = GroupKeyServer(ServerConfig(degree=4, signing="none",
                                             seed=b"ablate-batch"))
        n = scale.initial_size
        server.bootstrap([(f"u{i}", server.new_individual_key())
                          for i in range(n)])
        total_batched = 0
        total_individual = 0
        rounds = max(1, 32 // batch_size)
        for round_index in range(rounds):
            window = range(round_index * batch_size,
                           (round_index + 1) * batch_size)
            total_individual += individual_cost_estimate(
                server.n_users, 4, batch_size, batch_size)
            outcome = server.flush(
                [(f"j{i}", server.new_individual_key()) for i in window],
                [f"u{i}" for i in window])
            total_batched += outcome.record.encryptions
        rows.append([batch_size, total_batched, total_individual,
                     1 - total_batched / total_individual])
    return TableData(
        title=("Ablation (extension): interval batch rekeying saving "
               f"(n={scale.initial_size}, d=4)"),
        headers=["requests per batch (joins+leaves each)",
                 "batched encryptions", "per-request encryptions",
                 "saving"],
        rows=rows,
        notes=("Expected shape: saving grows with batch size (shared "
               "path rekeying), approaching the point where one flush "
               "rekeys the whole tree once."),
    )
