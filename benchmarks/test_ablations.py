"""Ablation benches: §1 star-vs-tree, §6 Iolus, §7 hybrid, batch extension."""

from conftest import BENCH_SCALE, populated_server

from repro.batch import individual_cost_estimate
from repro.core.messages import DEST_ALL
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.experiments import ablations
from repro.iolus import IolusSystem


def test_star_vs_tree(benchmark):
    table = benchmark.pedantic(ablations.star_vs_tree, args=(BENCH_SCALE,),
                               rounds=1, iterations=1)
    ratios = [row[3] for row in table.rows]
    assert ratios == sorted(ratios) and ratios[-1] > ratios[0] * 3
    print()
    print(table.format())


def test_iolus_membership_round(benchmark):
    system = IolusSystem(agent_fanout=4, agent_levels=2, seed=b"bench")
    for i in range(64):
        system.join(f"c{i}")
    counter = [0]

    def round_trip():
        counter[0] += 1
        system.leave(f"c{counter[0] % 64}")
        system.join(f"c{counter[0] % 64}")

    benchmark(round_trip)


def test_iolus_data_message(benchmark):
    system = IolusSystem(agent_fanout=4, agent_levels=2, seed=b"bench")
    for i in range(64):
        system.join(f"c{i}")
    record, received = benchmark(system.multicast, "c0", b"payload")
    assert len(received) == 64
    benchmark.extra_info["crypto_ops"] = record.crypto_ops


def test_lkh_data_message(benchmark):
    server = populated_server(n=64)
    outbound = benchmark(server.seal_group_message, b"payload")
    assert outbound.destination.kind == DEST_ALL
    benchmark.extra_info["crypto_ops"] = 1  # one group-key encryption


def test_iolus_comparison_table(benchmark):
    table = benchmark.pedantic(ablations.iolus_comparison,
                               args=(BENCH_SCALE,), rounds=1, iterations=1)
    for row in table.rows:
        assert row[3] < row[7]   # Iolus membership < LKH membership
        assert row[8] < row[4]   # LKH data < Iolus data
    print()
    print(table.format())


def test_hybrid_tradeoff(benchmark):
    table = benchmark.pedantic(ablations.hybrid_tradeoff,
                               args=(BENCH_SCALE,), rounds=1, iterations=1)
    rows = {row[0]: row for row in table.rows}
    assert rows["group"][1] <= rows["hybrid"][1] <= rows["key"][1]
    assert rows["hybrid"][2] < rows["group"][2]
    print()
    print(table.format())


def test_batch_flush(benchmark):
    server = GroupKeyServer(ServerConfig(degree=4, suite=PAPER_SUITE_NO_SIG,
                                         signing="none",
                                         seed=b"bench-batch"))
    server.bootstrap([(f"u{i}", server.new_individual_key())
                      for i in range(256)])
    state = {"next": 0}

    def batch_round():
        # Leave the 8 oldest members, admit 8 fresh ones, flush once.
        joins = []
        for _ in range(8):
            state["next"] += 1
            joins.append((f"fresh{state['next']}",
                          server.new_individual_key()))
        return server.flush(joins, server.tree.users()[:8])

    outcome = benchmark(batch_round)
    assert outcome.record.encryptions \
        < individual_cost_estimate(server.n_users, 4, 8, 8)


def test_batch_saving_table(benchmark):
    table = benchmark.pedantic(ablations.batch_saving, args=(BENCH_SCALE,),
                               rounds=1, iterations=1)
    savings = [row[3] for row in table.rows]
    assert savings[-1] > savings[0]
    print()
    print(table.format())
