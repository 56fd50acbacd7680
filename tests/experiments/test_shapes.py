"""Every table/figure regenerates, and the paper's *shapes* hold.

Absolute times cannot match 1998 hardware; these tests pin down the
qualitative claims instead: orderings, optima, growth laws, ratios.
A smaller-than-QUICK scale keeps the suite fast.
"""

import math

import pytest

from repro.experiments import (ablations, fig10, fig11, fig12, table1,
                               table2, table3, table4, table5, table6)
from repro.experiments.common import Scale

TINY = Scale(name="tiny", initial_size=128, n_requests=40,
             group_sizes=(32, 256, 1024), degrees=(2, 4, 16),
             n_sequences=1)


@pytest.fixture(scope="module")
def t4():
    return table4.run(TINY)


@pytest.fixture(scope="module")
def t5():
    return table5.run(TINY)


@pytest.fixture(scope="module")
def t6():
    return table6.run(TINY)


@pytest.fixture(scope="module")
def f10():
    return fig10.run(TINY)


@pytest.fixture(scope="module")
def f11():
    return fig11.run(TINY)


class TestTable1:
    def test_counts_match_analytics(self):
        table = table1.run(TINY)
        star, tree, complete = table.rows
        assert star[2] == 82
        assert star[4] == 2              # individual key + group key
        assert tree[2] == 121            # 81 + 27 + 9 + 3 + 1
        assert tree[4] == 5              # h keys per user
        assert complete[2] == 255
        assert complete[4] == 128
        assert table.format()             # renders without error


class TestTable2:
    def test_measured_near_analytic(self):
        table = table2.run(TINY)
        rows = {row[0]: row for row in table.rows}
        # Star leave: measured ~ n - 1.
        analytic = float(rows["server leave"][1].split("= ")[1])
        assert rows["server leave"][2] == pytest.approx(analytic, rel=0.15)
        # Tree join: 2(h-1) within the heuristic tree's wobble.
        tree_join_analytic = float(rows["server join"][3].split("= ")[1])
        assert rows["server join"][4] == pytest.approx(tree_join_analytic,
                                                       rel=0.35)
        # Tree join and leave within a level of the closed forms:
        # 2(h-2) <= join <= 2h and (d-1)(h-2) <= leave <= dh.
        degree = 4
        height = float(rows["server leave"][3].split("= ")[1]) / degree + 1
        assert 2 * (height - 2) <= rows["server join"][4] <= 2 * height
        assert ((degree - 1) * (height - 2) <= rows["server leave"][4]
                <= degree * height)
        # Non-requesting user cost ~ d/(d-1) for the tree, ~1 for star.
        assert rows["non-req. user (avg)"][2] == pytest.approx(1.0, rel=0.1)
        assert rows["non-req. user (avg)"][4] == pytest.approx(4 / 3,
                                                               rel=0.35)


class TestTable3:
    def test_tree_beats_star_and_degree4_optimal(self):
        table = table3.run(TINY)
        server_row = table.rows[0]
        star_measured, tree_measured = server_row[2], server_row[4]
        assert tree_measured < star_measured / 5
        assert "d = 4" in table.notes
        # A non-requesting user changes ~1 key (star), ~d/(d-1) (tree).
        user_row = table.rows[1]
        assert user_row[2] < 1.4
        assert 1.0 < user_row[4] < 2.0


class TestTable4:
    def test_merkle_speedup_paper_config(self, t4):
        """RSA-512 (the paper's config): direction holds, though pure
        Python compresses the ratio — an RSA-512 signature costs ~7
        fresh-key rekey-item encryptions here against ~100 for 1998 C
        (see table4.run's docstring).  This is a ratio of wall times, so
        a run that shared its cores can miss the threshold: a miss is
        measured once more and the better ratio per strategy counts."""
        first = ratios = table4.speedup(t4)
        if min(first["user"], first["key"]) <= 1.4:
            again = table4.speedup(table4.run(TINY))
            ratios = {name: max(ratio, again[name])
                      for name, ratio in first.items()}
        assert ratios["user"] > 1.4
        assert ratios["key"] > 1.4
        # Group-oriented: one message either way -> no real change.
        assert 0.5 < first["group"] < 2.0

    def test_merkle_speedup_paper_cost_ratio(self):
        """With the paper's signature/encryption cost *ratio* restored
        (RSA-2048 here is ~100x a rekey-item encryption, like RSA-512 vs
        C DES in 1998), the ~10x speedup reappears."""
        tiny = Scale(name="t4", initial_size=128, n_requests=16,
                     group_sizes=(), degrees=(), n_sequences=1)
        table = table4.run(tiny, signature_bits=2048)
        ratios = table4.speedup(table)
        assert ratios["user"] > 4.0
        assert ratios["key"] > 4.0
        assert 0.5 < ratios["group"] < 2.0

    def test_merkle_adds_modest_size(self, t4):
        for row in t4.rows:
            strategy = row[0]
            per_message_join, merkle_join = row[1], row[6]
            per_message_leave, merkle_leave = row[2], row[7]
            if strategy == "group":
                # Leave: a single rekey message, so its certificate has
                # no sibling: against the per-message trailer it drops
                # the 16-byte digest and the 2-byte signature length for
                # 1-byte varints of signature length, leaf index and
                # leaf count and a sibling-size byte — 14 bytes fewer.
                # (Join has two messages — multicast plus the joiner
                # unicast — so one 16-byte sibling digest appears.)
                assert merkle_leave == pytest.approx(per_message_leave - 14,
                                                     abs=1)
                assert merkle_join < per_message_join + 40
            else:
                assert merkle_join > per_message_join          # certificate
                assert merkle_join < per_message_join + 150    # but small


class TestTable5:
    def test_message_counts(self, t5):
        for row in t5.rows:
            degree, strategy = row[0], row[1]
            join_msgs_ave, leave_msgs_ave = row[8], row[11]
            if strategy == "group":
                assert join_msgs_ave == pytest.approx(2.0, abs=0.1)
                assert leave_msgs_ave == pytest.approx(1.0, abs=0.01)
            else:
                # h messages per join, ~(d-1)(h-1) per leave.
                assert join_msgs_ave > 2
                assert leave_msgs_ave > join_msgs_ave
                assert leave_msgs_ave > degree

    def test_group_leave_size_grows_with_degree(self, t5):
        leave_sizes = {row[0]: row[5] for row in t5.rows
                       if row[1] == "group"}
        degrees = sorted(leave_sizes)
        assert leave_sizes[degrees[-1]] > leave_sizes[degrees[0]]

    def test_group_total_bytes_least(self, t5):
        # The paper: "the total number of bytes per join/leave transmitted
        # by the server is much higher in key- and user-oriented".
        by_strategy = {}
        for row in t5.rows:
            degree, strategy = row[0], row[1]
            leave_total = row[5] * row[11]  # size ave x msgs ave
            by_strategy.setdefault(strategy, []).append(leave_total)
        for i in range(len(by_strategy["group"])):
            assert by_strategy["group"][i] < by_strategy["key"][i]
            assert by_strategy["group"][i] < by_strategy["user"][i]


class TestTable6:
    def test_one_message_per_client_per_request(self, t6):
        for row in t6.rows:
            assert row[4] == pytest.approx(1.0, abs=0.15)

    def test_client_side_ordering_reverses_server_side(self, t6):
        """user < key < group received sizes (paper's Table 6)."""
        for degree in {row[0] for row in t6.rows}:
            sizes = {row[1]: (row[2], row[3]) for row in t6.rows
                     if row[0] == degree}
            assert sizes["user"][0] < sizes["key"][0] < sizes["group"][0]
            assert sizes["user"][1] < sizes["key"][1] < sizes["group"][1]

    def test_group_leave_size_grows_with_degree(self, t6):
        group_rows = {row[0]: row[3] for row in t6.rows
                      if row[1] == "group"}
        degrees = sorted(group_rows)
        assert group_rows[degrees[-1]] > group_rows[degrees[0]] * 1.5


class TestFigure10:
    def test_sublinear_growth(self, f10):
        """Processing time grows like log(n), nowhere near linearly."""
        for (protection, strategy), points in fig10.series(f10).items():
            points = sorted(points)
            (n0, t0), (n1, t1) = points[0], points[-1]
            size_ratio = n1 / n0        # 32x
            time_ratio = t1 / t0
            # Log growth: time ratio ~ log(n1)/log(n0) ~ 2; certainly
            # far below the size ratio.
            assert time_ratio < size_ratio / 4, (protection, strategy)

    def test_signing_costs_more(self, f10):
        series = fig10.series(f10)
        for strategy in ("user", "key", "group"):
            enc_only = dict(series[("encryption-only", strategy)])
            signed = dict(series[("encryption+digest+signature", strategy)])
            for size, enc_ms in enc_only.items():
                assert signed[size] > enc_ms

    def test_group_oriented_fastest_at_scale(self, f10):
        series = fig10.series(f10)
        largest = max(TINY.group_sizes)
        for protection in ("encryption-only", "encryption+digest+signature"):
            by_strategy = {s: dict(series[(protection, s)])[largest]
                           for s in ("user", "key", "group")}
            assert by_strategy["group"] <= by_strategy["user"]


class TestFigure11:
    def test_degree4_minimizes_encryptions(self, f11):
        for strategy, points in fig11.encryption_series(f11).items():
            by_degree = dict(points)
            assert by_degree[4] < by_degree[2]
            assert by_degree[4] < by_degree[16]

    def test_server_side_strategy_ranking(self, f11):
        """group <= key <= user on mean encryption work per request."""
        rows = [row for row in f11.rows if row[0] == "encryption-only"]
        for degree in {row[2] for row in rows}:
            cost = {row[1]: (row[4] + row[5]) for row in rows
                    if row[2] == degree}
            assert cost["group"] <= cost["key"] <= cost["user"]


class TestFigure12:
    def test_near_analytic_bound(self):
        table = fig12.run(TINY)
        by_degree = fig12.degree_series(table)
        for degree, measured, bound in by_degree:
            assert measured == pytest.approx(bound, rel=0.4), degree
            assert abs(measured - bound) < 0.45, degree
        # Falls toward 1 as the degree grows, as d/(d-1) does.
        values = [measured for _degree, measured, _bound in by_degree]
        assert values == sorted(values, reverse=True)
        sizes = fig12.size_series(table)
        values = [measured for _size, measured, _bound in sizes]
        # Flat in group size: spread stays tight.
        assert max(values) - min(values) < 0.6
        # And nowhere near log(n) growth.
        assert max(values) < 2.5


class TestAblations:
    def test_star_vs_tree(self):
        table = ablations.star_vs_tree(TINY)
        ratios = [row[3] for row in table.rows]
        assert ratios == sorted(ratios)          # grows with n
        assert ratios[-1] > ratios[0] * 3

    def test_iolus(self):
        table = ablations.iolus_comparison(TINY)
        for row in table.rows:
            (_, _, iolus_trusted, iolus_membership, iolus_data, _,
             lkh_trusted, lkh_membership, lkh_data, _) = row
            assert iolus_membership < lkh_membership   # Iolus join/leave win
            assert lkh_data < iolus_data               # LKH data win
            assert lkh_trusted == 1 and iolus_trusted > 1

    def test_hybrid(self):
        table = ablations.hybrid_tradeoff(TINY)
        rows = {row[0]: row for row in table.rows}
        # Server messages: group (1) < hybrid (<= d) < key.
        assert rows["group"][1] <= rows["hybrid"][1] <= rows["key"][1]
        assert rows["hybrid"][1] <= 4
        # Client bytes: hybrid below group-oriented.
        assert rows["hybrid"][2] < rows["group"][2]

    def test_batch(self):
        table = ablations.batch_saving(TINY, batch_sizes=(1, 8, 32))
        savings = [row[3] for row in table.rows]
        assert savings[-1] > savings[0]
        assert savings[-1] > 0.5


class TestNewAblations:
    def test_client_side_work(self):
        table = ablations.client_side_work(TINY)
        rows = {row[0]: row for row in table.rows}
        # Received bytes and client processing rank user < key <= group.
        assert rows["user"][1] < rows["key"][1] < rows["group"][1]
        assert rows["user"][2] <= rows["group"][2]
        for row in table.rows:
            assert row[4] == pytest.approx(4 / 3, rel=0.35)

    def test_tree_drift(self):
        table = ablations.tree_drift(TINY, n_operations=300, checkpoints=3)
        for row in table.rows:
            assert row[4] <= 1        # height slack
            assert row[5] > 0.5       # interior fill

    def test_multicast_addresses(self):
        table = ablations.multicast_addresses(TINY, pool_limit=4)
        rows = {row[0]: row for row in table.rows}
        assert rows["group"][2] == 0           # no subgroup addresses
        assert rows["hybrid"][2] <= 4          # fits the pool
        assert rows["hybrid"][3] == 0          # no fallbacks
        assert rows["user"][2] > 4             # wants far more
        assert rows["user"][3] > 0             # so it degrades
        # Network copies: group < hybrid << user/key under scarcity.
        assert rows["group"][4] < rows["hybrid"][4] < rows["user"][4]
