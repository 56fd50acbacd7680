"""Rekeying strategies against the paper's Figure 5 worked example.

The tree: root k1-8 over subgroups k123 = {u1,u2,u3}, k456 = {u4,u5,u6},
k78 = {u7,u8}; u9 joins (joining point k78) and later leaves (leaving
point k789).  Message counts, destinations and encryption costs are
checked against the exact numbers in §3.3 and §3.4.
"""

import pytest

from repro.core.messages import DEST_ALL, DEST_SUBGROUP, DEST_USER
from repro.core.strategies import (GroupOrientedStrategy, HybridStrategy,
                                   KeyOrientedStrategy, RekeyContext,
                                   UserOrientedStrategy)
from repro.core.strategies.base import subtree_receivers
from repro.crypto.drbg import HmacDrbg
from repro.crypto.suite import PAPER_SUITE
from repro.keygraph.backend import build_tree
from repro.keygraph.tree import KeyTree


def figure5_tree(seed=b"fig5"):
    source = HmacDrbg(seed)
    keygen = lambda: source.generate(8)
    tree = KeyTree.build([(f"u{i}", keygen()) for i in range(1, 9)], 3,
                         keygen)
    return tree, keygen


def make_ctx(seed=b"fig5-ivs"):
    source = HmacDrbg(seed)
    return RekeyContext(PAPER_SUITE, lambda: source.generate(8))


def run_join(strategy):
    tree, keygen = figure5_tree()
    ctx = make_ctx()
    result = tree.join("u9", keygen())
    assert result.split_leaf is None  # k78 had room: the paper's case
    plans = strategy.rekey_join(tree, result, ctx)
    for plan in plans:
        plan = plan  # receivers resolved lazily below
    return tree, result, ctx, plans


def run_leave(strategy):
    tree, keygen = figure5_tree()
    ctx0 = make_ctx()
    join_result = tree.join("u9", keygen())
    result = tree.leave("u9")
    ctx = make_ctx(b"leave-ivs")
    plans = strategy.rekey_leave(tree, result, ctx)
    return tree, result, ctx, plans


def receivers_of(plans):
    return [tuple(sorted(plan.resolve_receivers())) for plan in plans]


ALL_USERS = tuple(f"u{i}" for i in range(1, 9))


class TestUserOrientedJoin:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_join(UserOrientedStrategy())
        # §3.3: h = 3 -> 3 rekey messages; cost h(h+1)/2 - 1 = 5.
        assert len(plans) == 3
        assert ctx.encryptions == 5
        audiences = receivers_of(plans)
        assert ("u1", "u2", "u3", "u4", "u5", "u6") in audiences
        assert ("u7", "u8") in audiences
        assert ("u9",) in audiences

    def test_each_message_is_single_bundle(self):
        _tree, _result, _ctx, plans = run_join(UserOrientedStrategy())
        for plan in plans:
            assert len(plan.items) == 1  # precisely-what-you-need bundle


class TestUserOrientedLeave:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_leave(UserOrientedStrategy())
        # §3.4: (d-1)(h-1) = 4 messages; cost (d-1)h(h-1)/2 = 6.
        assert len(plans) == 4
        assert ctx.encryptions == 6
        audiences = receivers_of(plans)
        assert ("u1", "u2", "u3") in audiences
        assert ("u4", "u5", "u6") in audiences
        assert ("u7",) in audiences
        assert ("u8",) in audiences


class TestKeyOrientedJoin:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_join(KeyOrientedStrategy())
        # Figure 6: 3 combined messages, cost 2(h-1) = 4.
        assert len(plans) == 3
        assert ctx.encryptions == 4
        by_audience = {tuple(sorted(plan.resolve_receivers())): plan
                       for plan in plans}
        # u1..u6 need one item ({k1-9}_{k1-8}); u7,u8 need two.
        assert len(by_audience[("u1", "u2", "u3", "u4", "u5", "u6")].items) == 1
        assert len(by_audience[("u7", "u8")].items) == 2
        assert len(by_audience[("u9",)].items) == 1  # one bundle

    def test_items_shared_not_reencrypted(self):
        _tree, _result, _ctx, plans = run_join(KeyOrientedStrategy())
        by_size = sorted(plans, key=lambda plan: len(plan.items))
        # The {K'_0}_{K_0} item object is literally shared between messages.
        group_item = by_size[-1].items[0]
        assert any(plan.items[0] is group_item for plan in plans
                   if plan is not by_size[-1])


class TestKeyOrientedLeave:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_leave(KeyOrientedStrategy())
        # Figure 8: 4 messages; cost ~d(h-1): here (d-1)(h-1)+(h-2) = 5.
        assert len(plans) == 4
        assert 5 <= ctx.encryptions <= 6
        audiences = receivers_of(plans)
        assert ("u1", "u2", "u3") in audiences
        assert ("u7",) in audiences and ("u8",) in audiences
        # u7's message: {k78}_{k7} then {k1-8}_{k78} — the §3.4 chain.
        for plan in plans:
            if plan.resolve_receivers() == ("u7",):
                assert len(plan.items) == 2


class TestGroupOrientedJoin:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_join(GroupOrientedStrategy())
        # Figure 7: one multicast + one unicast; cost 2(h-1) = 4.
        assert len(plans) == 2
        assert ctx.encryptions == 4
        kinds = [plan.destination.kind for plan in plans]
        assert kinds.count(DEST_ALL) == 1
        assert kinds.count(DEST_USER) == 1
        multicast = next(plan for plan in plans
                         if plan.destination.kind == DEST_ALL)
        assert tuple(sorted(multicast.resolve_receivers())) == ALL_USERS
        assert len(multicast.items) == 2  # {k1-9}_{k1-8}, {k789}_{k78}


class TestGroupOrientedLeave:
    def test_matches_paper(self):
        tree, result, ctx, plans = run_leave(GroupOrientedStrategy())
        # Figure 9: a single multicast; cost d(h-1) ~ 5 here.
        assert len(plans) == 1
        assert plans[0].destination.kind == DEST_ALL
        assert tuple(sorted(plans[0].resolve_receivers())) == ALL_USERS
        # L_0 has 3 items (k123, k456, k78 children), L_1 has 2 (k7, k8).
        assert len(plans[0].items) == 5
        assert ctx.encryptions == 5


class TestHybrid:
    def test_join_uses_subgroup_addresses(self):
        tree, result, ctx, plans = run_join(HybridStrategy())
        kinds = [plan.destination.kind for plan in plans]
        # One message per root child + unicast to joiner.
        assert kinds.count(DEST_SUBGROUP) == 3
        assert kinds.count(DEST_USER) == 1
        # Same encryption cost as key/group-oriented.
        assert ctx.encryptions == 4

    def test_leave_item_partition(self):
        tree, result, ctx, plans = run_leave(HybridStrategy())
        # Only subgroup multicasts; every user reachable exactly once.
        seen = []
        for plan in plans:
            assert plan.destination.kind == DEST_SUBGROUP
            seen.extend(plan.resolve_receivers())
        assert sorted(seen) == sorted(ALL_USERS)
        # Total items across messages equal group-oriented's single message.
        assert sum(len(plan.items) for plan in plans) == 5

    def test_hybrid_message_count_bounded_by_degree(self):
        tree, result, ctx, plans = run_leave(HybridStrategy())
        assert len(plans) <= 3  # d = 3 multicast addresses


class TestSplitJoin:
    """Joins into a full tree split a leaf — not in the paper's example,
    but required by the heuristic; all strategies must stay correct."""

    @pytest.mark.parametrize("strategy_cls", [
        UserOrientedStrategy, KeyOrientedStrategy, GroupOrientedStrategy,
        HybridStrategy])
    def test_split_join_covers_displaced_user(self, strategy_cls):
        source = HmacDrbg(b"split")
        keygen = lambda: source.generate(8)
        tree = KeyTree.build([(f"u{i}", keygen()) for i in range(9)], 3,
                             keygen)  # perfect 3-ary: full
        ctx = make_ctx(b"split-ivs")
        result = tree.join("u9", keygen())
        assert result.split_leaf is not None
        displaced = result.split_leaf.user_id
        plans = strategy_cls().rekey_join(tree, result, ctx)
        # The displaced user must be addressed by some message whose items
        # include one encrypted under its individual (leaf) key.
        covered = False
        for plan in plans:
            if displaced in plan.resolve_receivers():
                for item in plan.items:
                    if item.enc_node_id == result.split_leaf.node_id:
                        covered = True
        assert covered


class TestSubtreeReceivers:
    """The resolver drops the excluded user with ``list.remove``; it must
    return exactly what a per-member filter over ``userset`` returned,
    order included, without touching the tree."""

    @pytest.mark.parametrize("backend", ["object", "flat"])
    def test_matches_per_member_filter(self, backend):
        source = HmacDrbg(b"receivers-" + backend.encode())
        keygen = lambda: source.generate(8)
        tree = build_tree(backend, [(f"u{i}", keygen()) for i in range(40)],
                          4, keygen)
        tree.join("joiner", keygen())
        users_before = list(tree.users())
        root = tree.group_key_node()
        nodes = [root] + [node for node in tree.nodes() if node != root]
        for node in nodes:
            below = tree.userset(node)
            present = below[len(below) // 2]
            absent = next(u for u in users_before if u not in below) \
                if len(below) < len(users_before) else "nobody"
            for exclude in ("joiner", present, absent, "nobody", None):
                old = tuple(u for u in tree.userset(node) if u != exclude)
                resolve = subtree_receivers(tree, node, exclude=exclude)
                assert resolve() == old
                assert resolve() == old          # resolving twice: same tuple
                assert tree.userset(node) == below
        assert list(tree.users()) == users_before
        tree.validate()
