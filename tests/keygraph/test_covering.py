"""The key-covering problem (paper §2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.keygraph.covering import (CoverError, exact_cover, greedy_cover,
                                     is_cover, tree_cover)
from repro.keygraph.graph import figure1_example
from repro.keygraph.tree import KeyTree


@pytest.fixture()
def figure1_group():
    return figure1_example().secure_group()


def test_exact_cover_on_figure1(figure1_group):
    # Leave of u1: cover {u2, u3, u4} — exactly key k234.
    cover = exact_cover(figure1_group, ["u2", "u3", "u4"])
    assert cover == ["k234"]
    assert is_cover(figure1_group, cover, ["u2", "u3", "u4"])


def test_exact_cover_needs_two_keys(figure1_group):
    cover = exact_cover(figure1_group, ["u1", "u2", "u3"])
    # No single key has userset {u1,u2,u3}; minimum is 2 (e.g. k12 + k3).
    assert len(cover) == 2
    assert is_cover(figure1_group, cover, ["u1", "u2", "u3"])


def test_exact_cover_single_user(figure1_group):
    cover = exact_cover(figure1_group, ["u3"])
    assert cover == ["k3"]


def test_exact_cover_empty_target(figure1_group):
    assert exact_cover(figure1_group, []) == []
    assert greedy_cover(figure1_group, []) == []


def test_cover_unknown_user(figure1_group):
    with pytest.raises(CoverError):
        exact_cover(figure1_group, ["ghost"])
    with pytest.raises(CoverError):
        greedy_cover(figure1_group, ["ghost"])


def test_greedy_cover_is_correct_on_figure1(figure1_group):
    for target in (["u2", "u3", "u4"], ["u1", "u2"], ["u1", "u2", "u3"],
                   ["u1", "u2", "u3", "u4"]):
        cover = greedy_cover(figure1_group, target)
        assert is_cover(figure1_group, cover, target)


def test_greedy_matches_exact_size_on_figure1(figure1_group):
    for target in (["u2", "u3", "u4"], ["u1", "u2", "u3", "u4"]):
        assert len(greedy_cover(figure1_group, target)) == len(
            exact_cover(figure1_group, target))


def test_exact_cover_guard():
    # A complete-ish group over 6 users has too many admissible keys.
    from repro.keygraph.complete import CompleteGroup
    source = HmacDrbg(b"guard")
    group = CompleteGroup([f"u{i}" for i in range(6)],
                          lambda: source.generate(8)).to_key_graph()
    secure = group.secure_group()
    with pytest.raises(CoverError):
        exact_cover(secure, [f"u{i}" for i in range(5)], max_keys=10)
    # Greedy handles it: the exact subset key exists, one pick suffices.
    cover = greedy_cover(secure, [f"u{i}" for i in range(5)])
    assert len(cover) == 1


def test_no_cover_exists():
    # Group where u1 shares every key with u2: {u1} alone is uncoverable.
    from repro.keygraph.graph import KeyGraph
    graph = KeyGraph()
    graph.add_u_node("u1")
    graph.add_u_node("u2")
    graph.add_k_node("k12")
    graph.add_edge("u1", "k12")
    graph.add_edge("u2", "k12")
    secure = graph.secure_group()
    with pytest.raises(CoverError):
        exact_cover(secure, ["u1"])
    with pytest.raises(CoverError):
        greedy_cover(secure, ["u1"])


def sample_tree(n, degree, seed=b"cover-tree"):
    source = HmacDrbg(seed)
    keygen = lambda: source.generate(8)
    return KeyTree.build([(f"u{i}", keygen()) for i in range(n)],
                         degree, keygen)


def test_tree_cover_structure():
    tree = sample_tree(27, 3)
    cover = tree_cover(tree, "u0")
    users_covered = set()
    for node in cover:
        users_covered.update(tree.userset(node))
    assert users_covered == set(tree.users()) - {"u0"}
    # Bound: at most (d-1)(h-1) nodes.
    assert len(cover) <= (3 - 1) * (tree.height() - 1)


def test_tree_cover_is_disjoint():
    tree = sample_tree(16, 4)
    cover = tree_cover(tree, "u7")
    seen = set()
    for node in cover:
        users = set(tree.userset(node))
        assert not (users & seen)  # tree covers never overlap
        seen |= users


@given(n=st.integers(min_value=2, max_value=30),
       degree=st.integers(min_value=2, max_value=4),
       victim=st.integers(min_value=0, max_value=29))
@settings(max_examples=25, deadline=None)
def test_tree_cover_property(n, degree, victim):
    victim %= n
    tree = sample_tree(n, degree)
    cover = tree_cover(tree, f"u{victim}")
    covered = set()
    for node in cover:
        covered.update(tree.userset(node))
    assert covered == set(tree.users()) - {f"u{victim}"}


def test_tree_cover_matches_exact_minimum_small():
    tree = sample_tree(9, 3)
    group = tree.to_key_graph().secure_group()
    target = set(tree.users()) - {"u4"}
    structural = tree_cover(tree, "u4")
    exact = exact_cover(group, target)
    assert len(structural) == len(exact)


# -- the NP-hardness reduction (set cover -> key cover) -------------------------


def test_set_cover_reduction_preserves_optima():
    from repro.keygraph.covering import group_from_set_cover
    # Universe {1..6}; optimal set cover is 2 ({1,2,3} + {4,5,6}).
    group = group_from_set_cover(
        [1, 2, 3, 4, 5, 6],
        [[1, 2, 3], [4, 5, 6], [1, 4], [2, 5], [3, 6], [1]])
    target = [f"e{i}" for i in range(1, 7)]
    optimal = exact_cover(group, target)
    assert len(optimal) == 2
    assert set(optimal) == {"S0", "S1"}
    # Greedy achieves the ln(n) bound here too (it happens to be optimal).
    assert len(greedy_cover(group, target)) == 2


def test_set_cover_reduction_greedy_can_be_suboptimal():
    from repro.keygraph.covering import group_from_set_cover
    # The classic greedy trap: optimal 2 disjoint sets vs a tempting big
    # one. universe {1..6}: optimal = {1,3,5},{2,4,6}; greedy grabs
    # {1,2,3,4} first and needs 3.
    group = group_from_set_cover(
        [1, 2, 3, 4, 5, 6],
        [[1, 3, 5], [2, 4, 6], [1, 2, 3, 4], [5], [6]])
    target = [f"e{i}" for i in range(1, 7)]
    assert len(exact_cover(group, target)) == 2
    greedy = greedy_cover(group, target)
    assert is_cover(group, greedy, target)
    assert len(greedy) == 3  # the approximation gap, demonstrated


def test_set_cover_reduction_validation():
    from repro.keygraph.covering import group_from_set_cover
    with pytest.raises(CoverError):
        group_from_set_cover([], [])
    with pytest.raises(CoverError):
        group_from_set_cover([1], [[2]])
