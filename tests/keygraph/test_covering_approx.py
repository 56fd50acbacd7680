"""Property tests for the approximation covers (PR 9).

Three families of invariants:

* every covering algorithm returns a *valid exact* cover (union equals
  the target, nothing outside it) whenever one exists;
* at small instance sizes the sizes nest: ``len(exact) <= len(greedy)``
  and greedy respects the classic ``H_k`` approximation bound;
* on key trees the structural cover agrees with the reference — the
  flat array walk returns the identical (node id, version) cover
  ``greedy_tree_cover`` picks on a lockstep ``KeyTree``, and
  ``tree_cover`` is exactly ``complement_cover({user})``.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.drbg import HmacDrbg
from repro.keygraph.covering import (complement_cover, exact_cover,
                                     greedy_cover, greedy_tree_cover,
                                     group_from_set_cover, is_cover,
                                     partition_cover, tree_cover,
                                     tree_subset_cover)
from repro.keygraph.flat import FlatKeyTree
from repro.keygraph.tree import KeyTree


def make_keygen(seed):
    source = HmacDrbg(seed)
    return lambda: source.generate(8)


# -- random set-cover instances ------------------------------------------------


@st.composite
def cover_instances(draw):
    """A small universe, random candidate subsets, a random target."""
    n = draw(st.integers(min_value=2, max_value=8))
    universe = list(range(n))
    n_subsets = draw(st.integers(min_value=1, max_value=5))
    subsets = [draw(st.lists(st.sampled_from(universe), min_size=1,
                             max_size=n, unique=True))
               for _ in range(n_subsets)]
    target_elements = draw(st.lists(st.sampled_from(universe), min_size=1,
                                    max_size=n, unique=True))
    return universe, subsets, [f"e{e}" for e in target_elements]


@settings(max_examples=120, deadline=None)
@given(cover_instances())
def test_all_algorithms_return_valid_exact_covers(instance):
    universe, subsets, target = instance
    group = group_from_set_cover(universe, subsets)
    # Individual keys guarantee an exact cover always exists.
    exact = exact_cover(group, target)
    greedy = greedy_cover(group, target)
    approx = partition_cover(group, target)
    for cover in (exact, greedy, approx):
        assert is_cover(group, cover, target)


@settings(max_examples=120, deadline=None)
@given(cover_instances())
def test_cover_sizes_nest_within_the_greedy_bound(instance):
    universe, subsets, target = instance
    group = group_from_set_cover(universe, subsets)
    exact = exact_cover(group, target)
    greedy = greedy_cover(group, target)
    approx = partition_cover(group, target)
    assert len(exact) <= len(greedy)
    assert len(exact) <= len(approx)
    # Classic greedy set-cover guarantee: H_k-approximate, where k is
    # the largest admissible userset.
    k = max((len(group.userset(key)) for key in group.keys
             if group.userset(key) and
             set(group.userset(key)) <= set(target)), default=1)
    h_k = sum(1.0 / i for i in range(1, k + 1))
    assert len(greedy) <= math.ceil(len(exact) * h_k) + 1e-9


@settings(max_examples=60, deadline=None)
@given(cover_instances())
def test_partition_cover_is_minimum_on_laminar_instances(instance):
    universe, subsets, target = instance
    # Laminarize: nested prefixes of the universe only.
    laminar = [universe[:length]
               for length in range(1, len(universe) + 1)]
    group = group_from_set_cover(universe, laminar)
    exact = exact_cover(group, target)
    approx = partition_cover(group, target)
    assert is_cover(group, approx, target)
    assert len(approx) == len(exact)


# -- tree covers: FlatKeyTree against the KeyTree reference -------------------


def lockstep_trees(n, degree, seed):
    members = [(f"u{index:03d}", bytes([index % 251]) * 8)
               for index in range(n)]
    obj = KeyTree.build(members, degree, make_keygen(seed))
    flat = FlatKeyTree.build(members, degree, make_keygen(seed))
    return obj, flat, [name for name, _key in members]


def refs(cover):
    return [(node.node_id, node.version) for node in cover]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=2, max_value=5),
       st.randoms(use_true_random=False))
def test_flat_and_object_subset_covers_are_identical(n, degree, rng):
    obj, flat, users = lockstep_trees(n, degree, b"approx-eq")
    subset = rng.sample(users, rng.randint(1, n))
    cover_obj = greedy_tree_cover(obj, subset)
    cover_flat = tree_subset_cover(flat, subset)
    assert refs(cover_obj) == refs(cover_flat)
    covered = [user for node in cover_flat for user in flat.userset(node)]
    assert sorted(covered) == sorted(subset)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=2, max_value=5),
       st.randoms(use_true_random=False))
def test_greedy_tree_cover_matches_structural_cover(n, degree, rng):
    obj, flat, users = lockstep_trees(n, degree, b"approx-greedy")
    subset = rng.sample(users, rng.randint(1, n))
    structural = refs(tree_subset_cover(flat, subset))
    for tree in (obj, flat):
        assert refs(greedy_tree_cover(tree, subset)) == structural


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=2, max_value=5),
       st.randoms(use_true_random=False))
def test_tree_cover_is_single_exclusion_complement_cover(n, degree, rng):
    obj, flat, users = lockstep_trees(n, degree, b"approx-compl")
    victim = rng.choice(users)
    for tree in (obj, flat):
        single = tree_cover(tree, victim)
        compl = complement_cover(tree, [victim])
        assert sorted(refs(single)) == sorted(refs(compl))
    if n > 1:
        excluded = rng.sample(users, rng.randint(1, n - 1))
        for tree in (obj, flat):
            cover = complement_cover(tree, excluded)
            covered = [user for node in cover
                       for user in tree.userset(node)]
            assert sorted(covered) == sorted(set(users) - set(excluded))


def test_complement_cover_edge_cases():
    obj, flat, users = lockstep_trees(9, 3, b"approx-edge")
    for tree in (obj, flat):
        # Excluding nobody: the group key alone.
        assert refs(complement_cover(tree, [])) == \
            [(tree.group_key_node().node_id,
              tree.group_key_node().version)]
        # Excluding everybody: the empty cover.
        assert complement_cover(tree, users) == []


# -- cover size at scale: structural against greedy, per subset shape ---------


def _subset_of_shape(shape, users, size, rng):
    if shape == "random":
        return rng.sample(users, size)
    if shape == "clustered":
        # Contiguous member windows: whole subtrees are selected.
        width = size // 4
        picked = set()
        for _ in range(4):
            start = rng.randrange(len(users) - width + 1)
            picked.update(users[start:start + width])
        return sorted(picked)
    # Every other leaf: no internal node is ever fully selected.
    return users[rng.randrange(2)::2][:size]


def test_structural_cover_within_twice_greedy_on_4096_members():
    users = [f"m{index:05d}" for index in range(4096)]
    tree = FlatKeyTree.build([(user, bytes(8)) for user in users], 4,
                             make_keygen(b"cover-4096"))
    rng = random.Random(0x90441)
    for shape in ("random", "clustered", "adversarial"):
        subset = _subset_of_shape(shape, users, 512, rng)
        structural = tree_subset_cover(tree, subset)
        greedy = greedy_tree_cover(tree, subset)
        assert len(structural) <= 2.0 * len(greedy), shape
        covered = [user for node in structural
                   for user in tree.userset(node)]
        assert sorted(covered) == sorted(subset), shape
