"""Micro-benchmarks of key-tree operations on the served FlatKeyTree."""

import pytest

from repro.crypto.drbg import HmacDrbg
from repro.keygraph.flat import FlatKeyTree


def sample_tree(n, degree=4):
    source = HmacDrbg(b"bench-tree")
    keygen = lambda: source.generate(8)
    return FlatKeyTree.build([(f"u{i}", keygen()) for i in range(n)],
                             degree, keygen), keygen


@pytest.mark.parametrize("n", [256, 4096])
def test_tree_build(benchmark, n):
    source = HmacDrbg(b"bench-build")
    keygen = lambda: source.generate(8)
    members = [(f"u{i}", keygen()) for i in range(n)]
    tree = benchmark(FlatKeyTree.build, members, 4, keygen)
    assert tree.n_users == n


@pytest.mark.parametrize("n", [256, 4096])
def test_tree_join_leave_round(benchmark, n):
    tree, keygen = sample_tree(n)
    counter = [0]

    def round_trip():
        counter[0] += 1
        user = f"x{counter[0]}"
        tree.join(user, keygen())
        tree.leave(user)

    benchmark(round_trip)
    assert tree.n_users == n


def test_tree_userset_root(benchmark, n=4096):
    tree, _keygen = sample_tree(n)
    users = benchmark(tree.userset, tree.root)
    assert len(users) == n


def test_tree_user_key_path(benchmark, n=4096):
    tree, _keygen = sample_tree(n)
    path = benchmark(tree.user_key_path, "u100")
    assert path[-1] == tree.root
