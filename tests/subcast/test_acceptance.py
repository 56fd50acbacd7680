"""PR 9 acceptance invariant at a moderate scale.

A sealed subcast to a random subset of a few-thousand-member flat
group decrypts for every target and for no one else.  The full
million-member run lives in ``experiments/subcast_scale.py``; this is
the same invariant kept fast enough for the tier-1 suite by checking
every target plus a random sample of non-targets.
"""

import random

import pytest

from repro.core.client import GroupClient, SubcastNotAddressed
from repro.core.server import GroupKeyServer, ServerConfig, ServerError

N_MEMBERS = 2048
N_TARGETS = 128
SAMPLED_OUTSIDERS = 64


@pytest.fixture(scope="module")
def group():
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", signing="none",
        seed=b"acceptance"))
    members = [f"a{index:05d}" for index in range(N_MEMBERS)]
    server.bootstrap([(user, server.new_individual_key())
                      for user in members])
    return server, members


def primed(server, user):
    leaf = server.tree.leaf_of(user)
    client = GroupClient(user, server.suite)
    client.set_individual_key(leaf.key)
    client.set_leaf(leaf.node_id)
    for node in leaf.path_to_root():
        client.keys[node.node_id] = (node.version, node.key)
    return client


def test_random_subset_decrypts_exactly(group):
    server, members = group
    rng = random.Random(0x5EED)
    targets = rng.sample(members, N_TARGETS)
    out = server.subcast(targets, b"acceptance payload")
    # The cover never exceeds what per-user individual keys would cost.
    assert 1 <= len(out.message.items) - 1 <= len(targets)
    for user in targets:
        assert primed(server, user).open_subcast(
            out.encoded) == b"acceptance payload"
    outsiders = rng.sample(sorted(set(members) - set(targets)),
                           SAMPLED_OUTSIDERS)
    for user in outsiders:
        with pytest.raises(SubcastNotAddressed):
            primed(server, user).open_subcast(out.encoded)


def test_eviction_revokes_subcast_access(group):
    server, members = group
    victim = members[-1]
    stale = primed(server, victim)
    server.leave(victim)
    survivors = members[:16]
    out = server.subcast(survivors, b"post-leave")
    with pytest.raises(SubcastNotAddressed):
        stale.open_subcast(out.encoded)
    with pytest.raises(ServerError):
        server.subcast([victim], b"gone")
    for user in survivors[:4]:
        assert primed(server, user).open_subcast(
            out.encoded) == b"post-leave"
