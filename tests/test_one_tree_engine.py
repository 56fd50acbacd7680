"""Every server runs one tree engine: ``FlatKeyTree``.

``KeyTree`` stays as the reference the lockstep tests compare against;
no server, shard, root layer, restore or spec file builds it, and the
config fields that used to select it accept only ``"flat"``.
"""

import os

import pytest

from repro.cluster.coordinator import (ClusterConfig, ClusterCoordinator,
                                       ClusterError)
from repro.core.persistence import restore, snapshot
from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.keygraph.flat import FlatKeyTree
from repro.specfile import config_from_spec

SHIPPED_SPEC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "keyserver.spec")


def roster(server, n=9):
    return [(f"u{index}", server.new_individual_key())
            for index in range(n)]


def test_a_server_holds_a_flat_tree_before_and_after_bootstrap():
    server = GroupKeyServer(ServerConfig())
    assert type(server.tree) is FlatKeyTree
    server.bootstrap(roster(server))
    assert type(server.tree) is FlatKeyTree


def test_every_shard_and_the_root_layer_hold_flat_trees():
    cluster = ClusterCoordinator(ClusterConfig())
    cluster.bootstrap(roster(cluster, n=24))
    assert cluster.shards
    for shard in cluster.shards:
        assert type(shard.server.tree) is FlatKeyTree
    assert type(cluster.root_layer.tree) is FlatKeyTree


def test_restore_rebuilds_a_flat_tree():
    server = GroupKeyServer(ServerConfig(
        suite=PAPER_SUITE_NO_SIG, signing="none", seed=b"one-engine"))
    server.bootstrap(roster(server))
    assert type(restore(snapshot(server)).tree) is FlatKeyTree


def test_the_shipped_spec_builds_a_flat_server():
    with open(SHIPPED_SPEC, "r", encoding="utf-8") as handle:
        config, initial_size = config_from_spec(handle.read())
    server = GroupKeyServer(config)
    server.bootstrap(roster(server, n=initial_size))
    assert type(server.tree) is FlatKeyTree


def test_flat_is_the_only_legal_backend():
    assert ServerConfig(backend="flat").backend == "flat"
    assert ClusterConfig(backend="flat").backend == "flat"
    with pytest.raises(ServerError):
        ServerConfig(backend="object")
    with pytest.raises(ClusterError):
        ClusterConfig(backend="object")
