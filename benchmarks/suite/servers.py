"""The systems under test, built from generated inputs.

Paper configuration throughout: ``PAPER_SUITE`` (DES-CBC / MD5 /
RSA-512), Merkle signing, group-oriented rekeying, degree 4, the flat
tree backend, two workers.
"""

from __future__ import annotations

import resource

import inputs


def build_single(seed: int, shape: inputs.Shape, keys: dict):
    """``GroupKeyServer`` in the paper's configuration, bootstrapped."""
    from repro.core.server import GroupKeyServer, ServerConfig
    from repro.crypto.suite import PAPER_SUITE
    server = GroupKeyServer(ServerConfig(
        degree=inputs.DEGREE, strategy="group", suite=PAPER_SUITE,
        signing="merkle", seed=inputs.server_seed(seed), backend="flat",
        workers=inputs.WORKERS))
    server.bootstrap([(user, inputs.member_key(PAPER_SUITE, seed, user))
                      for user in shape.roster])
    for user, key in keys.items():
        server.register_individual_key(user, key)
    return server


def build_cluster(seed: int, shape: inputs.Shape, keys: dict):
    from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
    from repro.crypto.suite import PAPER_SUITE
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=inputs.DEGREE, strategy="group",
        suite=PAPER_SUITE, signing="merkle",
        seed=inputs.server_seed(seed), backend="flat"))
    coordinator.bootstrap([(user, inputs.member_key(PAPER_SUITE, seed, user))
                           for user in shape.roster])
    for user, key in keys.items():
        coordinator.register_individual_key(user, key)
    return coordinator


def metrics_snapshot(backend, registry=None) -> dict:
    """The server's own counters and histograms, key cache included.

    ``registry`` is the serving core's (it is the single server's own
    registry); a cluster merges its shards' registries itself.
    """
    from repro.crypto.keycache import SHARED_CACHE
    from repro.observability.metrics import merge_snapshots
    if registry is None:
        metrics = backend.stats_document()["metrics"]
    else:
        metrics = registry.snapshot()
    return merge_snapshots(metrics, SHARED_CACHE.registry.snapshot())


def end_state(backend, trees) -> dict:
    """End-of-run facts the correctness check and the budget need."""
    return {
        "group_key": backend.group_key().hex(),
        "n_users": backend.n_users,
        "tree_height": max(tree.height() for tree in trees),
        "storage_bytes": sum(tree.storage_bytes() for tree in trees),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
