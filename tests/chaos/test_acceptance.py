"""The PR's acceptance bar.

One seeded chaos run — 10% drop, duplication, reordering, one member
crash/restart, one shard failover — against a fault-free control run
performing the identical workload and failover.  Every surviving
member's current-path keyset must match the control run byte for byte,
every member must decrypt a post-recovery data message, and nothing may
require manual intervention.  Plus the negative test: an evicted dead
member's keys must be forward-secure (useless against post-eviction
traffic).
"""

import pytest

from repro.chaos import ScenarioConfig
from repro.chaos.faults import FaultProfile
from repro.chaos.scenarios import _execute
from repro.core.client import StaleKeyError
from repro.core.messages import MSG_DATA
from repro.recovery import RecoveryPolicy

#: The mandated fault mix: seeded 10% drop + duplication + reordering.
ACCEPTANCE_PROFILE = FaultProfile(
    name="acceptance", seed=b"chaos/acceptance",
    drop_rate=0.10, duplicate_rate=0.10, delay_rate=0.25, max_delay=3)


def _config(chaos: bool) -> ScenarioConfig:
    """The acceptance workload; ``chaos=False`` is the control run.

    Both runs perform the same shard failover — a standby promotion
    reseeds that shard's DRBG draws, so a control run without it would
    legitimately diverge.  Only the fault injection (and the member
    crash it must repair) differs.
    """
    return ScenarioConfig(
        name="acceptance" if chaos else "acceptance-control",
        stack="cluster",
        profile=ACCEPTANCE_PROFILE if chaos else "clean",
        n_initial=18, rounds=12, n_shards=3,
        crash_at={3: ["u1"]} if chaos else {},
        restart_at={7: ["u1"]} if chaos else {},
        fail_shard_at={4: 1}, promote_at={8: 1},
        policy=RecoveryPolicy(dead_after=8, max_attempts=8),
        seed=b"acceptance")


def test_acceptance_chaos_run_matches_fault_free_control():
    chaos_run, chaos_report = _execute(_config(chaos=True))
    control_run, control_report = _execute(_config(chaos=False))

    # Both runs healed on their own.
    assert chaos_report.passed, chaos_report.summary()
    assert control_report.passed, control_report.summary()
    # The chaos run actually took damage, including the member crash.
    assert chaos_report.injected["drop"] > 0
    assert chaos_report.injected["duplicate"] > 0
    assert chaos_report.injected["delay"] > 0
    assert chaos_report.injected["crash_drop"] > 0
    assert chaos_report.resyncs > 0
    # Nobody was evicted: the crash window stayed inside dead_after and
    # the resync protocol repaired the victim.
    assert chaos_report.evicted == []

    # Server-side key state is byte-identical: resync replies draw from
    # a dedicated DRBG stream, so serving recovery never perturbed the
    # rekey key schedule.
    assert chaos_run.group_key() == control_run.group_key()
    assert chaos_run.coordinator.group_key_ref() \
        == control_run.coordinator.group_key_ref()

    # Same membership in both runs...
    assert sorted(chaos_run.members) == sorted(control_run.members)
    survivors = chaos_run._live()
    assert sorted(survivors) == sorted(control_run._live())
    assert "u1" in survivors  # the crashed-and-restarted member healed

    # ...and every survivor's current-path keyset matches the control
    # run byte for byte: leaf id, every path (version, key) pair, and
    # the root reference.
    for uid in survivors:
        leaf_id, records, root_ref = control_run.coordinator.member_records(
            uid)
        chaos_client = chaos_run._client(uid)
        control_client = control_run._client(uid)
        assert chaos_client.leaf_node_id == leaf_id
        assert chaos_client.root_ref == control_client.root_ref == root_ref
        for record in records:
            expected = (record.version, record.key)
            assert chaos_client.keys[record.node_id] == expected, uid
            assert control_client.keys[record.node_id] == expected, uid

    # Post-recovery data flows to everyone (checked inside _execute via
    # data_ok above; assert a probe really opens at every survivor).
    sealed = chaos_run.server.seal_group_message(b"probe")
    for uid in survivors:
        assert chaos_run._client(uid).receive(sealed.encoded) \
            == (MSG_DATA, b"probe")


def test_evicted_dead_member_is_forward_secure():
    config = ScenarioConfig(
        name="evict-fs", stack="server", profile="drop10",
        n_initial=12, rounds=10, crash_at={2: ["u2"]},
        policy=RecoveryPolicy(dead_after=3), seed=b"acceptance-fs")
    harness, report = _execute(config)
    assert report.passed, report.summary()
    assert "u2" in report.evicted
    assert not harness.server.is_member("u2")

    dead = harness.members["u2"].client
    old_keys = {key for _version, key in dead.keys.values()}
    assert old_keys  # it really held group state before dying

    # Every key on the dead member's former path was replaced: nothing
    # it holds appears anywhere in the server's current tree.
    live_keys = {node.key for node in harness.server.tree.nodes()}
    assert not old_keys & live_keys

    # And it cannot open post-eviction traffic.
    # Evicted, it keeps its path (it is owed a RESYNC_NOT_MEMBER) but
    # sits in no audience: group traffic no longer reaches it.
    sealed = harness.server.seal_group_message(b"after eviction")
    assert harness.chaos.audience.known("u2")
    assert "u2" not in harness.chaos.audience.receivers(sealed)
    with pytest.raises(StaleKeyError):
        dead.open_data(sealed.encoded)
