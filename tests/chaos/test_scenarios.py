"""Scenario runner: every matrix entry must self-heal."""

import pytest

from repro.chaos import ScenarioConfig, full_matrix, quick_matrix, run_scenario
from repro.chaos.faults import ChaosError
from repro.recovery import RecoveryPolicy


def test_config_validation():
    with pytest.raises(ChaosError):
        ScenarioConfig(name="x", stack="mainframe").validate()
    with pytest.raises(ChaosError):
        ScenarioConfig(name="x", profile="nope").validate()
    with pytest.raises(ChaosError):
        ScenarioConfig(name="x", n_initial=1).validate()


#: Recovery converges within the manager's backoff envelope: a handful
#: of rounds, not a drawn-out crawl.
MAX_RECOVERY_ROUNDS = 8


@pytest.mark.parametrize("config", quick_matrix(), ids=lambda c: c.name)
def test_quick_matrix_recovers(config):
    report = run_scenario(config)
    assert report.converged, report.summary()
    assert report.data_ok, report.summary()
    assert report.recovery_rounds <= MAX_RECOVERY_ROUNDS, report.summary()
    # Chaos actually happened; this was not a clean run in disguise.
    assert sum(report.injected.values()) > 0
    assert report.resyncs > 0


def test_runs_are_deterministic():
    config = quick_matrix()[0]
    a, b = run_scenario(config), run_scenario(config)
    assert a == b


def test_crash_restart_recovers_without_eviction():
    config = next(c for c in full_matrix() if c.name == "crash-restart")
    report = run_scenario(config)
    assert report.passed, report.summary()
    # The crash window stayed inside the dead_after budget: the victim
    # was repaired by resync, never evicted.
    assert report.evicted == []
    assert report.injected["crash_drop"] > 0


def test_mass_death_sheds_to_one_flush():
    config = next(c for c in full_matrix() if c.name == "mass-evict-shed")
    report = run_scenario(config)
    assert report.passed, report.summary()
    assert sorted(report.evicted) == ["u0", "u1", "u2", "u3"]
    # One batch flush, not four rekeys: 0.25 shed messages per evicted
    # member, against 1.0 for evicting them one leave at a time.
    assert report.shed_flushes == 1


def test_heavy_loss_still_converges():
    config = next(c for c in full_matrix() if c.name == "heavy-server")
    report = run_scenario(config)
    assert report.passed, report.summary()
    assert report.injected["drop"] > 20
