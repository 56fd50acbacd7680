"""Feature-flag ablation and the million-scale harness plumbing."""

import pytest

from repro.experiments import ALL_EXPERIMENTS, ablations, million_scale
from repro.experiments.common import Scale

TINY = Scale(name="tiny", initial_size=64, n_requests=30,
             group_sizes=(16, 64), degrees=(2, 4), n_sequences=1)


class TestFeatureFlagsAblation:
    def test_registered(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert "Ablation: feature flags" in names

    def test_flags_cover_the_journal(self):
        assert set(ablations.FEATURE_FLAGS) == {"tree-journal"}

    def test_every_flag_state_identical(self):
        table = ablations.feature_flags(TINY)
        assert {row[0] for row in table.rows} == set(
            ablations.FEATURE_FLAGS)
        for row in table.rows:
            flag, n_requests, identical, replay = row[:4]
            assert identical is True, flag
            assert n_requests > 0
            if flag == "tree-journal":
                assert replay is True


class TestMillionScaleHarness:
    def test_slots_note_measures_both_shapes(self):
        note = million_scale.slots_note()
        # __slots__ must actually shrink the node: no instance __dict__.
        assert note["slots_bytes"] < note["dict_bytes"]

    def test_sweep_size_smoke(self):
        row = million_scale.sweep_size(400, churn_ops=50)
        assert row["n"] == 400
        assert row["build_members_per_s"] > 0
        assert row["rekeys_per_s"] > 0
        assert 0 < row["storage_bytes_per_member"] < 500

    def test_journal_restart_identical(self):
        result = million_scale.journal_restart(48, ops=20)
        assert result["identical"] is True
        assert result["replay_ms"] > 0 and result["rebuild_ms"] > 0

    def make_report(self, rekeys, rss, identical, quick=True):
        top = "flat_rekeys_n100k" if quick else "flat_rekeys_n1m"
        return {"metrics": {
            top: {"unit": "rekeys/s", "value": rekeys},
            "peak_rss": {"unit": "MB", "value": rss},
            "journal_replay_identical": {"unit": "bool",
                                         "value": identical},
        }}

    def test_check_passes_good_report(self):
        report = self.make_report(rekeys=30_000.0, rss=200.0, identical=1.0)
        assert million_scale.check(report, quick=True) == []

    def test_check_flags_every_violation(self):
        report = self.make_report(rekeys=10.0, rss=1e6, identical=0.0)
        failures = million_scale.check(report, quick=True)
        assert len(failures) == 3
        joined = " ".join(failures)
        assert "RSS" in joined and "rekeys/s" in joined \
            and "byte-identical" in joined

    def test_main_quick_check_writes_report(self, tmp_path, monkeypatch):
        # Shrink the sweep so --quick --check runs in test time; the
        # gate logic still reads the n100k metric name.
        monkeypatch.setattr(million_scale, "QUICK_SIZES", (300,))
        out = tmp_path / "bench.json"

        def tiny_run(quick):
            report = {"schema": "repro-bench/1", "label": "PR6",
                      "python": "x", "platform": "y", "quick": quick,
                      "metrics": {}}
            row = million_scale.sweep_size(300, churn_ops=30)
            report["metrics"]["flat_rekeys_n100k"] = {
                "unit": "rekeys/s", "value": row["rekeys_per_s"]}
            report["metrics"]["peak_rss"] = {
                "unit": "MB", "value": million_scale._peak_rss_mb()}
            report["metrics"]["journal_replay_identical"] = {
                "unit": "bool", "value": 1.0}
            return report

        monkeypatch.setattr(million_scale, "run", tiny_run)
        # RSS cap: the test process has the whole suite resident; gate
        # logic is covered above, here we only exercise the CLI path.
        monkeypatch.setitem(million_scale.CHECK_MAX_RSS_MB, True, 1e9)
        exit_code = million_scale.main(
            ["--quick", "--check", "--out", str(out)])
        assert exit_code == 0
        assert out.exists()
