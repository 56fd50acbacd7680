"""Failed runs are recorded, not dropped: clock, instrumentation, pipeline."""

import pytest

from repro.core.server import GroupKeyServer, ServerConfig, ServerError
from repro.observability import Instrumentation, StageClock


def runs(instrumentation, op, status):
    """Count of ``rekey_seconds{op,status}`` observations."""
    return instrumentation.registry.get("rekey_seconds").labels(
        op=op, status=status).count


def stage_runs(instrumentation, op, stage):
    """Count of ``rekey_stage_seconds{op,stage}`` observations."""
    return instrumentation.registry.get("rekey_stage_seconds").labels(
        op=op, stage=stage).count


class TestStageClockErrors:
    def test_raising_stage_still_records_elapsed_time(self):
        clock = StageClock()
        with pytest.raises(RuntimeError):
            with clock.stage("encrypt"):
                raise RuntimeError("boom")
        assert clock.stages["encrypt"] > 0.0

    def test_error_flag_and_failed_stage(self):
        clock = StageClock()
        assert clock.error is False
        assert clock.failed_stage is None
        with pytest.raises(RuntimeError):
            with clock.stage("plan"):
                raise RuntimeError("boom")
        assert clock.error is True
        assert clock.failed_stage == "plan"

    def test_first_failure_wins(self):
        clock = StageClock()
        for name in ("plan", "sign"):
            with pytest.raises(RuntimeError):
                with clock.stage(name):
                    raise RuntimeError(name)
        assert clock.failed_stage == "plan"

    def test_clean_stages_leave_no_error(self):
        clock = StageClock()
        with clock.stage("plan"):
            pass
        assert clock.error is False
        assert clock.failed_stage is None


class TestInstrumentationErrorRuns:
    def _failed_clock(self):
        clock = StageClock()
        with pytest.raises(RuntimeError):
            with clock.stage("encrypt"):
                raise RuntimeError("boom")
        clock.stop()
        return clock

    def test_error_run_counted_separately(self):
        instrumentation = Instrumentation("t")
        instrumentation.record_run("join", self._failed_clock())
        assert runs(instrumentation, "join", "error") == 1
        assert runs(instrumentation, "join", "ok") == 0

    def test_error_run_timers_still_recorded(self):
        instrumentation = Instrumentation("t")
        instrumentation.record_run("join", self._failed_clock())
        assert stage_runs(instrumentation, "join", "encrypt") == 1
        assert runs(instrumentation, "join", "error") == 1

    def test_error_status_label_on_histogram(self):
        instrumentation = Instrumentation("t")
        instrumentation.record_run("join", self._failed_clock())
        snapshot = instrumentation.registry.snapshot()
        series = snapshot["histograms"]["rekey_seconds"]["series"]
        by_labels = {tuple(sorted(s["labels"].items())): s["count"]
                     for s in series}
        assert by_labels[(("op", "join"), ("status", "error"))] == 1


class TestServerErrorRuns:
    def test_failed_leave_is_recorded_not_dropped(self):
        server = GroupKeyServer(ServerConfig(signing="none", seed=b"s"))
        server.bootstrap([("u1", server.new_individual_key())])
        with pytest.raises(ServerError):
            server.leave("ghost")
        instrumentation = server.instrumentation
        assert runs(instrumentation, "leave", "error") == 1
        # The successful path stays untouched.
        assert runs(instrumentation, "leave", "ok") == 0

    def test_error_and_success_histograms_are_disjoint(self):
        server = GroupKeyServer(ServerConfig(signing="none", seed=b"s"))
        server.bootstrap([("u1", server.new_individual_key()),
                          ("u2", server.new_individual_key())])
        with pytest.raises(ServerError):
            server.leave("ghost")
        server.leave("u2")
        snapshot = server.instrumentation.registry.snapshot()
        series = snapshot["histograms"]["rekey_seconds"]["series"]
        by_labels = {tuple(sorted(s["labels"].items())): s["count"]
                     for s in series}
        assert by_labels[(("op", "leave"), ("status", "error"))] == 1
        assert by_labels[(("op", "leave"), ("status", "ok"))] == 1
