"""Unit tests for the shared observability core."""

import threading
import time

import pytest

from repro.observability import (NULL_INSTRUMENTATION, Instrumentation,
                                 NullInstrumentation, StageClock, Stopwatch)


class FakeClock:
    """Deterministic monotonic clock for timer tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestStageClock:
    def test_stages_and_total(self):
        clock = FakeClock()
        stage_clock = StageClock(clock=clock)
        with stage_clock.stage("plan"):
            clock.now += 1.0
        clock.now += 0.25          # inter-stage work counts in the total
        with stage_clock.stage("encrypt"):
            clock.now += 2.0
        total = stage_clock.stop()
        assert stage_clock.stages == {"plan": 1.0, "encrypt": 2.0}
        assert total == pytest.approx(3.25)

    def test_total_fixed_after_stop(self):
        clock = FakeClock()
        stage_clock = StageClock(clock=clock)
        clock.now = 2.0
        assert stage_clock.stop() == 2.0
        clock.now = 99.0
        assert stage_clock.total == 2.0

    def test_repeated_stage_accumulates(self):
        clock = FakeClock()
        stage_clock = StageClock(clock=clock)
        for _ in range(3):
            with stage_clock.stage("plan"):
                clock.now += 0.5
        assert stage_clock.stages["plan"] == pytest.approx(1.5)

    def test_default_clock_is_thread_cpu_time(self):
        # Server processing time is CPU time, as getrusage() measured
        # it in the paper: a preemption is not charged to the request.
        assert StageClock()._now is time.thread_time

    def test_stopped_on_another_thread_reports_stage_sum(self):
        # Two threads' CPU clocks cannot be subtracted: a clock started
        # here and stopped on a worker reports the sum of its stages.
        clock = FakeClock()
        stage_clock = StageClock(clock=clock)
        with stage_clock.stage("plan"):
            clock.now += 1.0
        clock.now = -50.0          # the worker's own, unrelated reading

        def on_worker():
            with stage_clock.stage("encrypt"):
                clock.now += 2.0
            stage_clock.stop()

        worker = threading.Thread(target=on_worker)
        worker.start()
        worker.join()
        assert stage_clock.total == pytest.approx(3.0)
        # On the real clock a fresh worker's reading is below this
        # thread's start reading; the total still is not negative.
        real = StageClock()
        with real.stage("plan"):
            sum(range(1000))
        worker = threading.Thread(target=real.stop)
        worker.start()
        worker.join()
        assert real.total == real.stages["plan"] >= 0.0


class TestStopwatch:
    def test_elapsed_and_restart(self):
        clock = FakeClock()
        watch = Stopwatch(clock=clock)
        clock.now = 5.0
        assert watch.elapsed() == 5.0
        watch.restart()
        clock.now = 7.5
        assert watch.elapsed() == 2.5


class TestInstrumentation:
    def test_record_run_aggregates(self):
        inst = Instrumentation("test")
        clock = FakeClock()
        stage_clock = StageClock(clock=clock)
        with stage_clock.stage("plan"):
            clock.now += 1.0
        stage_clock.stop()
        inst.record_run("join", stage_clock)
        inst.record_run("join", stage_clock)
        runs = inst.registry.get("rekey_seconds").labels(op="join",
                                                         status="ok")
        plan = inst.registry.get("rekey_stage_seconds").labels(op="join",
                                                               stage="plan")
        assert runs.count == 2
        assert plan.count == 2
        assert runs.sum == pytest.approx(2.0)

    def test_null_instrumentation_is_inert(self):
        clock = StageClock(clock=FakeClock())
        clock.stop()
        NULL_INSTRUMENTATION.record_run("op", clock)
        assert len(NULL_INSTRUMENTATION.registry) == 0
        assert isinstance(NULL_INSTRUMENTATION, NullInstrumentation)
