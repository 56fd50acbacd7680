"""Flight recorder: ring semantics, dumps, schema validation."""

import json
import threading

import pytest

from repro.observability.flight import (DUMP_MIN_INTERVAL_S, FLIGHT_SCHEMA,
                                        FlightError, FlightRecorder,
                                        validate_flight)


class FakeClock:
    def __init__(self):
        self.now = 1  # monotonic_ns is never zero; zero means "no dump yet"

    def __call__(self):
        return self.now


def test_record_and_events_roundtrip():
    recorder = FlightRecorder(capacity=8)
    recorder.record("req", trace_id=7, op="join", user="u1")
    recorder.record("done", trace_id=7, op="join")
    events = recorder.events()
    assert [event[2] for event in events] == ["req", "done"]
    assert events[0][3] == 7
    assert events[0][4] == {"op": "join", "user": "u1"}
    assert len(recorder) == 2
    assert recorder.recorded == 2
    assert recorder.dropped == 0


def test_ring_overwrites_oldest_and_counts_drops():
    recorder = FlightRecorder(capacity=4)
    for index in range(10):
        recorder.record("e", seq_hint=index)
    events = recorder.events()
    assert len(events) == 4
    # Oldest first, and only the newest four survive.
    assert [event[4]["seq_hint"] for event in events] == [6, 7, 8, 9]
    assert recorder.recorded == 10
    assert recorder.dropped == 6


def test_sequence_numbers_strictly_increase_across_wrap():
    recorder = FlightRecorder(capacity=3)
    for _ in range(7):
        recorder.record("e")
    seqs = [event[0] for event in recorder.events()]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_dump_document_is_schema_valid(tmp_path):
    recorder = FlightRecorder(capacity=16)
    recorder.record("req", trace_id=3, op="join")
    recorder.record("fault.drop", trace_id=3, user="u1")
    path = tmp_path / "flight.json"
    document = recorder.dump("chaos", path=str(path))
    validate_flight(document)
    assert document["schema"] == FLIGHT_SCHEMA
    assert document["reason"] == "chaos"
    assert [event["kind"] for event in document["events"]] == \
        ["req", "fault.drop"]
    # The on-disk copy round-trips through validation too.
    with open(path) as handle:
        validate_flight(json.load(handle))
    assert recorder.dump_count == 1


def test_maybe_dump_rate_limits():
    clock = FakeClock()
    recorder = FlightRecorder(capacity=4, clock=clock)
    recorder.record("e")
    assert recorder.maybe_dump("error") is not None
    # Within the interval: suppressed.
    clock.now += int(DUMP_MIN_INTERVAL_S * 1e9) // 2
    assert recorder.maybe_dump("error") is None
    # Past the interval: allowed again.
    clock.now += int(DUMP_MIN_INTERVAL_S * 1e9)
    assert recorder.maybe_dump("error") is not None


def test_clear_keeps_sequence_monotonic():
    recorder = FlightRecorder(capacity=4)
    recorder.record("a")
    recorder.clear()
    assert recorder.events() == []
    recorder.record("b")
    (event,) = recorder.events()
    assert event[0] == 1  # sequence continued, did not restart


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("schema"), "schema"),
    (lambda d: d.update(schema="repro-flight/9"), "schema"),
    (lambda d: d.pop("events"), "events"),
    (lambda d: d.update(events=[{"seq": 0}]), "missing"),
    (lambda d: d["events"].reverse(), "increasing"),
])
def test_validate_flight_rejects_malformed(mutate, message):
    recorder = FlightRecorder(capacity=4)
    recorder.record("a")
    recorder.record("b")
    document = recorder.dump("test")
    mutate(document)
    with pytest.raises(FlightError, match=message):
        validate_flight(document)


def test_concurrent_recording_loses_nothing():
    recorder = FlightRecorder(capacity=4096)
    n_threads, per_thread = 8, 200

    def work(tid):
        for index in range(per_thread):
            recorder.record("e", tid=tid, i=index)

    threads = [threading.Thread(target=work, args=(tid,))
               for tid in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert recorder.recorded == n_threads * per_thread
    events = recorder.events()
    assert len(events) == n_threads * per_thread
    seqs = [event[0] for event in events]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
