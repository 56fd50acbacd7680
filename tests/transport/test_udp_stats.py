"""UDP telemetry: live stats endpoint and cross-process trace trailers."""

from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.observability import Instrumentation, Tracer
from repro.observability.export import to_prometheus, validate_snapshot
from repro.transport.udp import UdpGroupMember, scrape_stats

from ..delivery import serve_beside


def _server(tracer=None):
    return GroupKeyServer(
        ServerConfig(strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
                     signing="none", seed=b"udp-stats-tests"),
        instrumentation=Instrumentation("udp-stats", tracer=tracer))


def _traced_server():
    return _server(Tracer())


def _join(server, address, user_id):
    key = server.new_individual_key()
    server.register_individual_key(user_id, key)
    member = UdpGroupMember(user_id, PAPER_SUITE_NO_SIG, address,
                            timeout=10.0)
    member.join(key)
    return member


def test_scrape_returns_live_snapshot():
    server = _traced_server()

    def drive(address):
        members = [_join(server, address, f"c{i}") for i in range(3)]
        try:
            return scrape_stats(address)
        finally:
            for member in members:
                member.close()
    document = serve_beside(server, drive)
    validate_snapshot(document)
    counters = document["metrics"]["counters"]
    series = {tuple(sorted(s["labels"].items())): s["value"]
              for s in counters["server_requests_total"]["series"]}
    assert series[(("op", "join"), ("status", "ok"))] == 3
    gauges = document["metrics"]["gauges"]
    assert gauges["group_size"]["series"][0]["value"] == 3
    # The same document feeds the Prometheus exposition directly.
    assert "server_requests_total" in to_prometheus(document)


def test_scrape_includes_spans_when_traced():
    server = _traced_server()

    def drive(address):
        with _join(server, address, "c0"):
            return scrape_stats(address)
    spans = serve_beside(server, drive)["spans"]
    names = {span["name"] for span in spans}
    assert "serve.request" in names
    assert "rekey.join" in names
    # The pipeline spans hang off the request span: one trace covers
    # socket receipt through dispatch.
    root = next(s for s in spans if s["name"] == "serve.request")
    assert root["parent_id"] == 0
    by_id = {s["span_id"]: s for s in spans}
    rekey = next(s for s in spans if s["name"] == "rekey.join")
    assert rekey["trace_id"] == root["trace_id"]
    ancestor = rekey
    while ancestor["parent_id"]:
        ancestor = by_id[ancestor["parent_id"]]
    assert ancestor is root


def test_trailer_propagates_trace_to_member():
    server = _traced_server()

    def drive(address):
        with _join(server, address, "c0") as member:
            server_traces = {span["trace_id"]
                             for span in scrape_stats(address)["spans"]}
            return member.last_trace, server_traces
    last_trace, server_traces = serve_beside(server, drive)
    assert last_trace is not None
    assert last_trace.trace_id in server_traces


def test_untraced_server_sends_no_trailer():
    server = _server()

    def drive(address):
        with _join(server, address, "c0") as member:
            return member.last_trace, scrape_stats(address)
    last_trace, document = serve_beside(server, drive)
    assert last_trace is None
    # Stats still answer with a (registry-backed) snapshot.
    validate_snapshot(document)
    assert "spans" not in document


def test_stats_request_does_not_disturb_protocol():
    server = _traced_server()

    def drive(address):
        with _join(server, address, "c0") as first:
            scrape_stats(address)
            with _join(server, address, "c1") as second:
                first.pump()
                second.pump()
                assert first.client.group_key() == server.group_key()
                assert second.client.group_key() == server.group_key()
    serve_beside(server, drive)
