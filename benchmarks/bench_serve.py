"""Async serving benchmark (PR 7): sustained rate, latency, shedding.

Self-hosts a sharded cluster behind the async front end on loopback,
drives it with the :mod:`repro.serve.loadgen` client pool, and reports:

* **sustained req/s** — server-side, from ``serve_requests_total``
  scrape deltas bracketing exactly the steady window (not the ramp,
  and not client-side optimism: only requests the server *counted*);
* **latency** — client-observed p50/p99 for acked joins and resyncs;
* **shed rate** — ``MSG_BUSY`` replies as a fraction of requests, plus
  a deliberate overload burst that must provoke shedding (a server
  that never sheds under a 4x-inflight burst has no admission control).

Usage::

    python benchmarks/bench_serve.py              # full run, 10k clients
    python benchmarks/bench_serve.py --quick      # CI smoke, 500 clients
    python benchmarks/bench_serve.py --check      # enforce the floors

``--check`` floors (full mode): sustained >= 5,000 req/s, >= 99% of
clients joined, resync p99 <= 15 s, overload sheds > 0.  Quick mode
keeps the behavioural gates (join fraction, shedding) but scales the
rate floor down — CI boxes prove behaviour, not hardware.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_io  # noqa: E402
from repro.serve.loadgen import (ClientPool, LoadProfile,  # noqa: E402
                                 LoadStats, run_load, self_hosted_cluster)
from repro.transport.udp import scrape_stats  # noqa: E402

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_PR7.json")

#: --check floors.  Rate floors are per-mode; behaviour gates are not.
MIN_SUSTAINED_REQ_PER_S = 5_000.0
MIN_SUSTAINED_REQ_PER_S_QUICK = 100.0
MIN_JOIN_FRACTION = 0.99
MAX_RESYNC_P99_MS = 15_000.0


def _profile(quick: bool) -> LoadProfile:
    if quick:
        return LoadProfile(clients=500, sockets=8, duration=3.0,
                           churn_clients=25, heartbeat_interval=0.4,
                           resync_fraction=0.02, ramp_concurrency=48)
    return LoadProfile(clients=10_000, sockets=32, duration=10.0,
                       churn_clients=10, heartbeat_interval=0.8,
                       resync_fraction=0.002, ramp_concurrency=48,
                       request_timeout=6.0)


def _served_total(document) -> float:
    """Sum every serve_requests_total sample in a merged snapshot."""
    total = 0.0
    counters = document["metrics"]["counters"]
    for name, entry in counters.items():
        if name.startswith("serve_requests_total"):
            total += sum(series["value"]
                         for series in entry.get("series", []))
    return total


def _shed_total(document) -> float:
    counters = document["metrics"]["counters"]
    return sum(series["value"]
               for name, entry in counters.items()
               if name.startswith("serve_shed_total")
               for series in entry.get("series", []))


def _stage_latency(documents) -> dict:
    """Per-stage p50/p99 (ms) from ``rekey_stage_seconds`` histograms.

    Merges each stage's series across every shard snapshot (counts are
    summed bucket-wise), then runs the same in-bucket interpolation the
    observability report uses — so the attribution answers *where* a
    rekey's latency went: plan, encrypt, sign, or dispatch.
    """
    from repro.observability.export import _HistView
    merged = {}
    bounds = None
    for document in documents:
        entry = document["metrics"]["histograms"].get("rekey_stage_seconds")
        if entry is None:
            continue
        bounds = entry["bounds"]
        for series in entry["series"]:
            stage = series["labels"].get("stage", "?")
            into = merged.setdefault(stage, {
                "counts": [0] * len(series["counts"]), "count": 0,
                "sum": 0.0, "min": float("inf"), "max": 0.0})
            for index, value in enumerate(series["counts"]):
                into["counts"][index] += value
            into["count"] += series["count"]
            into["sum"] += series["sum"]
            into["min"] = min(into["min"], series["min"])
            into["max"] = max(into["max"], series["max"])
    stages = {}
    for stage, series in merged.items():
        if not series["count"]:
            continue
        view = _HistView(bounds, series)
        stages[stage] = {"count": series["count"],
                         "p50_ms": round(view.quantile(0.5) * 1000.0, 3),
                         "p99_ms": round(view.quantile(0.99) * 1000.0, 3)}
    return stages


async def _overload_probe(n_requests: int = 96) -> dict:
    """Prove admission control sheds under a genuine overload.

    Runs against its *own* small service with a deliberately tiny
    ``max_inflight`` — probing the 10k service instead races the UDP
    receive buffer (the kernel sheds before the server gets the
    chance) and makes the result timing-dependent.  Joins (not
    heartbeats or resyncs) are the inflight-bounded op class; a
    concurrent join burst several times the inflight cap must draw
    ``MSG_BUSY`` replies, observable on both sides of the wire."""
    from repro.core.messages import MSG_BUSY, MSG_JOIN_REQUEST
    from repro.serve import ServeConfig
    service = await self_hosted_cluster(
        n_shards=3, seed=b"bench-overload",
        config=ServeConfig(max_inflight=8, tick_interval=0))
    profile = LoadProfile(clients=n_requests, sockets=4,
                          request_timeout=30.0, request_deadline=30.0,
                          retry_budget=0)
    pool = ClientPool([service.udp_addresses[0]], profile, LoadStats())
    await pool.start()
    try:
        # With a zero retry budget the pool absorbs each MSG_BUSY into
        # its stats rather than returning it.
        await asyncio.gather(*(
            pool.rpc(index, MSG_JOIN_REQUEST, f"burst-{index:05d}")
            for index in range(n_requests)))
        busy = pool.stats.busy
        document = await asyncio.to_thread(
            scrape_stats, service.udp_addresses[0], timeout=10.0)
        return {"busy": busy, "sheds": _shed_total(document)}
    finally:
        await pool.aclose()
        await service.aclose()


async def _run(quick: bool, log) -> dict:
    profile = _profile(quick)
    service = await self_hosted_cluster(n_shards=3)
    marks = {}

    documents = {}

    async def on_phase(label):
        # One (timestamp, count) sample *per shard*, stamped around the
        # scrape that produced it.  A single post-hoc timestamp for the
        # whole sweep would mis-time the early shards by however long
        # the later scrapes took — under saturation that skew inflates
        # (or deflates) the computed rate by double-digit percents.
        samples = []
        docs = []
        for address in service.udp_addresses:
            before = time.monotonic()
            document = await asyncio.to_thread(scrape_stats, address)
            after = time.monotonic()
            docs.append(document)
            samples.append(((before + after) / 2, _served_total(document)))
        marks[label] = samples
        documents[label] = docs

    try:
        stats = await run_load(service.udp_addresses, profile,
                               log=log, on_phase=on_phase)
        results = stats.as_dict()

        # Per-shard rate over that shard's own bracketed window, summed.
        rate = 0.0
        for (t0, c0), (t1, c1) in zip(marks["steady-start"],
                                      marks["steady-end"]):
            rate += (c1 - c0) / max(t1 - t0, 1e-9)
        results["server_steady_req_per_s"] = rate
        results["stage_latency"] = _stage_latency(
            documents.get("steady-end", []))

        return results
    finally:
        await service.aclose()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Async serving benchmark (PR 7).")
    parser.add_argument("--quick", action="store_true",
                        help="500 clients / short windows for CI smoke")
    parser.add_argument("--check", action="store_true",
                        help="enforce the serving floors")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report path (default BENCH_PR7.json)")
    args = parser.parse_args(argv)

    def log(text):
        print(text, file=sys.stderr)

    results = asyncio.run(_run(args.quick, log))
    overload = asyncio.run(_overload_probe())
    results["overload_busy_replies"] = overload["busy"]
    results["overload_sheds"] = overload["sheds"]

    profile = _profile(args.quick)
    join_fraction = results["ramp_joined"] / profile.clients
    sustained = results["server_steady_req_per_s"]
    shed_rate = (results["busy_replies"]
                 / max(results["requests_total"], 1))
    resync_p99 = results["latency"]["resync"].get("p99_ms", 0.0)
    join_p99 = results["latency"]["join"].get("p99_ms", 0.0)

    report = bench_io.new_report("PR7", args.quick)
    bench_io.add_metric(report, f"serve_sustained_n{profile.clients}",
                        "req/s", round(sustained, 1))
    bench_io.add_metric(report, "serve_client_steady_rate",
                        "req/s", round(results["steady_req_per_s"], 1))
    bench_io.add_metric(report, "serve_join_fraction",
                        "fraction", round(join_fraction, 4))
    bench_io.add_metric(report, "serve_join_p50",
                        "ms", results["latency"]["join"]["p50_ms"])
    bench_io.add_metric(report, "serve_join_p99", "ms", join_p99)
    if results["latency"]["resync"]["count"]:
        bench_io.add_metric(report, "serve_resync_p50", "ms",
                            results["latency"]["resync"]["p50_ms"])
        bench_io.add_metric(report, "serve_resync_p99", "ms",
                            resync_p99)
    bench_io.add_metric(report, "serve_shed_rate",
                        "fraction", round(shed_rate, 5))
    bench_io.add_metric(report, "serve_overload_sheds",
                        "sheds", results["overload_sheds"])
    bench_io.add_metric(report, "serve_ramp_seconds",
                        "s", round(results["ramp_seconds"], 2))
    # Where a rekey's server-side latency went, per pipeline stage —
    # the client p99 above decomposes into these plus queueing.
    for stage, stats in sorted(results["stage_latency"].items()):
        bench_io.add_metric(report, f"serve_stage_{stage}_p50", "ms",
                            stats["p50_ms"])
        bench_io.add_metric(report, f"serve_stage_{stage}_p99", "ms",
                            stats["p99_ms"])

    bench_io.write_report(args.out, report)
    print(f"wrote {args.out}")
    for name, metric in report["metrics"].items():
        print(f"  {name}: {metric['value']} {metric['unit']}")

    if args.check:
        floor = (MIN_SUSTAINED_REQ_PER_S_QUICK if args.quick
                 else MIN_SUSTAINED_REQ_PER_S)
        failures = []
        if sustained < floor:
            failures.append(f"sustained {sustained:.0f} req/s "
                            f"under floor {floor:.0f}")
        if join_fraction < MIN_JOIN_FRACTION:
            failures.append(f"only {join_fraction:.1%} of clients "
                            f"joined (floor {MIN_JOIN_FRACTION:.0%})")
        if results["overload_sheds"] <= 0:
            failures.append("overload burst provoked no shedding")
        if resync_p99 > MAX_RESYNC_P99_MS:
            failures.append(f"resync p99 {resync_p99:.0f}ms over "
                            f"{MAX_RESYNC_P99_MS:.0f}ms")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("checks passed: serving floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
