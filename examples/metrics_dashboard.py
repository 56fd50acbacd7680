#!/usr/bin/env python3
"""Live metrics dashboard: scrape a churning key server over UDP.

Runs the Figure 10 workload — a degree-4 key tree with group-oriented
rekeying, DES-CBC + MD5 + RSA-signed rekey messages, clients joining
and leaving the async key service over real loopback sockets — while
a second thread beside the service's event loop periodically sends
``MSG_STATS_REQUEST`` datagrams and redraws a
per-operation latency/percentile table from the server's live
``repro-metrics/1`` snapshot.  Nothing is shared in process: every
number on screen crossed the wire.

Run:  python examples/metrics_dashboard.py [--seconds 12] [--refresh 0.5]
"""

import argparse
import asyncio
import os
import random
import sys
import threading
import time

from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto import PAPER_SUITE
from repro.observability import Instrumentation, Tracer
from repro.serve import AsyncKeyService, AsyncServingCore
from repro.transport.udp import UdpGroupMember, scrape_stats

MAX_MEMBERS = 24


def churn(server, address, stop):
    """Figure 10-shaped churn: biased-random joins and leaves."""
    rng = random.Random(10)  # Figure 10
    members = {}
    counter = 0
    while not stop.is_set():
        joining = len(members) < 4 or (len(members) < MAX_MEMBERS
                                       and rng.random() < 0.6)
        if joining:
            name = f"user{counter}"
            counter += 1
            # The client's half of the authentication exchange; the
            # server's key source belongs to its serving threads.
            key = os.urandom(server.suite.key_size)
            server.register_individual_key(name, key)
            member = UdpGroupMember(name, PAPER_SUITE, address,
                                    server_public_key=server.public_key,
                                    timeout=10.0)
            member.join(key)
            members[name] = member
        else:
            name = rng.choice(sorted(members))
            departing = members.pop(name)
            departing.leave()
            departing.close()
        for member in members.values():
            member.pump(timeout=0.02)
    for member in members.values():
        member.close()


def quantile(bounds, series, q):
    """Latency estimate from one histogram series of the snapshot."""
    count = series["count"]
    if not count:
        return 0.0
    target = q * count
    cumulative = 0
    for index, bucket_count in enumerate(series["counts"]):
        if not bucket_count:
            continue
        if cumulative + bucket_count >= target:
            if index >= len(bounds):
                return series["max"]
            upper = bounds[index]
            lower = bounds[index - 1] if index else 0.0
            estimate = lower + (upper - lower) * (
                (target - cumulative) / bucket_count)
            return min(max(estimate, series["min"]), series["max"])
        cumulative += bucket_count
    return series["max"]


def render(document):
    metrics = document["metrics"]
    lines = ["live key-server stats — %s" % document["label"],
             ""]

    gauges = metrics["gauges"]
    size = gauges.get("group_size", {"series": [{"value": 0}]})
    lines.append("group size: %d    spans captured: %d" % (
        size["series"][0]["value"], len(document.get("spans", ()))))
    lines.append("")

    entry = metrics["histograms"].get("rekey_seconds")
    header = "%-6s %-7s %6s %8s %8s %8s %8s" % (
        "op", "status", "count", "mean ms", "p50 ms", "p90 ms", "p99 ms")
    lines.append("Server processing CPU time per request (Table 4 / Figure 10)")
    lines.append(header)
    lines.append("-" * len(header))
    if entry:
        for series in entry["series"]:
            labels = series["labels"]
            mean = (series["sum"] / series["count"] * 1000.0
                    if series["count"] else 0.0)
            row = [quantile(entry["bounds"], series, q) * 1000.0
                   for q in (0.5, 0.9, 0.99)]
            lines.append("%-6s %-7s %6d %8.3f %8.3f %8.3f %8.3f" % (
                labels.get("op", "?"), labels.get("status", "?"),
                series["count"], mean, *row))

    counters = metrics["counters"]
    totals = {}
    for name in ("rekey_messages_total", "rekey_bytes_total",
                 "encryptions_total", "signatures_total"):
        entry = counters.get(name)
        if entry:
            totals[name] = sum(s["value"] for s in entry["series"])
    if totals:
        lines.append("")
        lines.append("rekey messages: %d    bytes: %d    "
                     "encryptions: %d    signatures: %d" % (
                         totals.get("rekey_messages_total", 0),
                         totals.get("rekey_bytes_total", 0),
                         totals.get("encryptions_total", 0),
                         totals.get("signatures_total", 0)))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long to run the workload")
    parser.add_argument("--refresh", type=float, default=0.5,
                        help="scrape/redraw interval")
    args = parser.parse_args(argv)

    server = GroupKeyServer(
        ServerConfig(strategy="group", degree=4, suite=PAPER_SUITE,
                     signing="merkle", seed=b"metrics-dashboard"),
        instrumentation=Instrumentation("dashboard", tracer=Tracer()))

    def dashboard(address):
        stop = threading.Event()
        worker = threading.Thread(target=churn,
                                  args=(server, address, stop), daemon=True)
        worker.start()
        interactive = sys.stdout.isatty()
        deadline = time.monotonic() + args.seconds
        try:
            while time.monotonic() < deadline:
                time.sleep(args.refresh)
                frame = render(scrape_stats(address))
                if interactive:
                    sys.stdout.write("\x1b[2J\x1b[H")
                sys.stdout.write(frame + "\n")
                sys.stdout.flush()
        finally:
            stop.set()
            worker.join()

    async def serve():
        async with AsyncKeyService(AsyncServingCore(server)) as service:
            # The blocking clients and scrapes run beside the event loop.
            await asyncio.to_thread(dashboard, service.udp_address)

    asyncio.run(serve())
    print("\nfinal scrape rendered above — done")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
