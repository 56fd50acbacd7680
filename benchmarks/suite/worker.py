"""One workload, one fresh process: set up, measure, verify, report.

``run.py`` starts this as a subprocess (``PYTHONHASHSEED=0``) and reads
one JSON document from the last line of stdout.  A run has phases: an
untraced one gives the end-to-end metrics; ``--trace 1`` runs a shorter
untraced phase followed by a traced one (wrappers installed at run
time), which gives the per-layer metrics and, from the two phases'
throughput, the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "src"))

import inputs  # noqa: E402
import report  # noqa: E402
import speed  # noqa: E402
import trace  # noqa: E402

_now = time.perf_counter
_HERE = os.path.dirname(os.path.abspath(__file__))



class Phase:
    def __init__(self, name: str, ops: int, traced: bool):
        self.name = name
        #: Window requests (``OpLog.window_kinds``) the phase lasts.
        self.ops = ops
        self.traced = traced
        self.samples: List[Tuple[float, float, float]] = []
        self.stats0: Optional[dict] = None
        self.stats1: Optional[dict] = None
        self.marks: Dict[str, int] = {}
        #: This process' own CPU clock at the window's edges.
        self.cpu0 = self.cpu1 = 0.0


def plan_phases(ops: int, traced: bool) -> List[Phase]:
    if not traced:
        return [Phase("measure", ops, False)]
    # Traced runs are the ones shortened to fit the driver's time cap:
    # a quarter of the op count untraced, then a quarter traced.
    quarter = max(inputs.SLICES, ops // 4)
    return [Phase("untraced", quarter, False), Phase("traced", quarter, True)]


def joins_per_client(phases: List[Phase], clients: int) -> int:
    """Length of a closed-loop client's stream: half as much again as
    its share of the joins, so that none runs dry inside the window."""
    ops = sum(phase.ops for phase in phases)
    return ops * 3 // (4 * clients) + 8


class Baseline(NamedTuple):
    """Counters as they stood when set-up ended."""

    attempted: int
    records: int

    @classmethod
    def of(cls, log) -> "Baseline":
        return cls(log.attempted, len(log.records))


# -- core_churn -----------------------------------------------------------------


def run_churn(args, shape, suite) -> dict:
    import servers
    from churn import Churn
    from loadgen import OpLog
    probe = speed.SpeedProbe()
    probe.start()
    phases = plan_phases(args.ops, args.trace)
    joins = joins_per_client(phases, 1)
    keys = inputs.joiner_keys(suite, args.seed, shape, 1, joins)
    server = servers.build_single(args.seed, shape, keys)
    log = OpLog()
    churn = Churn(args.seed, shape, suite, server, log)
    churn.warm_up()
    setup_s = _now() - args.t0
    if log.failed:
        raise RuntimeError(f"{log.failed} set-up operations failed")
    base = Baseline.of(log)
    churn.issued.clear()
    stream = inputs.closed_schedule(args.seed, shape, 1, joins)[0]
    recorder = None
    for phase in phases:
        if phase.traced:
            recorder = trace.Recorder("worker")
            trace.install_server_side(recorder)
            trace.install_client_side(recorder)
            trace.hook_pipeline(recorder, server.pipeline)
        phase.marks = sampled_marks(churn.sampled)
        phase.stats0 = servers.metrics_snapshot(
            server, server.instrumentation.registry)
        phase.cpu0 = time.process_time()
        phase.samples = churn.run(stream, phase.ops, inputs.SLICES)
        phase.cpu1 = time.process_time()
        phase.stats1 = servers.metrics_snapshot(
            server, server.instrumentation.registry)
    evidence = servers.end_state(server, [server.tree])
    spans, counts = [], {}
    if recorder is not None:
        recorder.uninstall()
        spans, counts = recorder.export(), recorder.counts
    schedule = hashlib.sha256(repr(churn.issued).encode()).hexdigest()
    return assemble(args, shape, log, churn.sampled, phases, evidence,
                    setup_s, base, spans, counts, probe.bursts,
                    {"schedule_digest": schedule})


# -- served workloads -------------------------------------------------------------


async def run_served(args, shape, suite) -> dict:
    from loadgen import HostLink, LoadGen, OpLog
    closed = args.workload != "serve_open_mixed"
    clients = inputs.CLOSED_CLIENTS if closed else 1
    phases = plan_phases(args.ops, args.trace)
    # An open loop joins at most once per arrival.
    joins = joins_per_client(phases, clients) if closed \
        else sum(phase.ops for phase in phases)
    link = await HostLink.spawn(
        args.workload, args.seed, args.scale,
        0.0 if closed else 1.0, clients, joins)
    log = OpLog(("join", "leave") if closed
                else ("join", "leave", "resync", "subcast"))
    gen = LoadGen(args.seed, shape, suite, link,
                  args.workload == "cluster_closed", log)
    try:
        await gen.open_sockets()
        await gen.warm_up()
        setup_s = _now() - args.t0
        if log.failed:
            raise RuntimeError(f"{log.failed} set-up operations failed")
        base = Baseline.of(log)
        # The load runs through every phase (and the bookkeeping gaps
        # between them); the phases are windows laid over it.
        if closed:
            streams = inputs.closed_schedule(args.seed, shape, clients, joins)
            tasks = [asyncio.ensure_future(gen.closed_client(i, stream))
                     for i, stream in enumerate(streams)]
            issued = None
        else:
            arrivals, heartbeaters = inputs.open_schedule(
                args.seed, shape, sum(phase.ops for phase in phases))
            gen.live = list(heartbeaters)
            stall = (len(arrivals) // 4, args.stall_ms / 1e3) \
                if args.stall_ms else None
            tasks = [asyncio.ensure_future(
                gen.open_loop(arrivals, _now() + 0.05, stall))]
            pump = asyncio.ensure_future(gen.heartbeats(args.seed))
            issued = arrivals
        recorder = None
        for phase in phases:
            if phase.traced:
                await link.call("trace")
                recorder = trace.Recorder("loadgen")
                trace.install_client_side(recorder)
            await measure(phase, link, gen, log, tasks)
        gen.stop()
        await asyncio.gather(*tasks)
        if not closed:
            await pump
        evidence = await link.call("finish")
    finally:
        gen.close_sockets()
        await link.close()
    spans = evidence.pop("spans", [])
    counts = evidence.pop("counts", {})
    if recorder is not None:
        recorder.uninstall()
        spans = trace.merge(spans, recorder.export())
    extra = {"heartbeats_sent": gen.heartbeats_sent,
             "pushes_seen": gen.pushes_seen}
    if issued is not None:
        extra["schedule_digest"] = hashlib.sha256(
            repr(issued).encode()).hexdigest()
        extra["sched_lag_max_ms"] = 1e3 * max(log.lags, default=0.0)
        extra["stalled_request_ms"] = max(
            (1e3 * (r.done - r.start) for r in log.records
             if r.start == gen.stalled_start), default=0.0)
    return assemble(args, shape, log, gen.sampled, phases, evidence,
                    setup_s, base, spans, counts, link.bursts, extra)


async def measure(phase: Phase, link, gen, log, tasks) -> None:
    """Lay one measured window of ``phase.ops`` requests over the
    running load, sampling the server's clocks at the edges of
    ``SLICES`` equal-count slices."""
    phase.marks = sampled_marks(gen.sampled)
    phase.stats0 = await link.call("stats")
    phase.cpu0 = time.process_time()
    first = await link.call("sample")
    phase.samples = [(first["t"], first["t"], first["cpu"])]
    origin = log.finished
    for index in range(1, inputs.SLICES + 1):
        await log.reached(origin + phase.ops * index // inputs.SLICES, tasks)
        sample = await link.call("sample")
        phase.samples.append((sample["t"], sample["t"], sample["cpu"]))
    phase.cpu1 = time.process_time()
    phase.stats1 = await link.call("stats")


# -- results ------------------------------------------------------------------------


def sampled_marks(sampled) -> Dict[str, int]:
    return {"install": len(sampled.install_s), "verify": len(sampled.verify_s),
            "multicasts": sampled.multicasts, "held_back": sampled.held_back}


def assemble(args, shape, log, sampled, phases, evidence, setup_s, base,
             spans, counts, bursts, extra) -> dict:
    """Metrics, counts and the end-of-run evidence as one document."""
    attempted = log.attempted - base.attempted
    completed = len(log.records) - base.records
    joins_ok = sum(1 for r in log.records if r.kind == "join")
    leaves_ok = sum(1 for r in log.records if r.kind == "leave")
    document = {
        "workload": args.workload, "seed": args.seed,
        "ops": args.ops, "scale": args.scale,
        "attempted": attempted, "completed": completed,
        "failed": log.failed,
        "evidence": {
            "server_group_key": evidence["group_key"],
            "sampled_group_keys": sampled.key_digests(),
            "witness_keys": sampled.witness_digests(),
            "witness_present": sampled.witness is not None,
            "joins_completed": joins_ok,
            "server_members": evidence["n_users"],
            "expected_members": shape.n - shape.warm + joins_ok - leaves_ok,
        },
        "diagnostics": dict(extra, retries=log.retries,
                            failed_kinds=log.failed_kinds,
                            held_back=sampled.held_back,
                            multicasts=sampled.multicasts),
    }
    measured = phases[0]
    e2e = report.end_to_end(log.records, sampled.installed_at,
                            sampled.op_bytes, measured.samples)
    # Latency medians are kept with the run's record; they do not
    # repeat well enough on a shared host to be gated (README.md).
    latency_s = e2e.pop("latency_s")
    document["diagnostics"].update(
        slices=e2e.pop("slices"),
        p50_ms=dict({kind: 1e3 * report.median(values)
                     for kind, values in latency_s.items()},
                    install=1e3 * report.median(e2e.pop("install_s"))))
    # Diagnostic only: how fast the host ran this window (speed.py).
    document["diagnostics"]["cpu_speed"] = speed.index(
        bursts, measured.samples[0][0], measured.samples[-1][0])
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = evidence["peak_rss_kb"] / 1024.0
    document["end_to_end"] = e2e
    if not args.trace:
        return document

    traced = phases[-1]
    t0, t1 = traced.samples[0][0], traced.samples[-1][0]
    window = [r for r in log.records if t0 <= r.done < t1]
    traced_e2e = report.end_to_end(log.records, sampled.installed_at,
                                   sampled.op_bytes, traced.samples)
    t_latency = traced_e2e["latency_s"]
    del traced_e2e["slices"]
    client = {
        "install_s": sampled.install_s[traced.marks["install"]:],
        "verify_s": sampled.verify_s[traced.marks["verify"]:],
        "acks": {r.token: r.acked - r.sent for r in window
                 if r.kind in ("join", "leave")},
        "subcast_s": t_latency["subcast"],
    }
    table = trace.SpanTable(spans, t0, t1)
    layers = report.layer_metrics(table, counts, traced.stats0, traced.stats1,
                                  t1 - t0, evidence, client)
    joins = t_latency["join"]
    within = sum(1 for s in joins if 1e3 * s <= report.JOIN_LIMIT_MS)
    server_cpu = traced.samples[-1][2] - traced.samples[0][2]
    # core_churn's one process spends the server's CPU too.
    harness_cpu = traced.cpu1 - traced.cpu0 - (
        server_cpu if args.workload == "core_churn" else 0.0)
    layers.update({
        # Group rekeys that reached the receivers ahead of a predecessor
        # (fan-out order is completion order, not plan order).
        "serve.reordered_ratio":
            (sampled.held_back - traced.marks["held_back"])
            / max(1, sampled.multicasts - traced.marks["multicasts"]),
        "loadgen.join_p50_ms": 1e3 * report.median(joins),
        "loadgen.join_p99_ms": 1e3 * report.percentile(joins, 0.99),
        "loadgen.leave_p50_ms": 1e3 * report.median(t_latency["leave"]),
        "loadgen.leave_p99_ms": 1e3 * report.percentile(
            t_latency["leave"], 0.99),
        "loadgen.install_p50_ms": 1e3 * report.median(
            traced_e2e["install_s"]),
        "loadgen.install_p99_ms": 1e3 * report.percentile(
            traced_e2e["install_s"], 0.99),
        "loadgen.resync_p50_ms": 1e3 * report.median(t_latency["resync"]),
        "loadgen.resync_p99_ms": 1e3 * report.percentile(
            t_latency["resync"], 0.99),
        "loadgen.samples": float(len(window)),
        "loadgen.sched_lag_p99_ms": 1e3 * report.percentile(log.lags, 0.99),
        "loadgen.within_limit_ratio":
            within / max(1, len(joins) + log.failed_kinds.get("join", 0)),
        "loadgen.retry_ratio": log.retries / max(1, attempted),
        "loadgen.failed": float(log.failed),
        "loadgen.busy_ratio": harness_cpu / (t1 - t0),
        "loadgen.server_busy_ratio": server_cpu / (t1 - t0),
        "loadgen.cpu_speed_index": speed.index(bursts, t0, t1),
        "loadgen.trace_overhead_ratio":
            traced_e2e["ops_per_s"] / e2e["ops_per_s"]
            if e2e["ops_per_s"] else 0.0,
    })
    document["per_layer"] = layers
    os.makedirs(os.path.join(_HERE, "out"), exist_ok=True)
    trace.dump(os.path.join(_HERE, "out", f"trace_{args.workload}.json"),
               args.workload, spans, counts)
    return document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the window: see inputs.window_ops")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--ops", type=int, default=None,
                        help="requests in the window instead of what "
                             "--seconds gives: membership ops (arrivals, "
                             "for the open loop)")
    parser.add_argument("--stall-ms", type=float, default=0.0,
                        help="open loop only: block the generator once, "
                             "this long (the smoke test's injected stall)")
    parser.add_argument("--t0", type=float, default=None,
                        help="perf_counter reading taken by the parent "
                             "just before it started this process")
    args = parser.parse_args()
    if args.t0 is None:
        args.t0 = _now()
    if args.ops is None:
        args.ops = inputs.window_ops(args.workload,
                                     args.seconds * min(1.0, args.scale))
    from repro.crypto.suite import PAPER_SUITE
    shape = inputs.Shape.scaled(args.scale)
    if args.workload == "core_churn":
        document = run_churn(args, shape, PAPER_SUITE)
    else:
        document = asyncio.run(run_served(args, shape, PAPER_SUITE))
    print(json.dumps(document))


if __name__ == "__main__":
    main()
