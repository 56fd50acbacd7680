"""Telemetry overhead benchmark: disabled instrumentation must be ~free.

The observability subsystem promises that components can declare
metric families and open spans unconditionally because the null
objects (``NULL_INSTRUMENTATION`` — null registry + null tracer) make
every call a no-op.  This harness verifies the promise with an
in-process A/B on the staged rekey pipeline:

* **control** — a frozen copy of the pipeline run loop exactly as it
  shipped before span tracing and registry histograms were added
  (stage clock and hook points only, no tracer spans, no
  ``record_run``), following the same frozen-baseline idiom as
  ``repro.crypto.reference``;
* **treatment** — the real :meth:`~repro.core.pipeline.RekeyPipeline.
  run` with ``NULL_INSTRUMENTATION`` (the default), which enters five
  null spans and makes one no-op ``record_run`` call per operation.

Both drive the same planner — a group-oriented-shaped rekey (several
multicast messages of real CBC encryptions, sized like a join on a
four-level tree) — over the same pipeline instance, interleaved in
alternating batches so clock drift and cache warmth cancel out.

A second pair measures telemetry *enabled* (real registry + tracer) so
the cost of turning it on is recorded too (informational; the paper's
measurement path keeps it on — its cost is part of measured server
processing time only insofar as stage clocks always ran).

A third A/B covers the async serving layer the same way: **control**
is the ``AsyncServingCore`` submit/rekey path frozen at its
pre-tracing shape (corr trailer only, untimed op lock, no flight
recorder, no spans), **treatment** is the real ``submit`` with the
default instrumentation (null tracer, flight recorder ON — the
shipping default).  Both drive leave+join churn over the *same* live
core, interleaved in alternating batches, so the measured delta is
exactly what distributed tracing plumbing costs when disabled.

Usage::

    python benchmarks/bench_observability.py            # full run
    python benchmarks/bench_observability.py --quick    # CI smoke
    python benchmarks/bench_observability.py --check    # enforce <2%
    python benchmarks/bench_observability.py --out X.json

Writes a ``repro-bench/1`` JSON report (default ``BENCH_PR8.json`` at
the repo root) via :mod:`bench_io`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_io  # noqa: E402
from repro.core.messages import (DEST_ALL, Destination,  # noqa: E402
                                 KeyRecord, OutboundMessage)
from repro.core.pipeline import (KeyMaterialSource,  # noqa: E402
                                 PipelineRun, RekeyPipeline)
from repro.core.strategies.base import PlannedMessage  # noqa: E402
from repro.crypto.suite import PAPER_SUITE_NO_SIG  # noqa: E402
from repro.observability import (NULL_INSTRUMENTATION,  # noqa: E402
                                 Instrumentation, StageClock, Tracer)

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_PR8.json")

#: Acceptance ceiling (``--check``): disabled telemetry vs control.
DISABLED_OVERHEAD_CEILING_PCT = 2.0

# Workload shape: a group-oriented join on a degree-4, four-level tree
# sends ~4 multicast messages carrying ~2 key records each.
_N_MESSAGES = 4
_RECORDS_PER_MESSAGE = 2


def _make_planner(material):
    """A plan stage shaped like a tree join: real keys, real encrypts."""
    def planner(ctx):
        plans = []
        for index in range(_N_MESSAGES):
            records = [
                KeyRecord(100 + index * 8 + offset, 1, material.new_key())
                for offset in range(_RECORDS_PER_MESSAGE)]
            item = ctx.encrypt(material.new_key(), records,
                               50 + index, 1)
            plans.append(PlannedMessage(Destination.to_all(), [item]))
        return plans

    return planner


def control_run(pipeline, op, planner, *, strategy_code=0, root_ref=None,
                user_id=""):
    """The pipeline run loop frozen at its pre-telemetry shape.

    Byte-for-byte the same staged work as ``RekeyPipeline.run`` —
    stage clock, hook points, receiver resolution after the clock —
    minus the telemetry call sites added with the observability
    subsystem (tracer spans, ``record_run``, the error-path guard).
    """
    clock = StageClock()
    ctx = pipeline.new_context()
    run = PipelineRun(op=op, user_id=user_id,
                      strategy_code=strategy_code, context=ctx)

    with clock.stage("plan"):
        run.plans = list(planner(ctx))
    pipeline._fire("plan", run)

    with clock.stage("encrypt"):
        ctx.materialize()
    pipeline._fire("encrypt", run)

    with clock.stage("sign"):
        run.wire_messages = pipeline._assemble(run, root_ref)
        run.signatures = pipeline._seal(run.wire_messages)
    pipeline._fire("sign", run)

    with clock.stage("dispatch"):
        run.messages = [
            OutboundMessage(plan.destination, message, (),
                            message.encode())
            for plan, message in zip(run.plans, run.wire_messages)]
    run.seconds = clock.stop()

    for outbound, plan in zip(run.messages, run.plans):
        if plan.destination.kind != DEST_ALL:
            outbound.receivers = plan.resolve_receivers()
    pipeline._fire("dispatch", run)

    run.stage_seconds = dict(clock.stages)
    return run


def _drive(pipeline, driver, planner, n_runs):
    """Time ``n_runs`` operations through ``driver``; returns seconds."""
    start = time.perf_counter()
    for _ in range(n_runs):
        driver(pipeline, planner)
    return time.perf_counter() - start


def _ab_compare(make_pipeline, n_runs, n_batches):
    """Interleaved A/B: returns best (control_s, treatment_s) per batch.

    Batches of the two arms alternate, and each arm is scored by its
    *fastest* batch — the min-of-batches estimator discards scheduler
    preemption and thermal noise, which only ever slow a batch down.
    """
    pipeline = make_pipeline()
    material = pipeline.material
    planner = _make_planner(material)

    def control(p, plan):
        control_run(p, "join", plan, root_ref=lambda: (1, 1))

    def treatment(p, plan):
        p.run("join", plan, root_ref=lambda: (1, 1))

    # Warm up both paths (key-schedule cache, bytecode, allocator).
    _drive(pipeline, control, planner, max(2, n_runs // 10))
    _drive(pipeline, treatment, planner, max(2, n_runs // 10))

    per_batch = max(1, n_runs // n_batches)
    control_best = float("inf")
    treatment_best = float("inf")
    for _ in range(n_batches):
        control_best = min(control_best,
                           _drive(pipeline, control, planner, per_batch))
        treatment_best = min(treatment_best,
                             _drive(pipeline, treatment, planner, per_batch))
    return control_best, treatment_best, per_batch


# -- the async serving layer A/B ---------------------------------------------


def _serve_imports():
    """Deferred: the serve stack is only needed for its own A/B."""
    import asyncio

    from repro.core.messages import (DEST_USER, MSG_JOIN_REQUEST,
                                     MSG_LEAVE_REQUEST, Message)
    from repro.core.server import GroupKeyServer, ServerConfig
    from repro.serve import AsyncServingCore, ServeConfig
    from repro.serve.core import _DIRECT_TYPES, _corr
    from repro.serve.wire import split_corr_trailer
    return (asyncio, DEST_USER, MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
            Message, GroupKeyServer, ServerConfig, AsyncServingCore,
            ServeConfig, _DIRECT_TYPES, _corr, split_corr_trailer)


def serve_ab_compare(n_ops, n_batches):
    """A/B the serve request path; returns (control_s, real_s, per_batch).

    ``control`` replays the submit/rekey loop frozen at its PR7 shape,
    inline on the loop as the core now serves it: corr-trailer split,
    plan, staged encrypt/seal/finish, ``_corr``-only routing — no
    ``split_trailers``, no spans, no flight events, no wait histograms.
    ``treatment`` is the real :meth:`AsyncServingCore.submit` with
    the shipping defaults (null tracer, flight recorder enabled).  Both
    arms drive leave+join pairs of the *same* members over one live
    core, so tree state cancels out; min-of-batches scores each arm.
    """
    (asyncio, DEST_USER, MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST, Message,
     GroupKeyServer, ServerConfig, AsyncServingCore, ServeConfig,
     _DIRECT_TYPES, _corr, split_corr_trailer) = _serve_imports()

    members = [f"bench-{i:03d}" for i in range(64)]

    async def control_submit(core, data, reply):
        payload, token = split_corr_trailer(data)
        message = Message.decode(payload)
        core._m_requests.inc(
            type="join" if message.msg_type == MSG_JOIN_REQUEST else "leave")
        user_id = message.body.decode("utf-8")
        op = "join" if message.msg_type == MSG_JOIN_REQUEST else "leave"
        core._admit_rate(user_id)
        core._inflight += 1
        core._m_inflight.set(core._inflight)
        try:
            server = core.backend
            staged = (server.begin_join(user_id) if op == "join"
                      else server.begin_leave(user_id))
            outcome = staged.encrypt().seal().finish()
            # PR7 routing: direct acks back on the reply path, the
            # rest to the fan-out (same split the real _route makes).
            for out in outcome.all_messages:
                wire = out.encoded or out.message.encode()
                if (out.destination.kind == DEST_USER
                        and out.destination.user_id == user_id
                        and out.message.msg_type in _DIRECT_TYPES):
                    reply(_corr(wire, token))
                else:
                    core.fanout.send(out, payload=wire)
            core._track(op, user_id)
        finally:
            core._inflight -= 1
            core._m_inflight.set(core._inflight)

    def real_submit(core, data, reply):
        return core.submit(data, reply, path_id=None)

    def request(msg_type, user_id):
        return Message(msg_type=msg_type, body=user_id.encode()).encode()

    sink = []

    async def churn(core, submit, n_pairs, offset, keys):
        # leave + rejoin the same member: tree size is invariant, so
        # both arms do identical cryptographic work every pair.  A
        # leave forgets the member's key, so rejoin re-registers it —
        # identically cheap in both arms.
        for index in range(n_pairs):
            user = members[(offset + index) % len(members)]
            await submit(core, request(MSG_LEAVE_REQUEST, user),
                         sink.append)
            core.backend.register_individual_key(user, keys[user])
            await submit(core, request(MSG_JOIN_REQUEST, user),
                         sink.append)
        sink.clear()

    async def run():
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"bench-observability-serve"))
        core = AsyncServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=False))
        try:
            roster = [(uid, server.new_individual_key()) for uid in members]
            keys = dict(roster)
            server.bootstrap(roster)

            per_batch = max(1, n_ops // n_batches)
            # Warm both arms (executor threads, key schedules, caches).
            await churn(core, control_submit, max(2, per_batch // 4), 0,
                        keys)
            await churn(core, real_submit, max(2, per_batch // 4), 7, keys)

            control_best = float("inf")
            real_best = float("inf")
            for batch in range(n_batches):
                start = time.perf_counter()
                await churn(core, control_submit, per_batch, batch, keys)
                control_best = min(control_best,
                                   time.perf_counter() - start)
                start = time.perf_counter()
                await churn(core, real_submit, per_batch, batch, keys)
                real_best = min(real_best, time.perf_counter() - start)
            return control_best, real_best, per_batch * 2
        finally:
            await core.aclose()

    return asyncio.run(run())


def _make_disabled_pipeline():
    material = KeyMaterialSource(PAPER_SUITE_NO_SIG, b"bench-observability")
    return RekeyPipeline(PAPER_SUITE_NO_SIG, material, signer=None,
                         instrumentation=NULL_INSTRUMENTATION)


def _make_enabled_pipeline():
    material = KeyMaterialSource(PAPER_SUITE_NO_SIG, b"bench-observability")
    instrumentation = Instrumentation("bench", tracer=Tracer(capacity=512))
    return RekeyPipeline(PAPER_SUITE_NO_SIG, material, signer=None,
                         instrumentation=instrumentation)


def run_benchmarks(quick: bool) -> dict:
    report = bench_io.new_report("PR8-observability", quick)
    n_runs = 400 if quick else 4000
    n_batches = 8 if quick else 20

    control_s, disabled_s, runs = _ab_compare(_make_disabled_pipeline,
                                              n_runs, n_batches)
    disabled_pct = 100.0 * (disabled_s - control_s) / control_s
    bench_io.add_metric(report, "pipeline_control_runs_per_s", "runs/s",
                        runs / control_s)
    bench_io.add_metric(report, "pipeline_disabled_runs_per_s", "runs/s",
                        runs / disabled_s)
    bench_io.add_metric(report, "disabled_telemetry_overhead_pct", "%",
                        disabled_pct)

    control_s, enabled_s, runs = _ab_compare(_make_enabled_pipeline,
                                             n_runs, n_batches)
    enabled_pct = 100.0 * (enabled_s - control_s) / control_s
    bench_io.add_metric(report, "pipeline_enabled_runs_per_s", "runs/s",
                        runs / enabled_s)
    bench_io.add_metric(report, "enabled_telemetry_overhead_pct", "%",
                        enabled_pct)

    n_ops = 200 if quick else 1600
    serve_batches = 6 if quick else 12
    control_s, real_s, ops = serve_ab_compare(n_ops, serve_batches)
    serve_pct = 100.0 * (real_s - control_s) / control_s
    bench_io.add_metric(report, "serve_control_ops_per_s", "ops/s",
                        ops / control_s)
    bench_io.add_metric(report, "serve_default_ops_per_s", "ops/s",
                        ops / real_s)
    bench_io.add_metric(report, "serve_disabled_overhead_pct", "%",
                        serve_pct)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short run for CI smoke (seconds, noisier)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless disabled overhead is under "
                             f"{DISABLED_OVERHEAD_CEILING_PCT}%%")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report path (default BENCH_PR3.json)")
    args = parser.parse_args(argv)

    report = run_benchmarks(args.quick)
    bench_io.write_report(args.out, report)
    for name, metric in sorted(report["metrics"].items()):
        print(f"{name:40s} {metric['value']:>12.4f} {metric['unit']}")
    print(f"\nwrote {args.out}")

    if args.check:
        failed = False
        for name in ("disabled_telemetry_overhead_pct",
                     "serve_disabled_overhead_pct"):
            overhead = report["metrics"][name]["value"]
            if overhead >= DISABLED_OVERHEAD_CEILING_PCT:
                print(f"CHECK FAILED: {name} {overhead:.2f}% >= "
                      f"{DISABLED_OVERHEAD_CEILING_PCT}%", file=sys.stderr)
                failed = True
            else:
                print(f"CHECK OK: {name} {overhead:.2f}% < "
                      f"{DISABLED_OVERHEAD_CEILING_PCT}%")
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
