"""Crash-recovery serving benchmark (PR 10): TTR, availability, no dups.

Self-hosts a supervised 3-shard cluster, drives it with the loadgen
client pool, and crashes one shard (SIGKILL-equivalent, torn journal
tail) in the middle of the steady window.  The watchdog must notice
and revive it while clients ride out the gap on deadline/backoff
retries.  Reported and gated:

* **time-to-recover** — declared-dead to serving-again, supervisor
  clock (``--check``: <= 5 s);
* **availability** — logical client ops that reached a terminal answer
  despite the crash, retries included (``--check``: >= 99%; the crash
  window itself is masked by the retry deadline, which outlives the
  restart);
* **duplicate suppression** — a deliberate retry storm (the same join
  re-sent with one correlation token, many times) must produce exactly
  one execution: zero follow-up rekeys, every duplicate answered by
  replay (``--check``: double-applies == 0);
* **byte identity** — every shard's journal replays to the live
  server's exact snapshot after the dust settles.

Usage::

    python benchmarks/bench_recovery_serve.py            # full run
    python benchmarks/bench_recovery_serve.py --quick    # CI smoke
    python benchmarks/bench_recovery_serve.py --check    # enforce gates
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
from repro.core.messages import MSG_JOIN_REQUEST, Message  # noqa: E402
from repro.core.server import ServerConfig  # noqa: E402
from repro.serve import ServeConfig  # noqa: E402
from repro.serve.loadgen import LoadProfile, run_load  # noqa: E402
from repro.serve.supervise import (SupervisePolicy,  # noqa: E402
                                   Supervisor, SupervisorError)
from repro.serve.wire import attach_corr_trailer  # noqa: E402

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_PR10.json")

#: --check gates (mode-independent: these are behaviour, not hardware).
MAX_RECOVER_SECONDS = 5.0
MIN_AVAILABILITY = 0.99
MIN_JOIN_FRACTION = 0.9
STORM_DUPLICATES = 32


def _profile(quick: bool) -> LoadProfile:
    if quick:
        return LoadProfile(clients=64, sockets=8, duration=3.0,
                           churn_clients=8, heartbeat_interval=0.4,
                           resync_fraction=0.02, ramp_concurrency=32,
                           request_timeout=0.5, request_deadline=6.0,
                           retry_budget=8)
    return LoadProfile(clients=400, sockets=16, duration=8.0,
                       churn_clients=24, heartbeat_interval=0.5,
                       resync_fraction=0.01, ramp_concurrency=48,
                       request_timeout=0.5, request_deadline=6.0,
                       retry_budget=8)


async def _retry_storm(supervisor, n_duplicates: int) -> dict:
    """One join, re-sent ``n_duplicates`` times with the same token.

    The server's idempotency cache must absorb every duplicate: the
    sequence counter moves for the first execution only, and each
    duplicate that arrives after completion replays the original reply.
    """
    shard = supervisor.shard(0)
    server = shard.server
    user = "storm-user"
    server.register_individual_key(user, b"\x51" * server.suite.key_size)
    token = 0x57CA11
    request = attach_corr_trailer(
        Message(msg_type=MSG_JOIN_REQUEST, body=user.encode()).encode(),
        token)
    first: list = []
    await shard.core.submit(request, first.append, path_id=None)
    if not server.is_member(user):
        raise SupervisorError("storm join did not apply")
    seq_before = server._seq
    replayed = 0
    for _ in range(n_duplicates):
        box: list = []
        await shard.core.submit(request, box.append, path_id=None)
        if box and first and box[0] == first[0]:
            replayed += 1
    double_applies = server._seq - seq_before
    return {"duplicates": n_duplicates, "replayed": replayed,
            "double_applies": double_applies}


async def _run(quick: bool, log) -> dict:
    import tempfile
    profile = _profile(quick)
    journal_dir = tempfile.mkdtemp(prefix="bench-recovery-")
    policy = SupervisePolicy(probe_interval=0.1, probe_deadline=0.75,
                             probe_misses=1, restart_backoff=0.1,
                             mode="journal")
    supervisor = Supervisor(
        3,
        server_config=ServerConfig(signing="none", seed=b"bench-recovery"),
        serve_config=ServeConfig(tcp_port=None, max_inflight=256,
                                 tick_interval=0.5),
        journal_dir=journal_dir, policy=policy)
    await supervisor.start()
    victim = supervisor.shard(1)
    crash: dict = {}

    async def chaos() -> None:
        await asyncio.sleep(max(0.5, profile.duration * 0.3))
        generation = victim.generation
        started = time.monotonic()
        # SIGKILL-equivalent plus a torn tail: the hardest journal case.
        await supervisor.kill(victim.shard_id, tear_tail=7)
        log(f"killed {victim.name} (journal tail torn)")
        while victim.generation == generation or victim.state != "up":
            if victim.state == "failed":
                raise SupervisorError(f"{victim.name} failed to restart")
            await asyncio.sleep(0.02)
        crash["recover_seconds"] = time.monotonic() - started
        log(f"{victim.name} recovered in "
            f"{crash['recover_seconds'] * 1e3:.0f} ms")

    async def on_phase(phase: str) -> None:
        if phase == "steady-start" and "task" not in crash:
            crash["task"] = asyncio.create_task(chaos())

    try:
        stats = await run_load(supervisor.addresses, profile,
                               log=log, on_phase=on_phase)
        if "task" in crash:
            await crash["task"]
        results = stats.as_dict()
        results["recover_seconds"] = crash.get("recover_seconds")
        results["victim_restarts"] = victim.restarts

        # Availability: logical ops that reached a terminal answer.
        # Retries are the instrument, not a failure — only a request
        # that ran its whole deadline/budget out counts against it.
        terminal = results["acked_ops"] + results["denied"]
        attempted = terminal + results["budget_exhausted"]
        results["availability"] = (terminal / attempted if attempted
                                   else 0.0)

        results["storm"] = await _retry_storm(supervisor, STORM_DUPLICATES)

        results["journal_identical"] = all(
            supervisor.verify_shard(shard.shard_id)
            for shard in supervisor.shards)
        return results
    finally:
        await supervisor.aclose()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Crash-recovery serving benchmark (PR 10).")
    parser.add_argument("--quick", action="store_true",
                        help="small cluster / short windows for CI smoke")
    parser.add_argument("--check", action="store_true",
                        help="enforce the recovery gates")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report path (default BENCH_PR10.json)")
    args = parser.parse_args(argv)

    def log(text):
        print(text, file=sys.stderr)

    results = asyncio.run(_run(args.quick, log))

    profile = _profile(args.quick)
    join_fraction = results["ramp_joined"] / profile.clients
    recover = results["recover_seconds"] or float("inf")
    storm = results["storm"]

    report = bench_io.new_report("PR10", args.quick)
    bench_io.add_metric(report, "recovery_time_to_recover", "s",
                        round(recover, 4))
    bench_io.add_metric(report, "recovery_availability", "fraction",
                        round(results["availability"], 5))
    bench_io.add_metric(report, "recovery_join_fraction", "fraction",
                        round(join_fraction, 4))
    bench_io.add_metric(report, "recovery_client_retries", "retries",
                        results["retries"])
    bench_io.add_metric(report, "recovery_budget_exhausted", "requests",
                        results["budget_exhausted"])
    bench_io.add_metric(report, "recovery_storm_duplicates", "requests",
                        storm["duplicates"])
    bench_io.add_metric(report, "recovery_storm_replayed", "requests",
                        storm["replayed"])
    bench_io.add_metric(report, "recovery_storm_double_applies", "ops",
                        storm["double_applies"])
    bench_io.add_metric(report, "recovery_journal_identical", "bool",
                        1.0 if results["journal_identical"] else 0.0)
    bench_io.add_metric(report, "recovery_victim_restarts", "restarts",
                        results["victim_restarts"])

    bench_io.write_report(args.out, report)
    print(f"wrote {args.out}")
    for name, metric in report["metrics"].items():
        print(f"  {name}: {metric['value']} {metric['unit']}")

    if args.check:
        failures = []
        if recover > MAX_RECOVER_SECONDS:
            failures.append(f"time-to-recover {recover:.2f}s over "
                            f"{MAX_RECOVER_SECONDS:.0f}s")
        if results["availability"] < MIN_AVAILABILITY:
            failures.append(
                f"availability {results['availability']:.2%} under "
                f"{MIN_AVAILABILITY:.0%}")
        if join_fraction < MIN_JOIN_FRACTION:
            failures.append(f"only {join_fraction:.1%} of clients joined")
        if results["victim_restarts"] < 1:
            failures.append("victim shard records no restart")
        if storm["double_applies"] != 0:
            failures.append(f"retry storm double-applied "
                            f"{storm['double_applies']} ops")
        if storm["replayed"] < 1:
            failures.append("retry storm saw no idempotent replays")
        if not results["journal_identical"]:
            failures.append("journal replay diverged from a live shard")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("checks passed: recovery floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
