"""A 10k-client load generator for the async serving layer.

The paper's experiments simulated thousands of clients against one key
server; this module does the same against the live async front end —
without 10,000 sockets or processes.  Simulated clients multiplex over
a small pool of UDP sockets; every request carries a correlation
trailer (:mod:`repro.serve.wire`) and a per-socket demux task resolves
replies to the issuing client by token.  Group-wide rekey multicasts
arrive uncorrelated; the pool folds their root refs into a shared
"latest group key" view so heartbeats stay current (a client that saw
the multicast *is* current) instead of manufacturing a resync storm.

Three traffic classes, mixed per the run profile:

* **churn** — join/leave cycles with acked round-trip latency;
* **heartbeats** — fire-and-forget liveness at a jittered interval
  (the dominant class, as in any real group);
* **resyncs** — occasional client-initiated recovery round-trips.

``python -m repro.serve.loadgen`` self-hosts a sharded cluster behind
:class:`~repro.serve.endpoint.AsyncKeyService` and drives it;
``--udp host:port[,host:port...]`` targets an external service
instead.  Results print as JSON (req/s, p50/p99 latency, busy/timeout
counts) for the bench harness to gate on.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.messages import (MSG_BUSY, MSG_HEARTBEAT, MSG_JOIN_ACK,
                             MSG_JOIN_DENIED, MSG_JOIN_REQUEST,
                             MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST, MSG_REKEY,
                             MSG_RESYNC_REPLY, MSG_RESYNC_REQUEST,
                             MSG_SUBCAST, MSG_SUBCAST_REQUEST,
                             Message, WireError)
from ..subcast.wire import encode_subcast_request
from ..transport.udp import scrape_stats
from .rpc import ResilientRpc, RetryPolicy
from .wire import attach_corr_trailer, split_corr_trailer

_BUFFER = 65535


@dataclass
class LoadProfile:
    """Shape of one load run."""

    clients: int = 10_000
    sockets: int = 32
    duration: float = 10.0          # steady-state seconds after the ramp
    churn_clients: int = 200        # clients cycling leave/join
    heartbeat_interval: float = 5.0  # per-client, jittered
    resync_fraction: float = 0.02   # chance per heartbeat of a resync RPC
    subcast_fraction: float = 0.0   # chance per heartbeat of a subcast RPC
    subcast_targets: int = 8        # subset size per subcast request
    subcast_size: int = 64          # application payload bytes
    ramp_concurrency: int = 48      # concurrent joins during the ramp
    #: Per-attempt timeout; retries back off exponentially from
    #: ``backoff_base`` (capped, jittered) under an overall
    #: ``request_deadline``, spending at most ``retry_budget`` retries
    #: per logical request (see :class:`~repro.serve.rpc.RetryPolicy`).
    #: ``MSG_BUSY`` replies re-enter the same backoff loop.
    request_timeout: float = 2.0
    request_deadline: float = 8.0
    retry_budget: int = 5
    backoff_base: float = 0.05
    backoff_cap: float = 1.0

    def validate(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.sockets < 1:
            raise ValueError("sockets must be >= 1")
        if self.churn_clients > self.clients:
            raise ValueError("churn_clients cannot exceed clients")
        if self.subcast_fraction and self.subcast_targets < 1:
            raise ValueError("subcast_targets must be >= 1")

    def retry_policy(self) -> RetryPolicy:
        """The :class:`~repro.serve.rpc.RetryPolicy` this profile implies."""
        return RetryPolicy(
            timeout=self.request_timeout,
            deadline=max(self.request_deadline, self.request_timeout),
            budget=self.retry_budget,
            backoff_base=self.backoff_base,
            backoff_cap=max(self.backoff_cap, self.backoff_base))


@dataclass
class LoadStats:
    """Everything the run observed, JSON-serializable via as_dict()."""

    acked: Dict[str, List[float]] = field(
        default_factory=lambda: {"join": [], "leave": [], "resync": [],
                                 "subcast": []})
    heartbeats_sent: int = 0
    subcasts_received: int = 0      # sealed MSG_SUBCAST copies fanned out
    ramp_joined: int = 0            # distinct clients acked during ramp
    busy: int = 0
    denied: int = 0
    timeouts: int = 0               # individual attempts that timed out
    retries: int = 0                # extra attempts beyond the first
    budget_exhausted: int = 0       # requests whose retry budget or
                                    # deadline ran dry without a reply
    uncorrelated: int = 0           # multicast rekeys / recovery pushes
    ramp_seconds: float = 0.0
    steady_seconds: float = 0.0

    def _latency(self, values: Sequence[float]) -> dict:
        if not values:
            return {"count": 0}
        ordered = sorted(values)

        def pct(q: float) -> float:
            return ordered[min(len(ordered) - 1,
                               int(q * (len(ordered) - 1) + 0.5))]
        return {"count": len(ordered),
                "p50_ms": pct(0.50) * 1e3,
                "p99_ms": pct(0.99) * 1e3,
                "max_ms": ordered[-1] * 1e3}

    def as_dict(self) -> dict:
        ops = sum(len(v) for v in self.acked.values())
        total = ops + self.heartbeats_sent + self.busy + self.timeouts
        elapsed = max(self.steady_seconds, 1e-9)
        return {
            "acked_ops": ops,
            "requests_total": total,
            "heartbeats_sent": self.heartbeats_sent,
            "subcasts_received": self.subcasts_received,
            "ramp_joined": self.ramp_joined,
            "busy_replies": self.busy,
            "denied": self.denied,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "budget_exhausted": self.budget_exhausted,
            "uncorrelated_received": self.uncorrelated,
            "ramp_seconds": self.ramp_seconds,
            "steady_seconds": self.steady_seconds,
            "steady_req_per_s": (
                (self.heartbeats_sent
                 + sum(len(v) for v in self.acked.values())) / elapsed),
            "latency": {op: self._latency(v)
                        for op, v in self.acked.items()},
        }


class _PoolProtocol(asyncio.DatagramProtocol):
    """Demultiplexes replies for one pool socket, inline on the loop.

    A protocol receives datagrams via the loop's persistent reader
    registration; the ``loop.sock_recv`` alternative registers and
    unregisters the fd with epoll for *every* datagram, which at 10k
    clients is a measurable fraction of the whole run.
    """

    def __init__(self, pool: "ClientPool"):
        self.pool = pool

    def datagram_received(self, data: bytes, addr) -> None:
        pool = self.pool
        payload, token = split_corr_trailer(data)
        try:
            message = Message.decode(payload)
        except WireError:
            return
        if message.msg_type in (MSG_REKEY, MSG_RESYNC_REPLY):
            pool.latest_ref = (message.root_node_id,
                               message.root_version)
        if token is None:
            if message.msg_type == MSG_SUBCAST:
                pool.stats.subcasts_received += 1
            else:
                pool.stats.uncorrelated += 1
            return
        future = pool._pending.pop(token, None)
        if future is not None and not future.done():
            future.set_result(message)

    def error_received(self, exc) -> None:  # ICMP noise: keep receiving
        pass


class ClientPool:
    """N simulated clients multiplexed over a few UDP sockets."""

    def __init__(self, addresses: Sequence[Tuple[str, int]],
                 profile: LoadProfile, stats: LoadStats):
        self.addresses = list(addresses)
        self.profile = profile
        self.stats = stats
        self._transports: List[asyncio.DatagramTransport] = []
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_token = 1
        self._rpc = ResilientRpc(profile.retry_policy())
        #: The most recent group-key ref seen in any rekey multicast,
        #: resync reply or ack — what a live member would believe.
        self.latest_ref: Tuple[int, int] = (0, 0)

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(self.profile.sockets):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            sock.setblocking(False)
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda: _PoolProtocol(self), sock=sock)
            self._transports.append(transport)

    async def aclose(self) -> None:
        for transport in self._transports:
            transport.close()
        self._transports = []

    # -- plumbing ----------------------------------------------------------

    def transport_for(self, index: int) -> asyncio.DatagramTransport:
        return self._transports[index % len(self._transports)]

    def addr_for(self, index: int) -> Tuple[str, int]:
        return self.addresses[index % len(self.addresses)]

    async def rpc(self, index: int, msg_type: int, user_id: str,
                  body: Optional[bytes] = None) -> Optional[Message]:
        """One correlated request through the resilient retry loop.

        Timeouts and ``MSG_BUSY`` replies retry with capped
        exponential backoff under the profile's deadline and budget
        (the server's idempotency cache makes the retries safe); a
        request whose budget or deadline runs dry counts into
        ``stats.budget_exhausted`` and returns None.
        """
        transport = self.transport_for(index)
        addr = self.addr_for(index)
        if body is None:
            body = user_id.encode("utf-8")
        # One token for every attempt: a retried op whose *first*
        # request was merely slow still correlates with the late ack,
        # and the server's idempotency cache recognizes the duplicate
        # by this token instead of re-executing it.
        token = self._next_token
        self._next_token += 1
        request = attach_corr_trailer(
            Message(msg_type=msg_type, body=body).encode(), token)

        async def attempt(timeout: float) -> Optional[Message]:
            future = asyncio.get_running_loop().create_future()
            self._pending[token] = future
            # Transport sends never raise on a full buffer — the
            # transport queues and flushes when the socket drains.
            transport.sendto(request, addr)
            try:
                return await asyncio.wait_for(future, timeout)
            except asyncio.TimeoutError:
                return None
            finally:
                self._pending.pop(token, None)

        outcome = await self._rpc.call(
            attempt, retryable=lambda m: m.msg_type == MSG_BUSY)
        self.stats.timeouts += outcome.timeouts
        self.stats.busy += outcome.retried_replies
        self.stats.retries += max(0, outcome.attempts - 1)
        if not outcome.ok:
            self.stats.budget_exhausted += 1
        return outcome.reply

    def heartbeat(self, index: int, user_id: str) -> None:
        node_id, version = self.latest_ref
        message = Message(msg_type=MSG_HEARTBEAT, root_node_id=node_id,
                          root_version=version,
                          body=user_id.encode("utf-8"))
        self.transport_for(index).sendto(message.encode(),
                                         self.addr_for(index))
        self.stats.heartbeats_sent += 1

    # -- operations --------------------------------------------------------

    async def acked_op(self, index: int, op: str,
                       user_id: str) -> bool:
        """Join/leave/resync with latency recorded; True on ack."""
        msg_type = {"join": MSG_JOIN_REQUEST, "leave": MSG_LEAVE_REQUEST,
                    "resync": MSG_RESYNC_REQUEST}[op]
        started = time.monotonic()
        reply = await self.rpc(index, msg_type, user_id)
        if reply is None:
            return False
        if reply.msg_type == MSG_JOIN_DENIED:
            # A duplicate of a join that already landed but whose ack
            # was lost *and* aged out of the server's idempotency
            # cache: a resync reply proves membership, which is what
            # joining means.
            confirm = await self.rpc(index, MSG_RESYNC_REQUEST, user_id)
            if (confirm is not None
                    and confirm.msg_type == MSG_RESYNC_REPLY):
                self.latest_ref = (confirm.root_node_id,
                                   confirm.root_version)
                self.stats.acked[op].append(time.monotonic() - started)
                return True
            self.stats.denied += 1
            return False
        if reply.msg_type == MSG_LEAVE_DENIED:
            self.stats.denied += 1
            return False
        if reply.msg_type == MSG_JOIN_ACK:
            self.latest_ref = (reply.root_node_id, reply.root_version)
        self.stats.acked[op].append(time.monotonic() - started)
        return True

    async def subcast_op(self, index: int, sender: str,
                         targets: Sequence[str],
                         payload: bytes) -> bool:
        """One covered-multicast request; the sealed reply is the ack."""
        body = encode_subcast_request(sender, targets, payload)
        started = time.monotonic()
        reply = await self.rpc(index, MSG_SUBCAST_REQUEST, sender,
                               body=body)
        if reply is None:
            return False
        if reply.msg_type != MSG_SUBCAST:
            self.stats.denied += 1
            return False
        self.stats.acked["subcast"].append(time.monotonic() - started)
        return True


async def run_load(addresses: Sequence[Tuple[str, int]],
                   profile: LoadProfile,
                   log=lambda text: None,
                   on_phase=None) -> LoadStats:
    """Drive one load run against live serving addresses.

    ``on_phase``, when given, is awaited with ``"steady-start"`` right
    after the ramp completes and ``"steady-end"`` when the steady
    window closes — the benchmark harness scrapes server-side counters
    at exactly those boundaries.
    """
    profile.validate()
    stats = LoadStats()
    pool = ClientPool(addresses, profile, stats)
    await pool.start()
    try:
        users = [f"lg-{index:05d}" for index in range(profile.clients)]
        # Ramp: everyone joins, bounded concurrency, busy-backoff.
        ramp_started = time.monotonic()
        gate = asyncio.Semaphore(profile.ramp_concurrency)

        async def ramp_join(index: int) -> None:
            async with gate:
                await pool.acked_op(index, "join", users[index])
        await asyncio.gather(*(ramp_join(index)
                               for index in range(profile.clients)))
        stats.ramp_seconds = time.monotonic() - ramp_started
        stats.ramp_joined = len(stats.acked["join"])
        log(f"ramp: {stats.ramp_joined}/{profile.clients} joined "
            f"in {stats.ramp_seconds:.1f}s")

        # Steady state: heartbeats + churn + resyncs for `duration`.
        if on_phase is not None:
            await on_phase("steady-start")
        deadline = time.monotonic() + profile.duration
        steady_started = time.monotonic()

        async def member_loop(index: int) -> None:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                interval = profile.heartbeat_interval * (
                    0.5 + random.random())
                await asyncio.sleep(min(interval, remaining))
                if time.monotonic() >= deadline:
                    return
                roll = random.random()
                if roll < profile.resync_fraction:
                    await pool.acked_op(index, "resync", users[index])
                elif roll < (profile.resync_fraction
                             + profile.subcast_fraction):
                    # A contiguous window of stable members: clustered
                    # subsets are the paper-favorable covering case.
                    stable = users[profile.churn_clients:]
                    width = min(profile.subcast_targets, len(stable))
                    start = random.randrange(len(stable) - width + 1)
                    await pool.subcast_op(
                        index, users[index], stable[start:start + width],
                        bytes(profile.subcast_size))
                else:
                    pool.heartbeat(index, users[index])

        async def churn_loop(index: int) -> None:
            while time.monotonic() < deadline:
                if await pool.acked_op(index, "leave", users[index]):
                    await pool.acked_op(index, "join", users[index])
                await asyncio.sleep(0.01 * (0.5 + random.random()))

        member_tasks = [asyncio.create_task(member_loop(index))
                        for index in range(profile.churn_clients,
                                           profile.clients)]
        churn_tasks = [asyncio.create_task(churn_loop(index))
                       for index in range(profile.churn_clients)]
        await asyncio.gather(*member_tasks, *churn_tasks)
        stats.steady_seconds = time.monotonic() - steady_started
        if on_phase is not None:
            await on_phase("steady-end")
    finally:
        await pool.aclose()
    return stats


# -- self-hosted target --------------------------------------------------------


async def self_hosted_cluster(n_shards: int = 3, seed: bytes = b"loadgen",
                              config=None, tracing: bool = False):
    """A live 3-shard cluster service on ephemeral loopback ports.

    With ``tracing`` the coordinator (and so the serving core) gets a
    real :class:`~repro.observability.spans.Tracer`; spans are
    reachable in-process via ``service.core.instrumentation.tracer``
    and ride along stats scrapes.
    """
    from ..cluster.coordinator import ClusterConfig, ClusterCoordinator
    from .config import ServeConfig
    from .core import AsyncServingCore
    from .endpoint import AsyncKeyService
    instrumentation = None
    if tracing:
        from ..observability.instrumentation import Instrumentation
        from ..observability.spans import Tracer
        instrumentation = Instrumentation("cluster",
                                          tracer=Tracer(capacity=8192))
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=n_shards, signing="none", seed=seed),
        instrumentation=instrumentation)
    coordinator.bootstrap([])
    serve_config = config if config is not None else ServeConfig(
        max_inflight=128, tick_interval=1.0)
    core = AsyncServingCore(coordinator, serve_config)
    service = AsyncKeyService(core)
    await service.start()
    return service


def _parse_addresses(text: str) -> List[Tuple[str, int]]:
    addresses = []
    for part in text.split(","):
        host, _, port = part.strip().rpartition(":")
        addresses.append((host or "127.0.0.1", int(port)))
    return addresses


async def _amain(args) -> int:
    if args.quick:
        profile = LoadProfile(clients=500, sockets=8, duration=2.0,
                              churn_clients=25,
                              heartbeat_interval=0.5,
                              subcast_fraction=args.subcast,
                              subcast_targets=args.subcast_targets)
    else:
        profile = LoadProfile(clients=args.clients, sockets=args.sockets,
                              duration=args.duration,
                              churn_clients=args.churn,
                              heartbeat_interval=args.heartbeat,
                              subcast_fraction=args.subcast,
                              subcast_targets=args.subcast_targets)
    log = (lambda text: print(text, file=sys.stderr))
    service = None
    if args.udp:
        if args.trace or args.trace_out or args.flight_out:
            raise SystemExit("--trace/--trace-out/--flight-out need the "
                             "self-hosted cluster (omit --udp)")
        addresses = _parse_addresses(args.udp)
    else:
        service = await self_hosted_cluster(n_shards=args.shards,
                                            tracing=args.trace)
        addresses = service.udp_addresses
        log(f"self-hosted {args.shards}-shard cluster on "
            f"{[addr[1] for addr in addresses]}"
            + (" (tracing on)" if args.trace else ""))
    try:
        stats = await run_load(addresses, profile, log=log)
        document = stats.as_dict()
        document["clients"] = profile.clients
        snapshot = await asyncio.to_thread(scrape_stats, addresses[0])
        document["server_snapshot_label"] = snapshot.get("label")
        if args.snapshot_out:
            from ..observability.export import write_snapshot
            write_snapshot(args.snapshot_out, snapshot)
            log(f"wrote metrics snapshot to {args.snapshot_out}")
        if service is not None and args.trace_out:
            from ..observability.spans import TRACE_SCHEMA
            spans = service.core.instrumentation.tracer.export()
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                json.dump({"schema": TRACE_SCHEMA, "spans": spans},
                          handle, indent=2, sort_keys=True)
                handle.write("\n")
            document["trace_spans"] = len(spans)
            log(f"wrote {len(spans)} spans to {args.trace_out}")
        if service is not None and args.flight_out:
            flight = service.core.dump_flight("loadgen",
                                              path=args.flight_out)
            document["flight_events"] = len(flight["events"])
            log(f"wrote {len(flight['events'])} flight events to "
                f"{args.flight_out}")
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0 if stats.ramp_joined >= profile.clients * 0.99 else 1
    finally:
        if service is not None:
            await service.aclose()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.loadgen",
        description="Drive a live async key service with simulated "
                    "clients.")
    parser.add_argument("--udp", help="target address list "
                        "host:port[,host:port...] (default: self-host)")
    parser.add_argument("--shards", type=int, default=3,
                        help="shards for the self-hosted cluster")
    parser.add_argument("--clients", type=int, default=10_000)
    parser.add_argument("--sockets", type=int, default=32)
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--churn", type=int, default=200,
                        help="clients cycling leave/join")
    parser.add_argument("--heartbeat", type=float, default=5.0,
                        help="mean per-client heartbeat interval (s)")
    parser.add_argument("--subcast", type=float, default=0.0,
                        metavar="FRACTION",
                        help="chance per heartbeat tick of issuing a "
                             "covered-multicast request instead")
    parser.add_argument("--subcast-targets", type=int, default=8,
                        help="target subset size per subcast request")
    parser.add_argument("--quick", action="store_true",
                        help="small smoke profile (500 clients, 2s)")
    parser.add_argument("--trace", action="store_true",
                        help="enable span tracing on the self-hosted "
                             "cluster")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write exported spans (repro-trace/1 JSON); "
                             "implies --trace")
    parser.add_argument("--flight-out", metavar="PATH",
                        help="dump the serving core's flight recorder "
                             "to PATH after the run")
    parser.add_argument("--snapshot-out", metavar="PATH",
                        help="write the scraped metrics snapshot "
                             "(repro-metrics/1 JSON) for offline SLO "
                             "evaluation")
    args = parser.parse_args(argv)
    if args.trace_out:
        args.trace = True
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
