"""Chaos through the async front end: the ``serve`` scenario stack.

The PR5 scenarios inject faults on an in-memory bus; this module runs
the same fault profiles against :class:`~repro.serve.core.
AsyncServingCore` instead, using the :class:`~repro.serve.fanout.
SocketFanout` per-copy ``drop_filter`` as the loss point.  The headline
claim is stronger than "it recovers": a second, in-memory *control*
server with the same seed is driven through the identical op sequence
with no serving layer at all, and the live server's final group key
must match the control's **byte for byte** — the async front end
(every op served on the event loop, admission control) must
not perturb a single DRBG draw.

Clients replay exactly what their reply path received (acks and
multicasts, minus the dropped copies) through the ordinary
:class:`~repro.core.client.GroupClient` dispatch, then repair via
resync requests submitted back through the core — the same path a real
lossy client takes.

The live server runs with tracing on, and every injected drop is
tagged into the trace of the rekey that produced the dropped copy (a
``fault.drop`` span parented to the copy's trace trailer) plus a
flight-recorder event — so the flight dump returned on the report
shows *which* drop caused each later resync.
"""

from __future__ import annotations

import asyncio
import tempfile
from typing import Dict, List, Set, Tuple

from ..core.client import GroupClient
from ..core.messages import (MSG_DATA, MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                             MSG_RESYNC_REQUEST, Message, WireError)
from ..core.server import GroupKeyServer, ServerConfig
from ..crypto import drbg
from ..observability.instrumentation import Instrumentation
from ..observability.spans import Tracer, split_trace_trailer
from .faults import FaultProfile, chance


def serve_workload(config) -> List[Tuple[str, str]]:
    """The deterministic op sequence for a serve scenario.

    ``n_initial`` joins, then ``rounds`` churn ops: every third op
    leaves the oldest current member, the rest join fresh users.
    """
    ops = [("join", f"m{i}") for i in range(config.n_initial)]
    present = [user for _op, user in ops]
    for index in range(config.rounds):
        if index % 3 == 2 and len(present) > 2:
            ops.append(("leave", present.pop(0)))
        else:
            user = f"g{index}"
            ops.append(("join", user))
            present.append(user)
    return ops


def _server_config(config) -> ServerConfig:
    return ServerConfig(signing="none", seed=config.seed)


def _individual_keys(ops, suite) -> Dict[str, bytes]:
    """Constant per-user keys: no DRBG draws, identical on both runs."""
    keys = {}
    for _op, user in ops:
        if user not in keys:
            keys[user] = bytes([(len(keys) % 255) + 1]) * suite.key_size
    return keys


def _control_run(config, ops, keys):
    """Drive a plain in-memory server through the same op sequence."""
    server = GroupKeyServer(_server_config(config))
    for op, user in ops:
        if op == "join":
            server.register_individual_key(user, keys[user])
            server.join(user)
        else:
            server.leave(user)
    return server


def _replay(streams, server, suite, keys) -> Dict[str, GroupClient]:
    """One client per current member, fed what its reply path got.

    A datagram that does not parse is skipped; one the client refuses
    marks it desynchronized, for the repair loop to resync.
    """
    clients: Dict[str, GroupClient] = {}
    for user, stream in streams.items():
        if not server.is_member(user):
            continue
        client = GroupClient(user, suite)
        client.set_individual_key(keys[user])
        for payload in stream:
            try:
                client.receive(payload)
            except WireError:
                continue
            except Exception:
                client.desynced = True
        clients[user] = client
    return clients


async def _repair(clients, server, submit, max_rounds
                  ) -> Tuple[int, int, bool]:
    """Resync stale clients through the core until none is left.

    Returns ``(resyncs applied, rounds run, every client current)``.
    """
    expected = server.group_key()

    def pending():
        return [user for user, client in clients.items()
                if client.desynced or client.group_key() != expected]

    resyncs = rounds = 0
    while pending() and rounds < max_rounds:
        rounds += 1
        for user in pending():
            box: list = []
            request = Message(msg_type=MSG_RESYNC_REQUEST,
                              body=user.encode()).encode()
            await submit(request, box.append, path_id=None)
            if box:
                clients[user].receive(box[0])
                resyncs += 1
    return resyncs, rounds, not pending()


def drop_filter(profile: FaultProfile, stream: bytes, injected: dict,
                tracer, flight, partitioned: Set[str] = frozenset()):
    """A ``SocketFanout.drop_filter`` losing copies at ``profile.drop_rate``.

    Decisions come from :func:`~repro.chaos.faults.chance` over a DRBG
    named by ``stream``; copies to ``partitioned`` members are always
    lost.  Each drop is counted in ``injected``, tagged into the trace
    of the rekey whose copy it loses (a ``fault.drop`` span) and into
    ``flight`` — the dump then shows which drop forced each later resync.
    """
    random = drbg.make_source(profile.seed, stream)

    def lose(user_id: str, payload: bytes) -> bool:
        if user_id in partitioned:
            injected["partition_drop"] += 1
            return True
        if not chance(random, profile.drop_rate):
            return False
        injected["drop"] += 1
        _body, ctx = split_trace_trailer(payload)
        span = tracer.span("fault.drop", parent=ctx, user=user_id)
        span.finish(error=True)
        flight.record("fault.drop", trace_id=span.trace_id, user=user_id)
        return True

    return lose


def _probe(server, clients) -> bool:
    """True iff every client opens a fresh group data message."""
    sealed = server.seal_group_message(b"probe")
    wire = sealed.encoded or sealed.message.encode()
    return all(client.receive(wire) == (MSG_DATA, b"probe")
               for client in clients.values())


def run_serve_scenario(config) -> "ScenarioReport":
    """Run one serve-stack chaos scenario; see module docstring."""
    from .scenarios import ScenarioReport  # circular at module load

    from ..serve import AsyncServingCore, ServeConfig

    profile: FaultProfile = config.fault_profile()
    ops = serve_workload(config)
    # A live tracer: every multicast copy then carries the trace
    # trailer of the rekey that produced it, so drops can be tied back
    # to the causing operation.  Tracing draws nothing from the DRBG,
    # so the control-run byte-identity claim is untouched.
    tracer = Tracer(capacity=8192)
    server = GroupKeyServer(
        _server_config(config),
        instrumentation=Instrumentation("chaos-serve", tracer=tracer))
    keys = _individual_keys(ops, server.config.suite)
    control = _control_run(config, ops, keys)

    injected = {"drop": 0}

    async def drive():
        core = AsyncServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=False))
        core.fanout.drop_filter = drop_filter(
            profile, b"serve-chaos", injected, tracer, core.flight)
        streams: Dict[str, list] = {}

        def attach(user):
            streams.setdefault(user, [])
            core.fanout.attach(user, streams[user].append,
                               path_id=f"path-{user}")

        try:
            # Serial submits: the plan order (and so every DRBG draw)
            # matches the control run; only deliveries differ.
            for op, user in ops:
                if op == "join":
                    server.register_individual_key(user, keys[user])
                    attach(user)
                    msg_type = MSG_JOIN_REQUEST
                else:
                    msg_type = MSG_LEAVE_REQUEST
                request = Message(msg_type=msg_type,
                                  body=user.encode()).encode()
                await core.submit(request, streams[user].append,
                                  path_id=None)

            clients = _replay(streams, server, server.config.suite, keys)
            desyncs = sum(client.desynced for client in clients.values())
            # Repair through the front end: resync requests submitted
            # to the core, replies applied client-side.
            resyncs, recovery_rounds, healed = await _repair(
                clients, server, core.submit, config.max_recovery_rounds)
            converged = healed \
                and server.group_key() == control.group_key() \
                and server.group_key_ref() == control.group_key_ref()
            data_ok = converged and _probe(server, clients)
            flight_doc = core.flight.dump("chaos")
            return clients, converged, data_ok, resyncs, desyncs, \
                recovery_rounds, flight_doc
        finally:
            await core.aclose()

    clients, converged, data_ok, resyncs, desyncs, recovery_rounds, \
        flight_doc = asyncio.run(drive())
    return ScenarioReport(
        name=config.name, stack="serve", profile=profile.name,
        converged=converged, data_ok=data_ok,
        workload_rounds=config.rounds,
        recovery_rounds=recovery_rounds,
        survivors=len(clients), resyncs=resyncs, desyncs=desyncs,
        evicted=[], shed_flushes=0, injected=dict(injected),
        flight_dump=flight_doc)


def run_crash_scenario(config) -> "ScenarioReport":
    """Supervised crash injection: kill, torn tail, restart by replay.

    One supervised shard serves the deterministic workload through the
    async core.  At each op index in ``config.crash_plan`` the shard
    takes a SIGKILL-equivalent teardown (transport closed, tasks
    cancelled, worker pool yanked — no drain, no flush); ``kill-torn``
    additionally tears the journal tail, losing the just-applied op's
    record the way a crash between apply and fsync would.  The
    supervisor then restarts the shard from its recovery substrate
    (strict journal replay, or promotion of the journal-following warm
    standby with ``serve_recovery="standby"``), two members stay
    partitioned through the restart window, and a torn-away op is
    retried by the client — twice with the same correlation token,
    proving the server-side idempotency cache absorbs the duplicate
    instead of double-applying.

    The control run is fault-free but replicates the restart's DRBG
    reseed boundary at the same op index (a restored server draws
    future keys from a reseeded DRBG; a control without the cycle would
    legitimately diverge).  Passing requires the live server's full
    snapshot — tree, key material, sequence counter — to match the
    control **byte for byte**, every surviving member to converge (the
    partitioned ones via resync), and a post-recovery data probe to
    reach everyone.
    """
    from .scenarios import ScenarioReport  # circular at module load

    from ..core import persistence
    from ..core.server import ServerConfig as _ServerConfig
    from ..serve import ServeConfig
    from ..serve.supervise import SupervisePolicy, Supervisor
    from ..serve.wire import attach_corr_trailer

    profile: FaultProfile = config.fault_profile()
    ops = serve_workload(config)
    crash_plan = dict(config.crash_plan)
    if not crash_plan:
        crash_plan = {(2 * len(ops)) // 3: "kill-torn"}
    mode = config.serve_recovery
    # The supervisor derives per-shard seeds; the control must match
    # the shard's derived stream, not the base seed.
    shard_seed = config.seed + b"/shard-0"
    control_config = _ServerConfig(signing="none", seed=shard_seed)
    keys = _individual_keys(ops, control_config.suite)

    control = GroupKeyServer(control_config)
    for index, (op, user) in enumerate(ops):
        if crash_plan.get(index) == "kill-torn":
            # The torn record loses this op: the live run re-executes
            # it post-restart with the reseeded DRBG, so the control
            # cycles through snapshot/restore *before* applying it.
            control = persistence.restore(persistence.snapshot(control))
        if op == "join":
            control.register_individual_key(user, keys[user])
            control.join(user)
        else:
            control.leave(user)
        if crash_plan.get(index) == "kill":
            # A clean kill keeps the op; only the reseed boundary lands.
            control = persistence.restore(persistence.snapshot(control))

    tracer = Tracer(capacity=8192)
    injected = {"kill": 0, "torn": 0, "drop": 0, "partition_drop": 0,
                "restarts": 0, "dup_absorbed": 0}
    journal_dir = (tempfile.mkdtemp(prefix="chaos-crash-")
                   if mode == "journal" else None)

    async def drive():
        supervisor = Supervisor(
            1,
            server_config=_ServerConfig(signing="none", seed=config.seed),
            serve_config=ServeConfig(tick_interval=0, open_enroll=False,
                                     tcp_port=None),
            journal_dir=journal_dir,
            policy=SupervisePolicy(probe_interval=0, mode=mode),
            instrumentation=Instrumentation("chaos-crash", tracer=tracer))
        await supervisor.start()
        shard = supervisor.shard(0)
        streams: Dict[str, list] = {}
        partitioned: Set[str] = set()
        lose = drop_filter(profile, b"serve-crash", injected, tracer,
                           supervisor.flight, partitioned)

        def wire_core():
            # A restart builds a fresh core: re-point the fault filter
            # and re-attach every member's delivery sink to its fanout.
            shard.core.fanout.drop_filter = lose
            for user, box in streams.items():
                shard.core.fanout.attach(user, box.append,
                                         path_id=f"path-{user}")

        wire_core()

        async def submit(op: str, user: str, token: int,
                         reply=None, register: bool = True) -> None:
            if op == "join" and register:
                shard.server.register_individual_key(user, keys[user])
                if user not in streams:
                    streams[user] = []
                    shard.core.fanout.attach(user, streams[user].append,
                                             path_id=f"path-{user}")
            msg_type = MSG_JOIN_REQUEST if op == "join" \
                else MSG_LEAVE_REQUEST
            request = attach_corr_trailer(
                Message(msg_type=msg_type, body=user.encode()).encode(),
                token)
            sink = reply if reply is not None else streams[user].append
            await shard.core.submit(request, sink, path_id=None)

        clear_partition_next = False
        try:
            for index, (op, user) in enumerate(ops):
                await submit(op, user, 1000 + index)
                if clear_partition_next:
                    partitioned.clear()
                    clear_partition_next = False
                kind = crash_plan.get(index)
                if kind is None:
                    continue
                injected["kill"] += 1
                await supervisor.kill(
                    0, tear_tail=(5 if kind == "kill-torn" else 0))
                if kind == "kill-torn":
                    injected["torn"] += 1
                # Two members stay partitioned through the restart
                # window: they miss the first post-restart rekey and
                # must recover by resync.
                partitioned.update(list(streams)[:2])
                await supervisor.restart(0)
                injected["restarts"] += 1
                wire_core()
                if kind == "kill-torn":
                    # The journal lost the op: retry with the *same*
                    # token, then duplicate the retry to prove the
                    # idempotency cache replays instead of re-applying.
                    await submit(op, user, 1000 + index)
                    seq_before = shard.server._seq
                    box: list = []
                    # Same datagram re-sent: the auth exchange does not
                    # rerun, so no fresh key registration.
                    await submit(op, user, 1000 + index, reply=box.append,
                                 register=False)
                    if shard.server._seq == seq_before and box:
                        injected["dup_absorbed"] += 1
                    partitioned.clear()
                else:
                    clear_partition_next = True

            snapshot_match = persistence.snapshot(shard.server) \
                == persistence.snapshot(control)
            expected = shard.server.group_key()
            clients = _replay(streams, shard.server, control_config.suite,
                              keys)
            desyncs = sum(client.desynced or client.group_key() != expected
                          for client in clients.values())
            resyncs, recovery_rounds, healed = await _repair(
                clients, shard.server, shard.core.submit,
                config.max_recovery_rounds)
            converged = snapshot_match and healed \
                and shard.server.group_key() == control.group_key() \
                and shard.server.group_key_ref() == control.group_key_ref()
            data_ok = converged and _probe(shard.server, clients)
            flight_doc = supervisor.flight.dump("chaos-crash")
            return clients, converged, data_ok, resyncs, desyncs, \
                recovery_rounds, flight_doc
        finally:
            await supervisor.aclose()

    clients, converged, data_ok, resyncs, desyncs, recovery_rounds, \
        flight_doc = asyncio.run(drive())
    return ScenarioReport(
        name=config.name, stack="serve-crash", profile=profile.name,
        converged=converged, data_ok=data_ok,
        workload_rounds=config.rounds,
        recovery_rounds=recovery_rounds,
        survivors=len(clients), resyncs=resyncs, desyncs=desyncs,
        evicted=[], shed_flushes=0, injected=dict(injected),
        flight_dump=flight_doc)
