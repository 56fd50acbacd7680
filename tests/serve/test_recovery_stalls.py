"""Recovery under event-loop stalls: the regression without the weather.

The served core advances the group-key ref when an op is *planned* and
emits the rekey a few milliseconds later, so live members' heartbeats
trail the server by the rekeys still in flight.  Answering that lag
with resync pushes is what once turned a host stall into a metastable
episode (long tick -> heartbeat backlog at an old ref -> more pushes ->
longer tick).  This file replays the episode's shape in process —
~1 kHz heartbeats, ~30 membership ops/s, scheduled ``time.sleep`` on
the loop — and pins what must hold whatever the host is doing; it also
pins the UDP endpoint's receive-buffer sizing.
"""

import asyncio
import socket
import time

from repro.core.messages import (MSG_HEARTBEAT, MSG_JOIN_ACK,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_REQUEST, MSG_REKEY,
                                 MSG_RESYNC_REPLY, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE
from repro.recovery.manager import MAX_PUSHES_PER_TICK
from repro.serve import AsyncKeyService, ImmediateServingCore, ServeConfig
from repro.serve.core import TICK_SHED_LAG_S
from repro.serve.endpoint import UDP_RCVBUF

MEMBERS = 200
TICK = 0.2
BEAT_PERIOD = 0.16          # per member: 200 / 0.16 s = 1.25 kHz in all
OPS_PER_S = 30
#: (seconds the loop is held, healthy running before it, the member
#: frozen through it).  The last is the 1.5 s one, doubled.
STALLS = ((0.2, 0.4, None), (0.6, 0.4, None), (1.5, 0.4, None),
          (3.0, 0.9, "m000"))


def _served_core():
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", suite=PAPER_SUITE, signing="merkle",
        seed=b"recovery-stalls", backend="flat"))
    server.bootstrap([(f"m{i:03d}", server.new_individual_key())
                      for i in range(MEMBERS)])
    return ImmediateServingCore(server, ServeConfig(
        tcp_port=None, tick_interval=TICK, max_inflight=256))


class _Episode:
    """The in-process stand-in for the members and their network."""

    def __init__(self, core):
        self.core = core
        self.live = [f"m{i:03d}" for i in range(MEMBERS)]
        #: What a live member reports: the newest rekey *delivered*.
        self.seen_ref = core.backend.group_key_ref()
        self.frozen = {}        # user -> the ref it is stuck at
        self.repaired = {}      # user -> recovery tick of its repair
        self.op_replies = []    # one list of reply types per op
        self.ticks = []         # (start, pushes built, loop lag sample)
        self.stopping = False

    # -- the members' side of the wire ---------------------------------

    def deliver(self, payload):
        message = Message.decode(payload)
        if message.msg_type == MSG_REKEY:
            ref = (message.root_node_id, message.root_version)
            if ref[1] > self.seen_ref[1]:
                self.seen_ref = ref

    def deliver_to(self, user):
        def deliver(payload):
            message = Message.decode(payload)
            if (message.msg_type == MSG_RESYNC_REPLY
                    and user in self.frozen):
                del self.frozen[user]
                self.repaired[user] = self.core.recovery.now
        return deliver

    def beat(self, user, ref):
        if user in self.frozen:
            ref, reply, path = (self.frozen[user], self.deliver_to(user),
                                ("frozen", user))
        else:
            reply, path = self.deliver, "net"
        datagram = Message(msg_type=MSG_HEARTBEAT, root_node_id=ref[0],
                           root_version=ref[1],
                           body=user.encode()).encode()
        if not self.core.submit_nowait(datagram, reply, path):
            asyncio.ensure_future(self.core.submit(datagram, reply, path))

    async def heartbeats(self):
        loop = asyncio.get_running_loop()
        due, turn = loop.time(), 0
        while not self.stopping:
            sent_with = self.seen_ref
            await asyncio.sleep(0.004)
            woke = loop.time()
            while due <= woke:
                # A heartbeat held up by a stall was sent with what its
                # member held then, and a socket hands the backlog over
                # one datagram per loop pass.
                late = woke - due > 0.05
                user = self.live[turn % len(self.live)]
                turn += 1
                self.beat(user, sent_with if late else self.seen_ref)
                due += BEAT_PERIOD / len(self.live)
                if late:
                    await asyncio.sleep(0)

    async def one_op(self, msg_type, user):
        replies = []
        self.op_replies.append(replies)

        def reply(payload):
            replies.append(Message.decode(payload).msg_type)
            self.deliver(payload)
        await self.core.submit(
            Message(msg_type=msg_type, body=user.encode()).encode(),
            reply, "net")

    async def ops(self):
        loop = asyncio.get_running_loop()
        due, count, joined, tasks = loop.time(), 0, [], []
        while not self.stopping:
            await asyncio.sleep(0.004)
            while due <= loop.time():
                due += 1.0 / OPS_PER_S
                count += 1
                if count % 2 or not joined:
                    user = f"x{count}"
                    tasks.append(asyncio.ensure_future(
                        self.one_op(MSG_JOIN_REQUEST, user)))
                    joined.append(user)
                    # It beats from its ack on, as a member would.
                    tasks[-1].add_done_callback(
                        lambda _t, u=user: u in joined
                        and self.live.append(u))
                else:
                    user = joined.pop(0)
                    if user in self.live:
                        self.live.remove(user)
                    tasks.append(asyncio.ensure_future(
                        self.one_op(MSG_LEAVE_REQUEST, user)))
        await asyncio.gather(*tasks)

    def watch_ticks(self, pushes):
        manager, health = self.core.recovery, self.core.loop_health
        tick = manager.tick

        def watched(*args, **kwargs):
            started, before = time.perf_counter(), pushes.value
            try:
                return tick(*args, **kwargs)
            finally:
                self.ticks.append((started, pushes.value - before,
                                   health.last_lag))
        manager.tick = watched


async def _run_episode():
    core = _served_core()
    episode = _Episode(core)
    pushes = core.recovery._m_resyncs.labels(trigger="push")
    episode.watch_ticks(pushes)
    await core.start()
    pumps = [asyncio.ensure_future(episode.heartbeats()),
             asyncio.ensure_future(episode.ops())]
    stalls = []     # (end time, pushes before, recovery tick, victim)
    try:
        for seconds, settle, victim in STALLS:
            await asyncio.sleep(settle)
            if victim:
                # It stops installing rekeys a tick before the stall
                # and stays frozen through it, until somebody repairs it.
                episode.frozen[victim] = episode.seen_ref
                await asyncio.sleep(TICK + 0.05)
            before = pushes.value
            time.sleep(seconds)             # the loop is held right here
            stalls.append((time.perf_counter(), before, core.recovery.now,
                           victim))
        while core.recovery.now < stalls[-1][2] + 4:    # a busy host's
            await asyncio.sleep(TICK)                   # ticks run late
        episode.stopping = True
        await asyncio.gather(*pumps)
    finally:
        await core.aclose()
    registry = core.instrumentation.registry
    shed = sum(child.value for _labels, child
               in registry.get("serve_shed_total").series())
    after = [before for _end, before, *_rest in stalls[1:]] + [pushes.value]
    per_stall = [later - before
                 for (_end, before, *_rest), later in zip(stalls, after)]
    return episode, stalls, per_stall, shed


def test_stalls_do_not_turn_into_resync_pushes():
    episode, stalls, per_stall, shed = asyncio.run(
        asyncio.wait_for(_run_episode(), timeout=60))
    lengths = [seconds for seconds, _settle, _victim in STALLS]

    # No op failed or was shed, through four stalls and their backlogs.
    assert shed == 0
    assert len(episode.op_replies) > OPS_PER_S * sum(lengths)
    for replies in episode.op_replies:
        assert MSG_JOIN_ACK in replies or MSG_LEAVE_ACK in replies, replies

    # Pushes answer staleness, not the backlog: never one per member
    # and stall, let alone one per heartbeat, and no tick builds more
    # than its budget, so none is long enough to feed the next backlog.
    assert max(per_stall) <= MEMBERS, per_stall
    assert max(built for _s, built, _lag in episode.ticks) \
        <= MAX_PUSHES_PER_TICK, episode.ticks

    # Within three ticks of the last stall the loop has stopped shedding.
    behind = [t for t in episode.ticks if t[0] >= stalls[-1][0]]
    assert len(behind) >= 3, behind
    assert min(lag for _s, _built, lag in behind[:3]) < TICK_SHED_LAG_S, \
        behind

    # The members that really were frozen got their push within three
    # ticks of the stall they were frozen through.
    for _end, _before, tick_at_end, victim in stalls:
        if victim:
            assert victim in episode.repaired, episode.frozen
            assert episode.repaired[victim] <= tick_at_end + 3, (
                victim, episode.repaired, tick_at_end, episode.ticks)


def test_lagging_loop_sheds_the_ticks_pushes_not_its_evictions():
    async def scenario():
        core = _served_core()
        health, manager = core.loop_health, core.recovery
        pushes = manager._m_resyncs.labels(trigger="push")
        try:
            for user in ("m000", "m001"):
                manager.track(user)
            manager.heartbeat("m000", (0, 0))           # really stale
            manager._last_seen["m001"] = -1000          # long silent
            health.last_lag = 2 * TICK_SHED_LAG_S
            await core._tick_once()
            shed = (pushes.value, list(manager.evicted),
                    manager._pending["m000"].attempts)
            health.last_lag = 0.0
            await core._tick_once()
            return shed, pushes.value
        finally:
            await core.aclose()

    shed, healthy = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    assert shed == (0, ["m001"], 0)
    assert healthy == 1


# -- the UDP endpoint's receive buffer ---------------------------------------

def test_udp_socket_asks_for_a_large_receive_buffer():
    # What this kernel grants a plain UDP socket asking the same: the
    # cap is ``rmem_max``, not ours to know.
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        default = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF)
        granted = probe.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)

    async def scenario():
        server = GroupKeyServer(ServerConfig(signing="none", seed=b"rcvbuf",
                                             backend="flat"))
        config = ServeConfig(tcp_port=None, tick_interval=0)
        async with AsyncKeyService(ImmediateServingCore(server, config)) \
                as service:
            sock = service._udp_transports[0].get_extra_info("socket")
            gauge = server.instrumentation.registry.get(
                "serve_udp_rcvbuf_bytes").labels().value
            return sock.getsockopt(socket.SOL_SOCKET,
                                   socket.SO_RCVBUF), gauge

    size, gauge = asyncio.run(asyncio.wait_for(scenario(), timeout=30))
    assert UDP_RCVBUF == 4 << 20
    assert size == granted >= default       # the request, or the cap
    assert gauge == size
