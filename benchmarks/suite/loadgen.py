"""Load generator for the served workloads.

One single-threaded asyncio process drives the server process
(:mod:`host`) over two loopback UDP sockets (= ``nproc``; traffic never
leaves the host).  Every request carries a correlation token; replies
are demultiplexed inline in the datagram callback, where each op is a
small state machine, so completion times are taken when the datagram is
handled, not when a waiting coroutine gets scheduled.

* **Closed loop** — ``CLOSED_CLIENTS`` callers, each sending its next
  request only after the previous one completed and verified.
* **Open loop** — seeded Poisson arrivals sent on schedule whatever the
  server does; latency is timed from when a request was *due*, so a
  generator stall is charged to the requests it delayed.

A request is complete only when its output checked out: a join when the
joiner verified its ack and decrypted its path up to the group key, a
resync when the sampled member installed the reply, a subcast when the
sender opened the sealed payload.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import random
import socket
import struct
import sys
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.client import ClientError, SubcastNotAddressed
from repro.core.messages import (INDIVIDUAL_KEY, MSG_HEARTBEAT, MSG_JOIN_ACK,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_REQUEST, MSG_REKEY,
                                 MSG_RESYNC_REPLY, MSG_RESYNC_REQUEST,
                                 MSG_SUBCAST, MSG_SUBCAST_REQUEST, Message,
                                 WireError)
from repro.core.resync import RESYNC_OK
from repro.core.signing import SigningError, verify_message
from repro.crypto.rsa import RsaPublicKey
from repro.serve.wire import attach_corr_trailer, split_corr_trailer
from repro.subcast.wire import encode_subcast_request

import inputs
from members import Joiner, Ref, SampledMembers

_now = time.perf_counter
_HERE = os.path.dirname(os.path.abspath(__file__))

#: seq, timestamp, root id, root version — at byte 10 of every header.
_PEEK = struct.Struct(">QQII")
_REQUEST = {"join": MSG_JOIN_REQUEST, "leave": MSG_LEAVE_REQUEST,
            "resync": MSG_RESYNC_REQUEST, "subcast": MSG_SUBCAST_REQUEST}
_REPLY = {"join": MSG_JOIN_ACK, "leave": MSG_LEAVE_ACK,
          "resync": MSG_RESYNC_REPLY, "subcast": MSG_SUBCAST}

#: One retry (same token: the server replays, never re-executes), then
#: the request counts as failed.
ATTEMPT_TIMEOUT_S = 2.0
ATTEMPTS = 2
SOCKETS = 2
RECEIVE_BUFFER_BYTES = 4 << 20


class HostLink:
    """The server process and its JSON-lines control channel."""

    def __init__(self, process: asyncio.subprocess.Process, hello: dict):
        self.process = process
        self.addresses = [tuple(addr) for addr in hello["addresses"]]
        self.public_key = RsaPublicKey(hello["public_key"]["n"],
                                       hello["public_key"]["e"])
        #: The server's speed-probe bursts, gathered from every reply.
        self.bursts: List[Tuple[float, float]] = [
            tuple(b) for b in hello["bursts"]]

    @classmethod
    async def spawn(cls, workload: str, seed: int, scale: float,
                    tick: float, clients: int, joins_per_client: int
                    ) -> "HostLink":
        process = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(_HERE, "host.py"),
            "--workload", workload, "--seed", str(seed),
            "--scale", repr(scale), "--tick", repr(tick),
            "--clients", str(clients),
            "--joins-per-client", str(joins_per_client),
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            limit=1 << 26)
        line = await process.stdout.readline()
        if not line:
            await process.wait()
            raise RuntimeError("server process exited before it was ready")
        return cls(process, json.loads(line))

    async def call(self, command: str) -> dict:
        self.process.stdin.write(
            json.dumps({"cmd": command}).encode() + b"\n")
        await self.process.stdin.drain()
        line = await self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"server process died during {command!r}")
        reply = json.loads(line)
        self.bursts.extend(tuple(b) for b in reply.pop("bursts", ()))
        return reply

    async def close(self) -> None:
        if self.process.returncode is None:
            self.process.stdin.close()
            try:
                await asyncio.wait_for(self.process.wait(), 10.0)
            except asyncio.TimeoutError:
                self.process.kill()
                await self.process.wait()


class Record(NamedTuple):
    """One completed, verified request (times: perf_counter seconds)."""

    kind: str
    start: float          # when it was sent (closed loop) or due (open)
    acked: float          # when the direct reply was handled
    done: float           # when its output had been verified
    ref: Optional[Ref]    # the ack's root ref: names the op's rekey
    token: int = 0        # correlation token (the trace's request id)
    sent: float = 0.0     # when the first datagram actually left


class OpLog:
    """What the harness observed: one record per completed request."""

    def __init__(self, window_kinds: Tuple[str, ...] = ("join", "leave")):
        self.records: List[Record] = []
        self.attempted = 0
        self.failed_kinds: Dict[str, int] = {}
        self.retries = 0
        self.lags: List[float] = []
        #: The kinds the measured window is counted in, and how many of
        #: them have finished (completed or failed) so far.
        self.window_kinds = window_kinds
        self.finished = 0
        self._goal: Optional[Tuple[int, asyncio.Future]] = None

    @property
    def failed(self) -> int:
        return sum(self.failed_kinds.values())

    def add(self, record: Record) -> None:
        self.records.append(record)
        self._count(record.kind)

    def fail(self, kind: str) -> None:
        self.failed_kinds[kind] = self.failed_kinds.get(kind, 0) + 1
        self._count(kind)

    def _count(self, kind: str) -> None:
        if kind in self.window_kinds:
            self.finished += 1
            if self._goal is not None and self.finished >= self._goal[0] \
                    and not self._goal[1].done():
                self._goal[1].set_result(None)

    async def reached(self, finished: int, tasks) -> None:
        """Wait until ``finished`` window requests are done, or until
        the ``tasks`` issuing them have all ended."""
        if self.finished >= finished:
            return
        goal = asyncio.get_running_loop().create_future()
        self._goal = (finished, goal)
        await asyncio.wait([goal, asyncio.gather(*tasks)],
                           return_when=asyncio.FIRST_COMPLETED)
        self._goal = None


class _Op:
    __slots__ = ("kind", "user", "start", "token", "datagram", "future",
                 "joiner", "ref", "acked", "payload", "sent")

    def __init__(self, kind: str, user: str, start: float, token: int):
        self.kind = kind
        self.user = user
        self.start = start
        self.token = token
        self.datagram = b""
        self.future: Optional[asyncio.Future] = None
        self.joiner: Optional[Joiner] = None
        self.ref: Optional[Ref] = None
        self.acked = 0.0
        self.sent = 0.0
        self.payload = b""


class _Socket(asyncio.DatagramProtocol):
    def __init__(self, owner: "LoadGen"):
        self.owner = owner

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner.on_datagram(data)

    def error_received(self, exc) -> None:
        pass


class LoadGen:
    def __init__(self, seed: int, shape: inputs.Shape, suite,
                 link: HostLink, cluster: bool, log: OpLog):
        self.seed = seed
        self.shape = shape
        self.suite = suite
        self.link = link
        self.cluster = cluster
        self.log = log
        self.sampled = SampledMembers(suite, link.public_key, cluster)
        self.transports: List[asyncio.DatagramTransport] = []
        self.pending: Dict[int, _Op] = {}
        self.path_waiters: Dict[Ref, _Op] = {}
        self.root_waiters: Dict[Ref, _Op] = {}
        self.recent_roots: Dict[Ref, Message] = {}
        self.unopened: Dict[int, Tuple[_Op, Message]] = {}
        self.seen: Dict[Tuple[int, int, int], None] = {}
        self.latest_ref: Ref = (0, 0)
        self.live: List[str] = []
        self.heartbeats_sent = 0
        self.pushes_seen = 0
        #: Due time of the arrival an injected stall held up (smoke test).
        self.stalled_start: Optional[float] = None
        self._token = 0
        self._stopping = False

    async def open_sockets(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(SOCKETS):
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda: _Socket(self), local_addr=("127.0.0.1", 0))
            # One socket stands in for thousands of members' sockets: a
            # recovery tick's ~100 resync pushes land on it in one burst
            # and overflow the default 208 KiB buffer, dropping the
            # replies queued behind them.  (The kernel caps the request
            # at rmem_max.)
            transport.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_RCVBUF, RECEIVE_BUFFER_BYTES)
            self.transports.append(transport)

    def close_sockets(self) -> None:
        for transport in self.transports:
            transport.close()

    def _send(self, lane: int, datagram: bytes) -> None:
        addresses = self.link.addresses
        self.transports[lane % SOCKETS].sendto(
            datagram, addresses[lane % len(addresses)])

    # -- issuing -----------------------------------------------------------

    def new_joiner(self, user: str) -> Joiner:
        return Joiner(self.suite, self.link.public_key, user,
                      inputs.member_key(self.suite, self.seed, user))

    async def perform(self, kind: str, user: str, lane: int,
                      start: Optional[float] = None,
                      joiner: Optional[Joiner] = None) -> bool:
        """One request, to verified completion; False if it failed."""
        self._token += 1
        op = _Op(kind, user, start if start is not None else _now(),
                 self._token)
        body = user.encode()
        if kind == "join":
            op.joiner = joiner if joiner is not None \
                else self.new_joiner(user)
        elif kind == "subcast":
            op.payload = hashlib.sha512(b"subcast/%d" % op.token).digest()[
                :inputs.SUBCAST_BYTES]
            body = encode_subcast_request(
                user, self.shape.subcast_window(user), op.payload)
        op.datagram = attach_corr_trailer(
            Message(msg_type=_REQUEST[kind], body=body).encode(), op.token)
        op.future = asyncio.get_running_loop().create_future()
        self.pending[op.token] = op
        self.log.attempted += 1
        for attempt in range(ATTEMPTS):
            if attempt:
                self.log.retries += 1
            else:
                op.sent = _now()
            self._send(lane, op.datagram)
            done, _pending = await asyncio.wait([op.future],
                                                timeout=ATTEMPT_TIMEOUT_S)
            if done:
                return op.future.result()
        self._finish(op, False)
        return False

    def _finish(self, op: _Op, ok: bool) -> None:
        if op.future.done():
            return
        self.pending.pop(op.token, None)
        if ok:
            self.log.add(Record(
                op.kind, op.start, op.acked, _now(), op.ref, op.token,
                op.sent))
            if op.kind == "join":
                self.live.append(op.user)
        else:
            self.log.fail(op.kind)
            self.unopened.pop(op.token, None)
            if op.ref is not None:
                self.path_waiters.pop(op.ref, None)
                self.root_waiters.pop(op.ref, None)
        op.future.set_result(ok)

    # -- receiving ---------------------------------------------------------

    def on_datagram(self, data: bytes) -> None:
        received = _now()
        payload, token = split_corr_trailer(data)
        if token is None:
            self._on_uncorrelated(payload)
            return
        op = self.pending.get(token)
        if op is None or op.acked:
            return  # a retry's duplicate reply
        try:
            message = Message.decode(payload)
            if message.msg_type != _REPLY[op.kind]:
                self._finish(op, False)  # denied or shed (MSG_BUSY)
                return
            op.acked = received
            self._on_reply(op, message)
        except (SigningError, ClientError, WireError):
            self._finish(op, False)

    def _on_reply(self, op: _Op, message: Message) -> None:
        if op.kind == "join":
            op.ref = op.joiner.on_ack(message)
            self.path_waiters[op.ref] = op
        elif op.kind == "leave":
            verify_message(self.suite, message, self.link.public_key)
            op.ref = (message.root_node_id, message.root_version)
            self._finish(op, True)
        elif op.kind == "resync":
            self.sampled.verify(message)
            status = self.sampled.clients[op.user].process_resync(message)
            self._finish(op, status == RESYNC_OK)
        else:
            self.sampled.verify(message)
            self._open_subcast(op, message)

    def _open_subcast(self, op: _Op, message: Message) -> None:
        try:
            opened = self.sampled.clients[op.user].open_subcast(message)
        except SubcastNotAddressed:
            # Sealed under keys of a rekey this member has yet to be
            # handed (it is on the other socket, or held for ordering):
            # a receiver keeps the message and tries again after it.
            self.unopened[op.token] = (op, message)
            return
        self.unopened.pop(op.token, None)
        self._finish(op, opened == op.payload)

    def _on_uncorrelated(self, data: bytes) -> None:
        if len(data) < 34:
            return
        if data[3] != MSG_REKEY:
            if data[3] == MSG_RESYNC_REPLY:
                self.pushes_seen += 1
            return
        seq, _stamp, root_id, root_version = _PEEK.unpack_from(data, 10)
        # Both sockets get a copy of every multicast; handle the first.
        key = (root_id, root_version, seq)
        if key in self.seen:
            return
        self.seen[key] = None
        if len(self.seen) > 4096:
            del self.seen[next(iter(self.seen))]
        message = Message.decode(data)
        ref = (root_id, root_version)
        items = message.items
        if len(items) == 1 and items[0].enc_node_id == INDIVIDUAL_KEY:
            self.sampled.add_bytes(ref, len(data))
            op = self.path_waiters.pop(ref, None)
            if op is not None:
                self._on_path(op, message)
            return
        deliveries = self.sampled.offer(message, len(data))
        if deliveries:
            for op, sealed in list(self.unopened.values()):
                self._open_subcast(op, sealed)
        for delivered, completed in deliveries:
            if not self.cluster or completed:
                # What a live member would now report in its heartbeat.
                self.latest_ref = (delivered.root_node_id,
                                   delivered.root_version)
            if not self.cluster:
                continue
            # A root-layer rekey completes the join(s) it mentions.
            for op_ref in completed:
                op = self.root_waiters.pop(op_ref, None)
                if op is not None:
                    self._on_root(op, delivered)
                else:
                    self.recent_roots[op_ref] = delivered
                    if len(self.recent_roots) > 64:
                        del self.recent_roots[next(iter(self.recent_roots))]

    def _on_path(self, op: _Op, message: Message) -> None:
        try:
            holds = op.joiner.on_path(message)
        except (SigningError, ClientError):
            self._finish(op, False)
            return
        if not self.cluster:
            self._finish(op, holds)
            return
        # The socket carrying the root-layer rekey may be read first.
        root = self.recent_roots.pop(op.ref, None)
        if root is not None:
            self._on_root(op, root)
        else:
            self.root_waiters[op.ref] = op

    def _on_root(self, op: _Op, message: Message) -> None:
        try:
            op.joiner.client.process_message(message)
        except (SigningError, ClientError):
            self._finish(op, False)
            return
        self._finish(op, op.joiner.client.group_key() is not None)

    # -- set-up ------------------------------------------------------------

    async def warm_up(self) -> None:
        """The real joins of set-up; they double as the warm-up."""
        shape = self.shape
        joiners = list(reversed(shape.warm_joiners))

        async def lane(index: int) -> None:
            while joiners:
                await self.perform("join", joiners.pop(), index)
        await asyncio.gather(*(lane(i)
                               for i in range(inputs.CLOSED_CLIENTS)))
        for index, user in enumerate(shape.sampled):
            self.sampled.add(user, inputs.member_key(self.suite, self.seed,
                                                     user))
            await self.perform("resync", user, index)
        self.sampled.prime_order()
        # The witness joins, leaves, and keeps every key it was given,
        # as a departed member would; it is then fed every later rekey.
        witness = self.new_joiner(shape.witness)
        if await self.perform("join", shape.witness, 0, joiner=witness) \
                and await self.perform("leave", shape.witness, 0):
            witness.client.verify = False
            self.sampled.witness = witness.client

    # -- traffic -----------------------------------------------------------

    def stop(self) -> None:
        self._stopping = True

    async def closed_client(self, index: int, stream) -> None:
        for kind, user in stream:
            if self._stopping:
                return
            await self.perform(kind, user, index)

    async def open_loop(self, arrivals, origin: float,
                        stall: Optional[Tuple[int, float]] = None) -> None:
        tasks = set()
        for index, (due, kind, user) in enumerate(arrivals):
            delay = origin + due - _now()
            if delay > 0:
                await asyncio.sleep(delay)
            if self._stopping:
                break
            if stall is not None and index == stall[0]:
                time.sleep(stall[1])  # the smoke test's injected stall
                self.stalled_start = origin + due
            self.log.lags.append(_now() - (origin + due))
            if kind == "leave" and user in self.live:
                self.live.remove(user)
            task = asyncio.ensure_future(
                self.perform(kind, user, index, start=origin + due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)

    async def heartbeats(self, seed: int) -> None:
        """``HEARTBEAT_HZ`` per live member, jittered, until stopped."""
        rng = random.Random(f"suite-heartbeat/{seed}")
        due = _now()
        turn = 0
        while not self._stopping:
            await asyncio.sleep(0.004)
            now = _now()
            while due <= now and self.live:
                user = self.live[turn % len(self.live)]
                turn += 1
                root_id, root_version = self.latest_ref
                self._send(turn, Message(
                    msg_type=MSG_HEARTBEAT, root_node_id=root_id,
                    root_version=root_version, body=user.encode()).encode())
                self.heartbeats_sent += 1
                due += rng.uniform(0.5, 1.5) / (
                    inputs.HEARTBEAT_HZ * len(self.live))
