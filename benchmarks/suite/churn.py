"""``core_churn``: the synchronous ``GroupKeyServer``, in process.

The paper's Fig. 10 experiment — a seeded leave/join request sequence
against one key server at n = 8192 — with no sockets and no serving
layer, so crypto + keygraph + core.pipeline do all the work.  The same
request stream drives ``serve_closed``; the two subtract to the serving
overhead.

The harness' receiver-side work (16 sampled members, each joiner) runs
in this same process *between* server calls.  Throughput and CPU per op
therefore count only the time inside server calls — the paper's "server
processing time" — while the latencies add the receiver's own
processing on top, as one remote receiver would see it.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Tuple

from repro.core.client import ClientError
from repro.core.messages import DEST_USER, Message
from repro.core.resync import RESYNC_OK
from repro.core.server import ServerError
from repro.core.signing import SigningError

import inputs
from loadgen import OpLog, Record
from members import Joiner, SampledMembers

_now = time.perf_counter


class Churn:
    def __init__(self, seed: int, shape: inputs.Shape, suite, server,
                 log: OpLog):
        self.seed = seed
        self.shape = shape
        self.suite = suite
        self.server = server
        self.log = log
        self.sampled = SampledMembers(suite, server.public_key)
        #: Cumulative wall and CPU seconds spent inside server calls.
        self.busy = 0.0
        self.cpu = 0.0
        self.issued: List[Tuple[str, str]] = []

    def _call(self, fn, *args):
        wall, cpu = _now(), time.process_time()
        try:
            return fn(*args)
        finally:
            self.cpu += time.process_time() - cpu
            self.busy += _now() - wall

    def _deliver(self, outcome, ref, joiner: Optional[Joiner]) -> float:
        """Hand the op's rekey messages to their receivers.

        Returns the joiner's own processing seconds (0 for a leave).
        """
        joiner_s = 0.0
        for out in outcome.rekey_messages:
            received = _now()
            message = Message.decode(out.encoded)
            if out.destination.kind == DEST_USER:
                self.sampled.add_bytes(ref, len(out.encoded))
                if not joiner.on_path(message):
                    raise ClientError("joiner does not hold the group key")
                joiner_s += _now() - received
            else:
                self.sampled.offer(message, len(out.encoded))
        return joiner_s

    def perform(self, kind: str, user: str,
                joiner: Optional[Joiner] = None) -> bool:
        log = self.log
        log.attempted += 1
        self.issued.append((kind, user))
        start = _now()
        try:
            if kind == "join":
                outcome = self._call(self.server.join, user)
                if joiner is None:
                    joiner = Joiner(self.suite, self.server.public_key, user,
                                    inputs.member_key(self.suite, self.seed,
                                                      user))
                ref = joiner.on_ack(Message.decode(
                    outcome.control_messages[0].encoded))
                acked = _now()
                done = acked + self._deliver(outcome, ref, joiner)
            elif kind == "leave":
                outcome = self._call(self.server.leave, user)
                acked = done = _now()
                ack = outcome.control_messages[0].message
                ref = (ack.root_node_id, ack.root_version)
                self._deliver(outcome, ref, None)
            else:
                reply = self._call(self.server.resync, user)
                acked = _now()
                message = Message.decode(reply.encoded)
                self.sampled.verify(message)
                if self.sampled.clients[user].process_resync(
                        message) != RESYNC_OK:
                    raise ClientError("resync refused")
                ref, done = None, _now()
        except (ServerError, SigningError, ClientError):
            log.fail(kind)
            return False
        log.add(Record(kind, start, acked, done, ref))
        return True

    def warm_up(self) -> None:
        shape = self.shape
        for user in shape.warm_joiners:
            self.perform("join", user)
        for user in shape.sampled:
            self.sampled.add(user, inputs.member_key(self.suite, self.seed,
                                                     user))
            self.perform("resync", user)
        self.sampled.prime_order()
        witness = Joiner(self.suite, self.server.public_key, shape.witness,
                         inputs.member_key(self.suite, self.seed,
                                           shape.witness))
        if self.perform("join", shape.witness, joiner=witness) \
                and self.perform("leave", shape.witness):
            witness.client.verify = False
            self.sampled.witness = witness.client

    def run(self, stream: Iterator[Tuple[str, str]], ops: int, slices: int
            ) -> List[Tuple[float, float, float]]:
        """Drive ``stream`` for ``ops`` membership ops; returns ``(wall,
        busy, cpu)`` samples at the edges of ``slices`` equal-count
        slices."""
        samples = [(_now(), self.busy, self.cpu)]
        membership = 0
        for kind, user in stream:
            self.perform(kind, user)
            if kind == "resync":
                continue  # rides along with the op it follows
            membership += 1
            if membership * slices % ops < slices:
                samples.append((_now(), self.busy, self.cpu))
            if membership >= ops:
                break
        return samples
