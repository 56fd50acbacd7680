"""Group rekeys leave the server in plan order (ROADMAP 2a, server half).

The paper (§5) assumes ordered delivery, and a bare ``GroupClient``
handed two group rekeys out of order desynchronises until it resyncs.
Every op is planned, sealed and released in one synchronous step on the
event loop, so plan order and wire order are the same order; these
tests pin that, and that an op which is denied or dies mid-seal still
passes its seal turn on.
"""

import asyncio

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_REQUEST, MSG_REKEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig, StagedRekeyOp
from repro.keygraph.journal import JournalWriter
from repro.serve import ClusterServingCore, ImmediateServingCore, ServeConfig


def _request(user):
    return Message(msg_type=MSG_JOIN_REQUEST,
                   body=user.encode("utf-8")).encode()


class _DiscardJournal(JournalWriter):
    def write(self, frame):
        pass


def test_concurrent_burst_reaches_the_wire_in_plan_order():
    """32 concurrent joins and leaves: acks and group rekeys leave the
    server in sequence-number order, which is plan order."""
    async def scenario():
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"release-order", backend="flat"))
        server.bootstrap([(f"b{i}", server.new_individual_key())
                          for i in range(17)])
        core = ImmediateServingCore(server, ServeConfig(tick_interval=0),
                                    workers=2)
        wire = []
        core.fanout.attach("b0", wire.append, path_id="observer")
        requests = []
        for index in range(16):
            requests.append(_request(f"n{index}"))
            requests.append(Message(msg_type=MSG_LEAVE_REQUEST,
                                    body=f"b{index + 1}".encode()).encode())
        try:
            await asyncio.gather(*(
                core.submit(request, wire.append, path_id=None)
                for request in requests))
        finally:
            await core.aclose()
        return [Message.decode(payload) for payload in wire]

    messages = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    # An op's ack goes out ahead of its rekeys (though its sequence
    # number is drawn after theirs), so the wire splits into one
    # segment per op, each starting at its ack.
    ops = []
    for message in messages:
        if message.msg_type in (MSG_JOIN_ACK, MSG_LEAVE_ACK):
            ops.append([message.seq])
        elif message.msg_type == MSG_REKEY:
            ops[-1].append(message.seq)
    assert len(ops) == 32
    assert sum(len(seqs) for seqs in ops) > 32          # rekeys observed
    for earlier, later in zip(ops, ops[1:]):
        assert max(earlier) < min(later), ops


def test_denied_and_failed_ops_do_not_wedge_the_queue(monkeypatch):
    """A ticket drawn by an op that never routes is still passed on."""
    real_finish = StagedRekeyOp.finish

    def failing_finish(op):
        if op.user_id == "doomed":
            op.abort()
            raise RuntimeError("worker died")
        return real_finish(op)
    monkeypatch.setattr(StagedRekeyOp, "finish", failing_finish)

    async def scenario(journaled):
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"release-wedge", backend="flat"))
        if journaled:
            server.attach_journal(_DiscardJournal())
        core = ImmediateServingCore(server, ServeConfig(tick_interval=0))
        replies = []
        try:
            for user in ("a", "doomed", "a", "b"):   # ok, dies, denied, ok
                await asyncio.wait_for(core.submit(
                    _request(user), replies.append, path_id=None), 30)
            assert server.pipeline.seal_order.idle
            assert server.is_member("b")
        finally:
            await core.aclose()
        return [Message.decode(payload).msg_type for payload in replies]

    for journaled in (False, True):
        types = asyncio.run(scenario(journaled))
        assert MSG_JOIN_DENIED in types


def test_cluster_refusals_retire_their_ticket():
    async def scenario():
        coordinator = ClusterCoordinator(ClusterConfig(
            n_shards=3, signing="none", seed=b"release-cluster",
            backend="flat"))
        coordinator.bootstrap([])
        core = ClusterServingCore(
            coordinator, ServeConfig(tick_interval=0, open_enroll=False))
        replies = []
        try:
            coordinator.register_individual_key(
                "a", coordinator.new_individual_key())
            for user in ("a", "no-key", "a"):
                await asyncio.wait_for(core.submit(
                    _request(user), replies.append, path_id=None), 30)
            assert all(shard.server.pipeline.seal_order.idle
                       for shard in coordinator.shards)
        finally:
            await core.aclose()
        return [Message.decode(payload).msg_type for payload in replies]

    assert asyncio.run(scenario()).count(MSG_JOIN_DENIED) == 2
