"""Group rekeys leave the server in plan order (ROADMAP 2a, server half).

The worker pool finishes ops in whatever order it likes: the seal turn
is passed on inside ``finish()``, so op N+1 can seal, finish and resolve
its future while op N's ``finish()`` is still running.  Routing each op
when its future resolved let 0.1-0.9 % of group rekeys overtake their
predecessor, and a bare ``GroupClient`` handed the pair desynchronises.
"""

import asyncio
import threading

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (INDIVIDUAL_KEY, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_REKEY, Message)
from repro.core.server import GroupKeyServer, ServerConfig, StagedRekeyOp
from repro.keygraph.journal import JournalWriter
from repro.serve import ClusterServingCore, ImmediateServingCore, ServeConfig
from repro.serve.release import ReleaseOrder


def _request(user):
    return Message(msg_type=MSG_JOIN_REQUEST,
                   body=user.encode("utf-8")).encode()


class _DiscardJournal(JournalWriter):
    def write(self, frame):
        pass


def _group_rekey_versions(payloads):
    """Root versions of the group rekeys among ``payloads``, wire order."""
    versions = []
    for payload in payloads:
        message = Message.decode(payload)
        if message.msg_type == MSG_REKEY \
                and message.items[0].enc_node_id != INDIVIDUAL_KEY:
            versions.append(message.root_version)
    return versions


def test_op_finishing_first_does_not_reach_the_wire_first(monkeypatch):
    """Hold op N inside ``finish()`` until op N+1's future has resolved."""
    held = threading.Event()
    first_finished = threading.Event()
    real_finish = StagedRekeyOp.finish

    def slow_first_finish(op):
        outcome = real_finish(op)      # seal turn already passed on
        if op.user_id == "n0":
            first_finished.set()
            assert held.wait(timeout=30)
        return outcome
    monkeypatch.setattr(StagedRekeyOp, "finish", slow_first_finish)

    async def scenario():
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"release-order", backend="flat"))
        server.bootstrap([(f"b{i}", server.new_individual_key())
                          for i in range(9)])
        core = ImmediateServingCore(server, ServeConfig(tick_interval=0),
                                    workers=2)
        wire = []
        core.fanout.attach("b0", wire.append, path_id="observer")
        acks = {}
        try:
            first = asyncio.ensure_future(core.submit(
                _request("n0"), lambda p: acks.setdefault("n0", p),
                path_id=None))
            # Planned second, but its pool work completes first.
            await asyncio.get_running_loop().run_in_executor(
                None, first_finished.wait, 30)
            second = asyncio.ensure_future(core.submit(
                _request("n1"), lambda p: acks.setdefault("n1", p),
                path_id=None))
            await asyncio.sleep(0.3)
            # n1 is sealed and finished; its outputs wait for n0's.
            assert wire == [] and acks == {}
            assert not second.done()
            held.set()
            await asyncio.wait_for(asyncio.gather(first, second), 30)
        finally:
            held.set()
            await core.aclose()
        return _group_rekey_versions(wire)

    versions = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
    assert len(versions) == 2
    assert versions == sorted(versions), versions


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
            # The whole-op path draws its ticket inside the worker.
            server.attach_journal(_DiscardJournal())
        core = ImmediateServingCore(server, ServeConfig(tick_interval=0))
        replies = []
        try:
            for user in ("a", "doomed", "a", "b"):   # ok, dies, denied, ok
                await asyncio.wait_for(core.submit(
                    _request(user), replies.append, path_id=None), 30)
            assert core._release.idle
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
            assert core._release.idle
        finally:
            await core.aclose()
        return [Message.decode(payload).msg_type for payload in replies]

    assert asyncio.run(scenario()).count(MSG_JOIN_DENIED) == 2


# -- the gate itself ---------------------------------------------------------


def test_turns_are_granted_in_ticket_order():
    async def scenario():
        order = ReleaseOrder()
        tickets = [order.ticket() for _ in range(4)]
        served = []

        async def op(ticket):
            try:
                await order.turn(ticket)
                served.append(ticket)
            finally:
                order.retire(ticket)
        # Ready in reverse plan order.
        tasks = [asyncio.ensure_future(op(t)) for t in reversed(tickets)]
        await asyncio.gather(*tasks)
        assert order.idle
        return served

    assert asyncio.run(scenario()) == [0, 1, 2, 3]


def test_a_cancelled_waiter_passes_its_turn_on():
    async def scenario():
        order = ReleaseOrder()
        first, second, third = (order.ticket() for _ in range(3))

        async def op(ticket):
            try:
                await order.turn(ticket)
            finally:
                order.retire(ticket)
        waiting = asyncio.ensure_future(op(second))
        last = asyncio.ensure_future(op(third))
        await asyncio.sleep(0)
        waiting.cancel()
        with pytest.raises(asyncio.CancelledError):
            await waiting
        assert not last.done()
        order.retire(first)
        order.retire(first)        # idempotent
        order.retire(None)         # no ticket was drawn
        await asyncio.wait_for(last, 5)
        assert order.idle

    asyncio.run(scenario())
