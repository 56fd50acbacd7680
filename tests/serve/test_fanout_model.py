"""Model test: the audience index against a brute-force scan.

Every transport resolves a group address from one index it maintains
incrementally (``path -> members attached behind it``, per audience;
:mod:`repro.transport.audience`).  Before the index existed, the
server enumerated the group and transports walked that receiver tuple;
the scan survives here, as the oracle::

    paths(A) = { path(u) : u in userset(A) and u is attached }

Hypothesis drives attach / re-attach to another path / detach / join /
leave / eviction / denied joins over shared and private reply paths,
through the real serving cores (one server, and a 3-shard cluster with
one audience per shard plus their union), and after every step

* a probe addressed to each audience is written to exactly the
  oracle's paths, and the index's member counts equal the oracle's;
* the group rekeys a join or leave actually emitted reached exactly
  the paths the old scan would have found for them.

A third machine walks the simulation stack — ``ClusterFrontEnd`` over a
``ChaosTransport`` (crash, restart, partition) over an
``InMemoryNetwork`` — and checks every group-addressed message it sends
against ``userset(audience) - {exclude}`` among the attached users.
"""

import asyncio
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.chaos.faults import ChaosTransport
from repro.cluster.coordinator import (ROOT_LAYER_BASE, SHARD_ID_SPACE,
                                       ClusterConfig, ClusterCoordinator)
from repro.cluster.routing import ClusterFrontEnd
from repro.core.messages import (DEST_ALL, INDIVIDUAL_KEY, MSG_DATA,
                                 MSG_HEARTBEAT, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, MSG_REKEY, Destination,
                                 Message, OutboundMessage)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.recovery.manager import RecoveryPolicy
from repro.serve import ClusterServingCore, ImmediateServingCore, ServeConfig
from repro.transport.inmemory import InMemoryNetwork

ROSTER = [f"b{i}" for i in range(6)]          # bootstrapped, never joined
USERS = ROSTER + [f"n{i}" for i in range(6)]
SHARED = ["sock-0", "sock-1", "sock-2"]

users = st.sampled_from(USERS)
paths = st.sampled_from(SHARED) | users.map(lambda user: f"own-{user}")


def _request(msg_type, user, **header):
    return Message(msg_type=msg_type, body=user.encode(), **header).encode()


class FanoutIndexMachine(RuleBasedStateMachine):
    """Single ``GroupKeyServer`` behind ``ImmediateServingCore``."""

    def __init__(self):
        super().__init__()
        self.loop = asyncio.new_event_loop()
        self.core = self.build_core()
        self.backend = self.core.recovery.backend
        #: The model: user -> the reply path it was last attached on.
        self.attached = {}
        #: What each path's socket was handed, in order.
        self.wire = {}

    # -- the system under test -----------------------------------------------

    def build_core(self):
        server = GroupKeyServer(ServerConfig(
            signing="none", seed=b"fanout-model", degree=3))
        server.bootstrap([(user, server.new_individual_key())
                          for user in ROSTER])
        self.register = server.register_individual_key
        self.new_key = server.new_individual_key
        return ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=False),
            recovery_policy=RecoveryPolicy(dead_after=1))

    def audiences(self):
        """{audience: its userset}, as the backend has it right now."""
        return {None: set(self.backend.members())}

    def emitted(self, user, still_in=()):
        """{kind: receivers} of the group rekeys ``user``'s op just sent.

        The brute-force answer of the strategy's own resolver: a join's
        rekey goes to the group as it was before, a leave's to whoever
        remains — the current members minus the requester either way
        (plus ``still_in``: members at the time that have left since).
        """
        return {"group":
                (set(self.backend.members()) | set(still_in)) - {user}}

    def kind_of(self, message):
        return "group"

    # -- plumbing ---------------------------------------------------------------

    def teardown(self):
        self.loop.run_until_complete(self.core.aclose())
        self.loop.close()

    def sink(self, path):
        return self.wire.setdefault(path, []).append

    def clear_wire(self):
        # In place: the fan-out holds these lists' ``append``.
        for payloads in self.wire.values():
            payloads.clear()

    def submit(self, datagram, path, register_path=True):
        self.loop.run_until_complete(asyncio.wait_for(self.core.submit(
            datagram, self.sink(path),
            path_id=path if register_path else None), timeout=30))

    def oracle_paths(self, userset):
        return Counter(self.attached[user] for user in userset
                       if user in self.attached)

    def rekeys_by_kind(self):
        """{kind: paths that got a copy} of the group rekeys on the wire."""
        seen = {}
        for path, payloads in self.wire.items():
            for payload in payloads:
                message = Message.decode(payload)
                if message.msg_type != MSG_REKEY or (
                        len(message.items) == 1 and
                        message.items[0].enc_node_id == INDIVIDUAL_KEY):
                    continue  # acks, denials, the joiner's own unicast
                seen.setdefault(self.kind_of(message), set()).add(path)
        return seen

    def check_emitted(self, user):
        """The group rekeys on the wire went where the old scan says."""
        expected = {kind: set(self.oracle_paths(receivers))
                    for kind, receivers in self.emitted(user).items()}
        expected = {kind: paths for kind, paths in expected.items() if paths}
        assert self.rekeys_by_kind() == expected

    # -- rules ------------------------------------------------------------------

    @rule(user=users, path=paths)
    def attach(self, user, path):
        """A heartbeat (member or not) registers its source as the path."""
        served = self.core.submit_nowait(
            _request(MSG_HEARTBEAT, user), self.sink(path), path)
        assert served
        self.attached[user] = path

    @rule(user=users)
    def detach(self, user):
        """The socket went away."""
        self.core.fanout.detach(user)
        self.attached.pop(user, None)

    @rule(user=users, path=paths)
    def join(self, user, path):
        """A join with a registered key: admitted unless already in."""
        was_member = self.backend.is_member(user)
        if not was_member:
            self.register(user, self.new_key())
        self.clear_wire()
        self.submit(_request(MSG_JOIN_REQUEST, user), path)
        assert self.backend.is_member(user)
        self.attached[user] = path
        if was_member:
            assert self.rekeys_by_kind() == {}      # denied: a duplicate
        else:
            self.check_emitted(user)

    @rule(user=users, path=paths)
    def join_refused(self, user, path):
        """No key registered: refused, and the path must not linger."""
        if self.backend.is_member(user):
            return
        self.clear_wire()
        self.submit(_request(MSG_JOIN_REQUEST, user), path)
        assert not self.backend.is_member(user)
        assert self.rekeys_by_kind() == {}
        self.attached.pop(user, None)

    @rule(user=users)
    def leave(self, user):
        was_member = self.backend.is_member(user)
        self.clear_wire()
        self.submit(_request(MSG_LEAVE_REQUEST, user), f"own-{user}",
                    register_path=False)
        if was_member:
            self.attached.pop(user, None)
            self.check_emitted(user)
        else:
            assert self.rekeys_by_kind() == {}

    @precondition(lambda self: any(self.backend.is_member(user)
                                   for user in self.attached))
    @rule(data=st.data())
    def evict(self, data):
        """One attached member falls silent; everyone else heartbeats."""
        victim = data.draw(st.sampled_from(sorted(
            user for user in self.attached
            if self.backend.is_member(user))))
        already = len(self.core.recovery.evicted)
        self.clear_wire()
        # Its last sign of life (also what puts it under surveillance:
        # a bootstrapped member is only watched once it was heard).
        self.heartbeat(victim)
        for _round in range(2):
            for user in self.attached:
                if user != victim:
                    self.heartbeat(user)
            self.loop.run_until_complete(self.core._tick_once())
        evicted = self.core.recovery.evicted[already:]
        assert victim in evicted
        # Silent members that had lost their socket go in the same
        # sweep.  Each eviction's rekey is owed to the members of that
        # moment: the survivors and the evictees still to come.
        expected = {}
        for index, user in enumerate(evicted):
            assert not self.backend.is_member(user)
            self.attached.pop(user, None)
            for kind, receivers in self.emitted(
                    user, still_in=evicted[index + 1:]).items():
                expected.setdefault(kind, set()).update(
                    self.oracle_paths(receivers))
        assert self.rekeys_by_kind() == {
            kind: paths for kind, paths in expected.items() if paths}

    def heartbeat(self, user):
        """An up-to-date heartbeat on the path ``user`` already has."""
        path = self.attached[user]
        root_id, root_version = self.backend.group_key_ref()
        self.core.submit_nowait(
            _request(MSG_HEARTBEAT, user, root_node_id=root_id,
                     root_version=root_version), self.sink(path), path)

    # -- the invariant ----------------------------------------------------------

    @invariant()
    def index_equals_brute_force(self):
        fanout = self.core.fanout
        assert len(fanout.audience) == len(self.attached)
        for audience, userset in self.audiences().items():
            expected = self.oracle_paths(userset)
            assert fanout.audience.paths(audience) == dict(expected)
            self.clear_wire()
            probe = Message(msg_type=MSG_DATA, body=b"probe")
            fanout.send(OutboundMessage(Destination.to_all(), probe, (),
                                        probe.encode(), audience=audience))
            written = {path for path, payloads in self.wire.items()
                       if payloads}
            assert written == set(expected), audience
            assert all(len(payloads) == 1
                       for payloads in self.wire.values() if payloads)


class ClusterFanoutIndexMachine(FanoutIndexMachine):
    """The same walk over a 3-shard cluster: one audience per shard,
    their union for the root layer."""

    def build_core(self):
        coordinator = ClusterCoordinator(ClusterConfig(
            n_shards=3, signing="none", seed=b"fanout-model", degree=3))
        coordinator.bootstrap([(user, coordinator.new_individual_key())
                               for user in ROSTER])
        self.register = coordinator.register_individual_key
        self.new_key = coordinator.new_individual_key
        self.coordinator = coordinator
        return ClusterServingCore(
            coordinator, ServeConfig(tick_interval=0, open_enroll=False),
            recovery_policy=RecoveryPolicy(dead_after=1))

    def audiences(self):
        by_shard = {shard.name: set(shard.server.members())
                    for shard in self.coordinator.shards}
        by_shard[None] = set().union(*by_shard.values())
        return by_shard

    def emitted(self, user, still_in=()):
        shard = self.coordinator.shard_of(user)
        neighbours = {other for other in still_in
                      if self.coordinator.shard_of(other) is shard}
        return {shard.name:
                (set(shard.server.members()) | neighbours) - {user},
                "root": set(self.backend.members()) | set(still_in)}

    def kind_of(self, message):
        if message.root_node_id >= ROOT_LAYER_BASE:
            return "root"
        return self.coordinator.shards[
            message.root_node_id // SHARD_ID_SPACE - 1].name


class _OracleChaos(ChaosTransport):
    """Chaos that checks each group send against the brute-force scan."""

    def __init__(self, network, expected, delivered):
        super().__init__(network)
        self._expected = expected
        self._delivered = delivered

    def send(self, outbound):
        if outbound.destination.kind != DEST_ALL:
            super().send(outbound)
            return
        expected = self._expected(outbound)
        # Resolution ignores faults: a crashed or cut-off member keeps
        # its subscription; only its copy is lost.
        assert set(self.audience.receivers(outbound)) == expected
        self._delivered.clear()
        super().send(outbound)
        assert self._delivered == expected - self.crashed \
            - self._partitioned


class FrontEndAudienceMachine(RuleBasedStateMachine):
    """``ClusterFrontEnd`` -> ``ChaosTransport`` -> ``InMemoryNetwork``."""

    def __init__(self):
        super().__init__()
        self.coordinator = ClusterCoordinator(ClusterConfig(
            n_shards=3, signing="none", seed=b"front-end-model", degree=3))
        self.coordinator.bootstrap(
            [(user, self.coordinator.new_individual_key())
             for user in ROSTER])
        self.delivered = set()
        self.chaos = _OracleChaos(InMemoryNetwork(strict=False),
                                  self.expected, self.delivered)
        self.front_end = ClusterFrontEnd(self.coordinator, self.chaos)
        self.recovery = self.front_end.enable_recovery(
            RecoveryPolicy(dead_after=1))
        #: The model: who is attached, and who is cut off.
        self.attached = set()
        self.fresh = 0

    # -- the oracle --------------------------------------------------------------

    def userset(self, audience):
        if audience is None:
            return set(self.coordinator.members())
        shard = next(shard for shard in self.coordinator.shards
                     if shard.name == audience)
        return set(shard.server.members())

    def expected(self, outbound):
        return ((self.userset(outbound.audience) & self.attached)
                - {outbound.destination.exclude})

    # -- rules ------------------------------------------------------------------

    @rule(user=users)
    def attach(self, user):
        self.front_end.attach_member(
            user, lambda payload: self.delivered.add(user))
        self.attached.add(user)

    @rule(user=users)
    def detach(self, user):
        self.front_end.detach_member(user)
        self.attached.discard(user)

    def _join(self, user):
        if not self.coordinator.is_member(user):
            self.coordinator.register_individual_key(
                user, self.coordinator.new_individual_key())
        self.front_end.submit(_request(MSG_JOIN_REQUEST, user))
        assert self.coordinator.is_member(user)

    @rule(user=users)
    def join(self, user):
        self._join(user)

    @rule(shard=st.integers(0, 2), attach_first=st.booleans())
    def shard_routed_join(self, shard, attach_first):
        """A fresh user the ring routes to ``shard``, attached before
        its request (as a member process would be) or never."""
        while True:
            self.fresh += 1
            user = f"s{shard}-{self.fresh}"
            if self.coordinator.ring.shard_for(user) == shard:
                break
        if attach_first:
            self.attach(user)
        self._join(user)

    @rule(user=users)
    def leave(self, user):
        self.front_end.submit(_request(MSG_LEAVE_REQUEST, user))
        assert not self.coordinator.is_member(user)

    @precondition(lambda self: any(self.coordinator.is_member(user)
                                   for user in USERS))
    @rule(data=st.data())
    def evict(self, data):
        """One member falls silent and is evicted by the recovery loop;
        it keeps its path (owed a RESYNC_NOT_MEMBER) but no audience."""
        victim = data.draw(st.sampled_from(sorted(
            user for user in USERS if self.coordinator.is_member(user))))
        self.recovery.track(victim)
        for _round in range(3):
            self.recovery.tick()
        assert not self.coordinator.is_member(victim)
        assert self.chaos.audience.known(victim) == (victim in self.attached)

    @rule(user=users)
    def crash(self, user):
        if user in self.attached and user not in self.chaos.crashed:
            self.chaos.crash(user)

    @rule(user=users)
    def restart(self, user):
        if user in self.chaos.crashed:
            self.chaos.restart(user)

    @rule(cut=st.sets(users, max_size=3))
    def partition(self, cut):
        self.chaos.partition(cut)

    @rule()
    def heal(self):
        self.chaos.heal()

    # -- the invariant ----------------------------------------------------------

    @invariant()
    def index_equals_brute_force(self):
        index = self.chaos.audience
        assert len(index) == len(self.attached)
        audiences = [None] + [shard.name for shard in self.coordinator.shards]
        for audience in audiences:
            members = self.userset(audience) & self.attached
            assert index.paths(audience) == dict.fromkeys(members, 1)
            probe = Message(msg_type=MSG_DATA, body=b"probe")
            self.chaos.send(OutboundMessage(
                Destination.to_all(), probe, (), probe.encode(),
                audience=audience))


_SETTINGS = settings(max_examples=100, stateful_step_count=30, deadline=None)

TestFanoutIndex = FanoutIndexMachine.TestCase
TestFanoutIndex.settings = _SETTINGS
TestClusterFanoutIndex = ClusterFanoutIndexMachine.TestCase
TestClusterFanoutIndex.settings = _SETTINGS
TestFrontEndAudience = FrontEndAudienceMachine.TestCase
TestFrontEndAudience.settings = settings(max_examples=60,
                                         stateful_step_count=30,
                                         deadline=None)
