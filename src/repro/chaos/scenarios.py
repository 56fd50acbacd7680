"""Chaos scenarios: Figure-10-style workloads under named fault profiles.

A scenario drives one of the three server stacks (immediate-mode
:class:`~repro.core.server.GroupKeyServer`, interval-batched
:class:`~repro.batch.rekeying.BatchRekeyServer`, or the sharded
:class:`~repro.cluster.coordinator.ClusterCoordinator` behind its front
end) through rounds of joins and leaves while a
:class:`~repro.chaos.faults.ChaosTransport` drops, duplicates and
reorders the rekey traffic — optionally crashing members, restarting
them, and failing/promoting whole shards mid-run.  The
:class:`~repro.recovery.manager.RecoveryManager` and the members' own
gap detection are the only repair mechanisms allowed: the scenario
**passes** iff every surviving member converges back to the server's
group key and decrypts a post-recovery data message, with zero manual
intervention.

Everything is seeded: the same config reproduces the same faults, the
same retries, and the same final keyset, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..batch.rekeying import BatchRekeyServer
from ..cluster.coordinator import ClusterConfig, ClusterCoordinator
from ..cluster.routing import ClusterFrontEnd, ClusterMember
from ..core.server import GroupKeyServer, ServerConfig
from ..crypto.suite import PAPER_SUITE_NO_SIG
from ..recovery import RecoveryManager, RecoveryPolicy, ResilientMember
from ..transport.inmemory import InMemoryNetwork
from .faults import PROFILES, ChaosError, ChaosTransport, FaultProfile

STACKS = ("server", "batch", "cluster", "serve", "serve-crash")


@dataclass
class ScenarioConfig:
    """One chaos scenario: a stack, a fault profile, and a fault plan.

    ``crash_at`` / ``restart_at`` map a round index to member ids;
    ``fail_shard_at`` / ``promote_at`` map a round index to a shard id
    (cluster stack only).  Round indices keep counting through the
    recovery phase, so a restart or promotion can land after the
    workload ends.
    """

    name: str
    stack: str = "server"
    profile: Union[str, FaultProfile] = "clean"
    n_initial: int = 12
    rounds: int = 10
    n_shards: int = 3
    crash_at: Mapping[int, Sequence[str]] = field(default_factory=dict)
    restart_at: Mapping[int, Sequence[str]] = field(default_factory=dict)
    fail_shard_at: Mapping[int, int] = field(default_factory=dict)
    promote_at: Mapping[int, int] = field(default_factory=dict)
    policy: Optional[RecoveryPolicy] = None
    max_recovery_rounds: int = 40
    seed: bytes = b"chaos-scenario"
    #: serve-crash stack only: op index -> crash kind.  ``"kill"`` is a
    #: clean SIGKILL-equivalent teardown after the op; ``"kill-torn"``
    #: additionally tears the journal tail so the op's record is lost
    #: (the client must retry it after the restart).  Empty picks one
    #: default ``kill-torn`` two-thirds through the workload.
    crash_plan: Mapping[int, str] = field(default_factory=dict)
    #: serve-crash stack only: recovery substrate, ``"journal"``
    #: (restart by strict journal replay) or ``"standby"`` (promotion of
    #: the in-memory follower of the same journal frames; nothing is
    #: written to disk, so only ``"kill"`` crashes apply).
    serve_recovery: str = "journal"

    def fault_profile(self) -> FaultProfile:
        """Resolve ``profile`` to a :class:`FaultProfile`."""
        if isinstance(self.profile, FaultProfile):
            return self.profile
        try:
            return PROFILES[self.profile]
        except KeyError:
            raise ChaosError(f"unknown fault profile {self.profile!r}") \
                from None

    def validate(self) -> None:
        """Check field consistency; raises ChaosError."""
        if self.stack not in STACKS:
            raise ChaosError(f"stack must be one of {STACKS}")
        if self.n_initial < 2:
            raise ChaosError("n_initial must be >= 2")
        if self.rounds < 1 or self.max_recovery_rounds < 1:
            raise ChaosError("rounds and max_recovery_rounds must be >= 1")
        if self.serve_recovery not in ("journal", "standby"):
            raise ChaosError(
                f"unknown serve recovery {self.serve_recovery!r}")
        for kind in self.crash_plan.values():
            if kind not in ("kill", "kill-torn"):
                raise ChaosError(f"unknown crash kind {kind!r}")
            if kind == "kill-torn" and self.serve_recovery == "standby":
                raise ChaosError(
                    "kill-torn needs the on-disk journal (a standby "
                    "applies frames in memory; nothing tears)")
        self.fault_profile().validate()


@dataclass
class ScenarioReport:
    """What one scenario run observed."""

    name: str
    stack: str
    profile: str
    converged: bool
    data_ok: bool
    workload_rounds: int
    recovery_rounds: int
    survivors: int
    resyncs: int                 # successful client-side resync installs
    desyncs: int                 # client-side gap detections
    evicted: List[str]
    shed_flushes: int
    injected: Dict[str, int]     # faults actually injected, by kind
    #: Flight-recorder document dumped at scenario end (serve stack
    #: only; None for stacks without a flight recorder).
    flight_dump: Optional[Dict] = None

    @property
    def passed(self) -> bool:
        """True iff the group healed with no manual intervention."""
        return self.converged and self.data_ok

    def summary(self) -> str:
        """One human-readable result line."""
        faults = sum(self.injected.values())
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict} {self.name:<18} stack={self.stack:<7} "
                f"profile={self.profile:<13} faults={faults:<4} "
                f"resyncs={self.resyncs:<3} evicted={len(self.evicted)} "
                f"recovery_rounds={self.recovery_rounds}")


class _Harness:
    """Shared scenario plumbing over one stack + chaos + recovery."""

    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.suite = PAPER_SUITE_NO_SIG
        self.network = InMemoryNetwork(strict=False)
        self.chaos = ChaosTransport(self.network, config.fault_profile())
        self.members: Dict[str, object] = {}
        self._left: List[str] = []
        self._next_join = 0
        self._build_stack()
        self._bootstrap()

    # -- stack construction ------------------------------------------------

    def _build_stack(self) -> None:
        config = self.config
        if config.stack == "cluster":
            self.server = self.coordinator = ClusterCoordinator(ClusterConfig(
                n_shards=config.n_shards, strategy="group",
                suite=self.suite, signing="none",
                seed=config.seed + b"/cluster"))
            self.front_end = ClusterFrontEnd(self.coordinator,
                                             transport=self.chaos)
            self.manager = self.front_end.enable_recovery(config.policy)
            return
        if config.stack == "batch":
            self.server = BatchRekeyServer(
                degree=4, suite=self.suite, seed=config.seed + b"/batch")
        else:
            self.server = GroupKeyServer(ServerConfig(
                degree=4, strategy="group", suite=self.suite,
                signing="none", seed=config.seed + b"/server"))
        self.manager = RecoveryManager(self.server, self.chaos,
                                       policy=config.policy)

    def _bootstrap(self) -> None:
        """Fault-free initial population (the steady state under test)."""
        roster = []
        for i in range(self.config.n_initial):
            roster.append((f"u{i}", self.server.new_individual_key()))
        if self.config.stack == "cluster":
            self.coordinator.bootstrap(roster)
            self.coordinator.enable_standbys()
            for uid, key in roster:
                member = ClusterMember(uid, self.suite, verify=False)
                member.client.set_individual_key(key)
                leaf_id, records, root_ref = \
                    self.coordinator.member_records(uid)
                member.client.set_leaf(leaf_id)
                for record in records:
                    member.client.keys[record.node_id] = (record.version,
                                                          record.key)
                member.client.root_ref = root_ref
                self.members[uid] = member
                self.front_end.attach_member(member)
                self.manager.track(uid)
            return
        self.server.bootstrap(roster)
        for uid, key in roster:
            member = ResilientMember(uid, self.suite, verify=False,
                                     uplink=self._uplink)
            member.client.set_individual_key(key)
            member.client.set_leaf(self.server.tree.leaf_of(uid).node_id)
            for node in self.server.tree.user_key_path(uid)[1:]:
                member.client.keys[node.node_id] = (node.version, node.key)
            member.client.root_ref = self.server.group_key_ref()
            self.members[uid] = member
            self.chaos.attach(uid, member.handle)
            self.manager.track(uid)

    def _uplink(self, datagram: bytes) -> None:
        """Member-to-server control channel (heartbeats, resync asks).

        The paper already assumes a reliable unicast registration path,
        so member requests arrive intact; the *replies* go back through
        chaos and take the full fault pipeline.
        """
        self.chaos.send_all(self.manager.receive(datagram))

    # -- workload ----------------------------------------------------------

    def group_key(self) -> bytes:
        return self.server.group_key()

    def is_member(self, uid: str) -> bool:
        return self.server.is_member(uid)

    def _client(self, uid: str):
        return self.members[uid].client

    def _join(self, uid: str) -> None:
        if self.config.stack == "cluster":
            key = self.server.new_individual_key()
            self.server.register_individual_key(uid, key)
            member = ClusterMember(uid, self.suite, verify=False)
            member.client.set_individual_key(key)
            self.members[uid] = member
            self.front_end.attach_member(member)
            self.front_end.submit(member.join_request())
        else:
            key = self.server.new_individual_key()
            member = ResilientMember(uid, self.suite, verify=False,
                                     uplink=self._uplink)
            member.client.set_individual_key(key)
            self.members[uid] = member
            self.chaos.attach(uid, member.handle)
            if self.config.stack == "batch":
                self.server.request_join(uid, key)
                self._flush()
            else:
                outcome = self.server.join(uid, key)
                self.chaos.send_all(outcome.all_messages)
        self.manager.track(uid)

    def _leave(self, uid: str) -> None:
        self.manager.untrack(uid)
        if self.config.stack == "cluster":
            self.front_end.submit(self.members[uid].leave_request())
            self.front_end.detach_member(uid)
        elif self.config.stack == "batch":
            self.chaos.detach(uid)
            self.server.request_leave(uid)
            self._flush()
        else:
            self.chaos.detach(uid)
            outcome = self.server.leave(uid)
            self.chaos.send_all(outcome.rekey_messages)
        del self.members[uid]
        self._left.append(uid)

    def _flush(self) -> None:
        if self.server.pending == (0, 0):
            return
        result = self.server.flush()
        if result.rekey_message is not None:
            self.chaos.send(result.rekey_message)
        self.chaos.send_all(result.joiner_messages)

    def _workload_op(self, round_index: int) -> None:
        if self.config.stack == "cluster" and any(
                shard.failed for shard in self.coordinator.shards):
            # A failed shard denies requests; a real operator gates the
            # control plane during failover, so the workload pauses too.
            return
        if round_index % 2 == 0:
            uid = f"m{self._next_join}"
            self._next_join += 1
            self._join(uid)
        else:
            victims = [uid for uid in sorted(self.members)
                       if uid not in self.chaos.crashed
                       and self.is_member(uid)
                       and not self._planned(uid)]
            if victims:
                self._leave(victims[0])

    def _planned(self, uid: str) -> bool:
        """True if the fault plan needs this member (do not leave it)."""
        for users in list(self.config.crash_at.values()) \
                + list(self.config.restart_at.values()):
            if uid in users:
                return True
        return False

    # -- fault plan --------------------------------------------------------

    def _apply_plans(self, round_index: int) -> None:
        for uid in self.config.crash_at.get(round_index, ()):
            self.chaos.crash(uid)
        for uid in self.config.restart_at.get(round_index, ()):
            self.chaos.restart(uid)
        if round_index in self.config.fail_shard_at:
            self.coordinator.fail_shard(
                self.config.fail_shard_at[round_index])
        if round_index in self.config.promote_at:
            self.coordinator.promote_standby(
                self.config.promote_at[round_index])

    # -- the heartbeat / maintenance half-round ----------------------------

    def _heartbeats(self) -> None:
        for uid, member in list(self.members.items()):
            if uid in self.chaos.crashed:
                continue  # a crashed process cannot beat
            if self.config.stack == "cluster":
                self.front_end.submit(member.heartbeat())
                if member.client.desynced and not member.client.evicted:
                    self.front_end.submit(member.resync_request())
            else:
                member.beat()
                member.maintain()

    def _live(self) -> List[str]:
        """Members that should converge: attached, alive, still admitted."""
        return [uid for uid in self.members
                if uid not in self.chaos.crashed
                and not self._client(uid).evicted
                and self.is_member(uid)]

    def converged(self) -> bool:
        if self.chaos.in_flight or self.manager.pending_resyncs \
                or self.manager.pending_evictions:
            return False
        target = self.group_key()
        return all(self._client(uid).group_key() == target
                   for uid in self._live())

    def data_check(self) -> bool:
        """Every survivor must decrypt a fresh group data message."""
        sealed = self.server.seal_group_message(b"probe")
        ok = True
        for uid in self._live():
            member = self.members[uid]
            before = len(member.received)
            member.handle(sealed.encoded)
            ok &= (len(member.received) == before + 1
                   and member.received[-1] == b"probe")
        return ok


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    """Run one chaos scenario end to end and report what happened."""
    if config.stack == "serve":
        # The async front end has its own harness (event loop, socket
        # fanout drop filter, in-memory control run for byte-identity).
        from .serve_scenario import run_serve_scenario
        config.validate()
        return run_serve_scenario(config)
    if config.stack == "serve-crash":
        # Supervised crash injection: SIGKILL-equivalent core teardown
        # mid-workload, torn journal tail, restart by replay.
        from .serve_scenario import run_crash_scenario
        config.validate()
        return run_crash_scenario(config)
    _harness, report = _execute(config)
    return report


def _execute(config: ScenarioConfig):
    """Run a scenario, returning the live harness alongside the report
    (the acceptance tests inspect member keysets byte for byte)."""
    harness = _Harness(config)
    round_index = 0
    for _ in range(config.rounds):
        round_index += 1
        harness._apply_plans(round_index)
        harness._workload_op(round_index)
        harness.chaos.pump()
        harness._heartbeats()
        harness.manager.tick()
        harness.chaos.pump()

    recovery_rounds = 0
    while not harness.converged() \
            and recovery_rounds < config.max_recovery_rounds:
        recovery_rounds += 1
        round_index += 1
        harness._apply_plans(round_index)
        harness.chaos.pump()
        harness._heartbeats()
        harness.manager.tick()
        harness.chaos.pump()

    converged = harness.converged()
    live = harness._live()
    return harness, ScenarioReport(
        name=config.name, stack=config.stack,
        profile=harness.chaos.profile.name,
        converged=converged,
        data_ok=converged and harness.data_check(),
        workload_rounds=config.rounds,
        recovery_rounds=recovery_rounds,
        survivors=len(live),
        resyncs=sum(harness._client(uid).stats.resyncs
                    for uid in harness.members),
        desyncs=sum(harness._client(uid).stats.desyncs_detected
                    for uid in harness.members),
        evicted=list(harness.manager.evicted),
        shed_flushes=harness.manager.sheds,
        injected=dict(harness.chaos.injected))


def quick_matrix() -> List[ScenarioConfig]:
    """The CI chaos-smoke set: one scenario per headline fault class."""
    return [
        ScenarioConfig(name="drop10-server", stack="server",
                       profile="drop10", n_initial=12, rounds=10),
        ScenarioConfig(name="dup-reorder-batch", stack="batch",
                       profile="dup-reorder", n_initial=16, rounds=8),
        ScenarioConfig(name="shard-crash", stack="cluster",
                       profile="drop10", n_initial=18, rounds=10,
                       n_shards=3, fail_shard_at={3: 1}, promote_at={6: 1}),
        ScenarioConfig(name="drop10-serve", stack="serve",
                       profile="drop10", n_initial=12, rounds=12),
        ScenarioConfig(name="crash-serve", stack="serve-crash",
                       profile="drop10", n_initial=10, rounds=12,
                       crash_plan={14: "kill-torn"},
                       seed=b"chaos-crash"),
    ]


def full_matrix() -> List[ScenarioConfig]:
    """The quick set plus crash/restart, mass eviction, and heavy loss."""
    return quick_matrix() + [
        ScenarioConfig(name="crash-restart", stack="server",
                       profile="lossy-reorder", n_initial=12, rounds=12,
                       crash_at={3: ["u1"]}, restart_at={7: ["u1"]}),
        ScenarioConfig(name="mass-evict-shed", stack="batch",
                       profile="drop10", n_initial=16, rounds=10,
                       crash_at={2: ["u0", "u1", "u2", "u3"]},
                       policy=RecoveryPolicy(dead_after=3,
                                             shed_threshold=3)),
        ScenarioConfig(name="heavy-server", stack="server",
                       profile="heavy", n_initial=12, rounds=12),
        ScenarioConfig(name="crash-serve-standby", stack="serve-crash",
                       profile="drop10", serve_recovery="standby",
                       n_initial=10, rounds=12,
                       crash_plan={14: "kill"}, seed=b"chaos-crash"),
    ]
