"""Secure groups over *arbitrary* key graphs, with real key material.

The paper's §2 model is more general than the key tree the experiments
use: any DAG of u-nodes and k-nodes specifies a secure group, and
rekeying after a leave is an instance of the (NP-hard) *key covering*
problem — "find a minimum size subset K' of K such that
userset(K') = userset(k) − {u}" for every compromised key k.  §7
explains why the generality matters: with multiple secure groups over
one user population, "the key trees of different group keys are merged
to form a key graph".

:class:`MaterializedKeyGraph` operationalises that model: a
:class:`~repro.keygraph.graph.KeyGraph` whose k-nodes carry actual
(versioned) key material, with join/leave rekeying driven by the
covering machinery of :mod:`repro.keygraph.covering` rather than tree
structure.  Rekey payloads reuse the tree protocols' wire format
(:class:`~repro.core.messages.EncryptedItem`), so the ordinary
:class:`~repro.core.client.GroupClient` processes them unchanged.
Join/leave run through the shared staged pipeline
(:class:`~repro.core.pipeline.RekeyPipeline`); the covering logic is
the plan stage, and this path ships unsigned messages (no sealing).

Rekeying policy on a leave of user ``u``:

* every key ``k`` that ``u`` held and others share is replaced,
  processed in topological order (fewest users first), so replacements
  for "smaller" keys are available as encryption keys for "larger" ones;
* the new ``k`` is encrypted under a greedy cover of
  ``userset(k) − {u}`` drawn from keys ``u`` never held plus
  already-replaced keys — never under anything ``u`` knows.

On a join of user ``u`` attached to keys ``K_u``: every key in the
closure of ``K_u`` is replaced; existing holders decrypt the new key
under the old one, and ``u`` receives its closure in one bundle under
its individual key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.messages import (INDIVIDUAL_KEY, Destination, KeyRecord,
                             OutboundMessage)
from ..core.pipeline import RekeyPipeline
from ..core.strategies.base import PlannedMessage, RekeyContext
from ..observability import Instrumentation
from .covering import CoverError, greedy_cover
from .flat import KeyArena
from .graph import KeyGraph, KeyGraphError


class MaterializedGraphError(ValueError):
    """Raised on invalid graph-group operations."""


@dataclass
class GraphRekeyOutcome:
    """Result of a join/leave on a materialized key graph."""

    op: str
    user_id: str
    replaced: List[str]               # k-node names whose keys changed
    encryptions: int
    messages: List[OutboundMessage]
    seconds: float                    # CPU time (StageClock)
    # Per-stage breakdown of ``seconds`` from the pipeline's StageClock.
    stage_seconds: Optional[Dict[str, float]] = None


class MaterializedKeyGraph:
    """An operational secure group specified by an arbitrary key graph."""

    def __init__(self, suite, keygen: Callable[[], bytes],
                 group_id: int = 1,
                 instrumentation: Optional[Instrumentation] = None):
        self.suite = suite
        self._keygen = keygen
        self.graph = KeyGraph()
        self.group_id = group_id
        # k-node name -> (integer wire id, version); the key bytes live
        # in a flat arena indexed by wire id (same storage engine as
        # FlatKeyTree), not as per-key heap objects.
        self._material: Dict[str, Tuple[int, int]] = {}
        self._arena = KeyArena()
        self._next_wire_id = 1
        # user -> individual key (the leaf-equivalent, outside the graph)
        self._individual: Dict[str, bytes] = {}
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("materialized-graph"))
        registry = self.instrumentation.registry
        self._m_replaced = registry.counter(
            "graph_keys_replaced_total",
            "K-node keys rotated by graph rekeying.", labels=("op",))
        self._m_members = registry.gauge(
            "group_size", "Current number of group members.").labels()
        # Unsigned path: signer=None ships messages without auth blocks.
        self.pipeline = RekeyPipeline(
            suite, signer=None, group_id=group_id,
            instrumentation=self.instrumentation)

    # -- construction ------------------------------------------------------

    def add_key(self, name: str) -> None:
        """Create a k-node with fresh key material."""
        self.graph.add_k_node(name)
        wire_id = self._next_wire_id
        self._next_wire_id += 1
        self._material[name] = (wire_id, 0)
        self._arena.store(wire_id, self._keygen())

    def add_user(self, name: str, individual_key: bytes,
                 keys: Iterable[str]) -> None:
        """Add a u-node holding ``keys`` (directly; closure via edges).

        This is *construction*, not a protocol join — no rekeying
        happens.  Use :meth:`join` for backward-secret admission.
        """
        if len(individual_key) != self.suite.key_size:
            raise MaterializedGraphError(
                f"individual key must be {self.suite.key_size} bytes")
        self.graph.add_u_node(name)
        for key in keys:
            self.graph.add_edge(name, key)
        self._individual[name] = individual_key

    def link(self, lower: str, upper: str) -> None:
        """Add a k-node -> k-node edge (lower's holders gain upper)."""
        self.graph.add_edge(lower, upper)

    # -- queries ---------------------------------------------------------------

    def users(self) -> List[str]:
        """Current member ids, sorted."""
        return sorted(self.graph.u_nodes)

    def keyset(self, user: str) -> FrozenSet[str]:
        """K-node names reachable from ``user``."""
        return self.graph.keyset(user)

    def wire_ref(self, name: str) -> Tuple[int, int]:
        """(wire id, version) of a k-node, as rekey items reference it."""
        return self._material[name]

    def key_bytes(self, name: str) -> bytes:
        """Current key material of a k-node."""
        return self._arena.get(self._material[name][0])

    def key_records(self, names: Iterable[str]) -> List[KeyRecord]:
        """Wire key records for the named k-nodes."""
        records = []
        for name in names:
            wire_id, version = self._material[name]
            records.append(KeyRecord(wire_id, version,
                                     self._arena.get(wire_id)))
        return records

    def validate(self) -> None:
        """Graph rules plus material/graph consistency."""
        self.graph.validate()
        if set(self.graph.k_nodes) != set(self._material):
            raise MaterializedGraphError("material out of sync with graph")

    # -- helpers ------------------------------------------------------------------

    def _replace(self, name: str) -> Tuple[int, int, bytes, bytes]:
        """Rotate a key; returns (wire id, new version, old key, new key)."""
        wire_id, version = self._material[name]
        old_key = self._arena.get(wire_id)
        new_key = self._keygen()
        self._material[name] = (wire_id, version + 1)
        self._arena.store(wire_id, new_key)
        return wire_id, version + 1, old_key, new_key

    def _topological_k_order(self, names: Iterable[str]) -> List[str]:
        """Sort k-nodes by |userset| ascending (children before parents)."""
        return sorted(names,
                      key=lambda name: (len(self.graph.userset(name)), name))

    def _root_ref(self) -> Tuple[int, int]:
        """Wire reference of the group key (0, 0 when the graph has none)."""
        group_key = self.group_key_name()
        return self.wire_ref(group_key) if group_key else (0, 0)

    def group_key_name(self) -> Optional[str]:
        """A k-node held by every user (None if the graph has none)."""
        users = self.graph.u_nodes
        for name in sorted(self.graph.k_nodes):
            if self.graph.userset(name) == users:
                return name
        return None

    # -- leave ---------------------------------------------------------------------

    def leave(self, user: str) -> GraphRekeyOutcome:
        """Remove ``user`` and rekey every key it shared, via covering."""
        state: Dict[str, object] = {}

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            if user not in self.graph.u_nodes:
                raise MaterializedGraphError(f"unknown user {user!r}")
            old_keyset = set(self.graph.keyset(user))
            self.graph.remove_node(user)
            self._individual.pop(user, None)

            # Keys nobody holds any more disappear; shared ones are
            # replaced.
            compromised: List[str] = []
            for name in sorted(old_keyset):
                if not self.graph.userset(name):
                    self.graph.remove_node(name)
                    self._arena.discard(self._material[name][0])
                    del self._material[name]
                else:
                    compromised.append(name)

            secure = (self.graph.secure_group()
                      if self.graph.u_nodes else None)
            items = []
            replaced: List[str] = []
            replaced_set = set()
            for name in self._topological_k_order(compromised):
                target = self.graph.userset(name)
                wire_id, version, _old, new_key = self._replace(name)
                replaced.append(name)
                replaced_set.add(name)
                # Cover the target with keys the leaver never held, plus
                # keys already replaced this round (their new versions
                # are clean and, by the topological order, already
                # delivered to their holders) — but never the key
                # currently being replaced.
                safe = [k for k in self.graph.k_nodes
                        if (k not in old_keyset or k in replaced_set)
                        and k != name]
                cover = self._cover(secure, target, safe)
                for cover_name in cover:
                    cover_id, cover_version = self._material[cover_name]
                    items.append(ctx.encrypt(
                        self._arena.get(cover_id),
                        [KeyRecord(wire_id, version, new_key)],
                        cover_id, cover_version))
            state["replaced"] = replaced
            if not items:
                return []
            return [PlannedMessage(Destination.to_all(), items)]

        run = self.pipeline.run("leave", planner, root_ref=self._root_ref,
                                user_id=user)
        self.validate()
        self._m_replaced.inc(len(state["replaced"]), op="leave")
        self._m_members.set(len(self.graph.u_nodes))
        return GraphRekeyOutcome("leave", user, state["replaced"],
                                 run.encryptions, run.messages, run.seconds,
                                 run.stage_seconds)

    def _cover(self, secure, target, safe_names) -> List[str]:
        """Greedy cover of ``target`` restricted to ``safe_names``.

        Falls back to per-user individual keys... which arbitrary graphs
        do not have inside the graph; users whose every graph key was
        shared with the leaver are unreachable through the graph, so the
        construction requirement is that each user keeps at least one
        safe key.  A CoverError here means the graph violates that.
        """
        if secure is None or not target:
            return []
        safe_set = set(safe_names)
        if not safe_set:
            raise CoverError("no safe keys available for cover")
        # Restrict the relation to safe keys by projecting the group.
        from .graph import SecureGroup
        relation = [(u, k) for (u, k) in secure.relation if k in safe_set]
        projected = SecureGroup(secure.users, safe_set, relation)
        return greedy_cover(projected, target)

    # -- join ----------------------------------------------------------------------

    def join(self, user: str, individual_key: bytes,
             keys: Iterable[str]) -> GraphRekeyOutcome:
        """Admit ``user`` holding ``keys``; rekey its closure.

        Backward secrecy: every key the joiner gains is replaced.
        Existing holders learn each new key under the corresponding old
        key (one encryption each); the joiner gets its whole closure in
        one bundle under its individual key.
        """
        keys = list(keys)
        state: Dict[str, object] = {}

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            self.add_user(user, individual_key, keys)
            gained = self.graph.keyset(user)
            items = []
            replaced: List[str] = []
            for name in self._topological_k_order(gained):
                holders = self.graph.userset(name)
                wire_id, version, old_key, new_key = self._replace(name)
                replaced.append(name)
                if holders - {user}:
                    items.append(ctx.encrypt(
                        old_key, [KeyRecord(wire_id, version, new_key)],
                        wire_id, version - 1))
            state["replaced"] = replaced
            plans = []
            if items:
                plans.append(PlannedMessage(
                    Destination.to_all(exclude=user), items))
            # Joiner bundle: the new keys of its entire closure.
            bundle = ctx.encrypt(individual_key,
                                 self.key_records(sorted(gained)),
                                 INDIVIDUAL_KEY, 0)
            plans.append(PlannedMessage(
                Destination.to_user(user), [bundle],
                lambda: (user,)))
            return plans

        run = self.pipeline.run("join", planner, root_ref=self._root_ref,
                                user_id=user)
        self.validate()
        self._m_replaced.inc(len(state["replaced"]), op="join")
        self._m_members.set(len(self.graph.u_nodes))
        return GraphRekeyOutcome("join", user, state["replaced"],
                                 run.encryptions, run.messages, run.seconds,
                                 run.stage_seconds)

    # -- factories -------------------------------------------------------------------

    @classmethod
    def figure1(cls, suite, keygen
                ) -> Tuple["MaterializedKeyGraph", Dict[str, bytes]]:
        """The paper's Figure 1 graph, materialized, plus the users'
        individual keys."""
        group = cls(suite, keygen)
        for name in ("k1", "k2", "k3", "k4", "k12", "k234", "k1234"):
            group.add_key(name)
        group.link("k12", "k1234")
        group.link("k234", "k1234")
        individual = {}
        for index, (user, keys) in enumerate((
                ("u1", ["k1", "k12"]),
                ("u2", ["k2", "k12", "k234"]),
                ("u3", ["k3", "k234"]),
                ("u4", ["k4", "k234"]))):
            key = keygen()
            individual[user] = key
            group.add_user(user, key, keys)
        group.validate()
        return group, individual
