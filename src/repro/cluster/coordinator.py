"""Sharded key-server cluster: partitioned LKH shards + a root key layer.

The paper's §6 comparison with Iolus shows the trade-off of splitting
one flat group into subgroup servers; this module takes the key-graph
answer instead of Iolus's: the logical group's key tree is **partitioned
across N shard servers**, each a full :class:`~repro.core.server.
GroupKeyServer` owning an LKH subtree over its users, and a coordinator
maintains a **root key layer** — a small key tree whose leaves are the
shards' subtree roots.  Composition:

* a member of shard *s* holds its shard path (``log(u/N)`` keys, up to
  the shard root) plus the root-layer path above shard *s*'s leaf
  (``log N`` keys, up to the cluster group key);
* a join/leave rekeys only the owning shard's path — multicast to that
  shard's members only — plus the ``O(log N)`` root-layer path,
  multicast cluster-wide.  Shard-local traffic never fans out
  cluster-wide, and per-operation server cost is ``O(log(u/N) + log N)``
  — bounded by shard size, not total group size;
* unlike Iolus there is still a true group key (the root-layer root),
  so data traffic costs one encryption regardless of shard count — the
  "1 affects n" problem is contained at rekey time without moving work
  to data time.

Node-id namespacing: every shard tree and the root-layer tree share one
member-visible id space (clients keep a flat ``node_id -> key`` map), so
each shard's tree is renumbered into its own :data:`SHARD_ID_SPACE`-wide
window and the root layer lives at :data:`ROOT_LAYER_BASE`.

The root layer reuses the staged :class:`~repro.core.pipeline.
RekeyPipeline` (plan → encrypt → sign → dispatch): a root-layer rekey is
planned as one group-oriented multicast whose items encrypt each changed
node's new key under each child's current key; for leaf children the
encrypting-key *reference* is the owning shard's live root ``(node id,
version)``, which members already hold from the shard-local rekey they
processed first.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (Callable, Dict, Hashable, Iterable, List, Optional,
                    Sequence, Tuple)

from ..core.messages import (DEST_ALL, STRATEGY_GROUP_ORIENTED,
                             Destination, KeyRecord, OutboundMessage)
from ..core.pipeline import (KeyMaterialSource, PipelineRun, RekeyPipeline,
                             Sequencer, make_signer)
from ..core.resync import RESYNC_NOT_MEMBER, RESYNC_OK, build_resync_reply
from ..core.server import (_DENIALS, GroupKeyServer, KeyServerProtocol,
                           RekeyOutcome, ServerConfig, ServerError,
                           seal_data_message)
from ..core.strategies.base import PlannedMessage, RekeyContext
from ..crypto.suite import PAPER_SUITE, CipherSuite
from ..keygraph.backend import BACKENDS, build_tree
from ..keygraph.covering import tree_subset_cover
from ..keygraph.tree import KeyTree, TreeNode
from ..observability import LATENCY_BUCKETS_S, Instrumentation
from ..observability.export import build_snapshot
from .failover import WarmStandby
from .partition import DEFAULT_VNODES, HashRing

#: Width of each shard's node-id window.  Shard ``i`` allocates tree
#: node ids in ``[(i + 1) * SHARD_ID_SPACE, (i + 2) * SHARD_ID_SPACE)``.
SHARD_ID_SPACE = 1 << 24

#: Base of the root layer's node-id window (clear of every shard window
#: and of the ``INDIVIDUAL_KEY`` sentinel ``0xFFFFFFFF``).
ROOT_LAYER_BASE = 0xF0000000

#: Hard cap keeping shard windows below the root-layer window.
MAX_SHARDS = ROOT_LAYER_BASE // SHARD_ID_SPACE - 1


class ClusterError(ServerError):
    """Raised on invalid cluster configuration or operations (a
    :class:`~repro.core.server.ServerError`: one ``except`` means
    "refused" on every key server)."""


def shard_id_base(shard_id: int) -> int:
    """Base of shard ``shard_id``'s node-id window."""
    return (shard_id + 1) * SHARD_ID_SPACE


def namespace_tree(tree, base: int) -> None:
    """Shift a key tree's node ids into the window starting at ``base``.

    Applied once, right after a tree is (re)built, so shard trees and
    the root-layer tree never collide in the members' flat key map.
    Future allocations continue inside the window.  Works on any
    :class:`~repro.keygraph.backend.TreeBackend` via ``shift_node_ids``.
    """
    if base <= 0:
        return
    for node in tree.nodes():
        if node.node_id >= base:
            raise ClusterError("tree already namespaced")
    tree.shift_node_ids(base)


# -- the root key layer --------------------------------------------------------


class RootKeyLayer:
    """The ``O(log N)`` key tree spanning the shards' subtree roots.

    Leaves are pseudo-users named after the shards; each leaf's key is
    kept equal to that shard's current subtree root key, so members of a
    shard can always decrypt the lowest root-layer item with the shard
    root key they already hold.  The layer is usable standalone (the
    batch-boundary tests drive it over :class:`~repro.batch.rekeying.
    BatchRekeyServer` shards) as well as under the coordinator.
    """

    def __init__(self, suite: CipherSuite, shard_names: Sequence[str], *,
                 degree: int = 4, seed: Optional[bytes] = None,
                 signing: str = "none", group_id: int = 1,
                 backend: str = "object",
                 instrumentation: Optional[Instrumentation] = None):
        if not shard_names:
            raise ClusterError("root layer needs at least one shard")
        if len(set(shard_names)) != len(shard_names):
            raise ClusterError("duplicate shard names")
        self.suite = suite
        self.degree = degree
        self.backend = backend
        self.material = KeyMaterialSource(suite, seed, b"cluster-root-layer")
        self._signer, self.signing_keypair = make_signer(
            suite, signing, seed, error=ClusterError)
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("cluster-root"))
        self.pipeline = RekeyPipeline(
            suite, self.material, signer=self._signer,
            sequencer=Sequencer(), group_id=group_id,
            instrumentation=self.instrumentation)
        self._names = list(shard_names)
        self._tree: Optional[KeyTree] = None
        # shard name -> live (node id, version) of that shard's subtree
        # root, or None while the shard is empty (placeholder leaf key).
        self._shard_refs: Dict[str, Optional[Tuple[int, int]]] = {}

    # -- state -------------------------------------------------------------

    def bootstrap(self, leaves: Dict[str, Tuple[Optional[Tuple[int, int]],
                                                Optional[bytes]]]) -> None:
        """Build the layer over ``{shard name: (root ref or None, key)}``."""
        if self._tree is not None:
            raise ClusterError("root layer already bootstrapped")
        missing = [name for name in self._names if name not in leaves]
        if missing:
            raise ClusterError(f"missing leaf keys for shards {missing}")
        # An empty shard has no subtree root yet: its leaf gets an
        # undecryptable placeholder key (held by nobody) until the
        # shard's first member arrives and rekey() installs the real one.
        self._tree = build_tree(
            self.backend,
            [(name, leaves[name][1] if leaves[name][1] is not None
              else self.material.new_key()) for name in self._names],
            self.degree, self.material.new_key)
        namespace_tree(self._tree, ROOT_LAYER_BASE)
        self._shard_refs = {
            name: leaves[name][0] if leaves[name][1] is not None else None
            for name in self._names}

    def _require_tree(self) -> KeyTree:
        if self._tree is None:
            raise ClusterError("root layer not bootstrapped")
        return self._tree

    @property
    def tree(self) -> KeyTree:
        """The root-layer key tree (raises until bootstrapped)."""
        return self._require_tree()

    def group_key(self) -> bytes:
        """The cluster-wide group key (the layer's root key)."""
        return self._require_tree().group_key_node().key

    def group_key_ref(self) -> Tuple[int, int]:
        """(node id, version) of the cluster group key."""
        root = self._require_tree().group_key_node()
        return root.node_id, root.version

    def path_records(self, shard_name: str) -> List[KeyRecord]:
        """Key records a member of ``shard_name`` holds above its shard
        root (for priming bootstrapped clients), leaf excluded — the
        leaf key *is* the shard root key the member already holds."""
        leaf = self._require_tree().leaf_of(shard_name)
        return [KeyRecord(node.node_id, node.version, node.key)
                for node in leaf.path_to_root()[1:]]

    def n_keys(self) -> int:
        """Keys the layer holds (root-layer nodes, leaves included)."""
        return self._require_tree().n_keys

    # -- rekeying ----------------------------------------------------------

    def rekey(self, updates: Iterable[Tuple[str, Optional[Tuple[int, int]],
                                            Optional[bytes]]]
              ) -> PipelineRun:
        """Fold shard-root changes into the layer and rekey the paths.

        ``updates`` is ``(shard name, shard root (id, version) or None,
        shard root key or None)`` per changed shard — ``None`` key means
        the shard emptied and its leaf gets an undecryptable placeholder.
        With no updates the call degrades to a root-key refresh (only the
        cluster group key rotates).  Returns the pipeline run; its single
        message is the cluster-wide multicast.
        """
        updates = list(updates)
        tree = self._require_tree()

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            dirty: List[TreeNode] = []
            seen = set()
            for name, ref, key in updates:
                leaf = tree.leaf_of(name)
                leaf.replace_key(key if key is not None
                                 else self.material.new_key())
                self._shard_refs[name] = ref if key is not None else None
                for node in leaf.path_to_root()[1:]:
                    if node.node_id in seen:
                        break  # an already-dirty ancestor implies the rest
                    seen.add(node.node_id)
                    dirty.append(node)
            if not updates:
                dirty.append(tree.group_key_node())
            # Replace every dirty key first: items below encrypt parent
            # keys under the *new* child keys (members decrypt leaf-up).
            for node in dirty:
                node.replace_key(self.material.new_key())
            items = []
            for node in dirty:
                record = KeyRecord(node.node_id, node.version, node.key)
                for child in node.children:
                    enc_key, (enc_id, enc_version) = self._child_handle(child)
                    items.append(ctx.encrypt(enc_key, [record],
                                             enc_id, enc_version))
            return [PlannedMessage(Destination.to_all(), items)]

        root = tree.group_key_node()
        return self.pipeline.run(
            "root-rekey", planner, strategy_code=STRATEGY_GROUP_ORIENTED,
            root_ref=lambda: (root.node_id, root.version))

    def _child_handle(self, child: TreeNode) -> Tuple[bytes,
                                                      Tuple[int, int]]:
        """(encrypting key, wire reference) for one root-layer child.

        Leaf children are referenced by the owning shard's live subtree
        root — the id members actually hold — not the root-layer leaf id;
        an empty shard's placeholder leaf is referenced by itself (held
        by nobody, decryptable by nobody, by design).
        """
        if child.is_leaf:
            ref = self._shard_refs.get(child.user_id)
            if ref is not None:
                return child.key, ref
        return child.key, (child.node_id, child.version)


# -- the cluster ---------------------------------------------------------------


@dataclass
class ClusterConfig:
    """Deployment shape of one sharded logical group."""

    n_shards: int = 4
    degree: int = 4                   # shard LKH tree degree
    root_degree: int = 4              # root-layer tree degree
    vnodes: int = DEFAULT_VNODES      # ring virtual nodes per shard
    strategy: str = "group"           # shard rekeying strategy
    suite: CipherSuite = PAPER_SUITE
    signing: str = "none"
    seed: Optional[bytes] = None
    group_id: int = 1
    backend: str = "object"           # tree storage, "object" or "flat"

    def validate(self) -> None:
        """Check field consistency; raises ClusterError."""
        if not 1 <= self.n_shards <= MAX_SHARDS:
            raise ClusterError(
                f"n_shards must be in [1, {MAX_SHARDS}]")
        if self.vnodes < 1:
            raise ClusterError("vnodes must be >= 1")
        if self.root_degree < 2:
            raise ClusterError("root_degree must be >= 2")
        if self.backend not in BACKENDS:
            raise ClusterError(f"unknown tree backend {self.backend!r}")


@dataclass
class ClusterRecord:
    """Statistics of one processed cluster join/leave."""

    op: str
    user_id: str
    shard_id: int
    seconds: float                 # shard + root-layer processing time
    shard_seconds: float
    root_seconds: float
    shard_encryptions: int
    root_encryptions: int
    n_rekey_messages: int
    rekey_bytes: int
    n_users_after: int

    @property
    def encryptions(self) -> int:
        """Total keys encrypted (the Table 2 measure, both layers)."""
        return self.shard_encryptions + self.root_encryptions


@dataclass
class ClusterRekeyOutcome:
    """Everything produced by one cluster join/leave."""

    record: ClusterRecord
    shard_id: int
    shard_outcome: RekeyOutcome
    root_messages: List[OutboundMessage]

    @property
    def control_messages(self) -> List[OutboundMessage]:
        """The requester-facing ack(s), from the owning shard."""
        return self.shard_outcome.control_messages

    @property
    def rekey_messages(self) -> List[OutboundMessage]:
        """Shard-local rekeys first, then the cluster-wide root rekey."""
        return self.shard_outcome.rekey_messages + self.root_messages

    @property
    def all_messages(self) -> List[OutboundMessage]:
        """Control messages followed by rekey messages, delivery order."""
        return self.control_messages + self.rekey_messages


class Shard:
    """One shard slot: a live server plus its optional warm standby."""

    __slots__ = ("shard_id", "name", "server", "standby", "failed")

    def __init__(self, shard_id: int, server: GroupKeyServer):
        self.shard_id = shard_id
        self.name = f"shard-{shard_id}"
        self.server = server
        self.standby: Optional[WarmStandby] = None
        self.failed = False


class ClusterCoordinator(KeyServerProtocol):
    """Runs one logical secure group across N shard key servers."""

    _error = ClusterError

    def __init__(self, config: ClusterConfig,
                 instrumentation: Optional[Instrumentation] = None):
        config.validate()
        self.config = config
        self.suite = config.suite
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("cluster"))
        registry = self.instrumentation.registry
        self._m_requests = registry.counter(
            "cluster_requests_total",
            "Cluster requests processed, by owning shard and outcome.",
            labels=("shard", "op", "status"))
        self._m_encryptions = registry.counter(
            "cluster_encryptions_total",
            "Keys encrypted per rekey layer (shard-local vs root).",
            labels=("shard", "layer"))
        self._m_messages = registry.counter(
            "cluster_rekey_messages_total",
            "Rekey messages sent per layer.", labels=("shard", "layer"))
        self._m_members = registry.gauge(
            "cluster_shard_members", "Current members per shard.",
            labels=("shard",))
        self._m_failovers = registry.counter(
            "cluster_failovers_total", "Standby promotions per shard.",
            labels=("shard",))
        self._m_seconds = registry.histogram(
            "cluster_request_seconds",
            "End-to-end cluster request time (shard + root layer).",
            labels=("op",), bounds=LATENCY_BUCKETS_S)

        self.ring = HashRing(range(config.n_shards), vnodes=config.vnodes)
        self.shards: List[Shard] = []
        for shard_id in range(config.n_shards):
            seed = (config.seed + b"/shard-%d" % shard_id
                    if config.seed is not None else None)
            server = GroupKeyServer(
                ServerConfig(group_id=config.group_id, degree=config.degree,
                             strategy=config.strategy, suite=config.suite,
                             signing=config.signing, seed=seed,
                             backend=config.backend),
                instrumentation=Instrumentation(f"shard-{shard_id}"))
            namespace_tree(server.tree, shard_id_base(shard_id))
            self.shards.append(Shard(shard_id, server))
        self.root_layer = RootKeyLayer(
            config.suite, [shard.name for shard in self.shards],
            degree=config.root_degree,
            seed=(config.seed + b"/root" if config.seed is not None
                  else None),
            signing=config.signing, group_id=config.group_id,
            backend=config.backend,
            instrumentation=self.instrumentation)
        if config.signing != "none":
            self._share_signing_identity()
        self.material = KeyMaterialSource(
            config.suite,
            config.seed + b"/coordinator" if config.seed is not None
            else None,
            b"cluster")
        # Resync replies and sealed data draw IVs here, never from the
        # shard/root-layer material: serving a resync must not perturb
        # the rekey key stream (chaos runs stay byte-identical to the
        # fault-free control run).
        self.resync_material = KeyMaterialSource(
            config.suite,
            config.seed + b"/coordinator" if config.seed is not None
            else None,
            b"cluster-resync")
        self._m_resyncs = registry.counter(
            "resync_replies_total", "Resync replies served, by status.",
            labels=("status",))
        # Subcast message keys/IVs come from a dedicated personalization
        # for the same reason: covered multicasts leave every shard and
        # root-layer rekey stream byte-identical.
        self.subcast_material = KeyMaterialSource(
            config.suite,
            config.seed + b"/coordinator" if config.seed is not None
            else None,
            b"cluster-subcast")
        from ..subcast.sealing import SubcastSealer
        self.subcast_sealer = SubcastSealer(
            config.suite, self.subcast_material, self.root_layer._signer,
            self.root_layer.pipeline.sequencer,
            group_id=config.group_id,
            seal_lock=self.root_layer.pipeline.seal_lock)
        self._m_subcasts = registry.counter(
            "subcast_messages_total", "Subcast messages sealed.").labels()
        self._m_subcast_cover = registry.counter(
            "subcast_cover_keys_total",
            "Cover keys used, by layer (shard subtree vs root layer).",
            labels=("layer",))
        self._registered_keys: Dict[str, bytes] = {}
        self.history: List[ClusterRecord] = []
        self._bootstrapped = False

    def _share_signing_identity(self) -> None:
        """Give every shard the root layer's signer, so the cluster
        presents one signature-verification key to its members."""
        signer = self.root_layer._signer
        keypair = self.root_layer.signing_keypair
        for shard in self.shards:
            shard.server._signer = signer
            shard.server.pipeline.signer = signer
            shard.server.signing_keypair = keypair

    @property
    def public_key(self):
        """The cluster's signature-verification key (None unsigned)."""
        return (self.root_layer.signing_keypair.public_key
                if self.root_layer.signing_keypair is not None else None)

    # -- population --------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Total members across all shards."""
        return sum(shard.server.n_users for shard in self.shards)

    def members(self) -> List[str]:
        """Every current member, shard by shard."""
        result: List[str] = []
        for shard in self.shards:
            result.extend(shard.server.members())
        return result

    def is_member(self, user_id: str) -> bool:
        """True iff ``user_id`` is currently in the logical group."""
        return self.shard_of(user_id).server.is_member(user_id)

    def shard_of(self, user_id: str) -> Shard:
        """The shard owning ``user_id`` (pure ring lookup)."""
        return self.shards[self.ring.shard_for(user_id)]

    def audiences(self, user_id: str) -> Tuple[Hashable, ...]:
        """A member is in the whole group (root-layer rekeys) and in its
        owning shard's audience (:meth:`_run` tags shard rekeys with
        it)."""
        shard = self.shard_of(user_id)
        return (None, shard.name) if shard.server.is_member(user_id) else ()

    def new_individual_key(self) -> bytes:
        """Generate an individual key (stands in for the auth exchange)."""
        return self.material.new_individual_key()

    def register_individual_key(self, user_id: str, key: bytes) -> None:
        """Record the session key from the authentication exchange."""
        if len(key) != self.suite.key_size:
            raise ClusterError(
                f"individual key must be {self.suite.key_size} bytes")
        self._registered_keys[user_id] = key

    # -- group key ---------------------------------------------------------

    def group_key(self) -> bytes:
        """The cluster-wide group key (root-layer root)."""
        return self.root_layer.group_key()

    def group_key_ref(self) -> Tuple[int, int]:
        """(node id, version) of the cluster group key."""
        return self.root_layer.group_key_ref()

    def server_key_count(self) -> int:
        """Total keys held server-side (all shard trees + root layer)."""
        total = self.root_layer.n_keys()
        for shard in self.shards:
            if shard.server.tree is not None:
                total += shard.server.tree.n_keys
        return total

    # -- bootstrap ---------------------------------------------------------

    def bootstrap(self, members: Iterable[Tuple[str, bytes]]) -> None:
        """Bulk-initialise the cluster without rekey traffic.

        Partitions the roster over the ring, bootstraps each shard's
        tree in its namespaced id window, then builds the root layer
        over the shard roots.
        """
        if self._bootstrapped:
            raise ClusterError("cluster already bootstrapped")
        members = list(members)
        by_shard: Dict[int, List[Tuple[str, bytes]]] = {
            shard.shard_id: [] for shard in self.shards}
        for user_id, key in members:
            by_shard[self.ring.shard_for(user_id)].append((user_id, key))
        leaves: Dict[str, Tuple[Optional[Tuple[int, int]], bytes]] = {}
        for shard in self.shards:
            shard.server.bootstrap(by_shard[shard.shard_id])
            # bootstrap() rebuilt the tree from id 0: renumber it back
            # into this shard's window, and re-checkpoint any journal or
            # standby (bootstrap's own checkpoint predates the renumber).
            namespace_tree(shard.server.tree, shard_id_base(shard.shard_id))
            if shard.server._journal is not None:
                shard.server._journal.checkpoint(
                    shard.server._checkpoint_blob())
            leaves[shard.name] = self._shard_leaf_state(shard)
            self._m_members.labels(shard=str(shard.shard_id)).set(
                shard.server.n_users)
        self.root_layer.bootstrap(leaves)
        self._bootstrapped = True

    def _shard_leaf_state(self, shard: Shard
                          ) -> Tuple[Optional[Tuple[int, int]],
                                     Optional[bytes]]:
        """(root ref, root key) of a shard, placeholdered when empty."""
        tree = shard.server.tree
        if tree is None or tree.root is None:
            return None, None
        return (tree.root.node_id, tree.root.version), tree.root.key

    def _require_bootstrap(self) -> None:
        if not self._bootstrapped:
            raise ClusterError("cluster not bootstrapped")

    # -- member priming ----------------------------------------------------

    def member_records(self, user_id: str
                       ) -> Tuple[int, List[KeyRecord], Tuple[int, int]]:
        """(leaf node id, path key records, cluster root ref) for priming
        a bootstrapped member's client — shard path first, then the
        root-layer path (compatible with ``ClientSimulator.prime_member``
        and ``GroupClient`` key maps)."""
        self._require_bootstrap()
        shard = self.shard_of(user_id)
        path = shard.server.tree.user_key_path(user_id)
        records = [KeyRecord(node.node_id, node.version, node.key)
                   for node in path[1:]]
        records.extend(self.root_layer.path_records(shard.name))
        return path[0].node_id, records, self.group_key_ref()

    # -- requests ----------------------------------------------------------

    def join(self, user_id: str, individual_key: Optional[bytes] = None,
             ticket=None) -> ClusterRekeyOutcome:
        """Admit a user: shard-local LKH rekey + root-layer rekey."""
        self._require_bootstrap()
        shard = self._live_shard(user_id, "join")
        if individual_key is None:
            individual_key = self._registered_keys.pop(user_id, None)
            if individual_key is None:
                raise ClusterError(f"no individual key for {user_id!r}")

        def op() -> RekeyOutcome:
            return shard.server.join(user_id, individual_key, ticket=ticket)

        return self._run("join", user_id, shard, op)

    def leave(self, user_id: str) -> ClusterRekeyOutcome:
        """Expel/release a user: shard-local rekey + root-layer rekey."""
        self._require_bootstrap()
        shard = self._live_shard(user_id, "leave")

        def op() -> RekeyOutcome:
            return shard.server.leave(user_id)

        return self._run("leave", user_id, shard, op)

    def refresh(self) -> PipelineRun:
        """Rotate the cluster group key (root-layer refresh only)."""
        self._require_bootstrap()
        return self.root_layer.rekey([])

    def _live_shard(self, user_id: str, op: str) -> Shard:
        shard = self.shard_of(user_id)
        if shard.failed:
            self._m_requests.inc(shard=str(shard.shard_id), op=op,
                                 status="unavailable")
            raise ClusterError(
                f"shard {shard.shard_id} is down; promote its standby")
        return shard

    def _run(self, op: str, user_id: str, shard: Shard,
             perform: Callable[[], RekeyOutcome]) -> ClusterRekeyOutcome:
        tracer = self.instrumentation.tracer
        label = str(shard.shard_id)
        started = time.perf_counter()
        with tracer.span(f"cluster.{op}", shard=shard.shard_id,
                         user=user_id):
            try:
                # The shard span makes the shard-layer hop visible on
                # the coordinator's tracer: each shard server carries
                # its own per-shard instrumentation, so its rekey
                # pipeline spans land in the shard registry, not here.
                with tracer.span(f"shard.{op}", shard=shard.shard_id):
                    outcome = perform()
            except ServerError:
                self._m_requests.inc(shard=label, op=op, status="denied")
                raise
            # The shard server addressed "its whole group"; cluster-wide
            # that group is this shard's members only.
            for out in outcome.rekey_messages:
                if out.destination.kind == DEST_ALL:
                    out.audience = shard.name
            ref, key = self._shard_leaf_state(shard)
            root_run = self.root_layer.rekey([(shard.name, ref, key)])
        seconds = time.perf_counter() - started

        record = ClusterRecord(
            op=op, user_id=user_id, shard_id=shard.shard_id,
            seconds=seconds,
            shard_seconds=outcome.record.seconds,
            root_seconds=root_run.seconds,
            shard_encryptions=outcome.record.encryptions,
            root_encryptions=root_run.encryptions,
            n_rekey_messages=(outcome.record.n_rekey_messages
                              + len(root_run.messages)),
            rekey_bytes=outcome.record.rekey_bytes + root_run.total_bytes,
            n_users_after=self.n_users)
        self.history.append(record)
        self._m_requests.inc(shard=label, op=op, status="ok")
        self._m_encryptions.inc(record.shard_encryptions, shard=label,
                                layer="shard")
        self._m_encryptions.inc(record.root_encryptions, shard=label,
                                layer="root")
        self._m_messages.inc(outcome.record.n_rekey_messages, shard=label,
                             layer="shard")
        self._m_messages.inc(len(root_run.messages), shard=label,
                             layer="root")
        self._m_members.labels(shard=label).set(shard.server.n_users)
        self._m_seconds.observe(seconds, op=op)
        return ClusterRekeyOutcome(record, shard.shard_id, outcome,
                                   list(root_run.messages))

    # -- resynchronization -------------------------------------------------

    def resync(self, user_id: str) -> OutboundMessage:
        """Serve one ``MSG_RESYNC_REPLY`` across both layers.

        A member's reply carries its full current key path — shard leaf
        parent up to the shard root, then the root-layer path to the
        cluster group key — in one item under its individual key, so one
        unicast repairs any gap.  Raises :class:`ClusterError` while the
        owning shard is failed (the recovery loop retries after the
        standby is promoted); a non-member gets ``RESYNC_NOT_MEMBER``.
        """
        self._require_bootstrap()
        shard = self.shard_of(user_id)
        with self.instrumentation.tracer.span(
                "resync.reply", user=user_id,
                shard=shard.shard_id) as span:
            signer = self.root_layer._signer
            sequencer = self.root_layer.pipeline.sequencer
            if not shard.server.is_member(user_id):
                self._m_resyncs.inc(status="not-member")
                span.set("status", "not-member")
                return build_resync_reply(
                    self.suite, signer, sequencer,
                    group_id=self.config.group_id, user_id=user_id,
                    status=RESYNC_NOT_MEMBER, leaf_node_id=0)
            if shard.failed:
                self._m_resyncs.inc(status="unavailable")
                span.set("status", "unavailable")
                raise ClusterError(
                    f"shard {shard.shard_id} is down; promote its standby")
            path = shard.server.tree.user_key_path(user_id)
            records = [KeyRecord(node.node_id, node.version, node.key)
                       for node in path[1:]]
            records.extend(self.root_layer.path_records(shard.name))
            self._m_resyncs.inc(status="ok")
            span.set("status", "ok").set("records", len(records))
            return build_resync_reply(
                self.suite, signer, sequencer,
                group_id=self.config.group_id, user_id=user_id,
                status=RESYNC_OK, leaf_node_id=path[0].node_id,
                records=records, root_ref=self.group_key_ref(),
                individual_key=path[0].key,
                iv=self.resync_material.new_iv())

    # -- application data --------------------------------------------------

    def seal_group_message(self, payload: bytes) -> OutboundMessage:
        """Encrypt application data under the cluster group key."""
        self._require_bootstrap()
        return seal_data_message(
            self.suite, self.root_layer._signer, payload, self.group_key(),
            self.group_key_ref(), self.resync_material.new_iv(),
            self.root_layer.pipeline.sequencer.next(), self.config.group_id)

    def subcast(self, targets: Iterable[str],
                payload: bytes) -> OutboundMessage:
        """Seal ``payload`` to exactly ``targets`` across the shard split.

        The cover is computed layer by layer: a shard whose members are
        only partially targeted contributes a subset cover on its own
        subtree; a shard that is *fully* targeted is lifted into the
        root layer, where one subset cover over the fully-covered shard
        names yields root-layer keys (each addressing whole shards at
        once).  Root-layer leaf nodes are referenced by the owning
        shard's live subtree root — the id members actually hold — via
        the same mapping root-layer rekeys use.
        """
        self._require_bootstrap()
        target_list = sorted(set(targets))
        if not target_list:
            raise ClusterError("subcast needs at least one target")
        started = time.perf_counter()
        by_shard: Dict[int, List[str]] = {}
        for user_id in target_list:
            shard = self.shard_of(user_id)
            if shard.failed:
                raise ClusterError(
                    f"shard {shard.shard_id} is failed; "
                    f"cannot cover {user_id!r}")
            if not shard.server.is_member(user_id):
                raise ClusterError(
                    f"subcast target {user_id!r} is not a member")
            by_shard.setdefault(shard.shard_id, []).append(user_id)
        with self.instrumentation.tracer.span(
                "cluster.subcast", targets=len(target_list),
                shards=len(by_shard)) as span:
            cover: List[Tuple[int, int, bytes]] = []
            full_shards: List[str] = []
            shard_keys = 0
            for shard_id, shard_targets in sorted(by_shard.items()):
                shard = self.shards[shard_id]
                if len(shard_targets) == shard.server.n_users:
                    full_shards.append(shard.name)
                    continue
                for node in tree_subset_cover(shard.server.tree,
                                              shard_targets):
                    cover.append((node.node_id, node.version, node.key))
                    shard_keys += 1
            root_keys = 0
            if full_shards:
                for node in tree_subset_cover(self.root_layer.tree,
                                              full_shards):
                    key, (node_id, version) = \
                        self.root_layer._child_handle(node)
                    cover.append((node_id, version, key))
                    root_keys += 1
            span.set("cover", len(cover)).set("root_keys", root_keys)
            out = self.subcast_sealer.seal(
                cover, payload, receivers=target_list,
                root_ref=self.group_key_ref())
        self._m_subcasts.inc()
        if shard_keys:
            self._m_subcast_cover.inc(shard_keys, layer="shard")
        if root_keys:
            self._m_subcast_cover.inc(root_keys, layer="root")
        self._m_seconds.observe(time.perf_counter() - started, op="subcast")
        return out

    # -- failover ----------------------------------------------------------

    def enable_standbys(self) -> None:
        """Arm a warm standby (a journal follower) on every shard."""
        for shard in self.shards:
            if shard.standby is None:
                shard.standby = WarmStandby(shard.server)

    def fail_shard(self, shard_id: int) -> GroupKeyServer:
        """Simulate a shard crash; requests for its users now raise.

        Returns the dead server (tests compare against it); the warm
        standby holds its follower and can be promoted.
        """
        shard = self._shard_slot(shard_id)
        if shard.failed:
            raise ClusterError(f"shard {shard_id} already failed")
        shard.failed = True
        return shard.server

    def promote_standby(self, shard_id: int) -> GroupKeyServer:
        """Promote the shard's warm standby and resume service.

        The promoted server is the standby's follower, which applied
        every journal record the primary committed, so its key state is
        byte-identical to the failed primary — members keep decrypting
        with the keys they already hold (no out-of-band recovery).
        """
        shard = self._shard_slot(shard_id)
        if shard.standby is None:
            raise ClusterError(f"shard {shard_id} has no standby")
        with self.instrumentation.tracer.span("cluster.failover",
                                              shard=shard_id):
            promoted = shard.standby.promote()
            # Invariant: the promoted subtree root must equal the key the
            # root layer recorded for this shard, or members of other
            # shards could no longer follow root-layer rekeys.
            expected_ref, expected_key = self._shard_leaf_state(shard)
            if expected_key is not None:
                promoted_root = promoted.tree.root
                if (promoted_root is None
                        or promoted_root.key != expected_key
                        or (promoted_root.node_id,
                            promoted_root.version) != expected_ref):
                    raise ClusterError(
                        f"standby for shard {shard_id} diverged from the "
                        f"root layer; members would need out-of-band "
                        f"recovery")
            shard.server = promoted
            shard.failed = False
            shard.standby = WarmStandby(promoted)
        self._m_failovers.inc(shard=str(shard_id))
        return promoted

    def _shard_slot(self, shard_id: int) -> Shard:
        try:
            return self.shards[shard_id]
        except IndexError:
            raise ClusterError(f"unknown shard {shard_id}") from None

    # -- request protocol --------------------------------------------------

    def _denial(self, op: str, user_id: str) -> OutboundMessage:
        # Signed by the owning shard, as its own refusals are; counted
        # in ``cluster_requests_total`` by join/leave themselves.
        return self.shard_of(user_id).server._control_message(
            _DENIALS[op], user_id)

    # -- telemetry ---------------------------------------------------------

    def stats_document(self) -> dict:
        """One cluster-wide ``repro-metrics/1`` snapshot.

        The coordinator's registry (shard-labeled families) merged with
        every shard server's registry, so per-op totals aggregate across
        the fleet while the ``shard=...`` series keep them attributable.
        """
        tracer = self.instrumentation.tracer
        spans = tracer.export() if tracer.enabled else None
        return build_snapshot(
            self.instrumentation.registry,
            label=self.instrumentation.name or "cluster", spans=spans,
            extra=[shard.server.instrumentation.registry
                   for shard in self.shards])
