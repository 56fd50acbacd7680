"""Interval batch rekeying (extension; the paper's future-work direction).

With very frequent joins and leaves, rekeying after *every* request still
repeats work: consecutive requests often rekey overlapping tree paths
(every request changes the root key).  The natural extension — taken by
the authors' follow-on work on Keystone/batch rekeying — collects the
requests arriving in an interval and rekeys once:

* departed leaves are detached, arriving users are attached (reusing
  vacated positions first, which keeps the tree balanced under churn);
* every key on a path from any edit point to the root is replaced once,
  no matter how many requests touched it;
* one group-oriented style rekey message carries all new keys, with each
  new key encrypted under each child of its node (new child keys for
  changed children), plus one unicast bundle per joiner.

The flush runs through the shared staged pipeline
(:class:`~repro.core.pipeline.RekeyPipeline`): the batch edit and
message planning are the plan stage, and encryption, signing and
dispatch are the pipeline's.  Key/IV sourcing and signer construction
come from the same :class:`~repro.core.pipeline.KeyMaterialSource` /
:func:`~repro.core.pipeline.make_signer` the immediate server uses.

:class:`BatchRekeyServer` measures the saving:
``individual_cost_estimate`` is what processing the same requests one at
a time would have cost (computed with the same formulas the per-request
server obeys), and ``flush`` reports the batch's actual encryption
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.messages import (INDIVIDUAL_KEY, STRATEGY_GROUP_ORIENTED,
                             Destination, KeyRecord, OutboundMessage)
from ..core.pipeline import (KeyMaterialSource, RekeyPipeline, make_signer)
from ..core.resync import RESYNC_NOT_MEMBER, RESYNC_OK, build_resync_reply
from ..core.server import KeyServerProtocol, seal_data_message
from ..core.strategies.base import PlannedMessage, RekeyContext
from ..crypto.suite import PAPER_SUITE, CipherSuite
from ..keygraph.backend import build_tree, make_tree
from ..observability import Instrumentation


class BatchError(ValueError):
    """Raised on invalid batched requests."""


@dataclass
class BatchResult:
    """Outcome of one flush."""

    n_joins: int
    n_leaves: int
    encryptions: int
    individual_cost_estimate: int
    rekey_message: Optional[OutboundMessage]
    joiner_messages: List[OutboundMessage]
    seconds: float
    # Per-stage breakdown of ``seconds`` from the pipeline's StageClock.
    stage_seconds: Optional[Dict[str, float]] = None

    @property
    def saving(self) -> float:
        """Fraction of per-request encryptions avoided by batching."""
        if not self.individual_cost_estimate:
            return 0.0
        return 1.0 - self.encryptions / self.individual_cost_estimate


class BatchRekeyServer:
    """A key-tree server that rekeys once per interval."""

    #: Evictions, however many, fold into *one* flush: the recovery
    #: manager's overload-shedding path turns a deep dead-member queue
    #: into a single group-oriented rekey instead of N per-leave rekeys.
    supports_batch = True
    # The per-request servers' front-end surface; joins and leaves
    # queue for a flush here, so there is no per-request dispatch.
    audiences = KeyServerProtocol.audiences
    stats_document = KeyServerProtocol.stats_document

    def __init__(self, degree: int = 4, suite: CipherSuite = PAPER_SUITE,
                 signing: str = "none", seed: Optional[bytes] = None,
                 instrumentation: Optional[Instrumentation] = None,
                 backend: str = "object"):
        self.suite = suite
        self.backend = backend
        self.material = KeyMaterialSource(suite, seed, b"batch-rekey")
        self.tree = make_tree(backend, degree, self._new_key)
        self._pending_joins: Dict[str, bytes] = {}
        self._pending_leaves: Set[str] = set()
        self.flushes: List[BatchResult] = []
        self._signer, self.signing_keypair = make_signer(
            suite, signing, seed, error=BatchError)
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("batch-rekey"))
        registry = self.instrumentation.registry
        self._m_flushes = registry.counter(
            "batch_flushes_total", "Interval flushes executed.").labels()
        self._m_batched = registry.counter(
            "batch_requests_total", "Requests folded into flushes.",
            labels=("op",))
        self._m_encryptions = registry.counter(
            "encryptions_total", "Keys encrypted (Table 2 measure).",
            labels=("op",))
        self._m_saved = registry.counter(
            "batch_encryptions_saved_total",
            "Encryptions avoided versus per-request rekeying.").labels()
        self._m_pending_joins = registry.gauge(
            "batch_pending_joins", "Joins queued for the next flush.").labels()
        self._m_pending_leaves = registry.gauge(
            "batch_pending_leaves",
            "Leaves queued for the next flush.").labels()
        self.pipeline = RekeyPipeline(
            suite, self.material, signer=self._signer,
            seal_individually=True, group_id=1,
            instrumentation=self.instrumentation)

        # Dedicated IV stream for resync replies and data messages, so
        # recovery traffic never perturbs the flush's key/IV draws.
        self.resync_material = KeyMaterialSource(suite, seed,
                                                 b"batch-resync")
        self._m_resyncs = registry.counter(
            "resync_replies_total",
            "Resync replies served, by status.", labels=("status",))
        # Subcast sealing draws from its own personalization so covered
        # multicasts never perturb flush key/IV draws either.
        self.subcast_material = KeyMaterialSource(suite, seed,
                                                  b"batch-subcast")
        from ..subcast.sealing import SubcastSealer
        self.subcast_sealer = SubcastSealer(
            suite, self.subcast_material, self._signer,
            self.pipeline.sequencer, group_id=1,
            seal_lock=self.pipeline.seal_lock)
        self._m_subcasts = registry.counter(
            "subcast_messages_total", "Subcast messages sealed.").labels()

    def _new_key(self) -> bytes:
        return self.material.new_key()

    def _new_iv(self) -> bytes:
        return self.material.new_iv()

    def new_individual_key(self) -> bytes:
        """Generate an individual key (stands in for the auth exchange)."""
        return self.material.new_individual_key()

    # -- membership (mirrors GroupKeyServer's surface) ---------------------

    def is_member(self, user_id: str) -> bool:
        """True iff ``user_id`` is currently in the (flushed) tree."""
        return self.tree.has_user(user_id)

    def members(self):
        """Current member ids (flushed state)."""
        return self.tree.users()

    def group_key(self) -> bytes:
        """Current group key bytes."""
        return self.tree.group_key_node().key

    def group_key_ref(self):
        """(node id, version) of the current group key."""
        root = self.tree.group_key_node()
        return root.node_id, root.version

    def evict(self, user_ids) -> List[OutboundMessage]:
        """Queue every dead member, rekey once."""
        for user_id in user_ids:
            self.request_leave(user_id)
        result = self.flush()
        messages: List[OutboundMessage] = []
        if result.rekey_message is not None:
            messages.append(result.rekey_message)
        messages.extend(result.joiner_messages)
        return messages

    # -- request intake ----------------------------------------------------

    def bootstrap(self, members) -> None:
        """Bulk-build the initial tree (no rekey traffic)."""
        if self.tree.n_users:
            raise BatchError("bootstrap requires an empty tree")
        self.tree = build_tree(self.backend, list(members),
                               self.tree.degree, self._new_key)

    def request_join(self, user_id: str, individual_key: bytes) -> None:
        """Queue a join for the next flush."""
        if user_id in self._pending_joins:
            raise BatchError(f"user {user_id!r} already pending")
        if self.tree.has_user(user_id) and user_id not in self._pending_leaves:
            raise BatchError(f"user {user_id!r} is already a member")
        # A rejoin after a pending leave is fine: the flush detaches the
        # old leaf before attaching the new one (fresh individual key).
        self._pending_joins[user_id] = individual_key
        self._sync_pending()

    def request_leave(self, user_id: str) -> None:
        """Queue a leave for the next flush (joins in-interval cancel out)."""
        if user_id in self._pending_joins:
            # Joined and left within one interval: cancel out entirely.
            del self._pending_joins[user_id]
            self._sync_pending()
            return
        if not self.tree.has_user(user_id):
            raise BatchError(f"user {user_id!r} is not a member")
        if user_id in self._pending_leaves:
            raise BatchError(f"user {user_id!r} already leaving")
        self._pending_leaves.add(user_id)
        self._sync_pending()

    def _sync_pending(self) -> None:
        self._m_pending_joins.set(len(self._pending_joins))
        self._m_pending_leaves.set(len(self._pending_leaves))

    @property
    def pending(self) -> Tuple[int, int]:
        """(queued joins, queued leaves)."""
        return len(self._pending_joins), len(self._pending_leaves)

    # -- the batch edit -------------------------------------------------------

    def flush(self) -> BatchResult:
        """Apply all pending requests with a single rekeying pass."""
        joins = list(self._pending_joins.items())
        # Sorted so the flush is deterministic regardless of the set's
        # hash-seed-dependent iteration order (reproducible byte output).
        leaves = sorted(self._pending_leaves)
        self._pending_joins.clear()
        self._pending_leaves.clear()

        individual_estimate = self._individual_cost_estimate(
            len(joins), len(leaves))
        state: Dict[str, object] = {}

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            return self._plan_flush(ctx, joins, leaves, state)

        run = self.pipeline.run(
            "flush", planner, strategy_code=STRATEGY_GROUP_ORIENTED,
            root_ref=lambda: (self.tree.root.node_id,
                              self.tree.root.version))

        rekey_message: Optional[OutboundMessage] = None
        joiner_messages = list(run.messages)
        if state["has_multicast"] and joiner_messages:
            rekey_message = joiner_messages.pop(0)

        result = BatchResult(
            n_joins=len(joins), n_leaves=len(leaves),
            encryptions=run.encryptions,
            individual_cost_estimate=individual_estimate,
            rekey_message=rekey_message,
            joiner_messages=joiner_messages,
            seconds=run.seconds,
            stage_seconds=run.stage_seconds,
        )
        self.flushes.append(result)
        self._m_flushes.inc()
        self._m_batched.inc(len(joins), op="join")
        self._m_batched.inc(len(leaves), op="leave")
        self._m_encryptions.inc(run.encryptions, op="flush")
        self._m_saved.inc(max(0, individual_estimate - run.encryptions))
        self._sync_pending()
        return result

    def _plan_flush(self, ctx: RekeyContext, joins, leaves,
                    state: Dict[str, object]) -> List[PlannedMessage]:
        """The plan stage: apply the batch edit, schedule all encryptions.

        All tree surgery goes through the backend's named primitives
        (detach/attach/split/splice), so the same plan runs unchanged
        over the object tree and the flat array tree.
        """
        # 1. Detach departing leaves, remembering vacated parents.
        dirty: Set[int] = set()
        dirty_nodes: Dict[int, object] = {}
        vacancies: List[object] = []
        for user_id in leaves:
            parent = self.tree.detach_user(user_id)
            if parent is not None:
                vacancies.append(parent)
                self._mark_path(parent, dirty, dirty_nodes)

        # 2. Attach joiners, preferring vacated positions.
        new_leaves: Dict[str, object] = {}
        for user_id, key in joins:
            spot = None
            while vacancies:
                candidate = vacancies.pop()
                if self.tree.is_attached(candidate) \
                        and self.tree.has_room(candidate):
                    spot = candidate
                    break
            leaf = self.tree.new_leaf(user_id, key)
            if self.tree.root is None:
                root = self.tree.start_root(leaf)
                new_leaves[user_id] = leaf
                self._mark_path(root, dirty, dirty_nodes)
                continue
            if spot is None:
                spot, split = self.tree.find_joining_point()
                if split is not None:
                    spot = self.tree.split_node(split)
            self.tree.attach_leaf(leaf, spot)
            new_leaves[user_id] = leaf
            self._mark_path(spot, dirty, dirty_nodes)

        # 2b. Splice out interiors left empty or with one child.
        self._compact(dirty, dirty_nodes)

        # 3. Replace every dirty key once, root last (top-down order for
        #    message assembly; parents referenced by new child keys).
        ordered = self._dirty_top_down(dirty_nodes)
        for node in ordered:
            node.replace_key(self._new_key())

        # 4. One group-oriented style message: each dirty node's new key
        #    under each of its children's current keys.
        plans: List[PlannedMessage] = []
        items = []
        for node in ordered:
            record = KeyRecord(node.node_id, node.version, node.key)
            for child in node.children:
                items.append(ctx.encrypt(child.key, [record],
                                         child.node_id, child.version))
        state["has_multicast"] = bool(items and self.tree.root is not None)
        if state["has_multicast"]:
            plans.append(PlannedMessage(Destination.to_all(), items))
        # 5. Unicast each joiner its full path.
        for user_id, leaf in new_leaves.items():
            if not self.tree.has_user(user_id):
                continue
            path = leaf.path_to_root()[1:]
            records = [KeyRecord(n.node_id, n.version, n.key) for n in path]
            item = ctx.encrypt(leaf.key, records, INDIVIDUAL_KEY, 0)
            plans.append(PlannedMessage(
                Destination.to_user(user_id), [item],
                (lambda uid=user_id: (uid,))))
        return plans

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _mark_path(node, dirty: Set[int],
                   dirty_nodes: Dict[int, object]) -> None:
        while node is not None and node.node_id not in dirty:
            dirty.add(node.node_id)
            dirty_nodes[node.node_id] = node
            node = node.parent
        # (A previously marked ancestor implies the rest of the path is
        # already marked.)

    def _compact(self, dirty: Set[int],
                 dirty_nodes: Dict[int, object]) -> None:
        """Remove childless interiors; splice single-child interiors."""
        changed = True
        while changed:
            changed = False
            for node in list(dirty_nodes.values()):
                # node_id is read up front: once a slot-backed handle is
                # dropped or spliced its storage may be recycled.
                node_id = node.node_id
                if node_id not in dirty_nodes or node.is_leaf:
                    continue
                if node == self.tree.root:
                    if len(node.children) == 0 and self.tree.n_users == 0:
                        self.tree.clear_root()
                        dirty_nodes.clear()
                        dirty.clear()
                        return
                    continue
                if len(node.children) == 0:
                    self.tree.drop_childless(node)
                    del dirty_nodes[node_id]
                    dirty.discard(node_id)
                    changed = True
                elif len(node.children) == 1:
                    self.tree.splice_out(node)
                    del dirty_nodes[node_id]
                    dirty.discard(node_id)
                    changed = True

    def _dirty_top_down(self, dirty_nodes: Dict[int, object]) -> List[object]:
        ordered = []
        if self.tree.root is None:
            return ordered
        stack = [self.tree.root]
        while stack:
            node = stack.pop()
            if node.node_id in dirty_nodes and not node.is_leaf:
                ordered.append(node)
            stack.extend(node.children)
        return ordered

    def _individual_cost_estimate(self, n_joins: int, n_leaves: int) -> int:
        """Per-request group-oriented cost for the same request counts."""
        import math
        n = max(self.tree.n_users, 2)
        d = self.tree.degree
        height = math.ceil(math.log(n, d)) + 1
        return n_joins * 2 * (height - 1) + n_leaves * d * (height - 1)

    # -- recovery ----------------------------------------------------------

    def resync(self, user_id: str) -> OutboundMessage:
        """Serve one resync reply against the flushed tree state.

        The batch tree's leaf keys *are* the members' individual keys,
        so the reply shape matches the immediate server's exactly.
        """
        if not self.is_member(user_id):
            self._m_resyncs.inc(status="not-member")
            return build_resync_reply(
                self.suite, self._signer, self.pipeline.sequencer,
                group_id=1, user_id=user_id,
                status=RESYNC_NOT_MEMBER, leaf_node_id=0)
        leaf = self.tree.leaf_of(user_id)
        records = [KeyRecord(node.node_id, node.version, node.key)
                   for node in leaf.path_to_root()[1:]]
        self._m_resyncs.inc(status="ok")
        return build_resync_reply(
            self.suite, self._signer, self.pipeline.sequencer,
            group_id=1, user_id=user_id,
            status=RESYNC_OK, leaf_node_id=leaf.node_id,
            records=records, root_ref=self.group_key_ref(),
            individual_key=leaf.key, iv=self.resync_material.new_iv())

    def seal_group_message(self, payload: bytes) -> OutboundMessage:
        """Encrypt application data under the current group key."""
        return seal_data_message(
            self.suite, self._signer, payload, self.group_key(),
            self.group_key_ref(), self.resync_material.new_iv(),
            self.pipeline.sequencer.next(), 1)

    def subcast(self, targets, payload: bytes) -> OutboundMessage:
        """Seal ``payload`` to exactly ``targets`` via a key cover.

        Targets must be in the *flushed* tree — a user whose join is
        still queued holds no tree keys yet and cannot be addressed
        until the next flush.
        """
        from ..keygraph.covering import tree_subset_cover
        target_list = sorted(set(targets))
        if not target_list:
            raise BatchError("subcast needs at least one target")
        for user_id in target_list:
            if not self.tree.has_user(user_id):
                raise BatchError(
                    f"subcast target {user_id!r} is not a flushed member")
        with self.instrumentation.tracer.span(
                "subcast.cover", targets=len(target_list)) as span:
            cover_nodes = tree_subset_cover(self.tree, target_list)
            span.set("cover", len(cover_nodes))
        cover = [(node.node_id, node.version, node.key)
                 for node in cover_nodes]
        with self.instrumentation.tracer.span("subcast.seal",
                                              cover=len(cover)):
            out = self.subcast_sealer.seal(
                cover, payload, receivers=target_list,
                root_ref=self.group_key_ref())
        self._m_subcasts.inc()
        return out
