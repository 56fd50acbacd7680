"""The group key server (paper §3, §5).

Owns the key graph (a key tree or a star), performs group access
control, executes the join/leave protocols under a configurable rekeying
strategy, signs rekey messages, and records the per-request statistics
the paper's experiments report (processing time, encryption counts,
message counts and sizes).

All rekey operations run through the shared staged pipeline
(:class:`~repro.core.pipeline.RekeyPipeline`): the server contributes
the *planner* for each operation (the key-graph edit plus the strategy's
planned messages) and the pipeline performs the encrypt, sign and
dispatch stages, feeding stage timings into the server's
:class:`~repro.observability.Instrumentation`.

The server is transport-agnostic: :meth:`GroupKeyServer.join` /
:meth:`~GroupKeyServer.leave` return :class:`~repro.core.messages.
OutboundMessage` batches that a transport (in-memory bus, UDP, ...)
delivers.  :class:`KeyServerProtocol` is what every front end asks of a
key server — this one, the sharded :class:`~repro.cluster.coordinator.
ClusterCoordinator` and the :class:`~repro.batch.rekeying.
BatchRekeyServer` — including the one request dispatch,
:meth:`~KeyServerProtocol.handle_datagram`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Dict, Hashable, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..crypto.suite import PAPER_SUITE, CipherSuite
from ..keygraph.backend import BACKENDS, build_tree, make_tree
from ..keygraph.covering import greedy_tree_cover, tree_subset_cover
from ..keygraph.star import StarGroup
from ..keygraph.tree import KeyTree
from ..observability import (COUNT_BUCKETS, LATENCY_BUCKETS_S,
                             SIZE_BUCKETS_BYTES, Instrumentation)
from .messages import (GROUP, INDIVIDUAL_KEY, MSG_DATA, MSG_HEARTBEAT,
                       MSG_JOIN_ACK, MSG_JOIN_DENIED, MSG_JOIN_REQUEST,
                       MSG_LEAVE_ACK, MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                       MSG_REKEY, MSG_RESYNC_REQUEST, MSG_SUBCAST_REQUEST,
                       STRATEGY_STAR, Destination, EncryptedItem, KeyRecord,
                       Message, OutboundMessage, WireError)
from .pipeline import (KeyMaterialSource, RekeyPipeline, Sequencer,
                       make_signer, validate_signing)
from .resync import RESYNC_NOT_MEMBER, RESYNC_OK, build_resync_reply
from .strategies import STRATEGIES
from .strategies.base import PlannedMessage, RekeyContext

# Reserved node id for the star graph's group key.
STAR_GROUP_NODE = 0


class ServerError(ValueError):
    """Raised on invalid server configuration or requests."""


class AccessDenied(ServerError):
    """Raised when group access control rejects a join."""


@dataclass
class ServerConfig:
    """Mirrors the paper's server specification file."""

    group_id: int = 1
    graph: str = "tree"              # "tree" or "star"
    degree: int = 4                   # key tree degree d
    strategy: str = "group"           # user | key | group | hybrid
    suite: CipherSuite = PAPER_SUITE
    signing: str = "merkle"           # none | per-message | merkle
    seed: Optional[bytes] = None      # deterministic DRBG seed
    access_list: Optional[Set[str]] = None  # None = open group
    # Tree storage engine: "object" (one Python object per k-node) or
    # "flat" (contiguous arrays + key arena; the million-member engine).
    backend: str = "object"
    # Worker-pool size for the async serving layer's stats replies and
    # SLO snapshots (0 = its default; ``python -m repro.serve`` passes
    # it on).  The server itself ignores it.
    workers: int = 0
    # Public key of a TicketAuthority (footnote 7): when set, joins must
    # present a valid ticket for this group instead of matching the ACL.
    ticket_authority: Optional[object] = None
    # Covering algorithm for subcasts: "tree" (the O(|S| log n)
    # structural cover, optimal on a key tree) or "greedy" (classic
    # greedy set cover over materialized usersets — the ablation
    # fallback; same cover on a tree, linear-in-n compute).
    subcast_cover: str = "tree"

    def validate(self) -> None:
        """Check field consistency; raises ServerError."""
        if self.graph not in ("tree", "star"):
            raise ServerError(f"unknown graph class {self.graph!r}")
        if self.graph == "tree" and self.strategy not in STRATEGIES:
            raise ServerError(f"unknown strategy {self.strategy!r}")
        if self.backend not in BACKENDS:
            raise ServerError(f"unknown tree backend {self.backend!r}")
        if self.subcast_cover not in ("tree", "greedy"):
            raise ServerError(
                f"unknown subcast cover mode {self.subcast_cover!r}")
        if self.workers < 0:
            raise ServerError("workers must be >= 0")
        validate_signing(self.signing, self.suite, error=ServerError)


@dataclass
class RequestRecord:
    """Statistics of one processed join/leave (one Figure 10/11 sample)."""

    op: str                        # "join" or "leave"
    user_id: str
    seconds: float                 # server processing time
    n_rekey_messages: int
    rekey_bytes: int               # total bytes of rekey messages sent
    max_message_bytes: int
    encryptions: int               # keys encrypted (Table 2 measure)
    signatures: int
    key_changes_total: int         # sum over non-requesting clients
    n_users_after: int
    # Per-stage breakdown of ``seconds`` (plan/encrypt/sign/dispatch),
    # from the pipeline's StageClock; None for hand-built records.
    stage_seconds: Optional[Dict[str, float]] = None


@dataclass
class RekeyOutcome:
    """Everything produced by one join/leave."""

    record: RequestRecord
    rekey_messages: List[OutboundMessage]
    control_messages: List[OutboundMessage] = field(default_factory=list)

    @property
    def all_messages(self) -> List[OutboundMessage]:
        """Control messages followed by rekey messages."""
        return self.control_messages + self.rekey_messages


class StagedRekeyOp:
    """A join/leave whose encrypt/sign stages are still pending.

    Produced by :meth:`GroupKeyServer.begin_join` /
    :meth:`~GroupKeyServer.begin_leave`.  The plan stage — access
    control, the key-graph edit, and every DRBG draw — already ran on
    the calling thread; what remains is per-op work:

    * :meth:`encrypt` — materialize this op's scheduled encryptions
      (touches only per-op state),
    * :meth:`seal` — assemble + sign + encode (admitted in plan order
      by the pipeline's seal turnstile and serialized under its seal
      lock, so sequence numbers are drawn exactly as the synchronous
      path draws them),
    * :meth:`finish` — build the ack (which draws this op's ack
      sequence number before the turn is passed on), journal the op
      and record the request statistics; returns the
      :class:`RekeyOutcome`.

    ``begin_join(u).encrypt().seal().finish()`` is byte-identical to
    ``join(u)`` — the synchronous methods are implemented exactly that
    way.  Statistics frozen at plan time (key-change counts, group
    size, the ack's root reference) describe *this* op's edit even
    when later ops plan before this one finishes.
    """

    __slots__ = ("server", "staged", "op", "user_id", "_state",
                 "_journal_keys", "_key_changes", "_root_ref",
                 "_n_users_after")

    def __init__(self, server: "GroupKeyServer", staged, op: str,
                 user_id: str, state: Dict[str, object],
                 journal_keys: Optional[List[bytes]],
                 key_changes: int, root_ref: Tuple[int, int],
                 n_users_after: int):
        self.server = server
        self.staged = staged
        self.op = op
        self.user_id = user_id
        self._state = state
        self._journal_keys = journal_keys
        self._key_changes = key_changes
        self._root_ref = root_ref
        self._n_users_after = n_users_after

    def encrypt(self) -> "StagedRekeyOp":
        """Run the encrypt stage (safe on a worker thread)."""
        self.staged.encrypt()
        return self

    def seal(self) -> "StagedRekeyOp":
        """Run the sign + dispatch stages (internally serialized)."""
        self.staged.seal()
        return self

    def finish(self) -> RekeyOutcome:
        """Complete the op: ack, journal entry, request record."""
        server = self.server
        # The ack draws a sequence number, so it must be built while
        # this op still holds its seal turn — before the next planned
        # op is admitted to seal — to keep the overlapped path
        # byte-identical to the synchronous one.
        if self.op == "join":
            ack = server._control_message(
                MSG_JOIN_ACK, self.user_id,
                body=int(self._state["leaf_id"]).to_bytes(4, "big"),
                root_ref=self._root_ref, journal_seq=False)
        else:
            ack = server._control_message(MSG_LEAVE_ACK, self.user_id,
                                          root_ref=self._root_ref,
                                          journal_seq=False)
        self.staged.release_turn()
        run = self.staged.finish()
        if server._journal is not None:
            if self.op == "join":
                server._journal_op(
                    "join", user_id=self.user_id,
                    individual_key=self._state["individual_key"],
                    keys=self._journal_keys)
            else:
                server._journal_op("leave", user_id=self.user_id,
                                   keys=self._journal_keys)
        record = server._record_from_run(run, self._key_changes,
                                         n_users_after=self._n_users_after)
        return RekeyOutcome(record, run.messages, [ack])

    def abort(self) -> None:
        """Record the op as errored (idempotent)."""
        self.staged.abort()


_DENIALS = {"join": MSG_JOIN_DENIED, "leave": MSG_LEAVE_DENIED}


def seal_data_message(suite: CipherSuite, signer, payload: bytes,
                      group_key: bytes, root_ref: Tuple[int, int],
                      iv: bytes, seq: int, group_id: int) -> OutboundMessage:
    """One signed ``MSG_DATA`` message: ``payload`` CBC-encrypted under
    the group key ``root_ref`` names, addressed to the whole group."""
    from ..crypto import modes
    block = suite.block_size
    padded = payload.ljust(-(-max(len(payload), 1) // block) * block,
                           b"\x00")
    ciphertext = modes.cbc_encrypt_nopad(suite.new_cipher(group_key),
                                         padded, iv)
    root_id, root_version = root_ref
    message = Message(
        msg_type=MSG_DATA, group_id=group_id, seq=seq,
        timestamp_us=time.time_ns() // 1000,
        root_node_id=root_id, root_version=root_version,
        items=[EncryptedItem(root_id, root_version, iv, ciphertext,
                             len(payload))])
    signer.seal([message])
    return OutboundMessage(Destination.to_all(), message, (),
                           message.encode())


class KeyServerProtocol:
    """What every front end asks of a key server (paper §5).

    A join or leave request comes in; rekey messages and an ack (or a
    denial) go out.  The serving core, the cluster front end, the
    recovery manager and the chaos harness all talk to a key server
    through these methods plus ``is_member``, ``members``,
    ``group_key_ref``, ``resync`` and ``subcast``, which each server
    implements itself.  Subclasses that answer join and leave requests
    provide ``join``, ``leave`` and :meth:`_denial`.
    """

    #: Whether the recovery manager may fold a deep eviction queue into
    #: one flush (overload shedding) — only a server that rekeys in
    #: batches can.
    supports_batch = False

    #: What :meth:`handle_datagram` raises for a request it refuses to
    #: parse or serve.
    _error = ServerError

    def audiences(self, user_id: str) -> Tuple[Hashable, ...]:
        """The transport audiences (:mod:`repro.transport.audience`)
        ``user_id`` is in right now: the whole group for a member,
        none otherwise."""
        return GROUP if self.is_member(user_id) else ()

    def evict(self, user_ids: Sequence[str]) -> List[OutboundMessage]:
        """Expel dead members: one leave rekey each, in order."""
        messages: List[OutboundMessage] = []
        for user_id in user_ids:
            messages.extend(self.leave(user_id).rekey_messages)
        return messages

    def stats_document(self) -> dict:
        """One ``repro-metrics/1`` snapshot of this server's registry
        (plus its spans, when tracing)."""
        from ..observability.export import build_snapshot
        tracer = self.instrumentation.tracer
        return build_snapshot(self.instrumentation.registry,
                              label=self.instrumentation.name,
                              spans=tracer.export() if tracer.enabled
                              else None)

    def handle_datagram(self, data: bytes) -> List[OutboundMessage]:
        """The one request dispatch: parse a request, run the protocol.

        A join request's body is the UTF-8 user id; its individual key
        must have been registered beforehand (standing in for the
        authentication exchange, which the paper also excludes from
        processing-time measurements).  A refused join or leave — any
        :class:`ServerError` — is answered with a signed denial.
        Heartbeats are consumed by a
        :class:`~repro.recovery.manager.RecoveryManager` when one is
        wired in front of the server; the server itself ignores them.
        """
        try:
            message = Message.decode(data)
        except WireError as exc:
            raise self._error(f"malformed request: {exc}") from None
        msg_type = message.msg_type
        if msg_type == MSG_SUBCAST_REQUEST:
            from ..subcast.wire import SubcastWireError, \
                parse_subcast_request
            try:
                sender, targets, payload = parse_subcast_request(
                    message.body)
            except SubcastWireError as exc:
                raise self._error(
                    f"malformed subcast request: {exc}") from None
            if not self.is_member(sender):
                raise self._error(
                    f"subcast sender {sender!r} is not a member")
            return [self.subcast(targets, payload)]
        if msg_type == MSG_HEARTBEAT:
            return []
        user_id = message.body.decode("utf-8", errors="replace")
        if msg_type == MSG_RESYNC_REQUEST:
            return [self.resync(user_id)]
        if msg_type == MSG_JOIN_REQUEST:
            op, run = "join", self.join
        elif msg_type == MSG_LEAVE_REQUEST:
            op, run = "leave", self.leave
        else:
            raise self._error(f"unexpected message type {msg_type}")
        try:
            outcome = run(user_id)
        except ServerError:
            return [self._denial(op, user_id)]
        return outcome.all_messages

    def _denial(self, op: str, user_id: str) -> OutboundMessage:
        """The signed ``MSG_JOIN_DENIED`` / ``MSG_LEAVE_DENIED`` reply."""
        raise NotImplementedError


class GroupKeyServer(KeyServerProtocol):
    """Trusted key server for one secure group."""

    def __init__(self, config: ServerConfig,
                 instrumentation: Optional[Instrumentation] = None):
        config.validate()
        self.config = config
        self.suite = config.suite
        self.material = KeyMaterialSource(config.suite, config.seed,
                                          b"group-key-server")
        # Dedicated IV stream for resync replies: serving a resync must
        # not perturb the main rekey key/IV draws, so a chaos run's key
        # state stays byte-identical to a fault-free control run's.
        self.resync_material = KeyMaterialSource(config.suite, config.seed,
                                                 b"resync-replies")
        self.history: List[RequestRecord] = []
        # Individual keys registered by the (out-of-band) authentication
        # exchange, for users not yet members.
        self._registered_keys: Dict[str, bytes] = {}
        # Optional append-only op journal (attach_journal); the tap
        # captures tree-edit key draws while an op is being logged.
        self._journal = None
        self._journal_tap: Optional[List[bytes]] = None

        if config.graph == "tree":
            self.tree: Optional[KeyTree] = make_tree(
                config.backend, config.degree, self._new_key)
            self.star: Optional[StarGroup] = None
            self._strategy = STRATEGIES[config.strategy]()
            self._strategy_code = self._strategy.wire_code
        else:
            self.tree = None
            self.star = StarGroup(self._new_key)
            self._strategy = None
            self._strategy_code = STRATEGY_STAR

        self._signer, self.signing_keypair = make_signer(
            config.suite, config.signing, config.seed, error=ServerError)
        self.instrumentation = (instrumentation if instrumentation is not None
                                else Instrumentation("group-key-server"))
        # Paper-facing metric families (all no-ops on NULL_REGISTRY).
        registry = self.instrumentation.registry
        self._m_requests = registry.counter(
            "server_requests_total", "Requests processed by outcome.",
            labels=("op", "status"))
        self._m_messages = registry.counter(
            "rekey_messages_total", "Rekey messages sent (Table 5).",
            labels=("op",))
        self._m_bytes = registry.counter(
            "rekey_bytes_total", "Total rekey message bytes sent.",
            labels=("op",))
        self._m_encryptions = registry.counter(
            "encryptions_total", "Keys encrypted (Table 2 measure).",
            labels=("op",))
        self._m_signatures = registry.counter(
            "signatures_total", "Signatures computed on rekey messages.",
            labels=("op",))
        self._m_key_changes = registry.counter(
            "key_changes_total",
            "Key changes summed over non-requesting clients (Fig. 12).",
            labels=("op",))
        self._m_group_size = registry.gauge(
            "group_size", "Current number of group members.").labels()
        self._m_message_bytes = registry.histogram(
            "rekey_message_bytes", "Rekey message size distribution.",
            bounds=SIZE_BUCKETS_BYTES, labels=("op",))
        self._m_resyncs = registry.counter(
            "resync_replies_total",
            "Resync replies served, by status.", labels=("status",))
        self._m_subcasts = registry.counter(
            "subcast_messages_total", "Subcast messages sealed.").labels()
        self._m_subcast_bytes = registry.counter(
            "subcast_bytes_total", "Subcast message bytes sealed.").labels()
        self._m_subcast_cover = registry.histogram(
            "subcast_cover_keys",
            "Key-cover size per subcast (ciphertexts beyond the payload).",
            bounds=COUNT_BUCKETS).labels()
        self._m_subcast_seal = registry.histogram(
            "subcast_seal_seconds",
            "Cover + seal time per subcast.",
            bounds=LATENCY_BUCKETS_S).labels()
        self._sequencer = Sequencer()
        self.pipeline = RekeyPipeline(
            config.suite, self.material, signer=self._signer,
            sequencer=self._sequencer, group_id=config.group_id,
            instrumentation=self.instrumentation)
        # Dedicated DRBG personalization for subcast message keys/IVs:
        # sealing a subcast must never perturb the rekey key stream.
        self.subcast_material = KeyMaterialSource(config.suite, config.seed,
                                                  b"subcast-seal")
        from ..subcast.sealing import SubcastSealer
        self.subcast_sealer = SubcastSealer(
            config.suite, self.subcast_material, self._signer,
            self._sequencer, group_id=config.group_id,
            seal_lock=self.pipeline.seal_lock)

    # -- key material -------------------------------------------------------

    def _new_key(self) -> bytes:
        key = self.material.new_key()
        if self._journal_tap is not None:
            self._journal_tap.append(key)
        return key

    def _new_iv(self) -> bytes:
        return self.material.new_iv()

    def new_individual_key(self) -> bytes:
        """Generate an individual key (stands in for the auth exchange)."""
        return self.material.new_individual_key()

    def register_individual_key(self, user_id: str, key: bytes) -> None:
        """Record the session key from the authentication exchange."""
        if len(key) != self.suite.key_size:
            raise ServerError(
                f"individual key must be {self.suite.key_size} bytes")
        self._registered_keys[user_id] = key
        if self._journal is not None:
            self._journal.append("register", user_id=user_id,
                                 individual_key=key, seq=self._seq)

    # -- journaling ---------------------------------------------------------

    def attach_journal(self, journal) -> None:
        """Log every state-changing op to ``journal`` from now on.

        Writes an initial checkpoint (a full snapshot) so replay starts
        from the server's current state.  See
        :func:`repro.core.persistence.attach_journal` for the
        file-backed convenience wrapper and
        :func:`repro.core.persistence.restore_from_journal` for
        recovery.
        """
        self._journal = journal
        journal.checkpoint(self._checkpoint_blob())

    def _checkpoint_blob(self) -> bytes:
        from .persistence import snapshot
        return snapshot(self)

    def _journal_op(self, op: str, **fields) -> None:
        if self._journal is not None:
            self._journal.append(op, seq=self._seq, **fields)

    @property
    def public_key(self):
        """The server's signature-verification key (None when unsigned)."""
        return (self.signing_keypair.public_key
                if self.signing_keypair is not None else None)

    # -- sequence counter (snapshot/restore keeps it) -----------------------

    @property
    def _seq(self) -> int:
        return self._sequencer.value

    @_seq.setter
    def _seq(self, value: int) -> None:
        self._sequencer.value = value

    def _next_seq(self) -> int:
        return self._sequencer.next()

    # -- group state -----------------------------------------------------------

    @property
    def n_users(self) -> int:
        """Current group size."""
        if self.tree is not None:
            return self.tree.n_users
        return len(self.star)

    def members(self) -> List[str]:
        """Current member ids."""
        if self.tree is not None:
            return self.tree.users()
        return self.star.members()

    def is_member(self, user_id: str) -> bool:
        """True iff ``user_id`` is currently in the group."""
        if self.tree is not None:
            return self.tree.has_user(user_id)
        return self.star.has_user(user_id)

    def group_key_ref(self) -> Tuple[int, int]:
        """(node id, version) of the current group key."""
        if self.tree is not None:
            if self.tree.root is None:
                raise ServerError("group is empty")
            return self.tree.root.node_id, self.tree.root.version
        return STAR_GROUP_NODE, self.star.group_key_version

    def group_key(self) -> bytes:
        """Current group key bytes."""
        if self.tree is not None:
            return self.tree.group_key_node().key
        return self.star.group_key

    def bootstrap(self, members: Iterable[Tuple[str, bytes]]) -> None:
        """Bulk-initialise the group without generating rekey traffic.

        Reaches the same steady-state tree as the paper's initial n joins
        (the paper measures only the subsequent request phase).
        """
        members = list(members)
        if self.n_users:
            raise ServerError("bootstrap requires an empty group")
        # Bootstrap is operator-initiated: the ACL applies, but ticket
        # checks do not (the operator vouches for the initial roster).
        acl = self.config.access_list
        for user_id, key in members:
            if acl is not None and user_id not in acl:
                raise AccessDenied(
                    f"user {user_id!r} not in access control list")
        if self.tree is not None:
            self.tree = build_tree(self.config.backend, members,
                                   self.config.degree, self._new_key)
        else:
            for user_id, key in members:
                self.star.join(user_id, key)
        if self._journal is not None:
            # Bootstrapping rewrites the whole tree: checkpoint instead
            # of logging an op (replay resumes from the checkpoint).
            self._journal.checkpoint(self._checkpoint_blob())

    def _check_acl(self, user_id: str, ticket=None) -> None:
        authority_key = self.config.ticket_authority
        if authority_key is not None:
            from .tickets import TicketAuthority, TicketError
            if ticket is None:
                raise AccessDenied(
                    f"group {self.config.group_id} requires a ticket")
            try:
                TicketAuthority.verify(authority_key, ticket, user_id,
                                       self.config.group_id)
            except TicketError as exc:
                raise AccessDenied(str(exc)) from None
            return
        acl = self.config.access_list
        if acl is not None and user_id not in acl:
            raise AccessDenied(f"user {user_id!r} not in access control list")

    # -- message assembly ---------------------------------------------------------

    def _key_changes_total(self, changes, requester: str) -> int:
        """Sum over non-requesting users of path keys changed (Fig. 12)."""
        if self.tree is None:
            # Star: every remaining user changes exactly the group key.
            total = len(self.star)
            return total - (1 if self.star.has_user(requester) else 0)
        total = 0
        requester_on_path = self.tree.has_user(requester)
        for change in changes:
            # O(1) via the maintained subtree sizes; the requester (if
            # still a member) lies on every changed node's subtree.
            total += self.tree.subtree_size(change.node)
            if requester_on_path:
                total -= 1
        return total

    def _record_from_run(self, run, key_changes_total: int,
                         n_users_after: Optional[int] = None
                         ) -> RequestRecord:
        """Derive the paper-facing request record from a pipeline run."""
        record = RequestRecord(
            op=run.op, user_id=run.user_id, seconds=run.seconds,
            n_rekey_messages=len(run.messages),
            rekey_bytes=run.total_bytes,
            max_message_bytes=run.max_message_bytes,
            encryptions=run.encryptions, signatures=run.signatures,
            key_changes_total=key_changes_total,
            n_users_after=(n_users_after if n_users_after is not None
                           else self.n_users),
            stage_seconds=run.stage_seconds,
        )
        self.history.append(record)
        op = run.op
        self._m_requests.inc(op=op, status="ok")
        self._m_messages.inc(len(run.messages), op=op)
        self._m_bytes.inc(run.total_bytes, op=op)
        self._m_encryptions.inc(run.encryptions, op=op)
        self._m_signatures.inc(run.signatures, op=op)
        self._m_key_changes.inc(key_changes_total, op=op)
        self._m_group_size.set(self.n_users)
        for outbound in run.messages:
            self._m_message_bytes.observe(outbound.size, op=op)
        return record

    # -- join -------------------------------------------------------------------

    def join(self, user_id: str, individual_key: Optional[bytes] = None,
             ticket=None) -> RekeyOutcome:
        """Admit a user and rekey (Figures 2, 6, 7).

        ``individual_key`` may be omitted when previously registered via
        :meth:`register_individual_key`.  ``ticket`` (a
        :class:`~repro.core.tickets.Ticket`) is required when the server
        is configured with a ticket authority (footnote 7).
        """
        return self._complete(self.begin_join(user_id, individual_key,
                                              ticket))

    def begin_join(self, user_id: str,
                   individual_key: Optional[bytes] = None,
                   ticket=None) -> StagedRekeyOp:
        """Plan a join now; the remaining stages run on the caller's terms.

        The graph edit and every DRBG draw happen here, so ``begin_*``
        calls must be serialized by the caller (the async serving layer
        runs every op on the event loop).  :meth:`join` is exactly
        ``begin_join(...).encrypt().seal().finish()``, aborting the op
        if a stage fails.
        """
        state: Dict[str, object] = {}

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            self._check_acl(user_id, ticket)
            # Refuse before consuming a registered key: a denied join
            # must leave no state change the journal does not record.
            if self.is_member(user_id):
                raise ServerError(f"user {user_id!r} is already a member")
            key = individual_key
            if key is None:
                key = self._registered_keys.pop(user_id, None)
                if key is None:
                    raise ServerError(f"no individual key for {user_id!r}")
            state["individual_key"] = key
            if self.tree is not None:
                result = self.tree.join(user_id, key)
                state["changes"] = result.changes
                state["leaf_id"] = result.leaf.node_id
                return self._strategy.rekey_join(self.tree, result, ctx)
            state["changes"] = None
            # Star members have no tree leaf; the ack carries the
            # individual-key sentinel (it must NOT collide with the star
            # group-key node id 0).
            state["leaf_id"] = INDIVIDUAL_KEY
            return self._star_join_plans(user_id, key, ctx)

        return self._begin_op("join", user_id, planner, state)

    def _star_key_changes(self, requester: str) -> int:
        return len(self.star) - (1 if self.star.has_user(requester) else 0)

    def _star_join_plans(self, user_id: str, individual_key: bytes,
                         ctx: RekeyContext) -> List[PlannedMessage]:
        """Figure 2: multicast under the old group key + unicast to joiner."""
        rekey = self.star.join(user_id, individual_key)
        record = KeyRecord(STAR_GROUP_NODE, rekey.new_version,
                           rekey.new_group_key)
        plans = []
        if rekey.multicast_under_old_group_key:
            item = ctx.encrypt(rekey.multicast_under_old_group_key, [record],
                               STAR_GROUP_NODE, rekey.old_version)
            plans.append(PlannedMessage(
                Destination.to_all(exclude=user_id), [item]))
        item = ctx.encrypt(individual_key, [record], INDIVIDUAL_KEY, 0)
        plans.append(PlannedMessage(Destination.to_user(user_id), [item],
                                    lambda: (user_id,)))
        return plans

    # -- leave -------------------------------------------------------------------

    def leave(self, user_id: str) -> RekeyOutcome:
        """Expel/release a user and rekey (Figures 4, 8, 9)."""
        return self._complete(self.begin_leave(user_id))

    @staticmethod
    def _complete(staged: StagedRekeyOp) -> RekeyOutcome:
        """Run a planned op's remaining stages, or abort it: a failed op
        must retire its seal ticket, or the next op's seal waits on it
        forever."""
        try:
            return staged.encrypt().seal().finish()
        except BaseException:
            staged.abort()
            raise

    def begin_leave(self, user_id: str) -> StagedRekeyOp:
        """Plan a leave now; see :meth:`begin_join` for the contract."""
        state: Dict[str, object] = {}

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            if not self.is_member(user_id):
                raise ServerError(f"user {user_id!r} is not a member")
            if self.tree is not None:
                result = self.tree.leave(user_id)
                state["changes"] = result.changes
                return self._strategy.rekey_leave(self.tree, result, ctx)
            state["changes"] = None
            return self._star_leave_plans(user_id, ctx)

        return self._begin_op("leave", user_id, planner, state)

    def _begin_op(self, op: str, user_id: str, planner,
                  state: Dict[str, object]) -> StagedRekeyOp:
        """Shared begin path: plan under the journal tap, freeze stats.

        The root reference handed to the pipeline's sign stage is
        frozen *here*, right after the plan — under concurrency a later
        op may advance the root before this op seals, and its rekey
        messages must still advertise the root their items install.
        """
        frozen: Dict[str, Tuple[int, int]] = {}
        if self._journal is not None:
            self._journal_tap = []
        try:
            staged = self.pipeline.begin(op, planner,
                                         strategy_code=self._strategy_code,
                                         root_ref=lambda: frozen["ref"],
                                         user_id=user_id)
        except Exception:
            self._journal_tap = None
            raise
        keys, self._journal_tap = self._journal_tap, None
        try:
            root_ref = self.group_key_ref()
        except ServerError:
            # The op emptied the group (last member left): no plans
            # were produced, so the pipeline never asks for the ref.
            root_ref = (0, 0)
        frozen["ref"] = root_ref
        key_changes = (self._key_changes_total(state["changes"], user_id)
                       if self.tree is not None
                       else self._star_key_changes(user_id))
        return StagedRekeyOp(self, staged, op, user_id, state, keys,
                             key_changes, root_ref, self.n_users)

    def _star_leave_plans(self, user_id: str,
                          ctx: RekeyContext) -> List[PlannedMessage]:
        """Figure 4: the new group key unicast to each remaining member."""
        rekey = self.star.leave(user_id)
        record = KeyRecord(STAR_GROUP_NODE, rekey.new_version,
                           rekey.new_group_key)
        plans = []
        for member_id, member_key in rekey.encrypt_for:
            item = ctx.encrypt(member_key, [record], INDIVIDUAL_KEY, 0)
            plans.append(PlannedMessage(
                Destination.to_user(member_id), [item],
                (lambda mid=member_id: (mid,))))
        return plans

    # -- periodic refresh ------------------------------------------------------

    def refresh(self) -> RekeyOutcome:
        """Rotate the group key without a membership change.

        "To achieve a high level of security, the group key should be
        changed frequently" — beyond per-join/leave rekeying, long-lived
        groups rotate the group key periodically to bound the exposure
        of any single key.  One multicast carries the new group key
        encrypted under the old one (everyone currently entitled to the
        old key is entitled to the new one).
        """

        def planner(ctx: RekeyContext) -> List[PlannedMessage]:
            if self.n_users == 0:
                raise ServerError("cannot refresh an empty group")
            if self.tree is not None:
                root = self.tree.root
                old_key, old_version = root.key, root.version
                root.replace_key(self._new_key())
                record_key = KeyRecord(root.node_id, root.version, root.key)
                item = ctx.encrypt(old_key, [record_key], root.node_id,
                                   old_version)
                return [PlannedMessage(Destination.to_all(), [item])]
            old_key = self.star.group_key
            old_version = self.star.group_key_version
            self.star.group_key = self._new_key()
            self.star.group_key_version += 1
            record_key = KeyRecord(STAR_GROUP_NODE,
                                   self.star.group_key_version,
                                   self.star.group_key)
            item = ctx.encrypt(old_key, [record_key], STAR_GROUP_NODE,
                               old_version)
            return [PlannedMessage(Destination.to_all(), [item])]

        if self._journal is not None:
            self._journal_tap = []
        try:
            run = self.pipeline.run("refresh", planner,
                                    strategy_code=self._strategy_code,
                                    root_ref=self.group_key_ref)
        except Exception:
            self._journal_tap = None
            raise
        if self._journal is not None:
            keys, self._journal_tap = self._journal_tap, None
            self._journal_op("refresh", keys=keys)
        record = self._record_from_run(run, key_changes_total=self.n_users)
        return RekeyOutcome(record, run.messages, [])

    def _control_message(self, msg_type: int, user_id: str,
                         body: bytes = b"",
                         root_ref: Optional[Tuple[int, int]] = None,
                         journal_seq: bool = True) -> OutboundMessage:
        if root_ref is None:
            try:
                root_ref = self.group_key_ref()
            except ServerError:
                root_ref = (0, 0)
        root_id, root_version = root_ref
        message = Message(msg_type=msg_type, group_id=self.config.group_id,
                          seq=self._next_seq(),
                          timestamp_us=time.time_ns() // 1000,
                          root_node_id=root_id, root_version=root_version,
                          body=body)
        # The signer is stateful and shared with pipeline runs that may
        # be sealing on worker threads; serialize with them.
        with self.pipeline.seal_lock:
            self._signer.seal([message])
        # ``journal_seq=False`` is for acks inside a staged commit: the
        # op record written right after carries this same (final) seq,
        # and a standalone marker *before* the op record would survive
        # a torn-tail crash that loses the op — restarting with the
        # op's seq draws but not its tree edit.
        if journal_seq:
            self._journal_op("seq")
        return OutboundMessage(Destination.to_user(user_id), message,
                               (user_id,), message.encode())

    # -- application data ----------------------------------------------------------

    def seal_group_message(self, payload: bytes) -> OutboundMessage:
        """Encrypt application data under the current group key."""
        out = seal_data_message(self.suite, self._signer, payload,
                                self.group_key(), self.group_key_ref(),
                                self._new_iv(), self._next_seq(),
                                self.config.group_id)
        self._journal_op("seq")
        return out

    def subcast(self, targets: Iterable[str],
                payload: bytes) -> OutboundMessage:
        """Seal ``payload`` to exactly ``targets`` via a key cover (§2.1).

        Computes a minimum key cover of the target subset on the key
        tree (``config.subcast_cover`` selects the O(|S| log n)
        structural cover or the classic greedy ablation — same cover on
        a tree), then seals one payload ciphertext plus one sealed
        message-key copy per cover key.  Only current members can be
        addressed; evicted members hold stale key versions and fail
        closed at the client.
        """
        if self.tree is None:
            raise ServerError("subcast requires a tree key graph "
                              "(star groups hold no subgroup keys)")
        target_list = sorted(set(targets))
        if not target_list:
            raise ServerError("subcast needs at least one target")
        for user_id in target_list:
            if not self.tree.has_user(user_id):
                raise ServerError(
                    f"subcast target {user_id!r} is not a member")
        started = time.perf_counter()
        with self.instrumentation.tracer.span(
                "subcast.cover", targets=len(target_list),
                mode=self.config.subcast_cover) as span:
            if self.config.subcast_cover == "greedy":
                cover_nodes = greedy_tree_cover(self.tree, target_list)
            else:
                cover_nodes = tree_subset_cover(self.tree, target_list)
            span.set("cover", len(cover_nodes))
        cover = [(node.node_id, node.version, node.key)
                 for node in cover_nodes]
        with self.instrumentation.tracer.span("subcast.seal",
                                              cover=len(cover)):
            out = self.subcast_sealer.seal(
                cover, payload, receivers=target_list,
                root_ref=self.group_key_ref())
        self._journal_op("seq")
        self._m_subcasts.inc()
        self._m_subcast_bytes.inc(len(out.encoded))
        self._m_subcast_cover.observe(len(cover))
        self._m_subcast_seal.observe(time.perf_counter() - started)
        return out

    # -- resynchronization ---------------------------------------------------------

    def resync(self, user_id: str) -> OutboundMessage:
        """Serve one ``MSG_RESYNC_REPLY`` for ``user_id`` (paper §5 relaxed).

        A member gets its full current key path (leaf parent up to the
        group key) in one item under its individual key; a non-member
        gets ``RESYNC_NOT_MEMBER`` so a dead-then-evicted client learns
        it must rejoin rather than wait for keys that never come.
        """
        with self.instrumentation.tracer.span("resync.reply",
                                              user=user_id) as span:
            if not self.is_member(user_id):
                self._m_resyncs.inc(status="not-member")
                span.set("status", "not-member")
                with self.pipeline.seal_lock:
                    reply = build_resync_reply(
                        self.suite, self._signer, self._sequencer,
                        group_id=self.config.group_id, user_id=user_id,
                        status=RESYNC_NOT_MEMBER, leaf_node_id=0)
                self._journal_op("seq")
                return reply
            if self.tree is not None:
                leaf = self.tree.leaf_of(user_id)
                individual_key = leaf.key
                leaf_node_id = leaf.node_id
                records = [KeyRecord(node.node_id, node.version, node.key)
                           for node in leaf.path_to_root()[1:]]
            else:
                individual_key = self.star.individual_key(user_id)
                leaf_node_id = INDIVIDUAL_KEY
                records = [KeyRecord(STAR_GROUP_NODE,
                                     self.star.group_key_version,
                                     self.star.group_key)]
            self._m_resyncs.inc(status="ok")
            span.set("status", "ok").set("records", len(records))
            with self.pipeline.seal_lock:
                reply = build_resync_reply(
                    self.suite, self._signer, self._sequencer,
                    group_id=self.config.group_id, user_id=user_id,
                    status=RESYNC_OK, leaf_node_id=leaf_node_id,
                    records=records, root_ref=self.group_key_ref(),
                    individual_key=individual_key,
                    iv=self.resync_material.new_iv())
            self._journal_op("seq")
            return reply

    # -- request protocol ---------------------------------------------------------

    def _denial(self, op: str, user_id: str) -> OutboundMessage:
        self._m_requests.inc(op=op, status="denied")
        return self._control_message(_DENIALS[op], user_id)
