"""Client resynchronization and dead-member recovery.

The other half (with :mod:`repro.chaos`) of relaxing the paper's §5
reliable-delivery assumption:

* :class:`~repro.recovery.member.ResilientMember` — a member-side shim
  around :class:`~repro.core.client.GroupClient` that detects key-version
  gaps, heartbeats its group-key view, and requests resyncs;
* :class:`~repro.recovery.manager.RecoveryManager` — the server-side
  loop: answers resync requests, pushes resyncs at members whose
  heartbeats report a stale group key (with retry/backoff and a
  per-member delivery budget), detects dead members by heartbeat
  silence and escalates to an automatic eviction rekey, and sheds a
  deep eviction queue as one batch flush when the key server batches.
  It drives any key server directly (:class:`~repro.core.server.
  KeyServerProtocol`: :class:`~repro.core.server.GroupKeyServer`,
  :class:`~repro.batch.rekeying.BatchRekeyServer` or
  :class:`~repro.cluster.coordinator.ClusterCoordinator`).
"""

from .manager import RecoveryManager, RecoveryPolicy
from .member import ResilientMember

__all__ = ["RecoveryManager", "RecoveryPolicy", "ResilientMember"]
