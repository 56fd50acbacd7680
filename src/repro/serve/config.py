"""Configuration of the async serving layer.

:class:`ServeConfig` bundles the socket, concurrency and admission
knobs; the group-protocol parameters stay in
:class:`~repro.core.server.ServerConfig` (built from the paper's spec
file); :func:`from_spec_file` loads the latter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.server import ServerConfig

#: Worker threads used when ``ServerConfig.workers`` is 0 (auto).  Ops
#: run on the event loop; the pool only builds stats replies and SLO
#: snapshots.
DEFAULT_WORKERS = 4


class ServeError(ValueError):
    """Raised on invalid serving configuration."""


@dataclass
class ServeConfig:
    """Knobs of one async serving endpoint (or one per-shard endpoint)."""

    host: str = "127.0.0.1"
    #: Base UDP port (0 = ephemeral).  A cluster service binds one UDP
    #: port per shard, starting here.
    udp_port: int = 0
    #: Base TCP port (0 = ephemeral, None = no TCP endpoint).
    tcp_port: Optional[int] = 0
    #: Rekey operations admitted but not yet completed.  Beyond this
    #: the server sheds: an immediate ``MSG_BUSY`` reply, no state
    #: change.  Sized so a join burst queues a little and sheds a lot.
    max_inflight: int = 64
    #: Per-client token bucket for state-changing requests
    #: (join/leave/resync): sustained ops/sec and burst allowance.
    #: ``0`` disables the cap.  Heartbeats are never capped — punishing
    #: liveness signals under load would manufacture false evictions.
    client_rate: float = 0.0
    client_burst: int = 8
    #: :class:`~repro.serve.core.CoalescingServingCore` only: flush the
    #: window of joins/leaves every ``coalesce_interval`` seconds (or
    #: sooner at ``coalesce_max`` pending requests), folding a
    #: concurrent burst into one rekey.
    coalesce_interval: float = 0.05
    coalesce_max: int = 256
    #: Seconds between recovery ticks (heartbeat silence detection,
    #: resync pushes, evictions).  0 disables the ticker.
    tick_interval: float = 1.0
    #: Mint-and-register an individual key for unknown joiners (stands
    #: in for the authentication exchange, like the CLI's
    #: pre-registration).  The load harness needs this; a closed
    #: deployment pre-registers keys and turns it off.
    open_enroll: bool = True
    #: Directory for automatic flight-recorder dumps (error, SLO
    #: breach).  None keeps dumps in-memory only (reachable through
    #: :attr:`AsyncServingCore.flight`).
    flight_dump_dir: Optional[str] = None
    #: Declared service-level objectives
    #: (:class:`~repro.observability.slo.SLO` tuples, usually from the
    #: spec file's ``slo-*`` keys).
    slos: Tuple = ()
    #: Server-side idempotency cache: total cached direct replies kept
    #: for retried requests (see :mod:`repro.serve.rpc`).  0 disables
    #: replay — a retried op then re-executes (and a duplicate join
    #: earns a denial again).
    idempotency_entries: int = 4096
    #: Seconds :meth:`AsyncServingCore.aclose` waits for admitted ops
    #: to complete before tearing down the executor.  New arrivals are
    #: shed with ``MSG_BUSY`` for the whole drain; stragglers past the
    #: deadline are shed too.  0 tears down immediately.
    drain_deadline: float = 2.0

    def validate(self) -> None:
        """Check field consistency; raises ServeError."""
        if self.max_inflight < 1:
            raise ServeError("max_inflight must be >= 1")
        if self.client_rate < 0:
            raise ServeError("client_rate must be >= 0")
        if self.client_burst < 1:
            raise ServeError("client_burst must be >= 1")
        if self.coalesce_interval <= 0:
            raise ServeError("coalesce_interval must be > 0")
        if self.coalesce_max < 1:
            raise ServeError("coalesce_max must be >= 1")
        if self.tick_interval < 0:
            raise ServeError("tick_interval must be >= 0")
        if self.idempotency_entries < 0:
            raise ServeError("idempotency_entries must be >= 0")
        if self.drain_deadline < 0:
            raise ServeError("drain_deadline must be >= 0")


def worker_count(config: ServerConfig) -> int:
    """The executor size for a server config (0 = auto)."""
    return config.workers if config.workers > 0 else DEFAULT_WORKERS


def from_spec_file(path: str) -> Tuple[ServerConfig, int]:
    """Load a spec file: ``(server_config, initial_size)``."""
    from ..specfile import config_from_spec
    with open(path, "r", encoding="utf-8") as handle:
        return config_from_spec(handle.read())
