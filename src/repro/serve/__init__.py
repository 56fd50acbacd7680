"""Async concurrent serving: event-loop front end over pipelined rekeying.

The PR2 UDP layer serves one request at a time on a thread; this
package is the concurrent successor — an asyncio front end that serves
every op on the event-loop thread in one synchronous step, applies
admission control (bounded in-flight budget, per-client rate caps,
``MSG_BUSY`` shedding), and optionally coalesces concurrent
joins/leaves into one batch rekey.

Quick start (a live single-server group on loopback)::

    from repro.serve import AsyncKeyService, AsyncServingCore, ServeConfig
    core = AsyncServingCore(server, ServeConfig())
    async with AsyncKeyService(core) as service:
        print("serving on", service.udp_address)
        ...

``python -m repro.serve`` runs a service from a spec file;
``python -m repro.serve.loadgen`` drives one with 10k simulated
clients.
"""

from .config import (DEFAULT_WORKERS, ServeConfig, ServeError,
                     default_server_config, from_spec_file, worker_count)
from .core import (AsyncServingCore, ClusterServingCore,
                   CoalescingServingCore, ImmediateServingCore)
from .endpoint import AsyncClusterService, AsyncKeyService
from .fanout import SocketFanout
from .health import InstrumentedExecutor, LoopHealthMonitor
from .rpc import (IdempotencyCache, ResilientRpc, RetryPolicy, RpcError,
                  RpcOutcome)
from .wire import (CORR_TRAILER_SIZE, FramingError, attach_corr_trailer,
                   attach_trailers, frame, read_frame, split_corr_trailer,
                   split_trailers)

#: Supervision names resolve lazily (PEP 562) so ``python -m
#: repro.serve.supervise`` does not import the module twice.
_SUPERVISE_NAMES = frozenset({
    "SupervisedShard", "SupervisePolicy", "Supervisor",
    "SupervisorError",
})


def __getattr__(name):
    if name in _SUPERVISE_NAMES:
        from . import supervise
        return getattr(supervise, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AsyncClusterService", "AsyncKeyService", "AsyncServingCore",
    "CORR_TRAILER_SIZE", "ClusterServingCore", "CoalescingServingCore",
    "DEFAULT_WORKERS", "FramingError", "IdempotencyCache",
    "ImmediateServingCore", "InstrumentedExecutor", "LoopHealthMonitor",
    "ResilientRpc", "RetryPolicy", "RpcError", "RpcOutcome",
    "ServeConfig", "ServeError", "SocketFanout", "SupervisedShard",
    "SupervisePolicy", "Supervisor", "SupervisorError",
    "attach_corr_trailer",
    "attach_trailers", "default_server_config", "frame", "from_spec_file",
    "read_frame", "split_corr_trailer", "split_trailers", "worker_count",
]
