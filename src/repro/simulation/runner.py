"""Experiment runner: the paper's measurement loop (§5).

One :func:`run_experiment` call reproduces one experimental
configuration: bootstrap a group of ``initial_size`` members, then
process ``n_requests`` random join/leave requests, recording server-side
and client-side statistics.

``client_mode`` selects the fidelity/speed trade-off:

* ``"full"``      — every member is a real GroupClient that decrypts and
  verifies every message addressed to it (used by integration tests and
  small-scale runs; the simulator's synchrony is asserted at the end);
* ``"accounting"`` — rekey messages are generated and sized exactly as in
  full mode but client decryption is skipped; client-side metrics come
  from the copy counts of an in-memory network the group stays
  subscribed to (how the big Table 5/6 sweeps run);
* ``"none"``      — server-side metrics only (fastest, Figure 10/11).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..core.client import ClientStats
from ..core.server import GroupKeyServer, RequestRecord, ServerConfig
from ..crypto.keycache import SHARED_CACHE
from ..crypto.suite import PAPER_SUITE, CipherSuite
from ..observability import Instrumentation, Stopwatch
from ..observability.export import build_snapshot
from ..transport.inmemory import InMemoryNetwork
from .clients import ClientSimulator
from .metrics import ClientMetrics, ServerMetrics
from .workload import JOIN, Request, generate_workload, initial_members

CLIENT_MODES = ("full", "accounting", "none")


@dataclass
class ExperimentConfig:
    """One experimental configuration (one curve point in the figures)."""

    initial_size: int = 32
    n_requests: int = 100
    degree: int = 4
    strategy: str = "group"          # user | key | group | hybrid
    graph: str = "tree"              # tree | star
    suite: CipherSuite = PAPER_SUITE
    signing: str = "merkle"          # none | per-message | merkle
    seed: bytes = b"sigcomm98"
    client_mode: str = "accounting"

    def server_config(self) -> ServerConfig:
        """The ServerConfig this experiment runs with."""
        return ServerConfig(graph=self.graph, degree=self.degree,
                            strategy=self.strategy, suite=self.suite,
                            signing=self.signing, seed=self.seed)


@dataclass
class ExperimentResult:
    """Everything measured in one run."""

    config: ExperimentConfig
    records: List[RequestRecord]
    server_metrics: ServerMetrics
    client_metrics: ClientMetrics
    wall_seconds: float
    final_size: int
    final_height: int
    # Aggregated real-client counters; None outside "full" client mode.
    client_totals: Optional["ClientStats"] = None
    # The server's observability core: its registry holds the whole
    # run's ``rekey_seconds``/``rekey_stage_seconds`` CPU histograms.
    instrumentation: Optional[Instrumentation] = None
    # ``repro-metrics/1`` document: the server's registry merged with
    # the shared key-schedule cache's, labeled with the configuration.
    # Self-contained — ``python -m repro.observability report`` (or
    # ``render_report``) regenerates the paper-shaped tables from it.
    metrics_snapshot: Optional[dict] = None

    @property
    def mean_processing_ms(self) -> float:
        """Mean server processing time per request."""
        return self.server_metrics.overall_processing_ms


def run_experiment(config: ExperimentConfig,
                   requests: Optional[Sequence[Request]] = None) -> ExperimentResult:
    """Run one configuration; deterministic for a given config/seed."""
    if config.client_mode not in CLIENT_MODES:
        raise ValueError(f"unknown client mode {config.client_mode!r}")
    # Each configuration is measured from a cold key-schedule cache so
    # timings are comparable across runs (experiments with a shared seed
    # would otherwise warm each other's keys); within the run, the cache
    # works exactly as in production.
    SHARED_CACHE.clear()
    watch = Stopwatch()

    server = GroupKeyServer(config.server_config())
    members = initial_members(config.initial_size)
    member_keys = [(user_id, server.new_individual_key())
                   for user_id in members]
    server.bootstrap(member_keys)

    simulator: Optional[ClientSimulator] = None
    if config.client_mode == "full":
        simulator = ClientSimulator(config.suite, server.public_key)
        for user_id, key in member_keys:
            simulator.add_member(user_id, key)
        simulator.prime_from_server(server)
    # Copies are counted (O(1) for a group address) and, in full mode,
    # delivered by the network: no plan names the group's members.
    network = InMemoryNetwork()

    def subscribe(user_id: str) -> None:
        network.attach(user_id, simulator.handler_for(user_id)
                       if simulator is not None else _discard)

    for user_id, _key in member_keys:
        subscribe(user_id)

    if requests is None:
        requests = generate_workload(members, config.n_requests,
                                     seed=config.seed + b"/requests")

    client_metrics = ClientMetrics()
    m_copies = server.instrumentation.registry.counter(
        "client_copies_total",
        "Rekey message copies delivered to clients (Table 6 measure).",
        labels=("op",))
    # A full collection of garbage left by earlier work (other runs in
    # the process) would otherwise land inside one measured request;
    # collection runs on this thread, so the CPU clock charges it too.
    gc.collect()
    records: List[RequestRecord] = []
    for request in requests:
        if request.op == JOIN:
            key = server.new_individual_key()
            if simulator is not None:
                client = simulator.add_member(request.user_id, key)
            outcome = server.join(request.user_id, key)
            subscribe(request.user_id)
            if simulator is not None:
                for control in outcome.control_messages:
                    client.process_control(control.encoded)
        else:
            outcome = server.leave(request.user_id)
            network.detach(request.user_id)
        for message in outcome.rekey_messages:
            copies = network.audience.count(message)
            client_metrics.record_message(request.op, message.size, copies)
            m_copies.inc(copies, op=request.op)
            if simulator is not None:
                network.send(message)
        if simulator is not None and request.op != JOIN:
            simulator.remove_member(request.user_id)
        client_metrics.record_request(outcome.record)
        records.append(outcome.record)

    client_totals = None
    if simulator is not None:
        simulator.assert_synchronized(server)
        client_totals = simulator.total_stats()

    final_height = server.tree.height() if server.tree is not None else 2
    tracer = server.instrumentation.tracer
    snapshot = build_snapshot(
        server.instrumentation.registry,
        label=(f"{config.graph}/{config.strategy}"
               f"/n{config.initial_size}/{config.signing}"),
        spans=tracer.export() if tracer.enabled else None,
        extra=(SHARED_CACHE.registry,))
    return ExperimentResult(
        config=config,
        records=records,
        server_metrics=ServerMetrics.from_records(records),
        client_metrics=client_metrics,
        wall_seconds=watch.elapsed(),
        final_size=server.n_users,
        final_height=final_height,
        client_totals=client_totals,
        instrumentation=server.instrumentation,
        metrics_snapshot=snapshot,
    )


def _discard(payload: bytes) -> None:
    """The receiver of a mode that only counts copies."""


def run_sequences(config: ExperimentConfig, n_sequences: int = 3) -> List[ExperimentResult]:
    """The paper's protocol: repeat with ``n_sequences`` request sequences.

    The same sequences (same seeds) recur for every configuration that
    shares ``config.seed``, ``initial_size``, ``n_requests`` — the
    paper's fair-comparison discipline.
    """
    results = []
    for index in range(n_sequences):
        sequence_config = ExperimentConfig(**{**config.__dict__})
        sequence_config.seed = config.seed + b"/seq%d" % index
        results.append(run_experiment(sequence_config))
    return results


def merged_records(results: Sequence[ExperimentResult]) -> List[RequestRecord]:
    """Concatenate the records of several runs."""
    merged: List[RequestRecord] = []
    for result in results:
        merged.extend(result.records)
    return merged
