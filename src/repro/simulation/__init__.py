"""Experiment harness: workload generation, client simulation, metrics."""

from .clients import ClientSimulator, SimulatorError
from .metrics import (ClientMetrics, MessageSizeSample, OpMetrics,
                      ServerMetrics, Summary)
from .runner import (CLIENT_MODES, ExperimentConfig, ExperimentResult,
                     merged_records, run_experiment, run_sequences)
from .workload import (JOIN, LEAVE, Request, generate_workload,
                       initial_members, paper_sequences)

__all__ = [
    "ClientSimulator", "SimulatorError",
    "ClientMetrics", "MessageSizeSample", "OpMetrics", "ServerMetrics",
    "Summary",
    "ExperimentConfig", "ExperimentResult", "CLIENT_MODES",
    "run_experiment", "run_sequences", "merged_records",
    "JOIN", "LEAVE", "Request", "generate_workload", "initial_members",
    "paper_sequences",
]
