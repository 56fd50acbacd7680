"""Determinism self-test of the suite (not in tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py

Runs workers at ``--scale 0.02`` with a fixed op count, so counts
repeat exactly; the whole file takes well under 20 s.
"""

import json
import os
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_SMALL = ["--scale", "0.02", "--seconds", "30"]


def _worker(*args):
    completed = subprocess.run(
        [sys.executable, os.path.join(_HERE, "worker.py"), *_SMALL, *args],
        env=dict(os.environ, PYTHONHASHSEED="0"), stdout=subprocess.PIPE,
        text=True, timeout=60, check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _core_churn(seed):
    return _worker("--workload", "core_churn", "--seed", str(seed),
                   "--ops", "120", "--trace", "1")


def test_same_seed_repeats_schedule_and_counts():
    first, second = _core_churn(5), _core_churn(5)
    assert first["failed"] == second["failed"] == 0
    assert (first["diagnostics"]["schedule_digest"]
            == second["diagnostics"]["schedule_digest"])
    for name in ("crypto.encryptions_per_op", "core.messages_per_op"):
        assert first["per_layer"][name] == second["per_layer"][name] > 0
    assert (first["end_to_end"]["rekey_bytes_per_op"]
            == second["end_to_end"]["rekey_bytes_per_op"] > 0)


def test_different_seed_changes_schedule():
    assert (_core_churn(5)["diagnostics"]["schedule_digest"]
            != _core_churn(6)["diagnostics"]["schedule_digest"])


def test_open_loop_charges_a_generator_stall_to_the_request():
    # Latency runs from when a request was due, so a 50 ms stall of the
    # generator shows up in full on the request it held back.
    document = _worker("--workload", "serve_open_mixed", "--seed", "5",
                       "--ops", "120", "--stall-ms", "50")
    assert document["failed"] == 0
    assert document["diagnostics"]["sched_lag_max_ms"] >= 50.0
    assert document["diagnostics"]["stalled_request_ms"] >= 50.0
