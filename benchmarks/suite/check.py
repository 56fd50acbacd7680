"""What makes a run count: output schema and end-of-run correctness.

``run.py`` calls both on every run and exits non-zero, loudly, when
either fails.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def verify_evidence(document: dict) -> List[str]:
    """End-of-run correctness of one worker document; [] when it holds.

    * every sampled member's group key equals the server's;
    * joins completed (a join is only recorded once its joiner has
      verified the ack and decrypted its path up to the group key);
    * the departed witness, holding every key it was ever given and fed
      every later rekey, holds nothing equal to the current group key;
    * the server's member count is what the acknowledged joins and
      leaves add up to;
    * attempted = completed + failed.
    """
    evidence = document["evidence"]
    problems = []
    server_key = evidence["server_group_key"]
    stale = [user for user, key in evidence["sampled_group_keys"].items()
             if key != server_key]
    if stale or not evidence["sampled_group_keys"]:
        problems.append(f"sampled members without the server's group key: "
                        f"{stale or 'no sampled members'}")
    if not evidence["joins_completed"]:
        problems.append("no joiner ever decrypted its path")
    if not evidence["witness_present"]:
        problems.append("no departed witness was set up")
    elif server_key in evidence["witness_keys"]:
        problems.append("a departed member holds the current group key")
    if evidence["server_members"] != evidence["expected_members"]:
        problems.append(
            f"server has {evidence['server_members']} members, the "
            f"acknowledged ops add up to {evidence['expected_members']}")
    if document["attempted"] != document["completed"] + document["failed"]:
        problems.append(
            f"attempted {document['attempted']} != completed "
            f"{document['completed']} + failed {document['failed']}")
    return problems


def validate_output(result: dict, benchmark: dict, traced: bool) -> List[str]:
    """Schema of the final JSON line against ``BENCHMARK.json``."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"unexpected keys {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key!r} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("'attempted' is below 1")
    expected: Dict[str, str] = {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if traced else "end_to_end"]}
    metrics = result["metrics"]
    for name in metrics:
        if not _NAME.match(name):
            problems.append(f"bad metric name {name!r}")
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"missing metric {name}")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} is not in BENCHMARK.json")
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if sorted(entry) != ["unit", "value"] or entry["unit"] != unit:
            problems.append(f"{name}: expected a value with unit {unit!r}")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not traced and value <= 0:
            problems.append(f"{name}: end-to-end value {value!r} is not "
                            f"positive")
    return problems
