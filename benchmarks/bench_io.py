"""Benchmark report schema, writer and validator.

The two scaling experiments (``experiments/cluster_scale.py`` and
``repro.experiments.million_scale``) write their reports through this
module, so both have one stable on-disk shape.  A report is a JSON
object:

.. code-block:: json

    {
      "schema": "repro-bench/1",
      "label": "PR6",
      "python": "3.11.7",
      "platform": "Linux-...",
      "quick": false,
      "metrics": {
        "build_mem_n100k": {
          "unit": "bytes/member", "value": 258.692,
          "baseline": 381.207, "speedup": 0.68
        }
      }
    }

``value`` is the measurement; ``baseline``, when present, is the same
quantity for the design it replaces, measured by the same harness in
the same process, and ``speedup`` is their ratio.  Metrics without a
``baseline`` are absolute observations.

Run ``python benchmarks/bench_io.py <report.json>`` to validate a file
(CI's bench-smoke job does this for the quick-run output).
"""

from __future__ import annotations

import json
import platform
import sys
from typing import Optional

SCHEMA_VERSION = "repro-bench/1"

_TOP_LEVEL_REQUIRED = ("schema", "label", "python", "platform", "quick",
                       "metrics")


def new_report(label: str, quick: bool) -> dict:
    """An empty report shell stamped with the environment."""
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": bool(quick),
        "metrics": {},
    }


def add_metric(report: dict, name: str, unit: str, value: float,
               baseline: Optional[float] = None) -> dict:
    """Record one metric; computes ``speedup`` when a baseline is given."""
    metric: dict = {"unit": unit, "value": round(float(value), 4)}
    if baseline is not None:
        metric["baseline"] = round(float(baseline), 4)
        metric["speedup"] = (round(value / baseline, 2) if baseline > 0
                             else None)
    report["metrics"][name] = metric
    return metric


def validate_report(report: dict) -> None:
    """Raise ``ValueError`` unless ``report`` conforms to the schema."""
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    for field_name in _TOP_LEVEL_REQUIRED:
        if field_name not in report:
            raise ValueError(f"report missing field {field_name!r}")
    if report["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unknown schema {report['schema']!r}")
    if not isinstance(report["quick"], bool):
        raise ValueError("'quick' must be a boolean")
    metrics = report["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("'metrics' must be a non-empty object")
    for name, metric in metrics.items():
        if not isinstance(metric, dict):
            raise ValueError(f"metric {name!r} must be an object")
        for required in ("unit", "value"):
            if required not in metric:
                raise ValueError(f"metric {name!r} missing {required!r}")
        if not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name!r} value must be numeric")
        if "baseline" in metric:
            if not isinstance(metric["baseline"], (int, float)):
                raise ValueError(f"metric {name!r} baseline must be numeric")
            if "speedup" not in metric:
                raise ValueError(f"metric {name!r} has baseline but no speedup")


def write_report(path: str, report: dict) -> None:
    """Validate then write ``report`` as stable, diff-friendly JSON."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict:
    """Read and validate a report file."""
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    validate_report(report)
    return report


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python benchmarks/bench_io.py <report.json>",
              file=sys.stderr)
        return 2
    try:
        report = load_report(argv[1])
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"OK: {argv[1]} ({report['label']}, "
          f"{len(report['metrics'])} metrics)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
