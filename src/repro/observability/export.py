"""Exporters: Prometheus text exposition and ``repro-metrics/1`` snapshots.

Two interchange formats for one :class:`~repro.observability.metrics.
MetricRegistry`:

* :func:`to_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``, histograms as
  cumulative ``_bucket{le=...}`` series), for live scraping;
* :func:`build_snapshot` / :func:`validate_snapshot` — a versioned JSON
  document (``"schema": "repro-metrics/1"``) that freezes every series,
  merges across workers (:func:`~repro.observability.metrics.
  merge_snapshots`) and is sufficient on its own to regenerate the
  paper-shaped reports.

:func:`render_report` turns one snapshot back into the paper's
measurement tables — processing time per join/leave with percentiles
(Table 4 / Figure 10 shape), rekey message counts/sizes per request
(Table 5 shape), key changes per request (Table 6 / Figure 12 shape) —
plus a per-stage latency histogram table for the pipeline stages.
``python -m repro.observability report <snapshot.json>`` is the CLI
front end.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Union

from .metrics import (Histogram, MetricRegistry, NullMetricRegistry,
                      merge_snapshots)

SNAPSHOT_SCHEMA = "repro-metrics/1"

_SECTIONS = ("counters", "gauges", "histograms")


# -- snapshot document ---------------------------------------------------------


def build_snapshot(registry: Union[MetricRegistry, NullMetricRegistry],
                   label: str = "", spans: Optional[List[dict]] = None,
                   extra: Sequence[Union[MetricRegistry,
                                         NullMetricRegistry]] = ()
                   ) -> dict:
    """Wrap a registry snapshot in the versioned document envelope.

    ``extra`` registries (a worker pool's, the shared key-schedule
    cache's) are merged into the same document.
    """
    metrics = registry.snapshot()
    if extra:
        metrics = merge_snapshots(metrics,
                                  *(other.snapshot() for other in extra))
    document = {
        "schema": SNAPSHOT_SCHEMA,
        "label": label,
        "metrics": metrics,
    }
    if spans is not None:
        document["spans"] = spans
    return document


def validate_snapshot(document: dict) -> None:
    """Raise ``ValueError`` unless ``document`` is a valid snapshot."""
    if not isinstance(document, dict):
        raise ValueError("snapshot must be a JSON object")
    if document.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(f"unknown schema {document.get('schema')!r}; "
                         f"expected {SNAPSHOT_SCHEMA!r}")
    if "label" not in document or not isinstance(document["label"], str):
        raise ValueError("snapshot missing string field 'label'")
    metrics = document.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("snapshot missing object field 'metrics'")
    for section in _SECTIONS:
        families = metrics.get(section)
        if not isinstance(families, dict):
            raise ValueError(f"metrics missing section {section!r}")
        for name, entry in families.items():
            _validate_family(section, name, entry)
    if "spans" in document and not isinstance(document["spans"], list):
        raise ValueError("'spans' must be a list when present")


def _validate_family(section: str, name: str, entry: dict) -> None:
    if not isinstance(entry, dict):
        raise ValueError(f"{section}.{name} must be an object")
    for required in ("labels", "series"):
        if required not in entry:
            raise ValueError(f"{section}.{name} missing {required!r}")
    labelnames = entry["labels"]
    if not isinstance(entry["series"], list):
        raise ValueError(f"{section}.{name} series must be a list")
    if section == "histograms" and not isinstance(entry.get("bounds"), list):
        raise ValueError(f"{section}.{name} missing bucket bounds")
    for series in entry["series"]:
        if not isinstance(series, dict):
            raise ValueError(f"{section}.{name} has a non-object series")
        labels = series.get("labels")
        if (not isinstance(labels, dict)
                or sorted(labels) != sorted(labelnames)):
            raise ValueError(
                f"{section}.{name} series labels do not match {labelnames}")
        if section == "histograms":
            counts = series.get("counts")
            if (not isinstance(counts, list)
                    or len(counts) != len(entry["bounds"]) + 1):
                raise ValueError(
                    f"{section}.{name} series counts/bounds mismatch")
            for required in ("count", "sum", "min", "max"):
                if required not in series:
                    raise ValueError(
                        f"{section}.{name} series missing {required!r}")
        elif not isinstance(series.get("value"), (int, float)):
            raise ValueError(f"{section}.{name} series value must be numeric")


def write_snapshot(path: str, document: dict) -> None:
    """Validate then write a snapshot as stable, diff-friendly JSON."""
    validate_snapshot(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_snapshot(path: str) -> dict:
    """Read and validate a snapshot file."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    validate_snapshot(document)
    return document


# -- Prometheus text exposition ------------------------------------------------


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _escape_help(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_string(labels: Dict[str, str], extra: str = "") -> str:
    parts = [f'{name}="{_escape_label_value(str(value))}"'
             for name, value in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(source: Union[MetricRegistry, NullMetricRegistry, dict]
                  ) -> str:
    """Render a registry or snapshot in Prometheus text exposition format.

    Accepts a live registry, a registry snapshot, or a full
    ``repro-metrics/1`` document.  Output is deterministic: families
    sorted by name, series by label values.
    """
    if not isinstance(source, dict):
        metrics = source.snapshot()
    elif "schema" in source:
        metrics = source["metrics"]
    else:
        metrics = source
    lines: List[str] = []
    for section, prom_type in (("counters", "counter"), ("gauges", "gauge"),
                               ("histograms", "histogram")):
        for name in sorted(metrics.get(section, {})):
            entry = metrics[section][name]
            if entry.get("help"):
                lines.append(f"# HELP {name} {_escape_help(entry['help'])}")
            lines.append(f"# TYPE {name} {prom_type}")
            for series in entry["series"]:
                labels = series["labels"]
                if section == "histograms":
                    cumulative = 0
                    for bound, count in zip(entry["bounds"],
                                            series["counts"]):
                        cumulative += count
                        le = _label_string(
                            labels, f'le="{_format_value(bound)}"')
                        lines.append(f"{name}_bucket{le} {cumulative}")
                    cumulative += series["counts"][-1]
                    le = _label_string(labels, 'le="+Inf"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                    label_str = _label_string(labels)
                    lines.append(f"{name}_sum{label_str} "
                                 f"{_format_value(series['sum'])}")
                    lines.append(f"{name}_count{label_str} "
                                 f"{series['count']}")
                else:
                    label_str = _label_string(labels)
                    lines.append(f"{name}{label_str} "
                                 f"{_format_value(series['value'])}")
    return "\n".join(lines) + "\n" if lines else ""


# -- report rendering ----------------------------------------------------------


def _histograms(registry: MetricRegistry, name: str
                ) -> Dict[tuple, Histogram]:
    family = registry.get(name)
    if family is None:
        return {}
    return {tuple(sorted(zip(family.labelnames, values))): child
            for values, child in family.series()}


def _counter_values(metrics: dict, name: str) -> Dict[tuple, float]:
    entry = metrics.get("counters", {}).get(name)
    if entry is None:
        return {}
    return {tuple(sorted(series["labels"].items())): series["value"]
            for series in entry["series"]}


def _by_label(values: Dict[tuple, float], label: str) -> Dict[str, float]:
    folded: Dict[str, float] = {}
    for key, value in values.items():
        labels = dict(key)
        if label in labels:
            folded[labels[label]] = folded.get(labels[label], 0.0) + value
    return folded


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * width for width in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.3f}"


def render_report(document: dict) -> str:
    """Render one snapshot into the paper-shaped measurement report."""
    validate_snapshot(document)
    metrics = document["metrics"]
    # The report's quantiles are the registry's own bucket math.
    histograms = MetricRegistry()
    histograms.merge({"histograms": metrics.get("histograms", {})})
    sections: List[str] = []
    label = document.get("label") or "(unlabeled)"
    sections.append(f"repro-metrics report — {label}")

    # Table 4 / Figure 10 shape: server processing time per operation.
    run_views = _histograms(histograms, "rekey_seconds")
    ok_rows = []
    for key, view in sorted(run_views.items()):
        labels = dict(key)
        if labels.get("status") != "ok" or not view.count:
            continue
        ok_rows.append([labels.get("op", "?"), str(view.count),
                        _ms(view.mean), _ms(view.quantile(0.5)),
                        _ms(view.quantile(0.9)), _ms(view.quantile(0.99)),
                        _ms(view.min), _ms(view.max)])
    if ok_rows:
        sections.append(
            "Server processing time per request (CPU ms) — Table 4 shape\n"
            + _table(["op", "count", "mean", "p50", "p90", "p99", "min",
                      "max"], ok_rows))
    error_rows = []
    for key, view in sorted(run_views.items()):
        labels = dict(key)
        if labels.get("status") == "error" and view.count:
            error_rows.append([labels.get("op", "?"), str(view.count),
                               _ms(view.mean)])
    if error_rows:
        sections.append("Failed runs (recorded, not dropped)\n"
                        + _table(["op", "count", "mean ms"], error_rows))

    # Per-stage latency histogram table.
    stage_views = _histograms(histograms, "rekey_stage_seconds")
    stage_rows = []
    for key, view in sorted(stage_views.items()):
        labels = dict(key)
        if not view.count:
            continue
        stage_rows.append([labels.get("op", "?"), labels.get("stage", "?"),
                           str(view.count), _ms(view.mean),
                           _ms(view.quantile(0.5)), _ms(view.quantile(0.99)),
                           _ms(view.max)])
    if stage_rows:
        sections.append("Pipeline stage latency (CPU ms)\n"
                        + _table(["op", "stage", "count", "mean", "p50",
                                  "p99", "max"], stage_rows))

    # Table 5 shape: rekey messages and bytes per request, server side.
    requests = _by_label(_counter_values(metrics, "server_requests_total"),
                         "op")
    messages = _by_label(_counter_values(metrics, "rekey_messages_total"),
                         "op")
    rekey_bytes = _by_label(_counter_values(metrics, "rekey_bytes_total"),
                            "op")
    encryptions = _by_label(_counter_values(metrics, "encryptions_total"),
                            "op")
    signatures = _by_label(_counter_values(metrics, "signatures_total"), "op")
    size_views = _histograms(histograms, "rekey_message_bytes")
    table5_rows = []
    for op in sorted(set(requests) | set(messages)):
        n_requests = requests.get(op, 0.0)
        if not n_requests:
            continue
        size_view = None
        for key, view in size_views.items():
            if dict(key).get("op") == op:
                size_view = view
        size_cell = (f"{size_view.min:.0f}/{size_view.mean:.1f}/"
                     f"{size_view.max:.0f}" if size_view and size_view.count
                     else "-")
        table5_rows.append([
            op, str(int(n_requests)),
            f"{messages.get(op, 0.0) / n_requests:.2f}",
            size_cell,
            f"{rekey_bytes.get(op, 0.0) / n_requests:.1f}",
            f"{encryptions.get(op, 0.0) / n_requests:.2f}",
            f"{signatures.get(op, 0.0) / n_requests:.2f}",
        ])
    if table5_rows:
        sections.append(
            "Rekey cost per request — Table 5 shape\n"
            + _table(["op", "requests", "msgs/req",
                      "msg bytes min/mean/max", "bytes/req", "encr/req",
                      "sigs/req"], table5_rows))

    # Table 6 / Figure 12 shape: the client side.
    key_changes = _by_label(_counter_values(metrics, "key_changes_total"),
                            "op")
    copies = _by_label(_counter_values(metrics, "client_copies_total"), "op")
    table6_rows = []
    for op in sorted(set(key_changes) | set(copies)):
        n_requests = requests.get(op, 0.0)
        if not n_requests:
            continue
        table6_rows.append([
            op,
            f"{key_changes.get(op, 0.0) / n_requests:.2f}",
            f"{copies.get(op, 0.0) / n_requests:.2f}",
        ])
    if table6_rows:
        sections.append(
            "Client-side cost per request — Table 6 shape\n"
            + _table(["op", "key changes/req", "message copies/req"],
                     table6_rows))

    # Everything else: compact counter/gauge dump.
    leftovers = []
    shown = {"server_requests_total", "rekey_messages_total",
             "rekey_bytes_total", "encryptions_total", "signatures_total",
             "key_changes_total", "client_copies_total"}
    for section in ("counters", "gauges"):
        for name in sorted(metrics.get(section, {})):
            if name in shown:
                continue
            for series in metrics[section][name]["series"]:
                labels = _label_string(series["labels"])
                leftovers.append([f"{name}{labels}",
                                  _format_value(series["value"])])
    if leftovers:
        sections.append("Other series\n" + _table(["series", "value"],
                                                  leftovers))

    return "\n\n".join(sections) + "\n"
