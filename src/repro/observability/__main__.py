"""CLI for metrics snapshots: validate, report, Prometheus, SLOs, traces.

Usage::

    python -m repro.observability report <snapshot.json>
    python -m repro.observability report --scrape 127.0.0.1:PORT
    python -m repro.observability validate <snapshot.json>
    python -m repro.observability prom <snapshot.json>
    python -m repro.observability slo <snapshot.json> --spec keyserver.spec
    python -m repro.observability timeline <trace-or-snapshot.json>

``report`` renders the paper-shaped measurement tables (processing-time
percentiles per op, rekey cost per request, client-side cost) from one
``repro-metrics/1`` snapshot; ``--scrape`` pulls a live snapshot from a
running key service (``python -m repro.serve``) instead of a file.
``validate`` checks a snapshot against the schema (used by CI);
``prom`` prints the Prometheus text exposition.  ``slo`` grades the
spec file's ``slo-*`` objectives against a snapshot (``--old`` adds
burn rates over the window between two snapshots).  ``timeline``
renders one trace as a text waterfall from exported spans — a
snapshot's ``spans`` sidecar, any document with a ``spans`` list, or a
bare span list.
"""

from __future__ import annotations

import argparse
import json
import sys

from .export import load_snapshot, render_report, to_prometheus
from .slo import burn_rate, evaluate, render_slo_report, slos_from_spec_text
from .timeline import render_timeline, render_trace_index


def _obtain(args) -> dict:
    if getattr(args, "scrape", None):
        from ..transport.udp import scrape_stats
        host, _, port = args.scrape.rpartition(":")
        return scrape_stats((host or "127.0.0.1", int(port)))
    if not args.snapshot:
        raise SystemExit("error: provide a snapshot path or --scrape")
    return load_snapshot(args.snapshot)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.observability",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report",
                            help="render the paper-shaped report tables")
    report.add_argument("snapshot", nargs="?",
                        help="path to a repro-metrics/1 JSON snapshot")
    report.add_argument("--scrape", metavar="HOST:PORT",
                        help="scrape a live key service (python -m "
                             "repro.serve) instead of a file")

    validate = sub.add_parser("validate",
                              help="check a snapshot against the schema")
    validate.add_argument("snapshot")

    prom = sub.add_parser("prom",
                          help="print Prometheus text exposition")
    prom.add_argument("snapshot", nargs="?")
    prom.add_argument("--scrape", metavar="HOST:PORT")

    slo = sub.add_parser("slo",
                         help="grade spec-file objectives on a snapshot")
    slo.add_argument("snapshot", nargs="?")
    slo.add_argument("--scrape", metavar="HOST:PORT")
    slo.add_argument("--spec", required=True,
                     help="spec file declaring slo-* objectives")
    slo.add_argument("--old", metavar="SNAPSHOT",
                     help="earlier snapshot; adds burn rates over the "
                          "window between the two")
    slo.add_argument("--check", action="store_true",
                     help="exit 1 when any objective is breached")

    timeline = sub.add_parser(
        "timeline", help="render one trace as a text waterfall")
    timeline.add_argument("spans",
                          help="JSON with exported spans (snapshot "
                               "sidecar, trace document, or bare list)")
    timeline.add_argument("--trace-id", type=int, default=None,
                          help="trace to render (default: most spans)")
    timeline.add_argument("--list", action="store_true",
                          help="list traces instead of rendering one")

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            load_snapshot(args.snapshot)
            print(f"OK: {args.snapshot} conforms to repro-metrics/1")
            return 0
        if args.command == "timeline":
            return _timeline(args)
        document = _obtain(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    if args.command == "report":
        sys.stdout.write(render_report(document))
    elif args.command == "slo":
        return _slo(args, document)
    else:
        sys.stdout.write(to_prometheus(document))
    return 0


def _read_spans(path: str) -> list:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if isinstance(document, list):
        return document
    spans = document.get("spans")
    if not isinstance(spans, list):
        raise ValueError(f"{path}: no spans found")
    return spans


def _timeline(args) -> int:
    try:
        spans = _read_spans(args.spans)
        if args.list:
            sys.stdout.write(render_trace_index(spans))
        else:
            sys.stdout.write(render_timeline(spans,
                                             trace_id=args.trace_id))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    return 0


def _slo(args, document: dict) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        slos = slos_from_spec_text(handle.read())
    if not slos:
        print(f"no slo-* objectives declared in {args.spec}",
              file=sys.stderr)
        return 1
    statuses = evaluate(slos, document)
    burn_rates = None
    if args.old:
        older = load_snapshot(args.old)
        burn_rates = {slo.name: burn_rate(slo, older, document)
                      for slo in slos}
    sys.stdout.write(render_slo_report(statuses, burn_rates))
    if args.check and any(not status.compliant for status in statuses):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
