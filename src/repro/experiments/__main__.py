"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.experiments                # quick parameters
    python -m repro.experiments --paper        # the paper's parameters
    python -m repro.experiments table5 fig10   # a subset
"""

from __future__ import annotations

import argparse
import sys

from ..observability import Stopwatch
from . import ALL_EXPERIMENTS, PAPER, QUICK


def _key(text: str) -> str:
    return (text.lower().replace(" ", "").replace(":", "")
            .replace("figure", "fig"))


def select(names):
    """The ``(title, runner)`` pairs of ``ALL_EXPERIMENTS`` that any of
    ``names`` selects, all of them when ``names`` is empty.

    A name selects an experiment when it is a substring of the title,
    ignoring case, spaces and colons, with ``fig`` standing for
    ``figure``: ``fig10`` and ``figure10`` both select Figure 10.
    """
    keys = [_key(name) for name in names]
    return [(title, runner) for title, runner in ALL_EXPERIMENTS
            if not keys or any(key in _key(title) for key in keys)]


def main(argv=None) -> int:
    """Parse arguments and dispatch."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the SIGCOMM '98 key-graphs tables/figures.")
    parser.add_argument("--paper", action="store_true",
                        help="use the paper's full parameters "
                             "(n=8192, 1000 requests; slow in pure Python)")
    parser.add_argument("--plot", action="store_true",
                        help="also render Figures 10-12 as ASCII charts")
    parser.add_argument("--output", metavar="PATH",
                        help="also append the formatted tables to a file")
    parser.add_argument("names", nargs="*",
                        help="experiment name filters, e.g. 'table5' 'fig10'")
    args = parser.parse_args(argv)
    scale = PAPER if args.paper else QUICK

    selected = select(args.names)
    if not selected:
        parser.error(f"no experiment matches {args.names}")

    sink = open(args.output, "a", encoding="utf-8") if args.output else None
    for title, runner in selected:
        watch = Stopwatch()
        table = runner(scale)
        elapsed = watch.elapsed()
        print(table.format())
        if sink is not None:
            sink.write(table.format() + "\n\n")
            sink.flush()
        if args.plot:
            from . import plot
            charts = {"Figure 10": plot.fig10_chart,
                      "Figure 11": plot.fig11_chart,
                      "Figure 12": plot.fig12_chart}
            if title in charts:
                print()
                print(charts[title](table))
        print(f"[{title} regenerated in {elapsed:.1f}s at scale "
              f"'{scale.name}']")
        print()
    if sink is not None:
        sink.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
