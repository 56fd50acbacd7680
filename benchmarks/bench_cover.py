"""Key-covering benchmark: cover size and compute across subset shapes.

Three tiers, mirroring how the covering engine is actually used:

* **set-cover instances** (tiny universes) — ``exact_cover`` vs
  ``greedy_cover`` vs ``partition_cover``: the NP-hard general problem
  where exhaustive search is still feasible, establishing how far the
  approximations sit from optimal;
* **medium trees** (n=4096) — ``greedy_tree_cover`` vs the structural
  ``tree_subset_cover`` on both size and compute, across three subset
  shapes: *random* (uniform sample), *clustered* (contiguous member
  windows, the friendly case for subtree covers), and *adversarial*
  (every-other-leaf striding, which defeats all internal nodes);
* **flat at scale** (n=100k quick / n=1M full) — the array-backed
  ``tree_subset_cover`` fast path covering ``|S|=10k`` subsets without
  materializing a single userset.

Usage::

    python benchmarks/bench_cover.py            # full run (n=1M)
    python benchmarks/bench_cover.py --quick    # CI smoke (n=100k)
    python benchmarks/bench_cover.py --check    # enforce the floors
    python benchmarks/bench_cover.py --out X.json

Writes a ``repro-bench/1`` JSON report (default ``BENCH_PR9.json`` at
the repo root) via :mod:`bench_io`.  ``--check`` gates the structural
cover at <= 2x the greedy cover size wherever both run, and the flat
``|S|=10k`` cover compute under one second.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench_io  # noqa: E402
from repro.keygraph.covering import (exact_cover,  # noqa: E402
                                     greedy_cover, greedy_tree_cover,
                                     group_from_set_cover, is_cover,
                                     partition_cover, tree_subset_cover)
from repro.keygraph.flat import FlatKeyTree  # noqa: E402

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_PR9.json")
DEGREE = 4
MEDIUM_N = 4096
SUBSET_SIZE = 10_000

#: ``--check`` floors.
COVER_RATIO_CEILING = 2.0     # structural cover <= 2x greedy, per shape
SUBSET_TIME_CEILING_S = 1.0   # flat tree_subset_cover, |S|=10k


def _counter_keygen():
    state = [0]

    def keygen():
        state[0] += 1
        return state[0].to_bytes(8, "big")
    return keygen


def _subset(shape: str, users, size: int, rng) -> list:
    """One subset of ``size`` members in the named shape."""
    if shape == "random":
        return rng.sample(users, size)
    if shape == "clustered":
        # A handful of contiguous windows: the friendly case, where
        # whole subtrees are fully selected and the cover collapses.
        windows = max(1, size // 512)
        width = size // windows
        picked = []
        for _ in range(windows):
            start = rng.randrange(len(users) - width + 1)
            picked.extend(users[start:start + width])
        seen = set()
        return [u for u in picked
                if u not in seen and not seen.add(u)][:size] or picked[:size]
    if shape == "adversarial":
        # Every other leaf: no internal node is ever fully selected, so
        # the cover degenerates to |S| individual keys — the worst case.
        start = rng.randrange(2)
        return users[start:start + 2 * size:2][:size]
    raise ValueError(f"unknown shape {shape!r}")


def _bench_set_cover(report, rng):
    """Tiny NP-hard instances: exact vs the two approximations."""
    sizes = {"exact": 0, "greedy": 0, "partition": 0}
    rounds = 24
    for _ in range(rounds):
        n = rng.randint(8, 14)
        universe = list(range(n))
        subsets = [rng.sample(universe, rng.randint(1, n))
                   for _ in range(rng.randint(3, 6))]
        group = group_from_set_cover(universe, subsets)
        target = [f"e{e}" for e in rng.sample(universe, rng.randint(2, n))]
        exact = exact_cover(group, target)
        greedy = greedy_cover(group, target)
        approx = partition_cover(group, target)
        for cover in (exact, greedy, approx):
            assert is_cover(group, cover, target)
        sizes["exact"] += len(exact)
        sizes["greedy"] += len(greedy)
        sizes["partition"] += len(approx)
    for name in ("greedy", "partition"):
        ratio = sizes[name] / sizes["exact"]
        bench_io.add_metric(report, f"setcover_{name}_vs_exact", "ratio",
                            ratio)
        print(f"  set-cover {name:>9} vs exact : {ratio:.3f}x "
              f"({sizes[name]} vs {sizes['exact']} keys, {rounds} instances)")


def _bench_medium_tree(report, rng):
    """n=4096 tree: greedy vs structural, three subset shapes."""
    users = [f"m{index:05d}" for index in range(MEDIUM_N)]
    tree = FlatKeyTree.build([(u, bytes(8)) for u in users], DEGREE,
                             _counter_keygen())
    ratios = {}
    for shape in ("random", "clustered", "adversarial"):
        subset = _subset(shape, users, 512, rng)
        start = time.perf_counter()
        structural = tree_subset_cover(tree, subset)
        structural_s = time.perf_counter() - start
        start = time.perf_counter()
        greedy = greedy_tree_cover(tree, subset)
        greedy_s = time.perf_counter() - start
        ratio = len(structural) / len(greedy)
        ratios[shape] = ratio
        bench_io.add_metric(report, f"tree4096_{shape}_cover_keys", "keys",
                            len(structural))
        bench_io.add_metric(report, f"tree4096_{shape}_size_ratio", "ratio",
                            ratio)
        bench_io.add_metric(report, f"tree4096_{shape}_structural_ms", "ms",
                            structural_s * 1e3)
        bench_io.add_metric(report, f"tree4096_{shape}_greedy_ms", "ms",
                            greedy_s * 1e3)
        print(f"  n=4096 {shape:>11} |S|=512 : {len(structural):4d} keys, "
              f"structural {structural_s * 1e3:7.2f} ms vs greedy "
              f"{greedy_s * 1e3:7.2f} ms")
    return ratios


def _bench_flat_scale(report, n_members: int, rng):
    """The flat fast path at scale: |S|=10k covers, per shape."""
    users = [f"u{index:07d}" for index in range(n_members)]
    print(f"  building flat tree n={n_members} ...", end="", flush=True)
    start = time.perf_counter()
    tree = FlatKeyTree.build([(u, bytes(8)) for u in users], DEGREE,
                             _counter_keygen())
    build_s = time.perf_counter() - start
    print(f" {build_s:.1f} s")
    bench_io.add_metric(report, f"flat_build_n{n_members}", "s", build_s)

    times = {}
    for shape in ("random", "clustered", "adversarial"):
        subset = _subset(shape, users, SUBSET_SIZE, rng)
        start = time.perf_counter()
        cover = tree_subset_cover(tree, subset)
        elapsed = time.perf_counter() - start
        times[shape] = elapsed
        bench_io.add_metric(report, f"flat_{shape}_subset10k_cover_keys",
                            "keys", len(cover))
        bench_io.add_metric(report, f"flat_{shape}_subset10k_cover_s", "s",
                            elapsed)
        print(f"  n={n_members} {shape:>11} |S|=10k : {len(cover):5d} keys "
              f"in {elapsed * 1e3:7.1f} ms")
    return times


def run(quick: bool, out_path: str, check: bool) -> int:
    rng = random.Random(0x90441)
    report = bench_io.new_report("PR9", quick)
    n_members = 100_000 if quick else 1_000_000
    print(f"key-covering benchmark ({'quick' if quick else 'full'} run)")

    _bench_set_cover(report, rng)
    ratios = _bench_medium_tree(report, rng)
    times = _bench_flat_scale(report, n_members, rng)

    bench_io.write_report(out_path, report)
    print(f"wrote {out_path}")

    if check:
        failures = []
        for shape, ratio in ratios.items():
            status = "ok" if ratio <= COVER_RATIO_CEILING else "FAIL"
            print(f"  ceiling tree4096_{shape}: {ratio:.3f}x <= "
                  f"{COVER_RATIO_CEILING}x  [{status}]")
            if ratio > COVER_RATIO_CEILING:
                failures.append(f"{shape} cover ratio {ratio:.3f}")
        worst = max(times.values())
        status = "ok" if worst <= SUBSET_TIME_CEILING_S else "FAIL"
        print(f"  ceiling flat |S|=10k cover: {worst * 1e3:.1f} ms <= "
              f"{SUBSET_TIME_CEILING_S * 1e3:.0f} ms  [{status}]")
        if worst > SUBSET_TIME_CEILING_S:
            failures.append(f"flat cover {worst:.3f} s")
        if failures:
            print(f"cover checks failed: {', '.join(failures)}",
                  file=sys.stderr)
            return 1
        print("all cover checks passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="n=100k trees (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="enforce the cover size/time ceilings")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    return run(args.quick, args.out, args.check)


if __name__ == "__main__":
    raise SystemExit(main())
