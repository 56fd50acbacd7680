"""Million-member scaling sweep for the flat key tree.

The paper's evaluation stops at n = 8192 (Figure 10); the flat
array-backed storage engine exists to push the same server three
orders of magnitude further.  This harness measures, at each group
size on :class:`~repro.keygraph.flat.FlatKeyTree`:

* bulk-build throughput (members/s) and storage bytes per member,
* steady-state churn throughput (leave+join rekeys/s at size n),
* peak process RSS,

plus three one-off comparisons:

* flat vs ``KeyTree`` (the one-object-per-node reference) build memory
  (tracemalloc, moderate n),
* ``TreeNode`` per-instance size with ``__slots__`` vs the same
  fields on a ``__dict__`` class (the before/after for the slots
  satellite),
* journal replay vs full bootstrap at restart (the "restart replays
  instead of rebuilding" claim), with a byte-identity check.

Results land in ``BENCH_PR6.json`` (``repro-bench/1`` schema,
validated by ``benchmarks/bench_io.py``).  Modes:

``--quick``
    Sweep stops at n = 100 000 (CI's bench-smoke job).
``--check``
    Gate peak RSS and minimum rekeys/s, and require the journal
    round-trip to be byte-identical; non-zero exit on violation.

Run: ``PYTHONPATH=src python -m repro.experiments.million_scale``
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import sys
import tempfile
import time
import tracemalloc
from typing import Callable, List, Tuple

from ..core import persistence
from ..core.server import GroupKeyServer, ServerConfig
from ..keygraph.flat import FlatKeyTree
from ..keygraph.tree import KeyTree, TreeNode

DEGREE = 4
KEY_LEN = 16

# Sweep sizes: --quick stops at 100k (CI), the full run reaches 1M.
QUICK_SIZES = (10_000, 100_000)
FULL_SIZES = (10_000, 100_000, 1_000_000)

# --check gates (calibrated ~4x slack under the measured CI-class
# numbers so the smoke job catches regressions, not machine jitter).
CHECK_MIN_REKEYS_PER_S = 2_000.0     # churn at the largest swept n
CHECK_MAX_RSS_MB = {True: 1_536.0,   # quick: n = 100k
                    False: 8_192.0}  # full:  n = 1M


def _keygen(seed: bytes) -> Callable[[], bytes]:
    """Fast deterministic key source (bench only — not the DRBG)."""
    rng = random.Random(seed)
    return lambda: rng.randbytes(KEY_LEN)


def _members(n: int) -> List[Tuple[str, bytes]]:
    rng = random.Random(b"million-members")
    return [(f"u{i:07d}", rng.randbytes(KEY_LEN)) for i in range(n)]


def _peak_rss_mb() -> float:
    """High-water RSS of this process in MiB (Linux: ru_maxrss is KiB)."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak_kb /= 1024.0
    return peak_kb / 1024.0


# -- sweep stages ----------------------------------------------------------

def sweep_size(n: int, churn_ops: int) -> dict:
    """Build an n-member flat tree, then churn it; return the numbers."""
    members = _members(n)
    gc.collect()
    start = time.perf_counter()
    tree = FlatKeyTree.build(members, DEGREE, _keygen(b"sweep-build"))
    build_s = time.perf_counter() - start
    storage = tree.storage_bytes()

    # Steady-state churn at size n: each op pair is one leave rekey
    # plus one join rekey through the O(log n) joining-point descent.
    rng = random.Random(b"churn")
    keygen = _keygen(b"churn-keys")
    start = time.perf_counter()
    for _ in range(churn_ops):
        user = f"u{rng.randrange(n):07d}"
        if tree.has_user(user):
            tree.leave(user)
        else:
            tree.join(user, keygen())
    churn_s = time.perf_counter() - start
    tree.validate()

    del tree, members
    gc.collect()
    return {
        "n": n,
        "build_members_per_s": n / build_s,
        "storage_bytes_per_member": storage / n,
        "rekeys_per_s": churn_ops / churn_s,
    }


def backend_memory(n: int) -> dict:
    """tracemalloc'd build footprint: flat vs the KeyTree reference."""
    members = _members(n)
    sizes = {}
    for name, tree_class in (("flat", FlatKeyTree), ("object", KeyTree)):
        gc.collect()
        tracemalloc.start()
        tree = tree_class.build(members, DEGREE, _keygen(b"mem"))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        sizes[name] = peak / n
        del tree
        gc.collect()
    return {"n": n,
            "flat_bytes_per_member": sizes["flat"],
            "object_bytes_per_member": sizes["object"]}


def slots_note() -> dict:
    """Per-instance TreeNode bytes: ``__slots__`` vs a ``__dict__`` twin."""
    class DictNode:  # the pre-slots shape: same fields, instance __dict__
        def __init__(self, node_id, key, user_id):
            self.node_id = node_id
            self.key = key
            self.version = 0
            self.user_id = user_id
            self.parent = None
            self.children = []

    slotted = TreeNode(1, b"\x00" * KEY_LEN, "u1")
    plain = DictNode(1, b"\x00" * KEY_LEN, "u1")
    return {
        "slots_bytes": sys.getsizeof(slotted),
        "dict_bytes": sys.getsizeof(plain) + sys.getsizeof(plain.__dict__),
    }


def journal_restart(n: int, ops: int) -> dict:
    """Restart-by-replay vs rebuild-by-bootstrap, with identity check."""
    config = ServerConfig(degree=DEGREE, strategy="group",
                          seed=b"million-journal")
    members = [(f"j{i:05d}", b"\x00" * 8) for i in range(n)]
    fd, path = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    try:
        server = GroupKeyServer(config)
        persistence.attach_journal(server, path)
        server.bootstrap(members)
        present = [user_id for user_id, _ in members]
        rng = random.Random(b"journal-churn")
        for i in range(ops):
            if i % 3 == 2 and present:
                server.leave(present.pop(rng.randrange(len(present))))
            else:
                server.join(f"x{i:05d}", server.new_individual_key())

        start = time.perf_counter()
        replayed = persistence.restore_from_journal(path)
        replay_s = time.perf_counter() - start
        identical = (persistence.snapshot(replayed)
                     == persistence.snapshot(server))

        # The alternative restart path: rebuild from scratch and re-run
        # every op through the full rekey pipeline.
        start = time.perf_counter()
        rebuilt = GroupKeyServer(config)
        rebuilt.bootstrap(members)
        present = [user_id for user_id, _ in members]
        rng = random.Random(b"journal-churn")
        for i in range(ops):
            if i % 3 == 2 and present:
                rebuilt.leave(present.pop(rng.randrange(len(present))))
            else:
                rebuilt.join(f"x{i:05d}", rebuilt.new_individual_key())
        rebuild_s = time.perf_counter() - start
    finally:
        os.unlink(path)
    return {"n": n, "ops": ops, "identical": identical,
            "replay_ms": replay_s * 1e3, "rebuild_ms": rebuild_s * 1e3}


# -- report ----------------------------------------------------------------

def run(quick: bool) -> dict:
    """Execute the sweep and return a ``repro-bench/1`` report."""
    report = {
        "schema": "repro-bench/1",
        "label": "PR6",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "metrics": {},
    }

    def metric(name, unit, value, baseline=None):
        entry = {"unit": unit, "value": round(float(value), 4)}
        if baseline is not None:
            entry["baseline"] = round(float(baseline), 4)
            entry["speedup"] = (round(value / baseline, 2)
                                if baseline > 0 else None)
        report["metrics"][name] = entry
        extra = f"  (baseline {entry.get('baseline')})" if baseline else ""
        print(f"  {name}: {entry['value']} {unit}{extra}")

    sizes = QUICK_SIZES if quick else FULL_SIZES
    for n in sizes:
        churn_ops = 2_000 if n >= 100_000 else 1_000
        print(f"[sweep] flat tree, n={n:,} ...")
        row = sweep_size(n, churn_ops)
        tag = f"n{n // 1000}k" if n < 1_000_000 else f"n{n // 1_000_000}m"
        metric(f"flat_build_{tag}", "members/s", row["build_members_per_s"])
        metric(f"flat_storage_{tag}", "bytes/member",
               row["storage_bytes_per_member"])
        metric(f"flat_rekeys_{tag}", "rekeys/s", row["rekeys_per_s"])

    print("[memory] flat vs KeyTree build footprint ...")
    mem = backend_memory(20_000 if quick else 100_000)
    metric(f"build_mem_n{mem['n'] // 1000}k", "bytes/member",
           mem["flat_bytes_per_member"],
           baseline=mem["object_bytes_per_member"])

    note = slots_note()
    print("[slots] TreeNode per-instance size ...")
    metric("treenode_slots", "bytes", note["slots_bytes"],
           baseline=note["dict_bytes"])

    print("[journal] restart by replay vs rebuild ...")
    jr = journal_restart(512 if quick else 2_048, 300 if quick else 600)
    metric("journal_replay", "ms", jr["replay_ms"],
           baseline=jr["rebuild_ms"])
    metric("journal_replay_identical", "bool", 1.0 if jr["identical"]
           else 0.0)

    metric("peak_rss", "MB", _peak_rss_mb())
    return report


def check(report: dict, quick: bool) -> List[str]:
    """Gate the report; returns a list of violations (empty = pass)."""
    failures = []
    metrics = report["metrics"]
    rss = metrics["peak_rss"]["value"]
    rss_cap = CHECK_MAX_RSS_MB[quick]
    if rss > rss_cap:
        failures.append(f"peak RSS {rss:.0f} MB exceeds cap {rss_cap} MB")
    top = "flat_rekeys_n100k" if quick else "flat_rekeys_n1m"
    rate = metrics[top]["value"]
    if rate < CHECK_MIN_REKEYS_PER_S:
        failures.append(f"{top} {rate:.0f} rekeys/s below floor "
                        f"{CHECK_MIN_REKEYS_PER_S:.0f}")
    if metrics["journal_replay_identical"]["value"] != 1.0:
        failures.append("journal replay was not byte-identical")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="stop the sweep at n=100k (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="gate peak RSS / rekeys/s / replay identity")
    parser.add_argument("--out", default="BENCH_PR6.json",
                        help="report path (default: BENCH_PR6.json)")
    args = parser.parse_args(argv)

    report = run(args.quick)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out} ({len(report['metrics'])} metrics)")

    if args.check:
        failures = check(report, args.quick)
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
