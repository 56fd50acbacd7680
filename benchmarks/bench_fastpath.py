"""Crypto fast-path benchmark: fast implementations vs frozen references.

Measures the motivated workload — a rekey-item stream: many independent
two-block CBC items under a rotating working set of keys, exactly the
shape the pipeline's encrypt stage sees during star rekeys and interval
batch flushes — through both the path that ships (key-schedule cache +
table rounds + integer CBC chaining, one item at a time, as
``RekeyContext.materialize`` runs it) and the pre-optimization
formulations preserved in :mod:`repro.crypto.reference` (per-item
cipher construction + byte-wise chaining, as shipped before the fast
path), plus RSA signing
(cached-CRT vs textbook full exponentiation) and end-to-end server
rekey throughput (star vs tree at n=1024).

Usage::

    python benchmarks/bench_fastpath.py            # full run
    python benchmarks/bench_fastpath.py --quick    # CI smoke (seconds)
    python benchmarks/bench_fastpath.py --check    # enforce speedup floors
    python benchmarks/bench_fastpath.py --out X.json

Writes a ``repro-bench/1`` JSON report (default ``BENCH_PR2.json`` at
the repo root) via :mod:`bench_io`.
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
from repro.core.server import GroupKeyServer, ServerConfig  # noqa: E402
from repro.crypto import modes, reference, rsa  # noqa: E402
from repro.crypto.keycache import SHARED_CACHE  # noqa: E402
from repro.crypto.reference import ReferenceAES, ReferenceDES  # noqa: E402
from repro.crypto.suite import (CipherSuite,  # noqa: E402
                                PAPER_SUITE_NO_SIG)

DEFAULT_OUT = os.path.join(_ROOT, "BENCH_PR2.json")

#: Acceptance floors (``--check``): fast path vs reference baseline.
SPEEDUP_FLOORS = {
    "aes_cbc_rekey_stream": 5.0,
    "des_cbc_rekey_stream": 3.0,
    "rsa_sign_512": 2.0,
}

_WORKING_SET = 32          # distinct keys rotating through the stream


def _baseline_cbc_nopad(cipher, padded: bytes, iv: bytes) -> bytes:
    """Byte-wise CBC without padding — the pre-fast-path modes loop."""
    block = cipher.block_size
    out = bytearray()
    previous = iv
    for i in range(0, len(padded), block):
        encrypted = cipher.encrypt_block(
            reference._xor_bytes(padded[i:i + block], previous))
        out.extend(encrypted)
        previous = encrypted
    return bytes(out)


def _rekey_stream(rng, key_size: int, block_size: int, n_items: int):
    """(keys, items): two-block payloads keyed round-robin over the set."""
    keys = [rng.randbytes(key_size) for _ in range(_WORKING_SET)]
    items = [(keys[i % _WORKING_SET],
              rng.randbytes(2 * block_size),
              rng.randbytes(block_size))
             for i in range(n_items)]
    return items


def _bench_cipher_stream(report, name, suite, reference_cls, n_items, rng):
    """One cipher metric: MB/s through fast path vs reference baseline."""
    items = _rekey_stream(rng, suite.key_size, suite.block_size, n_items)
    total_bytes = sum(len(payload) for _, payload, _ in items)

    # Fast path: cached schedules + integer chaining, item by item,
    # exactly as the pipeline encrypt stage materializes a rekey.
    SHARED_CACHE.clear()
    start = time.perf_counter()
    fast_out = [modes.cbc_encrypt_nopad(suite.new_cipher(key), payload, iv)
                for key, payload, iv in items]
    fast_seconds = time.perf_counter() - start

    # Baseline: per-item construction + byte-wise chaining (pre-PR shape:
    # ``suite.encrypt`` built a fresh cipher for every call).
    start = time.perf_counter()
    base_out = [_baseline_cbc_nopad(reference_cls(key), payload, iv)
                for key, payload, iv in items]
    base_seconds = time.perf_counter() - start

    if fast_out != base_out:
        raise AssertionError(f"{name}: fast path diverged from reference")
    fast_mbs = total_bytes / fast_seconds / 1e6
    base_mbs = total_bytes / base_seconds / 1e6
    bench_io.add_metric(report, name, "MB/s", fast_mbs, baseline=base_mbs)
    return fast_mbs, base_mbs


def _bench_rsa(report, n_signs, rng):
    keypair = rsa.generate_keypair(512, seed=b"bench-fastpath-rsa")
    digests = [rng.randbytes(16) for _ in range(n_signs)]
    keypair.raw_sign(2)                      # warm the cached CRT components

    start = time.perf_counter()
    fast_sigs = [rsa.sign_digest(keypair, digest, "md5")
                 for digest in digests]
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    base_sigs = [reference.reference_sign_digest(keypair, digest, "md5")
                 for digest in digests]
    base_seconds = time.perf_counter() - start

    if fast_sigs != base_sigs:
        raise AssertionError("rsa: CRT signatures diverged from reference")
    fast_rate = n_signs / fast_seconds
    base_rate = n_signs / base_seconds
    bench_io.add_metric(report, "rsa_sign_512", "signs/s", fast_rate,
                        baseline=base_rate)
    return fast_rate, base_rate


def _bench_rekeys(report, graph: str, n_members: int, rounds: int):
    """End-to-end server churn throughput (no baseline: absolute rate)."""
    config = ServerConfig(graph=graph, degree=4, strategy="group",
                          suite=PAPER_SUITE_NO_SIG, signing="none",
                          seed=b"bench-rekeys")
    server = GroupKeyServer(config)
    server.bootstrap([(f"m{i}", server.new_individual_key())
                      for i in range(n_members)])
    start = time.perf_counter()
    for i in range(rounds):
        user = f"churn-{i}"
        server.join(user, server.new_individual_key())
        server.leave(user)
    seconds = time.perf_counter() - start
    rate = (2 * rounds) / seconds
    bench_io.add_metric(report, f"{graph}_rekeys_n{n_members}", "rekeys/s",
                        rate)
    return rate


def run(quick: bool, out_path: str, check: bool) -> int:
    rng = random.Random(20260806)
    report = bench_io.new_report("PR2", quick)

    n_items = 1500 if quick else 12000
    n_signs = 40 if quick else 400
    n_members = 256 if quick else 1024
    rounds = 4 if quick else 30

    print(f"crypto fast-path benchmark ({'quick' if quick else 'full'} run)")
    aes_suite = CipherSuite("aes128")
    fast, base = _bench_cipher_stream(report, "aes_cbc_rekey_stream",
                                      aes_suite, ReferenceAES, n_items, rng)
    print(f"  aes-cbc rekey stream : {fast:8.2f} MB/s vs {base:6.2f} MB/s "
          f"reference ({fast / base:.1f}x)")

    des_suite = CipherSuite("des")
    fast, base = _bench_cipher_stream(report, "des_cbc_rekey_stream",
                                      des_suite, ReferenceDES, n_items, rng)
    print(f"  des-cbc rekey stream : {fast:8.2f} MB/s vs {base:6.2f} MB/s "
          f"reference ({fast / base:.1f}x)")

    fast, base = _bench_rsa(report, n_signs, rng)
    print(f"  rsa-512 signing      : {fast:8.1f} signs/s vs {base:6.1f} "
          f"signs/s reference ({fast / base:.1f}x)")

    star = _bench_rekeys(report, "star", n_members, rounds)
    tree = _bench_rekeys(report, "tree", n_members, rounds)
    print(f"  server churn n={n_members}  : star {star:7.1f} rekeys/s, "
          f"tree {tree:7.1f} rekeys/s")

    cache = SHARED_CACHE.stats()
    print(f"  key-schedule cache   : {cache['hits']} hits / "
          f"{cache['misses']} misses / {cache['evictions']} evictions")

    bench_io.write_report(out_path, report)
    print(f"wrote {out_path}")

    if check:
        failures = []
        for name, floor in SPEEDUP_FLOORS.items():
            speedup = report["metrics"][name]["speedup"]
            status = "ok" if speedup >= floor else "FAIL"
            print(f"  floor {name}: {speedup:.2f}x >= {floor}x  [{status}]")
            if speedup < floor:
                failures.append(name)
        if failures:
            print(f"speedup floors not met: {', '.join(failures)}",
                  file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny iteration counts (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help="fail unless the PR's speedup floors are met")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"report path (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    return run(args.quick, args.out, args.check)


if __name__ == "__main__":
    raise SystemExit(main())
