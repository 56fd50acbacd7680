"""Metric arithmetic: percentiles, slice medians, snapshot deltas, and
the per-layer budget derived from one traced window.

Names are stable: ``BENCHMARK.json`` lists them with their units and
later issues cite them.  End-to-end metrics come from untraced runs,
``PER_LAYER`` from the traced one; a metric that does not apply to a
workload (``cluster.*`` on a single server) reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from trace import SpanTable, covered

PER_LAYER = (
    "crypto.encrypt_ms_per_op", "crypto.sign_ms_per_op",
    "crypto.ack_sign_ms_per_op",
    "crypto.encryptions_per_op",
    "crypto.signatures_per_op",
    "crypto.keycache_hit_ratio",
    "keygraph.plan_ms_per_op",
    "keygraph.keys_changed_per_op",
    "keygraph.tree_height",
    "keygraph.storage_bytes_per_member",
    "core.dispatch_ms_per_op", "core.messages_per_op",
    "core.msg_encode_us", "core.msg_decode_us",
    "core.client_install_ms_per_msg",
    "core.client_verify_ms_per_msg",
    "core.resync_build_ms",
    "serve.wire_parse_us_per_req",
    "serve.submit_ms_per_op", "serve.overhead_ms_per_op",
    "serve.lock_wait_ms_p50", "serve.turnstile_wait_ms_p50",
    "serve.executor_wait_ms_p50", "serve.inflight_mean",
    "serve.fanout_ms_per_op", "serve.fanout_copies_per_op",
    "serve.fanout_receivers_scanned_per_op",
    "serve.socket_rtt_ms", "serve.heartbeat_us",
    "serve.loop_lag_ms_p99", "serve.shed_ratio",
    "serve.idem_hit_ratio", "serve.reordered_ratio",
    "serve.unattributed_ms_per_op",
    "cluster.route_us_per_op", "cluster.shard_ms_per_op",
    "cluster.root_ms_per_op",
    "cluster.root_encryptions_per_op",
    "cluster.shard_imbalance",
    "recovery.heartbeat_us", "recovery.tick_ms",
    "recovery.pushes_per_s",
    "subcast.request_p50_ms", "subcast.cover_keys_per_msg",
    "subcast.seal_ms",
    "loadgen.join_p50_ms", "loadgen.join_p99_ms",
    "loadgen.leave_p50_ms", "loadgen.leave_p99_ms",
    "loadgen.install_p50_ms", "loadgen.install_p99_ms",
    "loadgen.resync_p50_ms", "loadgen.resync_p99_ms",
    "loadgen.samples", "loadgen.sched_lag_p99_ms",
    "loadgen.within_limit_ratio", "loadgen.retry_ratio",
    "loadgen.failed", "loadgen.busy_ratio",
    "loadgen.server_busy_ratio",
    "loadgen.cpu_speed_index",
    "loadgen.trace_overhead_ratio",
)

#: ``loadgen.within_limit_ratio``: share of join arrivals answered
#: within this limit; failures count as misses.
JOIN_LIMIT_MS = 50.0


# -- samples --------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(records, installed_at, bytes_by_ref, samples
               ) -> Dict[str, float]:
    """The window's end-to-end metrics (all but ``setup_s`` and RSS).

    ``records`` are the harness' ``Record`` tuples, one per request,
    ``samples`` the ``(wall, busy, cpu)`` readings at the edges of the
    window's equal-count slices: ``busy`` is the clock throughput is
    measured against (wall time for a served workload, time inside
    server calls for ``core_churn``) and ``cpu`` the server's cumulative
    CPU seconds.  Throughput and CPU per op are medians over the slices,
    so one noisy-neighbour burst cannot move them.  All values are as a
    stopwatch shows them.
    """
    start, end = samples[0][0], samples[-1][0]
    inside = [r for r in records if start <= r.done < end]
    latency = {kind: [] for kind in ("join", "leave", "resync", "subcast")}
    install = []
    sizes = {"join": [], "leave": []}
    for record in inside:
        latency[record.kind].append(record.done - record.start)
        if record.ref is not None:
            sizes[record.kind].append(bytes_by_ref.get(record.ref, 0))
            if record.ref in installed_at:
                install.append(installed_at[record.ref] - record.start)
    rates, cpu_per_op = [], []
    for (t0, busy0, cpu0), (t1, busy1, cpu1) in zip(samples, samples[1:]):
        n = sum(1 for r in inside if t0 <= r.done < t1)
        if busy1 > busy0:
            rates.append(n / (busy1 - busy0))
        if n:
            cpu_per_op.append(1e3 * (cpu1 - cpu0) / n)
    return {
        "ops_per_s": median(rates),
        # A join's rekey is about half a leave's; weighting the two
        # equally keeps the figure independent of the seeded mix.
        "rekey_bytes_per_op": (mean(sizes["join"])
                               + mean(sizes["leave"])) / 2,
        "cpu_ms_per_op": median(cpu_per_op),
        "latency_s": latency, "install_s": install,
        "slices": {"ops_per_s": rates, "cpu_ms_per_op": cpu_per_op},
    }


# -- server snapshots -----------------------------------------------------------


def counter(snapshot: Optional[dict], name: str, **labels: str) -> float:
    """Sum of a counter's series matching ``labels`` (0 if absent)."""
    if not snapshot:
        return 0.0
    family = snapshot["counters"].get(name)
    if family is None:
        return 0.0
    return sum(series["value"] for series in family["series"]
               if all(series["labels"].get(k) == v
                      for k, v in labels.items()))


def counter_by(snapshot: Optional[dict], name: str, label: str,
               **labels: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    if snapshot and name in snapshot["counters"]:
        for series in snapshot["counters"][name]["series"]:
            if all(series["labels"].get(k) == v for k, v in labels.items()):
                key = series["labels"].get(label, "")
                out[key] = out.get(key, 0.0) + series["value"]
    return out


def _histogram(snapshot: Optional[dict], name: str
               ) -> Tuple[List[float], List[int], float, int]:
    if not snapshot or name not in snapshot["histograms"]:
        return [], [], 0.0, 0
    family = snapshot["histograms"][name]
    counts = [0] * (len(family["bounds"]) + 1)
    total, n = 0.0, 0
    for series in family["series"]:
        for i, value in enumerate(series["counts"]):
            counts[i] += value
        total += series["sum"]
        n += series["count"]
    return family["bounds"], counts, total, n


def histogram_delta(before: Optional[dict], after: Optional[dict], name: str
                    ) -> Tuple[List[float], List[int], float, int]:
    """(bounds, bucket counts, sum, count) accumulated between snapshots."""
    bounds, counts, total, n = _histogram(after, name)
    _b, counts0, total0, n0 = _histogram(before, name)
    if counts0:
        counts = [a - b for a, b in zip(counts, counts0)]
    return bounds, counts, total - total0, n - n0


def histogram_quantile(bounds: Sequence[float], counts: Sequence[int],
                       q: float) -> float:
    """Quantile by linear interpolation inside the owning bucket."""
    total = sum(counts)
    if not total:
        return 0.0
    rank = q * total
    seen = 0.0
    for i, count in enumerate(counts):
        if count and seen + count >= rank:
            low = bounds[i - 1] if i > 0 else 0.0
            high = bounds[i] if i < len(bounds) else bounds[-1]
            return low + (high - low) * (rank - seen) / count
        seen += count
    return bounds[-1]


# -- the per-layer budget --------------------------------------------------------

_STAGED = ("server.begin_join", "server.begin_leave", "op.encrypt",
           "op.seal", "op.finish")


def layer_metrics(table: SpanTable, counts: Dict[str, int],
                  before: Optional[dict], after: Optional[dict],
                  window: float, evidence: dict, client: dict
                  ) -> Dict[str, float]:
    """Every ``PER_LAYER`` value for one traced window.

    ``before``/``after`` are the server's own metric snapshots at the
    window boundaries, ``evidence`` the end-of-run facts (tree height,
    storage), ``client`` what the load generator measured itself
    (``acks`` maps a request's token to its wait for the direct reply).
    """
    def delta(name: str, **labels: str) -> float:
        return counter(after, name, **labels) - counter(before, name, **labels)

    def per(total: float, n: float) -> float:
        return total / n if n else 0.0

    def hist_q(name: str, q: float) -> float:
        bounds, buckets, _sum, _n = histogram_delta(before, after, name)
        return histogram_quantile(bounds, buckets, q)

    ops = table.calls("op.finish")
    ms = 1e3
    out: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)

    # crypto / keygraph / core: the staged pipeline, wherever it ran.
    ack_sign = sum(s["end"] - s["start"] for s in table.named("crypto.rsa_sign")
                   if s["parent"] >= 0
                   and table.all[s["parent"]]["name"] == "op.finish")
    sign = table.total("pipeline.sign") + table.total("root.sign")
    out["crypto.encrypt_ms_per_op"] = ms * per(
        table.total("op.encrypt") + table.total("root.encrypt"), ops)
    out["crypto.sign_ms_per_op"] = ms * per(sign, ops)
    out["crypto.ack_sign_ms_per_op"] = ms * per(ack_sign, ops)
    out["crypto.encryptions_per_op"] = per(
        delta("encryptions_total")
        + delta("cluster_encryptions_total", layer="root"), ops)
    out["crypto.signatures_per_op"] = per(table.calls("crypto.rsa_sign"), ops)
    hits = delta("keycache_lookups_total", result="hit")
    out["crypto.keycache_hit_ratio"] = per(
        hits, hits + delta("keycache_lookups_total", result="miss"))
    out["keygraph.plan_ms_per_op"] = ms * per(
        table.total("pipeline.plan") + table.total("root.plan"), ops)
    out["keygraph.keys_changed_per_op"] = per(
        delta("key_changes_total"), ops * max(1, evidence["n_users"] - 1))
    out["keygraph.tree_height"] = float(evidence["tree_height"])
    out["keygraph.storage_bytes_per_member"] = per(
        evidence["storage_bytes"], evidence["n_users"])
    out["core.dispatch_ms_per_op"] = ms * per(
        table.total("op.seal") + table.total("op.finish")
        - table.total("pipeline.turnstile_wait")
        - table.total("pipeline.sign") - ack_sign, ops)
    out["core.messages_per_op"] = per(
        delta("rekey_messages_total")
        + delta("cluster_rekey_messages_total", layer="root"), ops)
    out["core.msg_encode_us"] = 1e6 * per(
        table.total("msg.encode"), table.calls("msg.encode"))
    out["core.msg_decode_us"] = 1e6 * per(
        table.total("msg.decode"), table.calls("msg.decode"))
    out["core.client_install_ms_per_msg"] = ms * mean(client["install_s"])
    out["core.client_verify_ms_per_msg"] = ms * mean(client["verify_s"])
    resyncs = table.named("server.resync") + table.named("cluster.resync")
    out["core.resync_build_ms"] = ms * mean(
        [s["end"] - s["start"] for s in resyncs])

    # serve: residence in submit and what it is made of.
    submits = []
    for span in table.named("serve.submit"):
        names = {d["name"] for d in table.descendants(span)}
        if names & {"op.finish", "cluster.join", "cluster.leave"}:
            submits.append(span)
    residence = [s["end"] - s["start"] for s in submits]
    staged, unattributed = 0.0, 0.0
    for span in submits:
        kids = table.children.get(id(span), [])
        staged += sum(k["end"] - k["start"] for k in kids
                      if k["name"] in _STAGED
                      or k["name"] in ("cluster.join", "cluster.leave"))
        unattributed += (span["end"] - span["start"]) - covered(span, kids)
    parse = sum(s["end"] - s["start"]
                for name in ("wire.split_trailers", "msg.decode")
                for s in table.named(name) if s["parent"] >= 0
                and table.all[s["parent"]]["name"].startswith("serve.submit"))
    requests = delta("serve_requests_total")
    _b, _c, lock_wait, _n = histogram_delta(before, after,
                                            "serve_op_lock_wait_seconds")
    # Per request, both directions of the socket path: what the client
    # waited for its direct reply minus what the server took to send it.
    rtts = []
    for span in submits:
        sent = [k["start"] for k in table.children.get(id(span), [])
                if k["name"] == "serve.submit.reply"]
        waited = client["acks"].get(span["rid"])
        if sent and waited is not None:
            rtts.append(waited - (min(sent) - span["start"]))
    out["serve.wire_parse_us_per_req"] = 1e6 * per(
        parse, table.calls("serve.submit_nowait"))
    out["serve.submit_ms_per_op"] = ms * mean(residence)
    out["serve.overhead_ms_per_op"] = ms * per(
        sum(residence) - staged, len(submits))
    out["serve.lock_wait_ms_p50"] = ms * hist_q(
        "serve_op_lock_wait_seconds", 0.5)
    out["serve.turnstile_wait_ms_p50"] = ms * hist_q(
        "serve_turnstile_wait_seconds", 0.5)
    out["serve.executor_wait_ms_p50"] = ms * hist_q(
        "serve_executor_wait_seconds", 0.5)
    out["serve.inflight_mean"] = per(sum(residence), window)
    out["serve.fanout_ms_per_op"] = ms * per(table.total("fanout.send"), ops)
    out["serve.fanout_copies_per_op"] = per(
        delta("transport_deliveries_total"), ops)
    out["serve.fanout_receivers_scanned_per_op"] = per(
        counts.get("fanout.send", 0), ops)
    out["serve.socket_rtt_ms"] = ms * median(rtts)
    heartbeats = [s for s in table.named("serve.submit_nowait")
                  if any(k["name"] == "recovery.heartbeat"
                         for k in table.children.get(id(s), []))]
    out["serve.heartbeat_us"] = 1e6 * mean(
        [s["end"] - s["start"] for s in heartbeats])
    out["serve.loop_lag_ms_p99"] = ms * hist_q("serve_loop_lag_seconds", 0.99)
    out["serve.shed_ratio"] = per(delta("serve_shed_total"), requests)
    out["serve.idem_hit_ratio"] = per(delta("serve_idempotent_total"),
                                      requests)
    out["serve.unattributed_ms_per_op"] = ms * per(
        unattributed - lock_wait, len(submits))

    # cluster: ring routing, the shard rekey, the root-layer rekey.
    cluster_ops = table.calls("cluster.join") + table.calls("cluster.leave")
    if cluster_ops:
        out["cluster.route_us_per_op"] = 1e6 * per(
            table.total("cluster.shard_of"), cluster_ops)
        out["cluster.shard_ms_per_op"] = ms * per(
            sum(table.total(name) for name in _STAGED), cluster_ops)
        out["cluster.root_ms_per_op"] = ms * per(
            table.self_time("cluster.join") + table.self_time("cluster.leave")
            + sum(table.total(f"root.{stage}")
                  for stage in ("plan", "encrypt", "sign")), cluster_ops)
        out["cluster.root_encryptions_per_op"] = per(
            delta("cluster_encryptions_total", layer="root"), cluster_ops)
        after_by = counter_by(after, "cluster_requests_total", "shard",
                              status="ok")
        before_by = counter_by(before, "cluster_requests_total", "shard",
                               status="ok")
        loads = [after_by[s] - before_by.get(s, 0.0) for s in after_by]
        out["cluster.shard_imbalance"] = per(max(loads), mean(loads))

    out["recovery.heartbeat_us"] = 1e6 * per(
        table.total("recovery.heartbeat"), table.calls("recovery.heartbeat"))
    out["recovery.tick_ms"] = ms * per(
        table.total("recovery.tick"), table.calls("recovery.tick"))
    out["recovery.pushes_per_s"] = per(
        delta("recovery_resyncs_total", trigger="push"), window)

    out["subcast.request_p50_ms"] = ms * median(client["subcast_s"])
    _b, _c, cover_sum, cover_n = histogram_delta(before, after,
                                                 "subcast_cover_keys")
    out["subcast.cover_keys_per_msg"] = per(cover_sum, cover_n)
    out["subcast.seal_ms"] = ms * per(
        table.total("server.subcast"), table.calls("server.subcast"))
    return out

