"""Subcast at scale: sealed subgroup delivery in a million-member group.

The headline claim of the subcast subsystem (PR 9): addressing an
arbitrary 10k-member subset of an n=1,000,000 flat-backend group costs
one structural-cover computation over the array tree — no usersets are
ever materialized — plus one sealed message, and **exactly** the
targets can open it.  This experiment proves the claim live:

* build the million-member group, subcast to a 10k random subset,
  decrypt-check *every* target and a sampled slice of outsiders;
* evict a member and show its stale keys fail closed;
* ``--cluster`` re-runs the delivery proof end to end through the
  async serving stack: a 3-shard cluster behind real UDP endpoints,
  targets attached via heartbeat, one ``MSG_SUBCAST_REQUEST`` on the
  wire, per-target fan-out receipt + decrypt, and a scrape of the
  merged metrics snapshot (validated against the snapshot schema).

Usage::

    python experiments/subcast_scale.py              # full (n=1M)
    python experiments/subcast_scale.py --quick      # n=100k (CI smoke)
    python experiments/subcast_scale.py --cluster    # + async cluster leg
    python experiments/subcast_scale.py --check      # enforce the floors
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import socket as socket_module
import sys
import time
from dataclasses import replace

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.cluster.coordinator import (ClusterConfig,  # noqa: E402
                                       ClusterCoordinator)
from repro.core.client import (GroupClient,  # noqa: E402
                               SubcastNotAddressed)
from repro.core.messages import (MSG_HEARTBEAT,  # noqa: E402
                                 MSG_STATS_REQUEST, MSG_STATS_RESPONSE,
                                 MSG_SUBCAST, MSG_SUBCAST_REQUEST, Message)
from repro.core.server import (GroupKeyServer,  # noqa: E402
                               ServerConfig, ServerError)
from repro.keygraph.covering import tree_subset_cover  # noqa: E402
from repro.observability.export import validate_snapshot  # noqa: E402
from repro.serve import (AsyncKeyService, AsyncServingCore,  # noqa: E402
                         ServeConfig)
from repro.serve.wire import (attach_corr_trailer,  # noqa: E402
                              split_corr_trailer)
from repro.subcast import encode_subcast_request  # noqa: E402

SUBSET_SIZE = 10_000
OUTSIDER_SAMPLE = 1_000
COVER_TIME_CEILING_S = 1.0
_BUFFER = 65535


def _prime(server_like, tree, suite, user, verify=True):
    leaf = tree.leaf_of(user)
    client = GroupClient(user, suite, verify=verify)
    client.set_individual_key(leaf.key)
    client.set_leaf(leaf.node_id)
    for node in leaf.path_to_root():
        client.keys[node.node_id] = (node.version, node.key)
    return client


def run_local(n_members: int, check: bool) -> list:
    failures = []
    print(f"subcast scale experiment: n={n_members}, |S|={SUBSET_SIZE}")
    server = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", signing="none",
        seed=b"subcast-scale", backend="flat"))
    members = [f"u{index:07d}" for index in range(n_members)]
    started = time.perf_counter()
    server.bootstrap([(user, server.new_individual_key())
                      for user in members])
    print(f"  bootstrap           : {time.perf_counter() - started:7.1f} s")

    rng = random.Random(0x5CA1E)
    targets = rng.sample(members, SUBSET_SIZE)
    payload = b"million-member subset payload"
    started = time.perf_counter()
    cover = tree_subset_cover(server.tree, targets)
    cover_s = time.perf_counter() - started
    started = time.perf_counter()
    out = server.subcast(targets, payload)
    subcast_s = time.perf_counter() - started
    cover_keys = len(out.message.items) - 1
    print(f"  cover compute       : {cover_s * 1e3:7.1f} ms "
          f"({len(cover)} keys)")
    print(f"  cover+seal          : {subcast_s * 1e3:7.1f} ms "
          f"({cover_keys} cover keys, {len(out.encoded)} wire bytes)")
    if check and cover_s > COVER_TIME_CEILING_S:
        failures.append(f"cover compute took {cover_s:.2f} s "
                        f"> {COVER_TIME_CEILING_S} s")

    # Establish message integrity once: the first target opens the
    # full wire blob with digest verification on.
    first = _prime(server, server.tree, server.suite, targets[0])
    if first.open_subcast(out.encoded) != payload:
        failures.append("full-message verified decrypt failed")

    # A member can only ever open cover items whose node ids it holds
    # (the leaf-to-root path), so pruning the 10k-item message down to
    # each member's path items is decrypt-equivalent — and turns the
    # verification sweep from O(|S|·|cover|) into O(|S|·log n).
    # Integrity was checked on the full blob above; pruning invalidates
    # the whole-message digest, so the sweep clients skip it.
    message = Message.decode(out.encoded)
    by_node = {item.enc_node_id: item for item in message.items[1:]}

    def open_pruned(blob_message, index, user):
        client = _prime(server, server.tree, server.suite, user,
                        verify=False)
        held = [client.leaf_node_id, *client.keys]
        matched = [index[nid] for nid in held if nid in index]
        mini = replace(blob_message,
                       items=[blob_message.items[0], *matched])
        return client.open_subcast(mini)

    started = time.perf_counter()
    for user in targets:
        if open_pruned(message, by_node, user) != payload:
            failures.append(f"target {user} failed to decrypt")
            break
    print(f"  {len(targets)} target decrypts: "
          f"{time.perf_counter() - started:7.1f} s — all exact")

    outsiders = rng.sample(sorted(set(members) - set(targets)),
                           OUTSIDER_SAMPLE)
    denied = 0
    for user in outsiders:
        try:
            open_pruned(message, by_node, user)
            failures.append(f"outsider {user} decrypted the subcast")
            break
        except SubcastNotAddressed:
            denied += 1
    print(f"  {denied}/{len(outsiders)} sampled outsiders denied")

    # Clustered subset: a contiguous member window collapses to whole
    # subtrees, so the cover shrinks by orders of magnitude vs random.
    start = rng.randrange(n_members - SUBSET_SIZE)
    window = members[start:start + SUBSET_SIZE]
    clustered_payload = b"clustered window payload"
    out_window = server.subcast(window, clustered_payload)
    window_keys = len(out_window.message.items) - 1
    print(f"  clustered |S|={SUBSET_SIZE}: {window_keys} cover keys "
          f"(vs {cover_keys} random)")
    if check and window_keys > 256:
        failures.append(f"clustered cover used {window_keys} keys; a "
                        f"contiguous window should collapse to O(d log n)")
    window_message = Message.decode(out_window.encoded)
    window_index = {item.enc_node_id: item
                    for item in window_message.items[1:]}
    for user in rng.sample(window, 200):
        if open_pruned(window_message, window_index,
                       user) != clustered_payload:
            failures.append(f"clustered target {user} failed to decrypt")
            break
    for user in (members[:100] if start > 100 else members[-100:]):
        try:
            open_pruned(window_message, window_index, user)
            failures.append(f"clustered outsider {user} decrypted")
            break
        except SubcastNotAddressed:
            pass

    victim = targets[0]
    stale = _prime(server, server.tree, server.suite, victim)
    server.leave(victim)
    out2 = server.subcast(targets[1:50], b"post-eviction")
    try:
        stale.open_subcast(out2.encoded)
        failures.append("evicted member decrypted a later subcast")
    except SubcastNotAddressed:
        print("  evicted member      : fails closed (stale path keys)")
    try:
        server.subcast([victim], b"gone")
        failures.append("server subcast to an ex-member succeeded")
    except ServerError:
        pass
    return failures


class _Probe:
    """Raw-datagram UDP probe for the async cluster endpoints."""

    def __init__(self, address):
        self.address = address
        self.sock = socket_module.socket(socket_module.AF_INET,
                                         socket_module.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self._token = 1

    def close(self):
        self.sock.close()

    def send_raw(self, data):
        self.sock.sendto(data, self.address)

    async def rpc_body(self, msg_type, body, timeout=10.0):
        loop = asyncio.get_running_loop()
        token = self._token
        self._token += 1
        request = attach_corr_trailer(
            Message(msg_type=msg_type, body=body).encode(), token)
        self.sock.sendto(request, self.address)
        deadline = loop.time() + timeout
        while True:
            data = await asyncio.wait_for(
                loop.sock_recv(self.sock, _BUFFER),
                deadline - loop.time())
            payload, got = split_corr_trailer(data)
            if got == token:
                return Message.decode(payload)

    async def drain(self, window=0.5):
        loop = asyncio.get_running_loop()
        messages = []
        try:
            while True:
                data = await asyncio.wait_for(
                    loop.sock_recv(self.sock, _BUFFER), window)
                payload, _token = split_corr_trailer(data)
                messages.append(Message.decode(payload))
        except asyncio.TimeoutError:
            return messages


async def _run_cluster(n_members: int) -> list:
    failures = []
    print(f"cluster leg: 3 shards, n={n_members}, async front end")
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=4, signing="none", seed=b"subcast-scale-cl",
        backend="flat"))
    members = [f"c{index:06d}" for index in range(n_members)]
    coordinator.bootstrap([(user, coordinator.new_individual_key())
                           for user in members])

    rng = random.Random(0xC105E)
    targets = rng.sample(members, 12)
    clients = {}
    for user in targets:
        shard = coordinator.shard_of(user)
        client = _prime(coordinator, shard.server.tree,
                        coordinator.suite, user)
        for record in coordinator.root_layer.path_records(shard.name):
            client.keys[record.node_id] = (record.version, record.key)
        clients[user] = client

    core = AsyncServingCore(coordinator, ServeConfig(tick_interval=0))
    root_id, root_version = coordinator.group_key_ref()
    payload = b"cluster subcast over the wire"
    async with AsyncKeyService(core) as service:
        sender = _Probe(service.udp_addresses[0])
        probes = {user: _Probe(service.udp_addresses[index % 3])
                  for index, user in enumerate(targets)}
        try:
            # Attach each target's socket via an up-to-date heartbeat.
            for user, probe in probes.items():
                probe.send_raw(Message(
                    msg_type=MSG_HEARTBEAT, root_node_id=root_id,
                    root_version=root_version,
                    body=user.encode()).encode())
            await asyncio.sleep(0.3)

            body = encode_subcast_request(members[0], targets, payload)
            reply = await sender.rpc_body(MSG_SUBCAST_REQUEST, body)
            if reply.msg_type != MSG_SUBCAST:
                failures.append(f"requester ack was type {reply.msg_type}")

            received = 0
            for user, probe in probes.items():
                fanned = [m for m in await probe.drain()
                          if m.msg_type == MSG_SUBCAST]
                if not fanned:
                    failures.append(f"{user} received no fan-out copy")
                    continue
                if clients[user].open_subcast(fanned[0].encode()) != payload:
                    failures.append(f"{user} decrypted the wrong payload")
                    continue
                received += 1
            print(f"  fan-out receipt     : {received}/{len(targets)} "
                  f"targets received and decrypted")

            reply = await sender.rpc_body(MSG_STATS_REQUEST, b"")
            if reply.msg_type != MSG_STATS_RESPONSE:
                failures.append("stats scrape failed")
            else:
                document = json.loads(reply.body.decode("utf-8"))
                validate_snapshot(document)
                counters = document["metrics"]["counters"]
                if "subcast_messages_total" not in counters:
                    failures.append("scrape missing subcast_messages_total")
                requests = counters.get("serve_requests_total",
                                        {}).get("series", [])
                if not any(series["labels"].get("type") == "subcast"
                           and series["value"] >= 1
                           for series in requests):
                    failures.append("scrape missing serve subcast series")
                print("  scrape              : snapshot valid, "
                      "subcast series present")
        finally:
            sender.close()
            for probe in probes.values():
                probe.close()
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="n=100k local / n=300 cluster (CI smoke)")
    parser.add_argument("--cluster", action="store_true",
                        help="also run the async 3-shard delivery leg")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on any exactness/timing failure")
    args = parser.parse_args(argv)

    n_local = 100_000 if args.quick else 1_000_000
    n_cluster = 300 if args.quick else 3_000
    failures = run_local(n_local, args.check)
    if args.cluster:
        failures.extend(asyncio.run(_run_cluster(n_cluster)))
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("all subcast scale checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
