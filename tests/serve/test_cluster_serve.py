"""A live 3-shard cluster behind per-shard async endpoints."""

import asyncio
import json

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (MSG_HEARTBEAT, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, MSG_RESYNC_REPLY,
                                 MSG_RESYNC_REQUEST, MSG_STATS_REQUEST,
                                 MSG_STATS_RESPONSE, MSG_JOIN_ACK,
                                 MSG_LEAVE_ACK, Message)
from repro.observability.export import validate_snapshot
from repro.serve import (AsyncClusterService, ClusterServingCore,
                         ServeConfig)
from tests.serve.test_endpoint import _UdpProbe


def _cluster(seed=b"cluster-serve"):
    coordinator = ClusterCoordinator(ClusterConfig(
        n_shards=3, signing="none", seed=seed))
    coordinator.bootstrap([])
    return coordinator


def test_cluster_endpoints_serve_any_user():
    async def run():
        coordinator = _cluster()
        core = ClusterServingCore(coordinator,
                                  ServeConfig(tick_interval=0))
        async with AsyncClusterService(core) as service:
            assert len(service.udp_addresses) == 3
            probes = [_UdpProbe(address)
                      for address in service.udp_addresses]
            try:
                # Each join lands on a different endpoint; the
                # coordinator routes to the owning shard regardless.
                for index in range(9):
                    ack = await probes[index % 3].rpc(
                        MSG_JOIN_REQUEST, f"member-{index}")
                    assert ack.msg_type == MSG_JOIN_ACK
                assert coordinator.n_users == 9
                ack = await probes[2].rpc(MSG_LEAVE_REQUEST, "member-0")
                assert ack.msg_type == MSG_LEAVE_ACK
                assert coordinator.n_users == 8
                reply = await probes[0].rpc(MSG_RESYNC_REQUEST,
                                            "member-4")
                assert reply.msg_type == MSG_RESYNC_REPLY
            finally:
                for probe in probes:
                    probe.close()
    asyncio.run(run())


def test_cluster_scrape_merges_shards_and_serve_series():
    async def run():
        coordinator = _cluster(b"cluster-scrape")
        core = ClusterServingCore(coordinator,
                                  ServeConfig(tick_interval=0))
        async with AsyncClusterService(core) as service:
            probe = _UdpProbe(service.udp_addresses[1])
            try:
                for index in range(6):
                    await probe.rpc(MSG_JOIN_REQUEST, f"m{index}")
                reply = await probe.rpc(MSG_STATS_REQUEST)
                assert reply.msg_type == MSG_STATS_RESPONSE
                document = json.loads(reply.body.decode("utf-8"))
                validate_snapshot(document)
                counters = document["metrics"]["counters"]
                names = set(counters)
                assert any(n.startswith("cluster_requests_total")
                           for n in names), names
                assert any(n.startswith("serve_requests_total")
                           for n in names), names
            finally:
                probe.close()
    asyncio.run(run())


def test_cluster_stale_heartbeat_triggers_push():
    async def run():
        coordinator = _cluster(b"cluster-push")
        core = ClusterServingCore(coordinator,
                                  ServeConfig(tick_interval=0.1))
        async with AsyncClusterService(core) as service:
            probe = _UdpProbe(service.udp_addresses[0])
            try:
                await probe.rpc(MSG_JOIN_REQUEST, "alice")
                await probe.rpc(MSG_JOIN_REQUEST, "bob")
                stale = Message(msg_type=MSG_HEARTBEAT, root_node_id=1,
                                root_version=0, body=b"alice")
                probe.send_raw(stale.encode())
                await asyncio.sleep(0.5)
                pushed = await probe.drain()
                assert any(m.msg_type == MSG_RESYNC_REPLY
                           for m in pushed)
            finally:
                probe.close()
    asyncio.run(run())
