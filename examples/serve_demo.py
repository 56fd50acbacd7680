#!/usr/bin/env python3
"""Live async serving demo: the event-loop front end over real sockets.

The successor to the retired ``udp_live_demo.py`` (which drove the
one-request-at-a-time thread server): this demo runs the asyncio
serving layer — request parsing and rekey *planning* on the event
loop, encrypt/sign offloaded to a worker pool, admission control in
front — behind a loopback UDP endpoint, with every client on its own
datagram socket:

* eight members join **concurrently**; their staged rekeys overlap on
  the worker pool, the turnstile keeps the wire bytes identical to a
  serial run, and each member verifies the Merkle-signed rekey
  messages fanned out to its socket;
* one member leaves; the survivors follow the leave rekey;
* a member that fell behind (lost datagrams, slow start) resyncs
  through the same front end;
* a deliberate request flood from one client draws ``MSG_BUSY`` — the
  per-client token bucket sheds instead of queueing without bound;
* a stats scrape (:func:`repro.transport.udp.scrape_stats`) shows the
  serving counters.

Run:  python examples/serve_demo.py
"""

import asyncio

from repro.core.client import GroupClient
from repro.core.messages import (MSG_BUSY, MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, MSG_RESYNC_REPLY,
                                 MSG_RESYNC_REQUEST, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.serve import (AsyncKeyService, AsyncServingCore, ServeConfig,
                         default_server_config)
from repro.transport.udp import scrape_stats

_CONTROL = (MSG_JOIN_ACK, MSG_LEAVE_ACK, MSG_JOIN_DENIED, MSG_LEAVE_DENIED)


class _Inbox(asyncio.DatagramProtocol):
    """Collects every datagram a member's socket receives."""

    def __init__(self):
        self.queue = asyncio.Queue()

    def datagram_received(self, data, addr):
        self.queue.put_nowait(data)


class Member:
    """One group member: its own UDP socket plus the key state machine."""

    def __init__(self, user_id, server):
        self.user_id = user_id
        self.client = GroupClient(user_id, server.config.suite,
                                  server_public_key=server.public_key)
        self.transport = None
        self.inbox = None
        self.busy = 0
        self._pump_task = None

    async def connect(self, address):
        loop = asyncio.get_running_loop()
        self.transport, self.inbox = await loop.create_datagram_endpoint(
            _Inbox, remote_addr=address)
        self._pump_task = asyncio.ensure_future(self._pump())

    async def _pump(self):
        while True:
            data = await self.inbox.queue.get()
            try:
                message = Message.decode(data)
            except Exception:
                continue
            try:
                if message.msg_type == MSG_REKEY:
                    self.client.process_message(message)
                elif message.msg_type in _CONTROL:
                    self.client.process_control(message)
                elif message.msg_type == MSG_RESYNC_REPLY:
                    self.client.process_resync(message)
                elif message.msg_type == MSG_BUSY:
                    self.busy += 1
            except Exception:
                self.client.desynced = True

    def send(self, msg_type):
        self.transport.sendto(
            Message(msg_type=msg_type, body=self.user_id.encode()).encode())

    async def close(self):
        if self._pump_task is not None:
            self._pump_task.cancel()
        if self.transport is not None:
            self.transport.close()


async def _settle(predicate, timeout=5.0):
    """Poll until ``predicate()`` holds (the traffic is real UDP)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            return False
        await asyncio.sleep(0.02)
    return True


async def main():
    protocol = default_server_config(ServerConfig(
        strategy="group", degree=4, signing="merkle", seed=b"serve-demo"))
    server = GroupKeyServer(protocol)
    core = AsyncServingCore(server, ServeConfig(
        tick_interval=0, open_enroll=False,
        client_rate=50.0, client_burst=8))
    async with AsyncKeyService(core) as service:
        host, port = service.udp_address
        print(f"async key service on {host}:{port} "
              f"(backend={protocol.backend}, "
              f"workers={core.executor._max_workers})")

        members = [Member(f"client{i}", server) for i in range(8)]
        for member in members:
            # The authentication exchange happens out of band; the
            # session key it produced is registered on both sides.
            key = server.new_individual_key()
            server.register_individual_key(member.user_id, key)
            member.client.set_individual_key(key)
            await member.connect(service.udp_address)

        # All eight joins hit the endpoint at once: plans run in
        # arrival order on the loop, encrypt/sign overlap on the pool.
        for member in members:
            member.send(MSG_JOIN_REQUEST)
        await _settle(lambda: all(
            m.client.leaf_node_id is not None for m in members))

        # Anyone who missed a concurrent rekey recovers via resync.
        def in_sync():
            return [m for m in members
                    if m.client.group_key() == server.group_key()]
        if not await _settle(lambda: len(in_sync()) == len(members),
                             timeout=1.0):
            for member in members:
                if member.client.group_key() != server.group_key():
                    print(f"  {member.user_id} fell behind -> resync")
                    member.send(MSG_RESYNC_REQUEST)
            await _settle(lambda: len(in_sync()) == len(members))
        print(f"{len(in_sync())}/{len(members)} members hold the group "
              "key (verified Merkle-signed rekeys over UDP)")

        print("\nclient3 leaves...")
        members[3].send(MSG_LEAVE_REQUEST)
        survivors = members[:3] + members[4:]
        await _settle(lambda: all(
            m.client.group_key() == server.group_key()
            for m in survivors))
        print(f"{sum(1 for m in survivors if m.client.group_key() == server.group_key())}"
              f"/{len(survivors)} survivors follow the leave rekey; "
              "client3's key no longer opens the group")

        print("\nclient0 floods the server with resync requests...")
        for _ in range(24):
            members[0].send(MSG_RESYNC_REQUEST)
        await _settle(lambda: members[0].busy > 0)
        print(f"admission control shed {members[0].busy} of them "
              "with MSG_BUSY (per-client token bucket)")

        # The one stats scraper, run beside the event loop.
        stats = await asyncio.to_thread(scrape_stats, service.udp_address)
        served = stats["metrics"]["counters"]["serve_requests_total"]
        print("\nscraped serving counters:")
        for series in served["series"]:
            labels = ",".join(f"{k}={v}"
                              for k, v in sorted(series["labels"].items()))
            print(f"  serve_requests_total{{{labels}}} = "
                  f"{int(series['value'])}")

        for member in members:
            await member.close()


if __name__ == "__main__":
    asyncio.run(main())
