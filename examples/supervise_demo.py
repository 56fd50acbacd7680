#!/usr/bin/env python3
"""Self-healing serving: kill a live shard, watch it come back identical.

The paper's key server is one process and one failure domain.  This
demo runs the PR 10 supervision loop end to end:

1. a supervisor starts a 2-shard async cluster (journal mode) and a
   few members join through the real serving cores;
2. shard 0 is killed SIGKILL-style and restarted from its journal,
   byte-identical to its pre-crash snapshot, on the same port;
3. a *torn journal tail* — the real crash signature — loses the last
   op; the client's ResilientRpc (deadline + capped backoff + jitter)
   rides out the gap and its retry re-executes the lost join;
4. a retry storm re-sends one join 8 times with the same correlation
   token: the idempotency cache answers every duplicate by replaying
   the original bytes, with zero extra sequence draws;
5. a CRC-corrupt journal — bit rot, not a crash — is refused loudly:
   the shard parks in ``failed`` instead of serving truncated history.

Run:  python examples/supervise_demo.py
"""

import asyncio
import tempfile

from repro.core import persistence
from repro.core.messages import MSG_JOIN_REQUEST, Message
from repro.core.server import ServerConfig
from repro.serve import (ResilientRpc, RetryPolicy, ServeConfig,
                         SupervisePolicy, Supervisor, SupervisorError)
from repro.serve.wire import attach_corr_trailer

KEY_FILL = 7


async def _join(shard, user, token):
    shard.server.register_individual_key(
        user, bytes([KEY_FILL]) * shard.server.suite.key_size)
    request = attach_corr_trailer(
        Message(msg_type=MSG_JOIN_REQUEST, body=user.encode()).encode(),
        token)
    box = []
    await shard.core.submit(request, box.append, path_id=None)
    return request, box


async def main():
    journal_dir = tempfile.mkdtemp(prefix="supervise-demo-")
    supervisor = Supervisor(
        2,
        server_config=ServerConfig(signing="none", seed=b"supervise-demo"),
        serve_config=ServeConfig(tcp_port=None, tick_interval=0),
        journal_dir=journal_dir,
        policy=SupervisePolicy(probe_interval=0, mode="journal"))
    await supervisor.start()
    try:
        print("== 1. a supervised 2-shard cluster ==")
        for doc in supervisor.describe():
            print(f"  {doc['shard']}: {doc['state']} on {doc['address']}")
        shard = supervisor.shard(0)
        for index in range(6):
            await _join(shard, f"u{index}", index)
        before = persistence.snapshot(shard.server)
        address = shard.address
        print(f"  6 members joined shard-0; seq={shard.server._seq}\n")

        print("== 2. SIGKILL-equivalent, restart from the journal ==")
        await supervisor.kill(0)
        print(f"  shard-0 {shard.state}; probe: "
              f"{await supervisor.probe(0)}")
        await supervisor.restart(0)
        identical = persistence.snapshot(shard.server) == before
        print(f"  restarted on {shard.address} "
              f"(port pinned: {shard.address == address})")
        print(f"  byte-identical to the pre-crash snapshot: {identical}")
        print(f"  journal replay == live bytes: "
              f"{supervisor.verify_shard(0)}\n")
        assert identical

        print("== 3. a torn tail loses the last op; the retry heals it ==")
        request, first = await _join(shard, "retrier", 0xBEEF)
        # Tear mid-record: the crash hit during the join's append.
        await supervisor.kill(0, tear_tail=7)
        revive = asyncio.create_task(supervisor.restart(0))
        rpc = ResilientRpc(RetryPolicy(timeout=0.3, deadline=10.0,
                                       budget=8, backoff_base=0.05))
        attempts = []

        async def attempt(timeout):
            # The same datagram, re-sent: at first the shard is down.
            if shard.state != "up":
                attempts.append("down")
                return None  # timeout
            box = []
            await shard.core.submit(request, box.append, path_id=None)
            attempts.append("served")
            return box[0] if box else None

        outcome = await rpc.call(attempt)
        await revive
        print(f"  the op was torn away (member after restart+retry: "
              f"{shard.server.is_member('retrier')})")
        print(f"  outcome: {outcome.status} after {outcome.attempts} "
              f"attempts {attempts}")
        print(f"  repaired journal still replays to the live state: "
              f"{supervisor.verify_shard(0)}\n")
        assert outcome.ok and shard.server.is_member("retrier")

        print("== 4. a retry storm is absorbed by the idempotency cache ==")
        seq_before = shard.server._seq
        replayed = 0
        for _ in range(8):
            box = []
            await shard.core.submit(request, box.append, path_id=None)
            replayed += bool(box and box[0] == outcome.reply)
        print(f"  8 duplicates, {replayed} answered by byte-replay, "
              f"{shard.server._seq - seq_before} extra sequence draws\n")
        assert shard.server._seq == seq_before

        print("== 5. corruption is refused, not repaired away ==")
        other = supervisor.shard(1)
        await _join(other, "v0", 100)
        await supervisor.kill(1, corrupt_tail=True)
        try:
            await supervisor.restart(1)
            raise AssertionError("corrupt journal was accepted!")
        except Exception as error:
            print(f"  restart refused: {type(error).__name__}")
        print(f"  shard-1 parked: {other.state} "
              f"(operator intervention required)")
        restarts = supervisor._m_restarts.labels(shard="shard-0",
                                                 mode="journal")
        print(f"\nsupervisor_restarts_total{{shard-0}} = "
              f"{restarts.value}: crashes are routine, corruption is not.")
    finally:
        await supervisor.aclose()


if __name__ == "__main__":
    asyncio.run(main())
