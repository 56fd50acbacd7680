#!/usr/bin/env python3
"""Chaos and recovery: surviving loss, reorder, crashes, and eviction.

The paper assumes "a reliable message delivery system, for both unicast
and multicast" (§5).  This demo removes that assumption and shows the
recovery layer putting the group back together:

1. a seeded ChaosTransport drops, duplicates and reorders 15% of rekey
   traffic while members churn — gap detection plus resync heals every
   survivor without manual intervention;
2. one member crashes mid-run and restarts four rounds later — its
   heartbeat betrays the stale key view and the server pushes a resync;
3. three members die for good — heartbeat silence escalates to an
   automatic eviction, and the batch backend sheds the whole queue as
   ONE group-oriented rekey (not three);
4. the evicted keys are forward-secure: the dead members' keysets
   cannot open post-eviction traffic.

Run:  python examples/chaos_demo.py
"""

from repro.chaos import ChaosTransport, FaultProfile
from repro.chaos.scenarios import ScenarioConfig, _execute
from repro.core.messages import MSG_DATA, Destination, Message, OutboundMessage
from repro.recovery import RecoveryPolicy
from repro.transport.inmemory import InMemoryNetwork


def main():
    print("== 1. seeded faults at the transport boundary ==")
    profile = FaultProfile(name="demo", seed=b"chaos-demo",
                           drop_rate=0.15, duplicate_rate=0.10,
                           delay_rate=0.25, max_delay=3)
    chaos = ChaosTransport(InMemoryNetwork(strict=False), profile)
    inbox = []
    chaos.attach("alice", inbox.append)
    for i in range(100):
        message = Message(msg_type=7, body=bytes([i]))
        chaos.send(OutboundMessage(Destination.to_user("alice"), message,
                                   ("alice",), message.encode()))
    chaos.quiesce()
    order = [Message.decode(m).body[0] for m in inbox]
    print(f"  sent 100, delivered {len(order)} "
          f"(faults: {dict(chaos.injected)})")
    print(f"  reordered: {order != sorted(order)}, "
          f"deterministic: same seed replays the same run\n")

    print("== 2. churn under chaos, one member crash/restart ==")
    report_config = ScenarioConfig(
        name="demo-crash", stack="server", profile="lossy-reorder",
        n_initial=12, rounds=12,
        crash_at={3: ["u1"]}, restart_at={7: ["u1"]},
        seed=b"chaos-demo")
    harness, report = _execute(report_config)
    print(f"  {report.summary()}")
    print(f"  u1 crashed at round 3, restarted at 7, healed by resync; "
          f"desyncs detected: {report.desyncs}, "
          f"resyncs served: {report.resyncs}")
    assert report.passed and report.evicted == []
    print(f"  all {report.survivors} survivors hold the group key and "
          f"decrypted the post-recovery probe\n")

    print("== 3. mass death -> eviction shed as one batch flush ==")
    shed_config = ScenarioConfig(
        name="demo-shed", stack="batch", profile="drop10",
        n_initial=16, rounds=10,
        crash_at={2: ["u0", "u1", "u2"]},
        policy=RecoveryPolicy(dead_after=3, shed_threshold=3),
        seed=b"chaos-demo-shed")
    harness, report = _execute(shed_config)
    print(f"  {report.summary()}")
    print(f"  three members went silent; heartbeat surveillance evicted "
          f"{sorted(report.evicted)}")
    print(f"  shed flushes: {report.shed_flushes} "
          f"(one group-oriented rekey for the whole queue)\n")
    assert report.passed and report.shed_flushes == 1

    print("== 4. evicted keys are forward-secure ==")
    dead = harness.members["u0"].client
    sealed = harness.server.seal_group_message(b"post-eviction secret")
    if dead.receive(sealed.encoded) != (MSG_DATA, None):
        raise AssertionError("evicted member decrypted new traffic!")
    print("  u0's retained keyset cannot open post-eviction traffic")
    survivor = harness.members[report_survivor(harness)].client
    print(f"  a survivor decrypts it fine: "
          f"{survivor is not None and harness.data_check()}")
    print("\nThe paper's reliable-delivery assumption is now a module, "
          "not a requirement.")


def report_survivor(harness):
    return harness._live()[0]


if __name__ == "__main__":
    main()
