#!/usr/bin/env python3
"""Secure group chat: the full stack in one example.

Combines everything the library provides:

* group key management (LKH key tree, group-oriented rekeying),
* authenticated member-to-group data frames with replay protection
  (``SecureGroupChannel``),
* reliable delivery (ack/retransmit) over a lossy network, the loss
  injected by a seeded ``ChaosTransport``,
* a server failover via state snapshot/restore mid-conversation.

Each step asserts what it prints.

Run:  python examples/secure_chat.py
"""

from repro.chaos import ChaosTransport, FaultProfile
from repro.core import (ChannelError, GroupClient, GroupKeyServer,
                        SecureGroupChannel, ServerConfig, restore, snapshot)
from repro.crypto import PAPER_SUITE_NO_SIG as SUITE
from repro.transport import InMemoryNetwork, ReliableDelivery


def main():
    server = GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=SUITE, signing="none",
        seed=b"chat-demo"))

    # A 25%-lossy network; rekey messages ride ack/retransmit, so every
    # lost copy is resent until it lands.
    chaos = ChaosTransport(InMemoryNetwork(), FaultProfile(
        seed=b"chat-loss", drop_rate=0.25))
    network = ReliableDelivery(chaos)

    clients, channels = {}, {}

    def join(name):
        key = server.new_individual_key()
        client = GroupClient(name, SUITE, verify=False)
        client.set_individual_key(key)
        clients[name] = client
        network.attach(name, client.receive)
        outcome = server.join(name, key)
        client.receive(outcome.control_messages[0].encoded)
        network.send_all(outcome.rekey_messages)
        channels[name] = SecureGroupChannel.for_client(
            client, accept_previous_epochs=1)

    def say(sender, text):
        frame = channels[sender].seal(text.encode())
        heard = []
        for name, channel in channels.items():
            if name != sender:
                payload, who, _seq = channel.open(frame)
                assert (payload, who) == (text.encode(), sender)
                heard.append(name)
        print(f"  <{sender}> {text}   [heard by {', '.join(sorted(heard))}]")
        return frame

    def in_sync():
        return sum(1 for client in clients.values()
                   if client.group_key() == server.group_key())

    print("== ana, boris, chen join over a 25% lossy network ==")
    for name in ("ana", "boris", "chen"):
        join(name)
    assert in_sync() == 3
    print("  3/3 in sync")

    print("\n== chat ==")
    say("ana", "did everyone get the new build?")
    frame = say("boris", "yes — deploying tonight")

    print("\n== replay attack ==")
    try:
        channels["chen"].open(frame)  # chen already opened it above
    except ChannelError as exc:
        print(f"  chen's channel rejected the replayed frame: {exc}")
    else:
        raise AssertionError("chen accepted a replayed frame")

    print("\n== server failover mid-conversation ==")
    blob = snapshot(server)
    server = restore(blob)
    print(f"  standby restored: {server.n_users} members, "
          "same keys, same sequence numbers")
    join("divya")  # served by the standby
    assert in_sync() == 4
    say("divya", "hi all, just joined via the standby server")

    print("\n== boris is expelled; his channel goes dark ==")
    boris_channel = channels.pop("boris")
    clients.pop("boris")
    network.detach("boris")
    outcome = server.leave("boris")
    network.send_all(outcome.rekey_messages)
    assert in_sync() == 3
    # Rebind remaining channels to the fresh epoch only.
    for name in list(channels):
        channels[name] = SecureGroupChannel.for_client(clients[name])
    frame = say("ana", "boris must not read this")
    try:
        boris_channel.open(frame)
    except ChannelError:
        print("  boris's stale keys cannot open post-expulsion frames "
              "(forward secrecy, end to end)")
    else:
        raise AssertionError("boris read a post-expulsion frame")

    # Every lost rekey copy was resent once per loss, never given up on.
    assert network.stats.retransmissions == chaos.injected["drop"] > 0
    print(f"\n== the lossy network lost {chaos.injected['drop']} of "
          f"{chaos.stats.deliveries + chaos.stats.drops} rekey copies; "
          "ack/retransmit resent each one ==")


if __name__ == "__main__":
    main()
