#!/usr/bin/env python3
"""Quickstart: a secure group in ~60 lines.

Creates a group key server (key tree, group-oriented rekeying, DES +
MD5 + RSA-512 — the paper's configuration), admits three members,
sends a confidential group message, and shows that a departed member
is rekeyed out (forward secrecy).

Run:  python examples/quickstart.py
"""

from repro import GroupClient, GroupKeyServer, ServerConfig
from repro.crypto import PAPER_SUITE
from repro.transport import InMemoryNetwork


def main():
    # The server is the single trusted entity (paper §6 "Trust").
    server = GroupKeyServer(ServerConfig(
        strategy="group",      # one rekey multicast per join/leave
        degree=4,              # the paper's optimal key tree degree
        suite=PAPER_SUITE,     # DES-CBC + MD5 + RSA-512
        signing="merkle",      # §4's one-signature-per-request technique
        seed=b"quickstart",    # deterministic demo
    ))

    clients = {}
    # The network: the server sends each rekey once, to the group
    # address, and the network works out who is subscribed.
    network = InMemoryNetwork()

    def join(name):
        # In deployment the individual key comes from an authentication
        # exchange (Kerberos etc.); here the server issues it directly.
        individual_key = server.new_individual_key()
        client = GroupClient(name, PAPER_SUITE, server.public_key)
        client.set_individual_key(individual_key)
        clients[name] = client
        outcome = server.join(name, individual_key)
        client.process_control(outcome.control_messages[0].encoded)
        # Subscribed before the join's rekeys go out.
        network.attach(name, client.process_message)
        network.send_all(outcome.rekey_messages)
        print(f"  {name} joined: {outcome.record.n_rekey_messages} rekey "
              f"message(s), {outcome.record.encryptions} key encryptions, "
              f"{outcome.record.rekey_bytes} bytes")

    print("== three members join ==")
    for name in ("alice", "bob", "carol"):
        join(name)

    print("\n== confidential group message ==")
    sealed = server.seal_group_message(b"meeting moved to 3pm")
    for name, client in clients.items():
        plaintext = client.open_data(sealed.encoded)
        print(f"  {name} reads: {plaintext.decode()}")

    print("\n== bob leaves; the group key changes ==")
    bob = clients.pop("bob")
    bobs_old_group_key = bob.group_key()
    outcome = server.leave("bob")
    network.detach("bob")  # off the group before its rekey goes out
    network.send_all(outcome.rekey_messages)
    print(f"  leave: {outcome.record.n_rekey_messages} rekey message(s), "
          f"{outcome.record.encryptions} key encryptions")

    sealed = server.seal_group_message(b"salary review notes (not for bob)")
    for name, client in clients.items():
        print(f"  {name} reads: {client.open_data(sealed.encoded).decode()}")

    assert bob.group_key() == bobs_old_group_key  # bob learned nothing new
    assert bobs_old_group_key != server.group_key()
    print("  bob still holds only the OLD group key -> forward secrecy")


if __name__ == "__main__":
    main()
