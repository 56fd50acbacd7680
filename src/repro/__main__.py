"""Command line interface: drive a UDP client or run a local demo.

Mirrors the paper's deployment: the key server process initialized from
a specification file (``python -m repro.serve``), with clients
exchanging request/rekey datagrams over UDP.

Usage::

    # Terminal 1: serve (prints the bound port, the server's public key
    # and one member key)
    python -m repro.serve keyserver.spec --udp-port 9500 --preregister 1

    # Terminal 2: join, receive rekeys, leave
    python -m repro client --port 9500 --user user0 --key <hex> \\
        --server-key <n:e from serve> --leave

    # One-shot local demo (async service + N blocking clients over UDP)
    python -m repro demo --members 6
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from .core.server import GroupKeyServer, ServerConfig
from .crypto.rsa import RsaPublicKey
from .crypto.suite import PAPER_SUITE, PAPER_SUITE_NO_SIG
from .serve import AsyncKeyService, ImmediateServingCore
from .transport.udp import UdpGroupMember


def _public_key(text: str) -> RsaPublicKey:
    """Parse the ``n:e`` hex pair ``python -m repro.serve`` prints."""
    modulus, _, exponent = text.partition(":")
    try:
        return RsaPublicKey(int(modulus, 16), int(exponent, 16))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected the server key as hex n:e") from None


def cmd_client(args) -> int:
    """Join a running server, pump rekeys, optionally leave."""
    member = UdpGroupMember(args.user, PAPER_SUITE,
                            ("127.0.0.1", args.port),
                            server_public_key=args.server_key,
                            timeout=args.timeout)
    try:
        member.join(bytes.fromhex(args.key))
        print(f"{args.user} joined; leaf node {member.client.leaf_node_id}")
        deadline = time.time() + args.listen
        while time.time() < deadline:
            got = member.pump(timeout=0.5)
            if got:
                print(f"  processed {got} message(s); "
                      f"holding {member.client.key_count()} keys")
        if args.leave:
            member.leave()
            print(f"{args.user} left the group")
    finally:
        member.close()
    return 0


def _demo_members(server: GroupKeyServer, keys: dict, address) -> None:
    """The blocking half of the demo: members join, one leaves."""
    members = []
    try:
        for user, key in keys.items():
            member = UdpGroupMember(user, PAPER_SUITE_NO_SIG, address,
                                    timeout=10.0)
            members.append(member)
            member.join(key)
            print(f"  {user} joined over UDP")
        for member in members:
            member.pump()
        group_key = server.group_key()
        in_sync = sum(1 for member in members
                      if member.client.group_key() == group_key)
        print(f"{in_sync}/{len(members)} clients hold the group key")
        members[0].leave()
        for member in members[1:]:
            member.pump()
        new_key = server.group_key()
        in_sync = sum(1 for member in members[1:]
                      if member.client.group_key() == new_key)
        print(f"after one leave: {in_sync}/{len(members) - 1} rekeyed")
    finally:
        for member in members:
            member.close()


def cmd_demo(args) -> int:
    """Self-contained UDP demo: one async service, several members."""
    server = GroupKeyServer(ServerConfig(
        strategy="group", degree=4, suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"cli-demo"))
    keys = {f"demo{index}": server.new_individual_key()
            for index in range(args.members)}
    for user, key in keys.items():
        server.register_individual_key(user, key)

    async def serve() -> None:
        async with AsyncKeyService(ImmediateServingCore(server)) as service:
            print(f"demo server on {service.udp_address}")
            # The blocking clients run beside the service's event loop.
            await asyncio.to_thread(_demo_members, server, keys,
                                    service.udp_address)

    asyncio.run(serve())
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SIGCOMM '98 key-graphs group key management")
    subparsers = parser.add_subparsers(dest="command", required=True)

    client = subparsers.add_parser("client", help="join a running server")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--user", required=True)
    client.add_argument("--key", required=True,
                        help="individual key (hex) from the server")
    client.add_argument("--server-key", type=_public_key, default=None,
                        help="the server's public key (hex n:e, printed "
                             "by python -m repro.serve) to verify "
                             "signed rekeys")
    client.add_argument("--listen", type=float, default=5.0,
                        help="seconds to keep processing rekey messages")
    client.add_argument("--timeout", type=float, default=5.0)
    client.add_argument("--leave", action="store_true",
                        help="leave the group before exiting")
    client.set_defaults(func=cmd_client)

    demo = subparsers.add_parser("demo", help="self-contained UDP demo")
    demo.add_argument("--members", type=int, default=6)
    demo.set_defaults(func=cmd_demo)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
