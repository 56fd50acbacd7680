"""The blocking UDP client against the async key service, real sockets."""

import socket
import time

import pytest

from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG
from repro.recovery import RecoveryPolicy
from repro.transport.udp import UdpGroupMember, UdpTransportError

from ..delivery import serve_beside


def _server():
    return GroupKeyServer(ServerConfig(
        strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"udp-tests"))


def _keys(server, users):
    """Mint and register individual keys before serving starts."""
    keys = {user: server.new_individual_key() for user in users}
    for user, key in keys.items():
        server.register_individual_key(user, key)
    return keys


def _member(user, address):
    return UdpGroupMember(user, PAPER_SUITE_NO_SIG, address, timeout=10.0)


def test_join_leave_over_udp():
    server = _server()
    keys = _keys(server, [f"c{i}" for i in range(5)])

    def drive(address):
        members = []
        try:
            for user, key in keys.items():
                members.append(_member(user, address))
                members[-1].join(key)
            # Let earlier members drain the rekeys later joins caused.
            for member in members:
                member.pump()
            group_key = server.group_key()
            for member in members:
                assert member.client.group_key() == group_key, member.user_id

            # One member leaves; the rest converge on the new key.
            members[2].leave()
            for index, member in enumerate(members):
                if index != 2:
                    member.pump()
            new_key = server.group_key()
            assert new_key != group_key
            for index, member in enumerate(members):
                if index != 2:
                    assert member.client.group_key() == new_key
            assert not server.is_member("c2")
        finally:
            for member in members:
                member.close()
    serve_beside(server, drive)


def test_join_denied_over_udp():
    # No registered individual key on a closed server -> denied.
    def drive(address):
        with _member("outsider", address) as member:
            with pytest.raises(UdpTransportError, match="denied"):
                member.join(bytes(8))
    serve_beside(_server(), drive)


def test_malformed_datagram_does_not_kill_server():
    server = _server()
    keys = _keys(server, ["after"])

    def drive(address):
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
            probe.sendto(b"garbage", address)
        # The service still serves a real client afterwards.
        with _member("after", address) as member:
            member.join(keys["after"])
            assert server.is_member("after")
    serve_beside(server, drive)


def test_pumping_member_is_not_evicted_for_silence():
    # pump() heartbeats: a member that only pumps outlives dead_after
    # recovery ticks of the service.
    server = _server()
    keys = _keys(server, ["quiet"])
    dead_after = RecoveryPolicy().dead_after
    interval = 0.05

    def drive(address):
        with _member("quiet", address) as member:
            member.join(keys["quiet"])
            deadline = time.monotonic() + 3 * dead_after * interval
            while time.monotonic() < deadline:
                member.pump(timeout=interval)
            return server.is_member("quiet")
    assert serve_beside(server, drive, tick_interval=interval)


def test_shed_join_raises_at_once():
    # A one-token bucket: the second join by the same user is shed with
    # MSG_BUSY, which must fail the request now, not at the timeout.
    server = _server()
    keys = _keys(server, ["greedy"])

    def drive(address):
        with _member("greedy", address) as member:
            member.join(keys["greedy"])
            started = time.monotonic()
            with pytest.raises(UdpTransportError, match="busy"):
                member.join(keys["greedy"])
            return time.monotonic() - started
    elapsed = serve_beside(server, drive, client_rate=0.001,
                           client_burst=1)
    assert elapsed < 5.0
