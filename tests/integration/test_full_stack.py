"""Cross-subsystem integration tests.

Each test wires several subsystems together the way a deployment would:
multigroup + channels, UDP + channels, batch rekeying over a lossy
reliable transport, persistence + multigroup.
"""

import pytest

from repro.chaos import ChaosTransport, FaultProfile
from repro.core.channel import ChannelError, SecureGroupChannel
from repro.core.client import GroupClient
from repro.core.persistence import restore, snapshot
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG as SUITE
from repro.multigroup import MultiGroupService
from repro.transport import InMemoryNetwork, ReliableDelivery

from ..delivery import deliver


def deliver_outcome(server, outcome, clients):
    for message in outcome.control_messages:
        for receiver in message.receivers:
            if receiver in clients:
                clients[receiver].process_control(message.encoded)
    deliver(server, clients, outcome.rekey_messages)


class TestMultigroupChannels:
    """Per-room channels: room isolation holds at the application layer."""

    def setup_method(self):
        self.service = MultiGroupService(suite=SUITE, seed=b"integration")
        self.rooms = ("ops", "engineering")
        self.members = {"ops": ["ana", "boris"],
                        "engineering": ["boris", "chen"]}
        for user in ("ana", "boris", "chen"):
            self.service.register_user(user)
        self.clients = {}  # (room, user) -> GroupClient
        for room in self.rooms:
            self.service.create_group(room, degree=3)
            for user in self.members[room]:
                client = GroupClient(user, SUITE, verify=False)
                client.set_individual_key(self.service.individual_key(user))
                self.clients[(room, user)] = client
                outcome = self.service.join(room, user)
                client.process_control(outcome.control_messages[0].encoded)
                deliver(self.service.group(room),
                        {member: self.clients[(room, member)]
                         for member in self.members[room]
                         if (room, member) in self.clients},
                        outcome.rekey_messages)
        self.channels = {key: SecureGroupChannel.for_client(client)
                         for key, client in self.clients.items()}

    def test_in_room_chat_works(self):
        frame = self.channels[("ops", "ana")].seal(b"deploy at noon")
        payload, sender, _seq = self.channels[("ops", "boris")].open(frame)
        assert payload == b"deploy at noon" and sender == "ana"

    def test_cross_room_isolation(self):
        """chen (engineering only) cannot read ops frames, even though
        boris shares an individual key across both rooms."""
        frame = self.channels[("ops", "ana")].seal(b"ops secret")
        with pytest.raises(ChannelError):
            self.channels[("engineering", "chen")].open(frame)

    def test_shared_member_bridges_consciously(self):
        """boris can read in both rooms with the right channel each time."""
        ops_frame = self.channels[("ops", "ana")].seal(b"to ops")
        eng_frame = self.channels[("engineering", "chen")].seal(b"to eng")
        assert self.channels[("ops", "boris")].open(ops_frame)[0] == b"to ops"
        assert self.channels[("engineering", "boris")].open(
            eng_frame)[0] == b"to eng"


class TestBatchOverLossyReliable:
    """A batch flush delivered by ack/retransmit over a lossy network."""

    def test_flush_over_lossy_reliable(self):
        server = GroupKeyServer(ServerConfig(degree=4, suite=SUITE,
                                             signing="none",
                                             seed=b"batch-loss"))
        members = [(f"u{i}", server.new_individual_key()) for i in range(64)]
        server.bootstrap(members)
        chaos = ChaosTransport(InMemoryNetwork(), FaultProfile(
            seed=b"batch-loss-drops", drop_rate=0.15))
        reliable = ReliableDelivery(chaos)
        clients = {}
        for uid, key in members:
            client = GroupClient(uid, SUITE, verify=False)
            client.set_individual_key(key)
            client.set_leaf(server.tree.leaf_of(uid).node_id)
            for node in server.tree.user_key_path(uid)[1:]:
                client.keys[node.node_id] = (node.version, node.key)
            client.root_ref = (server.tree.root.node_id,
                               server.tree.root.version)
            clients[uid] = client
            reliable.attach(uid, client.process_message)
        leavers = [f"u{i}" for i in range(12)]
        for uid in leavers:
            reliable.detach(uid)
            del clients[uid]
        reliable.send_all(server.flush((), leavers).rekey_messages)
        group_key = server.tree.root.key
        # Copies were lost and resent, and every remaining member holds
        # the new group key.
        assert chaos.injected["drop"] > 0
        assert reliable.stats.retransmissions > 0
        assert all(client.group_key() == group_key
                   for client in clients.values())


class TestPersistenceAcrossGroups:
    def test_each_group_snapshots_independently(self):
        service = MultiGroupService(suite=SUITE, seed=b"persist-mg")
        for user in ("ana", "boris"):
            service.register_user(user)
        service.create_group("alpha", degree=3)
        service.create_group("beta", degree=3)
        service.join("alpha", "ana")
        service.join("beta", "boris")
        alpha_blob = snapshot(service.group("alpha"))
        beta_blob = snapshot(service.group("beta"))
        alpha_standby = restore(alpha_blob)
        beta_standby = restore(beta_blob)
        assert alpha_standby.group_key() == service.group("alpha").group_key()
        assert beta_standby.group_key() == service.group("beta").group_key()
        assert alpha_standby.group_key() != beta_standby.group_key()


class TestRefreshThroughChannel:
    def test_channels_survive_scheduled_refresh(self):
        from repro.core.server import GroupKeyServer, ServerConfig
        server = GroupKeyServer(ServerConfig(
            strategy="group", degree=3, suite=SUITE, signing="none",
            seed=b"refresh-chat"))
        clients = {}
        for i in range(4):
            uid = f"u{i}"
            key = server.new_individual_key()
            client = GroupClient(uid, SUITE, verify=False)
            client.set_individual_key(key)
            clients[uid] = client
            deliver_outcome(server, server.join(uid, key), clients)
        channels = {uid: SecureGroupChannel.for_client(client,
                                                       accept_previous_epochs=1)
                    for uid, client in clients.items()}
        channels["u0"].seal(b"warm-up")
        for _round in range(3):
            deliver(server, clients, server.refresh().rekey_messages)
            frame = channels["u0"].seal(f"round".encode())
            for uid in ("u1", "u2", "u3"):
                payload, _s, _q = channels[uid].open(frame)
                assert payload == b"round"
