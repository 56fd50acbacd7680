"""GroupKeyServer behaviour: config, ACL, protocol flows, determinism."""

import threading

import pytest

from repro.core.messages import (MSG_DATA, MSG_JOIN_ACK, MSG_JOIN_DENIED,
                                 MSG_JOIN_REQUEST, MSG_LEAVE_ACK,
                                 MSG_LEAVE_DENIED, MSG_LEAVE_REQUEST,
                                 MSG_REKEY, Message)
from repro.core.server import (AccessDenied, GroupKeyServer, ServerConfig,
                               ServerError)
from repro.crypto.suite import (PAPER_SUITE, PAPER_SUITE_ENC_ONLY,
                                PAPER_SUITE_NO_SIG)

from ..delivery import subscribed


def make_server(**overrides):
    defaults = dict(strategy="group", degree=3, suite=PAPER_SUITE_NO_SIG,
                    signing="none", seed=b"server-tests")
    defaults.update(overrides)
    return GroupKeyServer(ServerConfig(**defaults))


def reach(server, user_ids):
    """Who each message reaches on a network where ``user_ids`` are
    attached, subscribed as the server's membership stands."""
    network = subscribed(server, dict.fromkeys(user_ids),
                         handler=lambda _client: (lambda payload: None))
    return lambda message: set(network.audience.receivers(message))


def populated_server(n=8, **overrides):
    server = make_server(**overrides)
    members = [(f"u{i}", server.new_individual_key()) for i in range(n)]
    server.bootstrap(members)
    return server, dict(members)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ServerError):
            ServerConfig(graph="mesh").validate()
        with pytest.raises(ServerError):
            ServerConfig(strategy="telepathy").validate()
        with pytest.raises(ServerError):
            ServerConfig(signing="wax-seal").validate()
        with pytest.raises(ServerError):
            ServerConfig(signing="merkle",
                         suite=PAPER_SUITE_ENC_ONLY).validate()

    def test_star_ignores_strategy_field(self):
        ServerConfig(graph="star", strategy="anything-goes",
                     signing="none").validate()


class TestMembership:
    def test_bootstrap(self):
        server, members = populated_server(10)
        assert server.n_users == 10
        assert sorted(server.members()) == sorted(members)
        assert server.is_member("u3")
        assert not server.is_member("stranger")

    def test_bootstrap_requires_empty_group(self):
        server, _ = populated_server(3)
        with pytest.raises(ServerError):
            server.bootstrap([("x", server.new_individual_key())])

    def test_group_key_ref_empty_group(self):
        server = make_server()
        with pytest.raises(ServerError):
            server.group_key_ref()

    def test_join_duplicate(self):
        server, _ = populated_server(3)
        with pytest.raises(ServerError):
            server.join("u0", server.new_individual_key())

    def test_leave_unknown(self):
        server, _ = populated_server(3)
        with pytest.raises(ServerError):
            server.leave("stranger")

    def test_join_without_registered_key(self):
        server, _ = populated_server(3)
        with pytest.raises(ServerError):
            server.join("newbie")

    def test_registered_key_flow(self):
        server, _ = populated_server(3)
        key = server.new_individual_key()
        server.register_individual_key("newbie", key)
        outcome = server.join("newbie")
        assert server.is_member("newbie")
        assert outcome.record.op == "join"

    def test_register_rejects_bad_length(self):
        server = make_server()
        with pytest.raises(ServerError):
            server.register_individual_key("x", b"too-short")


class TestAccessControl:
    def test_acl_denies_outsider(self):
        server = make_server(access_list={"alice", "bob"})
        with pytest.raises(AccessDenied):
            server.join("mallory", server.new_individual_key())
        server.join("alice", server.new_individual_key())
        assert server.is_member("alice")

    def test_acl_checked_at_bootstrap(self):
        server = make_server(access_list={"alice"})
        with pytest.raises(AccessDenied):
            server.bootstrap([("mallory", server.new_individual_key())])


class TestOutcomes:
    def test_join_outcome_shape(self):
        server, _ = populated_server(8)
        outcome = server.join("u8", server.new_individual_key())
        record = outcome.record
        assert record.op == "join"
        assert record.n_rekey_messages == len(outcome.rekey_messages)
        assert record.rekey_bytes == sum(m.size for m in outcome.rekey_messages)
        assert record.encryptions > 0
        assert record.seconds >= 0
        assert record.n_users_after == 9
        assert len(outcome.control_messages) == 1
        ack = outcome.control_messages[0].message
        assert ack.msg_type == MSG_JOIN_ACK
        leaf_id = int.from_bytes(ack.body[:4], "big")
        assert leaf_id == server.tree.leaf_of("u8").node_id

    def test_leave_outcome_shape(self):
        server, members = populated_server(8)
        outcome = server.leave("u5")
        assert outcome.record.op == "leave"
        assert outcome.record.n_users_after == 7
        assert outcome.control_messages[0].message.msg_type == MSG_LEAVE_ACK
        reached = reach(server, members)
        for message in outcome.rekey_messages:
            assert "u5" not in reached(message)

    def test_history_accumulates(self):
        server, _ = populated_server(4)
        server.join("x", server.new_individual_key())
        server.leave("x")
        assert [r.op for r in server.history] == ["join", "leave"]

    def test_rekey_messages_have_resolved_receivers(self):
        # Resolved by the transport: every message reaches someone, and
        # together they reach exactly the remaining members.
        server, members = populated_server(9)
        outcome = server.leave("u4")
        reached = reach(server, members)
        all_receivers = set()
        for message in outcome.rekey_messages:
            assert reached(message)
            all_receivers.update(reached(message))
        assert all_receivers == set(server.members())


class TestFailedOps:
    @pytest.mark.parametrize("op", ["join", "leave"])
    def test_failed_op_does_not_wedge_the_server(self, monkeypatch, op):
        """An op that fails after its plan — here while signing its ack,
        which is built while the op still holds its seal turn — must
        retire that turn, or every later op's seal waits forever."""
        server, _keys = populated_server()
        ack_type = MSG_JOIN_ACK if op == "join" else MSG_LEAVE_ACK
        real = server._control_message
        failed = []

        def ack_fails_once(msg_type, *args, **kwargs):
            if msg_type == ack_type and not failed:
                failed.append(msg_type)
                raise RuntimeError("ack signing failed")
            return real(msg_type, *args, **kwargs)
        monkeypatch.setattr(server, "_control_message", ack_fails_once)
        with pytest.raises(RuntimeError):
            if op == "join":
                server.join("n0", server.new_individual_key())
            else:
                server.leave("u0")
        assert server.pipeline.seal_order.idle
        done = []
        worker = threading.Thread(target=lambda: done.append(
            server.join("n1", server.new_individual_key())), daemon=True)
        worker.start()
        worker.join(3.0)
        assert done and done[0].control_messages[0].message.msg_type \
            == MSG_JOIN_ACK


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        def run():
            server, _ = populated_server(8, seed=b"fixed-seed")
            outcome = server.join("x", server.new_individual_key())
            return [m.encoded for m in outcome.rekey_messages]

        first, second = run(), run()
        # Timestamps differ; compare everything else via re-decode.
        assert len(first) == len(second)
        for a, b in zip(first, second):
            ma, mb = Message.decode(a), Message.decode(b)
            assert [i.ciphertext for i in ma.items] == [
                i.ciphertext for i in mb.items]

    def test_different_seed_different_keys(self):
        a = make_server(seed=b"seed-a").new_individual_key()
        b = make_server(seed=b"seed-b").new_individual_key()
        assert a != b


class TestGroupData:
    def test_seal_group_message(self):
        server, members = populated_server(5)
        outbound = server.seal_group_message(b"attack at dawn")
        assert outbound.message.msg_type == MSG_DATA
        assert reach(server, members)(outbound) == set(server.members())
        # Decryptable under the group key.
        from repro.core.client import GroupClient
        uid, key = next(iter(members.items()))
        client = GroupClient(uid, server.suite, verify=False)
        client.set_individual_key(key)
        ref = server.group_key_ref()
        client.keys[ref[0]] = (ref[1], server.group_key())
        client.root_ref = ref
        assert client.open_data(outbound.encoded) == b"attack at dawn"


class TestDatagramInterface:
    def test_join_and_leave_datagrams(self):
        server, _ = populated_server(4)
        key = server.new_individual_key()
        server.register_individual_key("newbie", key)
        request = Message(msg_type=MSG_JOIN_REQUEST, body=b"newbie")
        replies = server.handle_datagram(request.encode())
        types = [m.message.msg_type for m in replies]
        assert MSG_JOIN_ACK in types and MSG_REKEY in types
        assert server.is_member("newbie")

        leave = Message(msg_type=MSG_LEAVE_REQUEST, body=b"newbie")
        replies = server.handle_datagram(leave.encode())
        types = [m.message.msg_type for m in replies]
        assert MSG_LEAVE_ACK in types
        assert not server.is_member("newbie")

    def test_denied_datagrams(self):
        server, _ = populated_server(4)
        # Join without a registered key -> denied.
        request = Message(msg_type=MSG_JOIN_REQUEST, body=b"ghost")
        replies = server.handle_datagram(request.encode())
        assert replies[0].message.msg_type == MSG_JOIN_DENIED
        # Leave of a non-member -> denied.
        leave = Message(msg_type=MSG_LEAVE_REQUEST, body=b"ghost")
        replies = server.handle_datagram(leave.encode())
        assert replies[0].message.msg_type == MSG_LEAVE_DENIED

    def test_malformed_datagram(self):
        server, _ = populated_server(2)
        with pytest.raises(ServerError):
            server.handle_datagram(b"junk")
        with pytest.raises(ServerError):
            server.handle_datagram(
                Message(msg_type=MSG_DATA, body=b"u0").encode())


class TestSigningModes:
    def test_merkle_signs_once_per_request(self):
        server, _ = populated_server(8, suite=PAPER_SUITE, signing="merkle",
                                     strategy="key")
        outcome = server.leave("u3")
        assert outcome.record.signatures == 1
        assert outcome.record.n_rekey_messages > 1

    def test_per_message_signs_each(self):
        server, _ = populated_server(8, suite=PAPER_SUITE,
                                     signing="per-message", strategy="key")
        outcome = server.leave("u3")
        assert outcome.record.signatures == outcome.record.n_rekey_messages

    def test_public_key_exposure(self):
        signed, _ = populated_server(2, suite=PAPER_SUITE, signing="merkle")
        assert signed.public_key is not None
        unsigned, _ = populated_server(2)
        assert unsigned.public_key is None
