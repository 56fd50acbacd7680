"""Security invariants of the rekeying protocols (DESIGN.md §5).

These are the properties the paper's design exists to provide:

* **Forward secrecy** — after a leave, nothing sent from then on is
  decryptable with the keys the departed user held;
* **Backward secrecy** — a joiner cannot decrypt rekey traffic captured
  before its join;
* **Completeness** — after any operation every current member can
  recover the new group key from the messages addressed to it.

All tests run with the real DES suite and real wire messages; the
hypothesis test drives random join/leave sequences through every
strategy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import GroupClient
from repro.core.messages import INDIVIDUAL_KEY, decrypt_records
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG

from ..delivery import deliver

STRATEGIES = ("user", "key", "group", "hybrid")


class World:
    """A server plus fully-simulated honest clients and an eavesdropper
    log of every rekey message ever multicast."""

    def __init__(self, strategy, degree=3, seed=b"security"):
        self.server = GroupKeyServer(ServerConfig(
            strategy=strategy, degree=degree, suite=PAPER_SUITE_NO_SIG,
            signing="none", seed=seed))
        self.clients = {}
        self.captured = []  # every rekey message ever sent (eavesdropper)

    def join(self, user_id):
        key = self.server.new_individual_key()
        client = GroupClient(user_id, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        self.clients[user_id] = client
        outcome = self.server.join(user_id, key)
        client.process_control(outcome.control_messages[0].encoded)
        self.deliver(outcome)
        return outcome

    def leave(self, user_id):
        outcome = self.server.leave(user_id)
        departed = self.clients.pop(user_id)
        self.deliver(outcome)
        return outcome, departed

    def deliver(self, outcome):
        self.captured.extend(outcome.rekey_messages)
        deliver(self.server, self.clients, outcome.rekey_messages)

    def assert_synchronized(self):
        group_key = self.server.group_key()
        for user_id, client in self.clients.items():
            assert client.group_key() == group_key, user_id


def attacker_can_decrypt(suite, keyset, messages):
    """Can a holder of exactly ``keyset`` (node->(ver,key)) decrypt any
    item of ``messages``, iterating like an honest client would?"""
    keys = dict(keyset)
    progress = True
    learned = False
    while progress:
        progress = False
        for outbound in messages:
            for item in outbound.message.items:
                if item.enc_node_id == INDIVIDUAL_KEY:
                    continue  # bound to a specific unicast target
                held = keys.get(item.enc_node_id)
                if held is None or held[0] != item.enc_version:
                    continue
                for record in decrypt_records(suite, held[1], item):
                    if keys.get(record.node_id) != (record.version,
                                                    record.key):
                        keys[record.node_id] = (record.version, record.key)
                        learned = True
                        progress = True
    return learned, keys


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forward_secrecy_single_leave(strategy):
    world = World(strategy)
    for i in range(9):
        world.join(f"u{i}")
    world.captured.clear()

    victim = world.clients["u4"]
    old_keys = dict(victim.keys)
    old_keys[world.server.tree.leaf_of("u4").node_id] = (
        0, victim.individual_key)
    world.leave("u4")

    learned, final = attacker_can_decrypt(PAPER_SUITE_NO_SIG, old_keys,
                                          world.captured)
    # The departed user must not learn ANY new key, in particular not the
    # new group key.
    assert not learned
    root_id, root_version = world.server.group_key_ref()
    assert final.get(root_id, (None, None))[0] != root_version
    world.assert_synchronized()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forward_secrecy_persists_across_later_operations(strategy):
    world = World(strategy)
    for i in range(8):
        world.join(f"u{i}")
    _outcome, departed = world.leave("u3")
    old_keys = dict(departed.keys)
    world.captured.clear()
    # Subsequent churn must also stay opaque to the departed user.
    world.join("newcomer")
    world.leave("u5")
    world.join("another")
    learned, final = attacker_can_decrypt(PAPER_SUITE_NO_SIG, old_keys,
                                          world.captured)
    assert not learned
    world.assert_synchronized()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_backward_secrecy(strategy):
    world = World(strategy)
    for i in range(9):
        world.join(f"u{i}")
    pre_join_traffic = list(world.captured)
    old_group_ref = world.server.group_key_ref()
    old_group_key = world.server.group_key()

    world.join("latecomer")
    latecomer = world.clients["latecomer"]
    # The latecomer's keyset (including its individual key) must not
    # decrypt anything captured before it joined.
    keyset = dict(latecomer.keys)
    leaf_id = world.server.tree.leaf_of("latecomer").node_id
    keyset[leaf_id] = (0, latecomer.individual_key)
    learned, final = attacker_can_decrypt(PAPER_SUITE_NO_SIG, keyset,
                                          pre_join_traffic)
    assert not learned
    # In particular it must not hold the pre-join group key.
    assert final.get(old_group_ref[0], (None, None)) != (
        old_group_ref[1], old_group_key)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_completeness_under_scripted_churn(strategy):
    world = World(strategy)
    for i in range(12):
        world.join(f"u{i}")
        world.assert_synchronized()
    for victim in ("u0", "u5", "u11", "u7"):
        world.leave(victim)
        world.assert_synchronized()
    for i in range(12, 18):
        world.join(f"u{i}")
        world.assert_synchronized()


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_leaver_keys_never_used_for_encryption(strategy):
    """Structural variant of forward secrecy: no item in post-leave
    traffic is encrypted under any (node, version) the leaver held."""
    world = World(strategy, degree=4)
    for i in range(16):
        world.join(f"u{i}")
    victim = world.clients["u9"]
    held = set()
    for node_id, (version, _key) in victim.keys.items():
        held.add((node_id, version))
    world.captured.clear()
    world.leave("u9")
    for outbound in world.captured:
        for item in outbound.message.items:
            assert (item.enc_node_id, item.enc_version) not in held


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_random_churn_completeness_and_forward_secrecy(data):
    """Random strategy/degree/sequence: synchronization always holds and
    every departed user's keyset stays dead."""
    strategy = data.draw(st.sampled_from(STRATEGIES))
    degree = data.draw(st.integers(min_value=2, max_value=4))
    world = World(strategy, degree=degree, seed=b"hypothesis")
    counter = 0
    departed_keysets = []
    for _ in range(data.draw(st.integers(min_value=4, max_value=14))):
        member_ids = sorted(world.clients)
        do_join = data.draw(st.booleans()) or len(member_ids) < 2
        if do_join:
            world.join(f"m{counter}")
            counter += 1
        else:
            victim_id = data.draw(st.sampled_from(member_ids))
            world.captured.clear()
            _outcome, departed = world.leave(victim_id)
            departed_keysets.append(dict(departed.keys))
        if world.clients:
            world.assert_synchronized()
    for keyset in departed_keysets:
        learned, _ = attacker_can_decrypt(PAPER_SUITE_NO_SIG, keyset,
                                          world.captured)
        assert not learned


@pytest.mark.parametrize("graph", ["star"])
def test_star_forward_and_backward_secrecy(graph):
    server = GroupKeyServer(ServerConfig(
        graph="star", suite=PAPER_SUITE_NO_SIG, signing="none",
        seed=b"star-sec"))
    clients = {}
    captured = []

    def join(uid):
        key = server.new_individual_key()
        client = GroupClient(uid, PAPER_SUITE_NO_SIG, verify=False)
        client.set_individual_key(key)
        clients[uid] = client
        outcome = server.join(uid, key)
        client.process_control(outcome.control_messages[0].encoded)
        captured.extend(outcome.rekey_messages)
        deliver(server, clients, outcome.rekey_messages)

    for i in range(6):
        join(f"u{i}")
    pre_join = list(captured)
    join("late")
    late = clients["late"]
    learned, _ = attacker_can_decrypt(
        PAPER_SUITE_NO_SIG, dict(late.keys), pre_join)
    assert not learned

    # Leave: departed member's group key is dead afterwards.
    captured.clear()
    departed = clients.pop("u2")
    outcome = server.leave("u2")
    captured.extend(outcome.rekey_messages)
    deliver(server, clients, outcome.rekey_messages)
    learned, _ = attacker_can_decrypt(
        PAPER_SUITE_NO_SIG, dict(departed.keys), captured)
    assert not learned
    for uid, client in clients.items():
        assert client.group_key() == server.group_key(), uid
