"""Rekeying over arbitrary key graphs via key covering (paper §2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import GroupClient
from repro.core.messages import INDIVIDUAL_KEY, decrypt_records
from repro.crypto.drbg import HmacDrbg
from repro.keygraph.covering import CoverError
from repro.keygraph.materialized import (GraphRekeyOutcome,
                                         MaterializedGraphError,
                                         MaterializedKeyGraph)
from repro.crypto.suite import PAPER_SUITE_NO_SIG as SUITE
from repro.transport.inmemory import InMemoryNetwork


def make_figure1(seed=b"materialized"):
    source = HmacDrbg(seed)
    return MaterializedKeyGraph.figure1(SUITE, lambda: source.generate(8))


def make_client(user, individual_key, group):
    """A GroupClient primed with the user's current graph keyset."""
    client = GroupClient(user, SUITE, verify=False)
    client.set_individual_key(individual_key)
    for name in group.keyset(user):
        wire_id, version = group.wire_ref(name)
        client.keys[wire_id] = (version, group.key_bytes(name))
    group_key = group.group_key_name()
    if group_key is not None:
        client.root_ref = group.wire_ref(group_key)
    return client


def deliver(group, clients, messages):
    """Send through a network on which the graph's members are
    subscribed as they stand after the op (a leaver already out)."""
    network = InMemoryNetwork(strict=False)
    for user in group.users():
        if user in clients:
            network.attach(user, clients[user].process_message)
    network.send_all(messages)


def test_figure1_materializes():
    group, individual = make_figure1()
    assert group.users() == ["u1", "u2", "u3", "u4"]
    assert group.keyset("u2") == {"k2", "k12", "k234", "k1234"}
    assert group.group_key_name() == "k1234"


def test_leave_replaces_exactly_the_shared_keys():
    group, _ = make_figure1()
    old_group_key = group.key_bytes("k1234")
    outcome = group.leave("u1")
    # u1 held k1 (exclusive: removed), k12 (shared with u2), k1234.
    assert sorted(outcome.replaced) == ["k12", "k1234"]
    assert "k1" not in group.graph.k_nodes
    assert group.key_bytes("k1234") != old_group_key
    # Untouched keys stay untouched.
    assert group.wire_ref("k234")[1] == 0


def test_leave_cover_avoids_leaver_keys():
    group, individual = make_figure1()
    u1_keyset = {group.wire_ref(name) for name in group.keyset("u1")}
    outcome = group.leave("u1")
    for message in outcome.messages:
        for item in message.message.items:
            assert (item.enc_node_id, item.enc_version) not in u1_keyset


def test_leave_remaining_users_can_follow():
    group, individual = make_figure1()
    clients = {user: make_client(user, individual[user], group)
               for user in ("u2", "u3", "u4")}
    outcome = group.leave("u1")
    deliver(group, clients, outcome.messages)
    new_group_ref = group.wire_ref("k1234")
    new_group_key = group.key_bytes("k1234")
    for user, client in clients.items():
        assert client.keys[new_group_ref[0]] == (
            new_group_ref[1], new_group_key), user
    # u2 also follows the k12 change.
    k12_ref = group.wire_ref("k12")
    assert clients["u2"].keys[k12_ref[0]] == (k12_ref[1],
                                              group.key_bytes("k12"))


def test_leave_uses_minimal_cover_on_figure1():
    group, _ = make_figure1()
    outcome = group.leave("u1")
    # k12 -> {u2} covered by k2 (1 item); k1234 -> {u2,u3,u4} covered by
    # k234 (1 item): 2 encryptions total.
    assert outcome.encryptions == 2


def test_leave_unknown_user():
    group, _ = make_figure1()
    with pytest.raises(MaterializedGraphError):
        group.leave("ghost")


def test_join_rekeys_gained_closure():
    group, individual = make_figure1()
    source = HmacDrbg(b"joiner")
    new_key = source.generate(8)
    clients = {user: make_client(user, individual[user], group)
               for user in group.users()}
    old_k234_version = group.wire_ref("k234")[1]
    outcome = group.join("u5", new_key, ["k234"])
    assert sorted(outcome.replaced) == ["k1234", "k234"]
    assert group.wire_ref("k234")[1] == old_k234_version + 1
    # Existing users follow via old-key encryptions.
    deliver(group, clients, outcome.messages)
    # The joiner learns exactly its closure from its bundle.
    joiner = GroupClient("u5", SUITE, verify=False)
    joiner.set_individual_key(new_key)
    bundle = outcome.messages[-1]
    assert bundle.receivers == ("u5",)
    joiner.process_message(bundle.encoded)
    for name in ("k234", "k1234"):
        wire_id, version = group.wire_ref(name)
        assert joiner.keys[wire_id] == (version, group.key_bytes(name))
    for user in ("u2", "u3", "u4"):
        wire_id, version = group.wire_ref("k1234")
        assert clients[user].keys[wire_id] == (
            version, group.key_bytes("k1234")), user


def test_join_backward_secrecy():
    """The joiner's bundle holds only NEW versions; captured pre-join
    items are useless to it."""
    group, individual = make_figure1()
    pre_join = group.leave("u3")  # generates some traffic first
    source = HmacDrbg(b"late")
    key = source.generate(8)
    outcome = group.join("u9", key, ["k234"])
    joiner = GroupClient("u9", SUITE, verify=False)
    joiner.set_individual_key(key)
    joiner.process_message(outcome.messages[-1].encoded)
    for message in pre_join.messages:
        for item in message.message.items:
            held = joiner.keys.get(item.enc_node_id)
            assert held is None or held[0] != item.enc_version


def test_cover_failure_when_no_safe_keys():
    """A graph where a user's every key is shared with the leaver is
    unservable — the covering machinery must say so, not mis-serve."""
    source = HmacDrbg(b"bad-graph")
    group = MaterializedKeyGraph(SUITE, lambda: source.generate(8))
    group.add_key("shared")
    group.add_user("a", source.generate(8), ["shared"])
    group.add_user("b", source.generate(8), ["shared"])
    with pytest.raises(CoverError):
        group.leave("a")


def test_multi_root_graph():
    """Key graphs may have several roots (paper §2.1)."""
    source = HmacDrbg(b"multiroot")
    group = MaterializedKeyGraph(SUITE, lambda: source.generate(8))
    for name in ("ka", "kb", "kab1", "kab2"):
        group.add_key(name)
    group.add_user("a", source.generate(8), ["ka", "kab1", "kab2"])
    group.add_user("b", source.generate(8), ["kb", "kab1", "kab2"])
    group.validate()
    outcome = group.leave("a")
    # Both shared roots replaced, each covered by kb.
    assert sorted(outcome.replaced) == ["kab1", "kab2"]
    assert outcome.encryptions == 2


@given(st.data())
@settings(max_examples=15, deadline=None)
def test_random_graph_leave_properties(data):
    """Random layered graphs: after a leave, (1) the departed user's old
    keyset decrypts nothing, (2) every remaining user can recover every
    replaced key it holds."""
    source = HmacDrbg(b"random-graph")
    keygen = lambda: source.generate(8)
    group = MaterializedKeyGraph(SUITE, keygen)
    n_users = data.draw(st.integers(min_value=2, max_value=6))
    n_shared = data.draw(st.integers(min_value=1, max_value=4))
    # Individual graph keys (one per user) + shared keys over subsets.
    for index in range(n_users):
        group.add_key(f"own{index}")
    shared_members = []
    for index in range(n_shared):
        group.add_key(f"shared{index}")
        members = data.draw(st.sets(st.integers(0, n_users - 1),
                                    min_size=2, max_size=n_users))
        shared_members.append(sorted(members))
    individual = {}
    for index in range(n_users):
        keys = [f"own{index}"] + [f"shared{s}" for s in range(n_shared)
                                  if index in shared_members[s]]
        key = keygen()
        individual[f"u{index}"] = key
        group.add_user(f"u{index}", key, keys)
    group.validate()

    victim = f"u{data.draw(st.integers(0, n_users - 1))}"
    clients = {user: make_client(user, individual[user], group)
               for user in group.users() if user != victim}
    victim_refs = {group.wire_ref(name) for name in group.keyset(victim)}
    outcome = group.leave(victim)
    for message in outcome.messages:
        for item in message.message.items:
            assert (item.enc_node_id, item.enc_version) not in victim_refs
    deliver(group, clients, outcome.messages)
    for user, client in clients.items():
        for name in group.keyset(user):
            wire_id, version = group.wire_ref(name)
            assert client.keys.get(wire_id) == (
                version, group.key_bytes(name)), (user, name)


def test_join_with_duplicate_key_names():
    """Duplicate entries in the joiner's key list collapse to one edge."""
    source = HmacDrbg(b"dup")
    group, _ = MaterializedKeyGraph.figure1(SUITE, lambda: source.generate(8))
    try:
        group.join("u9", source.generate(8), ["k234", "k234"])
    except Exception:
        return  # rejecting duplicates outright is also acceptable
    assert group.keyset("u9") == {"k234", "k1234"}
    group.validate()
