"""SocketFanout: dedup, drop filter, transport interface."""

from repro.core.messages import (MSG_REKEY, Destination, Message,
                                 OutboundMessage)
from repro.observability.metrics import MetricRegistry
from repro.serve.fanout import SocketFanout


def _outbound(receivers, body=b"k"):
    message = Message(msg_type=MSG_REKEY, body=body)
    return OutboundMessage(Destination.to_users(receivers), message,
                           tuple(receivers), message.encode())


def test_one_copy_per_distinct_path():
    fanout = SocketFanout()
    sent = []
    shared = sent.append
    # Three users share one path; one has its own.
    for user in ("a", "b", "c"):
        fanout.attach(user, shared, path_id="sock-1")
    own = []
    fanout.attach("d", own.append, path_id="sock-2")
    fanout.send(_outbound(["a", "b", "c", "d"]))
    assert len(sent) == 1
    assert len(own) == 1
    assert fanout.stats.multicast_sends == 1


def test_unknown_receivers_skipped():
    fanout = SocketFanout()
    got = []
    fanout.attach("a", got.append)
    fanout.send(_outbound(["a", "ghost"]))
    assert len(got) == 1


def test_detach_stops_delivery():
    fanout = SocketFanout()
    got = []
    fanout.attach("a", got.append)
    assert fanout.audience.known("a")
    fanout.detach("a")
    assert not fanout.audience.known("a")
    fanout.send(_outbound(["a"]))
    assert got == []
    assert len(fanout.audience) == 0


def test_drop_filter_loses_whole_path():
    """A dropped multicast copy is lost for every member on that path."""
    fanout = SocketFanout(MetricRegistry())
    delivered = []
    for user in ("a", "b"):
        fanout.attach(user, delivered.append, path_id="shared")
    fanout.drop_filter = lambda user_id, payload: user_id == "a"
    fanout.send(_outbound(["a", "b"]))
    # "a" was first, its copy dropped, and "b" rides the same path.
    assert delivered == []
    assert fanout.stats.drops == 1


def test_drop_filter_spares_other_paths():
    fanout = SocketFanout()
    got_a, got_b = [], []
    fanout.attach("a", got_a.append, path_id="pa")
    fanout.attach("b", got_b.append, path_id="pb")
    fanout.drop_filter = lambda user_id, payload: user_id == "a"
    fanout.send(_outbound(["a", "b"]))
    assert got_a == []
    assert len(got_b) == 1


def test_payload_override_carries_trailer():
    fanout = SocketFanout()
    got = []
    fanout.attach("a", got.append)
    out = _outbound(["a"])
    fanout.send(out, payload=out.encoded + b"TRAILER")
    assert got[0].endswith(b"TRAILER")
    assert Message.decode(got[0]).body == b"k"


def test_oserror_counts_as_drop():
    fanout = SocketFanout()

    def broken(_payload):
        raise OSError("gone")
    got = []
    fanout.attach("a", broken, path_id="pa")
    fanout.attach("b", got.append, path_id="pb")
    fanout.send(_outbound(["a", "b"]))
    assert fanout.stats.drops == 1
    assert len(got) == 1


def test_reattach_updates_path():
    """A reconnecting member's new reply path replaces the old one."""
    fanout = SocketFanout()
    old, new = [], []
    fanout.attach("a", old.append, path_id="old")
    fanout.attach("a", new.append, path_id="new")
    fanout.send(_outbound(["a"]))
    assert old == [] and len(new) == 1


# -- group addresses: resolved from the audience index -----------------------


def _group(exclude=None, audience=None, receivers=()):
    message = Message(msg_type=MSG_REKEY, body=b"g")
    return OutboundMessage(Destination.to_all(exclude=exclude), message,
                           receivers, message.encode(), audience=audience)


def test_group_address_reaches_every_path_of_members_once():
    fanout = SocketFanout()
    shared, own, outsider = [], [], []
    for user in ("a", "b", "c"):
        fanout.attach(user, shared.append, path_id="sock-1")
    fanout.attach("d", own.append, path_id="sock-2")
    # Reachable (it is owed unicasts) but in no group: no group copy.
    fanout.attach("ghost", outsider.append, path_id="sock-3", audiences=())
    fanout.send(_group())
    assert (len(shared), len(own), outsider) == (1, 1, [])
    assert fanout.stats.multicast_sends == 1
    assert fanout.audience.paths() == {"sock-1": 3, "sock-2": 1}


def test_joiner_alone_on_its_path_gets_no_copy_of_its_own_rekey():
    fanout = SocketFanout()
    old, new = [], []
    fanout.attach("a", old.append, path_id="pa")
    fanout.attach("joiner", new.append, path_id="pj")
    fanout.send(_group(exclude="joiner"))
    assert len(old) == 1 and new == []
    # The next group rekey is the joiner's business too.
    fanout.send(_group())
    assert len(old) == 2 and len(new) == 1


def test_joiner_sharing_a_socket_does_not_suppress_the_copy():
    fanout = SocketFanout()
    shared = []
    fanout.attach("a", shared.append, path_id="sock")
    fanout.attach("joiner", shared.append, path_id="sock")
    fanout.send(_group(exclude="joiner"))
    assert len(shared) == 1


def test_enroll_makes_an_attached_user_count():
    fanout = SocketFanout()
    got = []
    fanout.attach("j", got.append, path_id="pj", audiences=())
    fanout.send(_group())
    assert got == []
    fanout.enroll("j")
    fanout.send(_group())
    assert len(got) == 1
    fanout.enroll("nobody")                 # no reply path: no-op
    assert len(fanout.audience) == 1
    fanout.detach("j")
    assert fanout.audience.paths() == {} and len(fanout.audience) == 0


def test_audiences_keep_shard_rekeys_off_other_shards_paths():
    fanout = SocketFanout()
    one, two, both = [], [], []
    fanout.attach("a", one.append, "p1", audiences=(None, "shard-0"))
    fanout.attach("b", two.append, "p2", audiences=(None, "shard-1"))
    fanout.attach("c", both.append, "p3", audiences=(None, "shard-0"))
    fanout.attach("d", both.append, "p3", audiences=(None, "shard-1"))
    fanout.send(_group(audience="shard-0"))
    assert (len(one), len(two), len(both)) == (1, 0, 1)
    fanout.send(_group())                   # the root layer: everyone
    assert (len(one), len(two), len(both)) == (2, 1, 2)
    fanout.send(_group(audience="shard-9"))  # nobody there
    assert (len(one), len(two), len(both)) == (2, 1, 2)


def test_reattach_moves_the_member_between_paths():
    fanout = SocketFanout()
    old, new = [], []
    fanout.attach("a", old.append, path_id="old")
    fanout.attach("a", new.append, path_id="new")
    fanout.send(_group())
    assert old == [] and len(new) == 1
    assert fanout.audience.paths() == {"new": 1}


def test_group_drop_filter_asked_once_per_path_with_earliest_member():
    fanout = SocketFanout()
    shared, own = [], []
    for user in ("first", "second", "third"):
        fanout.attach(user, shared.append, path_id="shared")
    fanout.attach("solo", own.append, path_id="solo")
    # Re-attaching on the same path keeps one's place in line.
    fanout.attach("first", shared.append, path_id="shared")
    asked = []
    fanout.drop_filter = lambda user_id, payload: asked.append(user_id)
    fanout.send(_group())
    assert asked == ["first", "solo"]
    fanout.detach("first")
    del asked[:]
    # A drop still loses the whole path, whoever else rides it.
    fanout.drop_filter = lambda user_id, payload: (
        asked.append(user_id) or user_id == "second")
    before = len(shared)
    fanout.send(_group())
    assert asked == ["second", "solo"]
    assert len(shared) == before and len(own) == 2
    assert fanout.stats.drops == 1


class _Unlistable(tuple):
    """A receiver tuple that must never be looked at."""

    def __iter__(self):
        raise AssertionError("group fan-out enumerated the receivers")

    def __len__(self):
        raise AssertionError("group fan-out sized the receivers")


def test_group_address_never_reads_the_receivers():
    fanout = SocketFanout()
    got = []
    fanout.attach("a", got.append, path_id="pa")
    fanout.send(_group(receivers=_Unlistable()))
    assert len(got) == 1


def test_group_send_cost_is_flat_in_the_member_count():
    """O(reply paths): 64 or 8192 members behind two sockets cost the same."""
    import time

    def best_send_seconds(n_members):
        fanout = SocketFanout()
        for index in range(n_members):
            fanout.attach(f"u{index}", lambda payload: None,
                          path_id=f"sock-{index % 2}")
        outbound = _group()
        best = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(200):
                fanout.send(outbound)
            best = min(best, time.perf_counter() - started)
        return best

    small, large = best_send_seconds(64), best_send_seconds(8192)
    # The old scan was ~130x slower at 8192; noise is nowhere near 4x.
    assert large < 4 * small
