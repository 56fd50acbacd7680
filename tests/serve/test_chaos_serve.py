"""Drop10 through the async front end: byte-identical convergence.

The PR5 fault profiles apply to the live serving layer via the fanout
drop filter.  The acceptance claim has two halves:

* the live server, despite shedding-free but lossy delivery, ends with
  a group key **byte-identical** to an in-memory control server driven
  through the same ops with no serving layer at all (the async split
  must not perturb the DRBG draw order);
* every surviving member recovers through resync requests submitted
  back through the front end, and then decrypts a group data probe.
"""

import asyncio

from repro.chaos.faults import PROFILES
from repro.chaos.scenarios import ScenarioConfig, run_scenario
from repro.chaos.serve_scenario import (_control_run, _individual_keys,
                                        serve_workload)
from repro.core.messages import (MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                                 Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.observability.flight import validate_flight
from repro.serve import ImmediateServingCore, ServeConfig


def _config(**overrides):
    defaults = dict(name="drop10-serve", stack="serve",
                    profile="drop10", n_initial=12, rounds=12)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def test_drop10_serve_scenario_passes():
    report = run_scenario(_config())
    assert report.passed, report.summary()
    assert report.stack == "serve"
    assert report.injected["drop"] > 0, \
        "drop10 must actually lose copies for the test to mean anything"
    assert report.survivors > 0
    # Lost copies force desyncs; recovery repairs them via resync.
    assert report.resyncs >= report.desyncs > 0


def test_serve_scenario_seeded_reruns_are_identical():
    first = run_scenario(_config())
    second = run_scenario(_config())
    assert first.injected == second.injected
    assert first.resyncs == second.resyncs
    assert first.desyncs == second.desyncs
    assert first.recovery_rounds == second.recovery_rounds


def test_live_server_key_matches_control_despite_drops():
    """The byte-identity half, asserted directly on key material."""
    config = _config()
    ops = serve_workload(config)
    server = GroupKeyServer(ServerConfig(
        signing="none", seed=config.seed))
    keys = _individual_keys(ops, server.config.suite)
    control = _control_run(config, ops, keys)

    async def drive():
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=False))
        drops = {"n": 0}

        def drop_everything(_user, _payload):
            drops["n"] += 1
            return True

        # Worst case: *every* multicast copy is lost.  The server's
        # draws must still match the control run exactly.
        core.fanout.drop_filter = drop_everything
        sink = []
        try:
            for op, user in ops:
                if op == "join":
                    server.register_individual_key(user, keys[user])
                    core.fanout.attach(user, sink.append,
                                       path_id=f"p-{user}")
                    msg_type = MSG_JOIN_REQUEST
                else:
                    msg_type = MSG_LEAVE_REQUEST
                request = Message(msg_type=msg_type,
                                  body=user.encode()).encode()
                await core.submit(request, sink.append, path_id=None)
        finally:
            await core.aclose()
        return drops["n"]

    dropped = asyncio.run(drive())
    assert dropped > 0
    assert server.group_key() == control.group_key()
    assert server.group_key_ref() == control.group_key_ref()
    assert server.n_users == control.n_users


def test_clean_profile_needs_no_resyncs():
    report = run_scenario(_config(name="clean-serve", profile="clean"))
    assert report.passed
    assert report.injected["drop"] == 0
    assert report.resyncs == 0
    assert report.recovery_rounds == 0


def test_drop10_profile_is_registered():
    profile = PROFILES["drop10"]
    assert profile.drop_rate == 0.10
    assert profile.seed == b"chaos/drop10"


def test_flight_dump_ties_drops_to_rekey_traces():
    """The dumped flight record explains the incident causally.

    Every injected drop must appear as a ``fault.drop`` event carrying
    the trace id of the rekey whose multicast copy was lost, and the
    resync repairs those drops forced must show up later in the same
    ring — drop first, resync after.
    """
    report = run_scenario(_config())
    assert report.resyncs > 0
    document = validate_flight(report.flight_dump)
    assert document["reason"] == "chaos"
    events = document["events"]
    assert events, "chaos run must leave a flight record"

    drops = [e for e in events if e["kind"] == "fault.drop"]
    assert len(drops) == report.injected["drop"]
    # Each drop is tied to a *real* rekey trace: its trace id is one a
    # join/leave request event also recorded.
    rekey_traces = {e["trace_id"] for e in events
                    if e["kind"] == "req"
                    and e["fields"].get("op") in ("join", "leave")}
    for drop in drops:
        assert drop["trace_id"] > 0, "drop not tied to any trace"
        assert drop["trace_id"] in rekey_traces
    # The repair requests the drops caused follow them in the ring.
    resync_seqs = [e["seq"] for e in events
                   if e["kind"] == "req"
                   and e["fields"].get("op") == "resync"]
    assert len(resync_seqs) >= report.resyncs
    assert min(resync_seqs) > max(d["seq"] for d in drops)
