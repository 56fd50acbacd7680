"""End-to-end distributed tracing through the async serving stack.

The tentpole claim: one client request produces one causally-connected
trace spanning datagram receive, admission, op-lock wait, plan on the
loop, executor encrypt/sign, fan-out dispatch — and for the cluster,
the shard hop and the root-layer rekey — stitched across the wire by
the out-of-band trace trailer on both UDP datagrams and framed TCP.
"""

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import (MSG_JOIN_ACK, MSG_JOIN_REQUEST,
                                 MSG_LEAVE_REQUEST, Message)
from repro.core.server import GroupKeyServer, ServerConfig
from repro.observability.instrumentation import Instrumentation
from repro.observability.spans import Tracer, attach_trace_trailer
from repro.observability.timeline import render_timeline
from repro.serve import (AsyncClusterService, AsyncKeyService,
                         ImmediateServingCore, ServeConfig, frame,
                         read_frame, split_trailers)
from repro.serve.wire import attach_trailers

_KEY_SIZE = 8  # DES, the paper's suite


def _traced_server(seed=b"tracing", capacity=4096):
    tracer = Tracer(capacity=capacity)
    server = GroupKeyServer(
        ServerConfig(signing="none", seed=seed, backend="flat"),
        instrumentation=Instrumentation("serve", tracer=tracer))
    return server, tracer


def _join_request(user):
    return Message(msg_type=MSG_JOIN_REQUEST, body=user.encode()).encode()


def _assert_connected(spans, trace_id):
    """Every span of the trace hangs off exactly one root."""
    selected = [s for s in spans if s["trace_id"] == trace_id]
    assert selected, f"trace {trace_id} recorded no spans"
    ids = {s["span_id"] for s in selected}
    roots = [s for s in selected if not s["parent_id"]]
    assert len(roots) == 1, \
        f"trace {trace_id}: {len(roots)} roots ({[s['name'] for s in roots]})"
    for span in selected:
        if span["parent_id"]:
            assert span["parent_id"] in ids, \
                f"{span['name']} parents to a span outside its trace"
    return selected


# -- wire trailer regressions ------------------------------------------------


def test_udp_reply_echoes_trace_trailer():
    """A traced datagram's direct reply carries the request's trace."""
    server, tracer = _traced_server()
    client_span = tracer.span("client.request", user="u1")

    async def drive():
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True))
        async with AsyncKeyService(core) as service:
            loop = asyncio.get_running_loop()
            got = loop.create_future()

            class _Client(asyncio.DatagramProtocol):
                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    payload, ctx, _token = split_trailers(data)
                    message = Message.decode(payload)
                    if (message.msg_type == MSG_JOIN_ACK
                            and not got.done()):
                        got.set_result(ctx)

            transport, _ = await loop.create_datagram_endpoint(
                _Client, remote_addr=service.udp_address)
            try:
                transport.sendto(attach_trace_trailer(
                    _join_request("u1"), client_span.context))
                return await asyncio.wait_for(got, timeout=10)
            finally:
                transport.close()

    ctx = asyncio.run(drive())
    client_span.finish()
    assert ctx is not None, "join ack lost its trace trailer"
    assert ctx.trace_id == client_span.trace_id
    # And the server's request root parented itself to the client span.
    spans = tracer.export()
    roots = [s for s in spans if s["name"] == "serve.request"]
    assert roots and roots[0]["trace_id"] == client_span.trace_id
    assert roots[0]["parent_id"] == client_span.context.span_id


def test_framed_tcp_reply_echoes_trace_trailer():
    """Regression: framed-TCP replies attach trace trailers too.

    The TCP path shares ``attach_trailers`` with UDP, so a traced
    framed request must come back with the same trace id — it used to
    lose the trailer because replies only echoed the corr token.
    """
    server, tracer = _traced_server(seed=b"tracing-tcp")
    client_span = tracer.span("client.request", user="t1")

    async def drive():
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True,
                                tcp_port=0))
        async with AsyncKeyService(core) as service:
            reader, writer = await asyncio.open_connection(
                *service.tcp_address)
            try:
                writer.write(frame(attach_trace_trailer(
                    _join_request("t1"), client_span.context)))
                await writer.drain()
                while True:
                    data = await asyncio.wait_for(read_frame(reader),
                                                  timeout=10)
                    assert data is not None, "connection closed early"
                    payload, ctx, _token = split_trailers(data)
                    if Message.decode(payload).msg_type == MSG_JOIN_ACK:
                        return ctx
            finally:
                writer.close()

    ctx = asyncio.run(drive())
    client_span.finish()
    assert ctx is not None, "framed TCP ack lost its trace trailer"
    assert ctx.trace_id == client_span.trace_id


def test_trailer_stacking_roundtrip():
    """Trace + corr trailers stack and split in either presence."""
    from repro.observability.spans import SpanContext
    payload = b"\x01payload-bytes"
    ctx = SpanContext(77, 12)
    both = attach_trailers(payload, ctx, 9)
    back, got_ctx, got_token = split_trailers(both)
    assert (back, got_ctx, got_token) == (payload, ctx, 9)
    only_trace = attach_trailers(payload, ctx, None)
    assert split_trailers(only_trace) == (payload, ctx, None)
    only_corr = attach_trailers(payload, None, 3)
    assert split_trailers(only_corr) == (payload, None, 3)
    assert split_trailers(payload) == (payload, None, None)


# -- executor-hop parenting --------------------------------------------------


def test_staged_rekey_spans_form_one_connected_trace():
    """Plan on the loop + encrypt/sign on a worker stay one trace."""
    server, tracer = _traced_server(seed=b"tracing-staged")

    async def drive():
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, open_enroll=True))
        sink = []
        try:
            await core.submit(_join_request("w1"), sink.append)
        finally:
            await core.aclose()

    asyncio.run(drive())
    spans = tracer.export()
    roots = [s for s in spans if s["name"] == "serve.request"]
    assert len(roots) == 1
    selected = _assert_connected(spans, roots[0]["trace_id"])
    names = {s["name"] for s in selected}
    # The serving step and the pipeline stages under it are all present.
    assert "serve.exec" in names
    assert "rekey.join" in names
    # The pipeline spans crossed the run_in_executor hop without
    # orphaning: rekey.join's ancestry reaches serve.request.
    by_id = {s["span_id"]: s for s in selected}
    node = next(s for s in selected if s["name"] == "rekey.join")
    seen = set()
    while node["parent_id"]:
        assert node["span_id"] not in seen  # no cycles
        seen.add(node["span_id"])
        node = by_id[node["parent_id"]]
    assert node["name"] == "serve.request"


_USERS = [f"u{i}" for i in range(5)]

_ops = st.lists(
    st.tuples(st.sampled_from(["join", "leave"]),
              st.sampled_from(_USERS)),
    min_size=1, max_size=12)


def _individual_key(user):
    return bytes([_USERS.index(user) + 1]) * _KEY_SIZE


@settings(max_examples=15, deadline=None)
@given(ops=_ops)
def test_any_interleaving_yields_connected_traces(ops):
    """Property: however concurrent ops interleave on the loop and the
    worker pool, every request's spans form one connected trace and no
    span leaks into another request's trace."""
    server, tracer = _traced_server(seed=b"tracing-prop", capacity=8192)

    async def drive():
        core = ImmediateServingCore(
            server, ServeConfig(tick_interval=0, max_inflight=64,
                                open_enroll=False))
        try:
            async def one(op, user):
                if op == "join":
                    server.register_individual_key(
                        user, _individual_key(user))
                    msg_type = MSG_JOIN_REQUEST
                else:
                    msg_type = MSG_LEAVE_REQUEST
                payload = Message(msg_type=msg_type,
                                  body=user.encode()).encode()
                sink = []
                await core.submit(payload, sink.append, path_id=None)
            await asyncio.gather(*(one(op, user) for op, user in ops))
        finally:
            await core.aclose()

    asyncio.run(drive())
    spans = tracer.export()
    roots = [s for s in spans if s["name"] == "serve.request"]
    # One root per submitted request, each a distinct trace.
    assert len(roots) == len(ops)
    assert len({s["trace_id"] for s in roots}) == len(roots)
    for root in roots:
        _assert_connected(spans, root["trace_id"])


# -- the acceptance test: one trace across a live 3-shard cluster ------------


def test_single_join_traces_across_live_three_shard_cluster():
    """ISSUE 8 acceptance: a single join against a live 3-shard async
    cluster yields ONE connected trace covering the event loop, the
    executor hop, the owning shard, and the root-layer rekey — plus the
    client's install span stitched on from the reply trailer — and the
    trace renders as a waterfall."""
    from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
    from repro.serve.core import ClusterServingCore

    # ONE tracer shared by client and cluster: separate tracers would
    # collide on their deterministic integer trace ids.
    tracer = Tracer(capacity=4096)
    coordinator = ClusterCoordinator(
        ClusterConfig(n_shards=3, signing="none", seed=b"tracing-cluster",
                      backend="flat"),
        instrumentation=Instrumentation("cluster", tracer=tracer))
    coordinator.bootstrap([])

    async def drive():
        core = ClusterServingCore(
            coordinator, ServeConfig(tick_interval=0, open_enroll=True))
        async with AsyncClusterService(core) as service:
            loop = asyncio.get_running_loop()
            got = loop.create_future()

            class _Client(asyncio.DatagramProtocol):
                def connection_made(self, transport):
                    self.transport = transport

                def datagram_received(self, data, addr):
                    payload, ctx, _token = split_trailers(data)
                    if (Message.decode(payload).msg_type == MSG_JOIN_ACK
                            and not got.done()):
                        got.set_result(ctx)

            transport, _ = await loop.create_datagram_endpoint(
                _Client, remote_addr=service.udp_addresses[0])
            try:
                transport.sendto(_join_request("member-1"))
                return await asyncio.wait_for(got, timeout=15)
            finally:
                transport.close()

    ctx = asyncio.run(drive())
    assert ctx is not None, "cluster join ack carried no trace trailer"
    # The client installs its keys under the trace the reply carried.
    install = tracer.span("client.install", parent=ctx, user="member-1")
    install.finish()

    spans = tracer.export()
    selected = _assert_connected(spans, ctx.trace_id)
    names = {s["name"] for s in selected}
    for needed in ("serve.request",      # admission on the event loop
                   "serve.exec",         # the run_in_executor hop
                   "cluster.join",       # the coordinator
                   "shard.join",         # the owning shard's rekey
                   "rekey.root-rekey",   # the cluster root layer
                   "client.install"):    # stitched on from the trailer
        assert needed in names, f"trace missing {needed}: {sorted(names)}"

    waterfall = render_timeline(spans, trace_id=ctx.trace_id)
    for needed in ("serve.request", "serve.exec", "cluster.join",
                   "shard.join", "rekey.root-rekey", "client.install"):
        assert needed in waterfall
