"""What the frozen benchmark suite uses of ``repro`` still exists.

``benchmarks/suite/`` may not change with the code it measures, and it
reaches into the program three ways: plain imports, run-time wrappers
around public entry points (``trace.install_*`` replaces attributes it
looks up in the owning class's *own* ``__dict__`` and calls them with
fixed positional signatures), and metric families it reads by name from
the server's registry.  A rename under ``src/`` therefore does not fail
a unit test — it fails the benchmark, after the PR.  This file is the
tier-1 tripwire for all three.
"""

import ast
import asyncio
import importlib
import importlib.util
import inspect
import os
import re

import pytest

from repro.cluster.coordinator import ClusterConfig, ClusterCoordinator
from repro.core.messages import (MSG_JOIN_REQUEST, MSG_LEAVE_REQUEST,
                                 MSG_STATS_REQUEST, Message)
from repro.core.pipeline import SealTurnstile
from repro.core.server import GroupKeyServer, ServerConfig
from repro.crypto.keycache import SHARED_CACHE
from repro.crypto.suite import PAPER_SUITE
from repro.serve import (AsyncServingCore, ClusterServingCore,
                         ImmediateServingCore, ServeConfig, SocketFanout)
from repro.serve.health import InstrumentedExecutor

SUITE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "..", "benchmarks", "suite")
FILES = ("trace", "host", "servers", "churn", "members", "loadgen", "check",
         "worker", "inputs", "report")

pytestmark = pytest.mark.skipif(
    not os.path.isdir(SUITE), reason="benchmarks/suite is not checked out")


def _source(name):
    with open(os.path.join(SUITE, f"{name}.py"), encoding="utf-8") as handle:
        return handle.read()


def _repro_imports():
    """Every ``(file, module, name)`` the suite imports from ``repro``."""
    found = []
    for name in FILES:
        for node in ast.walk(ast.parse(_source(name))):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                found.extend((name, node.module, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.Import):
                found.extend((name, alias.name, None)
                             for alias in node.names
                             if alias.name.split(".")[0] == "repro")
    return found


def test_every_name_the_suite_imports_exists():
    imports = _repro_imports()
    assert len(imports) > 40          # the walk found the suite at all
    for file, module, name in imports:
        loaded = importlib.import_module(module)
        if name is None or hasattr(loaded, name):
            continue
        # ``from repro.crypto import rsa``: a submodule, not an attribute.
        importlib.import_module(f"{module}.{name}")


def _suite_trace():
    # Loaded under a private name: the file is called trace.py, and
    # must not shadow the standard library's module for later tests.
    spec = importlib.util.spec_from_file_location(
        "_suite_trace", os.path.join(SUITE, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _positional(function):
    return [name for name, parameter
            in inspect.signature(function).parameters.items()
            if parameter.kind in (parameter.POSITIONAL_ONLY,
                                  parameter.POSITIONAL_OR_KEYWORD)]


def test_wrapped_entry_points_keep_their_signatures():
    # The wrappers call these positionally (trace.wrap_request,
    # wrap_executor, and the fan-out's receiver count).
    assert _positional(AsyncServingCore.submit) == [
        "self", "data", "reply", "path_id"]
    assert _positional(AsyncServingCore.submit_nowait) == [
        "self", "data", "reply", "path_id"]
    assert inspect.iscoroutinefunction(AsyncServingCore.submit)
    assert _positional(SocketFanout.send) == ["self", "outbound", "payload"]
    assert inspect.signature(
        SocketFanout.send).parameters["payload"].default is None
    assert _positional(SealTurnstile.wait) == ["self", "ticket"]
    assert _positional(InstrumentedExecutor.submit)[:2] == ["self", "fn"]
    assert "submit" in vars(InstrumentedExecutor)


def test_traced_ops_run_under_the_suites_wrappers():
    """Install the suite's own wrappers and serve ops through them.

    ``install_server_side`` raises ``KeyError`` for an attribute that
    moved to a base class; serving a join and a leave under the
    wrappers checks the signatures the wrappers assume, and that a
    group rekey reaches ``SocketFanout.send`` with ``len(receivers)``
    telling the truth about how many users were scanned.  A stats
    request through each core keeps the executor wrapper exercised.
    """
    trace = _suite_trace()

    async def serve(core, users):
        wire = []
        try:
            for msg_type, user in users:
                request = Message(msg_type=msg_type,
                                  body=user.encode()).encode()
                if not core.submit_nowait(request, wire.append, "sock"):
                    await core.submit(request, wire.append, path_id="sock")
        finally:
            await core.aclose()

    single = GroupKeyServer(ServerConfig(
        degree=4, strategy="group", suite=PAPER_SUITE, signing="merkle",
        seed=b"contract", backend="flat", workers=2))
    single.bootstrap([(f"m{i}", single.new_individual_key())
                      for i in range(40)])
    cluster = ClusterCoordinator(ClusterConfig(
        n_shards=3, degree=4, strategy="group", suite=PAPER_SUITE,
        signing="merkle", seed=b"contract", backend="flat"))
    cluster.bootstrap([(f"m{i}", cluster.new_individual_key())
                       for i in range(40)])
    # Ops run on the loop; the stats reply is what still reaches the
    # worker pool (and so the executor wrapper).
    ops = [(MSG_JOIN_REQUEST, "n0"), (MSG_JOIN_REQUEST, "n1"),
           (MSG_LEAVE_REQUEST, "n0"), (MSG_STATS_REQUEST, "")]

    recorder = trace.Recorder("contract")
    trace.install_server_side(recorder)
    trace.install_client_side(recorder)
    try:
        trace.hook_pipeline(recorder, single.pipeline)
        for shard in cluster.shards:
            trace.hook_pipeline(recorder, shard.server.pipeline)
        trace.hook_pipeline(recorder, cluster.root_layer.pipeline, "root",
                            ("plan", "encrypt", "sign"))
        asyncio.run(serve(ImmediateServingCore(
            single, ServeConfig(tcp_port=None, tick_interval=0)), ops))
        asyncio.run(serve(ClusterServingCore(
            cluster, ServeConfig(tcp_port=None, tick_interval=0),
            workers=2), ops))
    finally:
        recorder.uninstall()
    spans = {span["name"] for span in recorder.export()}
    for name in ("serve.submit", "serve.submit.reply", "serve.executor_wait",
                 "server.begin_join", "server.begin_leave", "op.encrypt",
                 "op.seal", "op.finish", "pipeline.plan", "pipeline.sign",
                 "root.plan", "root.encrypt", "root.sign", "crypto.rsa_sign",
                 "msg.encode", "msg.decode", "wire.split_trailers",
                 "fanout.send", "cluster.join", "cluster.leave",
                 "cluster.shard_of"):
        assert name in spans, name
    # 40-odd members, none enumerated: the count is the joiners'
    # unicasts (one listed receiver each).
    assert recorder.counts["fanout.send"] == 4


def test_metric_families_the_report_reads_are_registered():
    names = set(re.findall(
        r'(?:delta|hist_q|counter_by)\(\s*(?:after,\s*|before,\s*)?"(\w+)"',
        _source("report")))
    names |= set(re.findall(r'histogram_delta\(before, after,\s*"(\w+)"',
                            _source("report")))
    assert len(names) > 15
    single = ImmediateServingCore(
        GroupKeyServer(ServerConfig(signing="none", backend="flat")),
        ServeConfig(tick_interval=0))
    cluster = ClusterServingCore(
        ClusterCoordinator(ClusterConfig(n_shards=3, signing="none")),
        ServeConfig(tick_interval=0))
    try:
        registered = set()
        for snapshot in (
                single.instrumentation.registry.snapshot(),
                cluster.backend.stats_document()["metrics"],
                SHARED_CACHE.registry.snapshot()):
            for kind in ("counters", "gauges", "histograms"):
                registered |= set(snapshot[kind])
    finally:
        single.executor.shutdown(wait=True)
        cluster.executor.shutdown(wait=True)
    assert names <= registered, sorted(names - registered)
