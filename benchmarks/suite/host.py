"""The served workloads' server process.

Builds the paper-configuration key service (single server or 3-shard
cluster) from generated inputs, serves it on loopback UDP, and answers
a line-delimited JSON control protocol on stdin/stdout so the load
generator — a separate process on the other core — can bracket its
measured window with the server's own counters:

``{"cmd": "sample"}``  -> process CPU seconds, the wall clock, and the
                          speed probe's bursts since the last reply
``{"cmd": "stats"}``   -> the server's metrics snapshot (the same
                          document a ``MSG_STATS_REQUEST`` scrape returns)
``{"cmd": "trace"}``   -> install the timing wrappers (traced phase)
``{"cmd": "finish"}``  -> end-of-run evidence, trace spans; then exit
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
import time

sys.path.insert(1, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "src"))

import inputs  # noqa: E402
import servers  # noqa: E402
import speed  # noqa: E402
import trace  # noqa: E402


class Host:
    def __init__(self, args, probe: speed.SpeedProbe):
        self.probe = probe
        from repro.crypto.suite import PAPER_SUITE
        from repro.serve import (AsyncClusterService, AsyncKeyService,
                                 ClusterServingCore, ImmediateServingCore,
                                 ServeConfig)
        shape = inputs.Shape.scaled(args.scale)
        keys = inputs.joiner_keys(PAPER_SUITE, args.seed, shape,
                                  args.clients, args.joins_per_client)
        config = ServeConfig(tcp_port=None, tick_interval=args.tick)
        self.cluster = args.workload == "cluster_closed"
        if self.cluster:
            self.backend = servers.build_cluster(args.seed, shape, keys)
            self.core = ClusterServingCore(self.backend, config,
                                           workers=inputs.WORKERS)
            self.service = AsyncClusterService(self.core)
            self.pipelines = [s.server.pipeline for s in self.backend.shards]
        else:
            self.backend = servers.build_single(args.seed, shape, keys)
            self.core = ImmediateServingCore(self.backend, config)
            self.service = AsyncKeyService(self.core)
            self.pipelines = [self.backend.pipeline]
        self.recorder = None
        self.done = None

    def addresses(self):
        if self.cluster:
            return self.service.udp_addresses
        return [self.service.udp_address]

    def stats(self) -> dict:
        if self.cluster:
            return servers.metrics_snapshot(self.backend)
        return servers.metrics_snapshot(self.backend,
                                self.core.instrumentation.registry)

    def sample(self) -> dict:
        return {"t": time.perf_counter(), "cpu": time.process_time(),
                "bursts": self.probe.take()}

    def start_trace(self) -> dict:
        self.recorder = trace.Recorder("host")
        trace.install_server_side(self.recorder)
        for pipeline in self.pipelines:
            trace.hook_pipeline(self.recorder, pipeline)
        if self.cluster:
            trace.hook_pipeline(self.recorder,
                                self.backend.root_layer.pipeline, "root",
                                ("plan", "encrypt", "sign"))
        return {"t": time.perf_counter()}

    def finish(self) -> dict:
        backend = self.backend
        if self.cluster:
            trees = [shard.server.tree for shard in backend.shards]
        else:
            trees = [backend.tree]
        evidence = servers.end_state(backend, trees)
        evidence["bursts"] = self.probe.take()
        if self.recorder is not None:
            self.recorder.uninstall()
            evidence["spans"] = self.recorder.export()
            evidence["counts"] = self.recorder.counts
        return evidence

    def handle(self, line: str) -> None:
        command = json.loads(line)["cmd"]
        if command == "sample":
            reply = self.sample()
        elif command == "stats":
            reply = self.stats()
        elif command == "trace":
            reply = self.start_trace()
        elif command == "finish":
            reply = self.finish()
            self.done.set()
        else:
            reply = {"error": f"unknown command {command!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        self.done = asyncio.Event()
        await self.service.start()
        public = self.backend.public_key
        sys.stdout.write(json.dumps({
            "addresses": [list(addr) for addr in self.addresses()],
            "public_key": {"n": public.n, "e": public.e},
            "bursts": self.probe.take()}) + "\n")
        sys.stdout.flush()

        def read_commands():
            # Blocking reads belong on a thread; each command runs on
            # the loop, where the server state lives.  EOF (the load
            # generator died) shuts the host down too.
            for line in sys.stdin:
                loop.call_soon_threadsafe(self.handle, line)
            loop.call_soon_threadsafe(self.done.set)
        threading.Thread(target=read_commands, daemon=True).start()
        await self.done.wait()
        await self.service.aclose()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tick", type=float, default=0.0)
    parser.add_argument("--clients", type=int, required=True)
    parser.add_argument("--joins-per-client", type=int, required=True)
    args = parser.parse_args()
    # Started first, so the probe covers set-up as well.
    probe = speed.SpeedProbe()
    probe.start()
    asyncio.run(Host(args, probe).run())


if __name__ == "__main__":
    main()
