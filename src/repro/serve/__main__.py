"""The serving command: one spec-configured key server over UDP/TCP.

    python -m repro.serve keyserver.spec [--host H] [--udp-port P]
        [--tcp-port P] [--coalesce] [--max-inflight N] [--rate R]
        [--trace] [--preregister N]

Runs one spec-configured group key server behind the asyncio front
end until interrupted.  Unknown joiners are enrolled on first contact
(``--closed`` disables that and requires pre-registered keys).
``--preregister N`` mints and prints individual keys for ``user0`` ..
``user<N-1>``, and a signing server prints its public key as hex
``n:e``; both go to ``python -m repro client --key ... --server-key
...``.

``slo-*`` keys in the spec file become live objectives: the core
evaluates them periodically, counts breaches, and dumps the flight
recorder (into ``--flight-dir``, when given) on each new breach.  On
platforms with ``SIGUSR1`` the signal dumps the flight recorder on
demand.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional, Sequence

from ..core.server import GroupKeyServer
from ..observability.instrumentation import Instrumentation
from ..observability.slo import slos_from_spec_text
from ..observability.spans import Tracer
from .config import ServeConfig, from_spec_file, worker_count
from .core import AsyncServingCore, CoalescingServingCore
from .endpoint import AsyncKeyService


async def _amain(args) -> int:
    config, initial_size = from_spec_file(args.spec)
    with open(args.spec, "r", encoding="utf-8") as handle:
        slos = slos_from_spec_text(handle.read())
    serve_config = ServeConfig(
        host=args.host, udp_port=args.udp_port, tcp_port=args.tcp_port,
        max_inflight=args.max_inflight, client_rate=args.rate,
        coalesce=args.coalesce, open_enroll=not args.closed,
        slos=tuple(slos), flight_dump_dir=args.flight_dir)
    instrumentation = Instrumentation(
        "serve", tracer=Tracer() if args.trace else None)
    if args.coalesce:
        from ..batch.rekeying import BatchRekeyServer
        server = BatchRekeyServer(
            degree=config.degree, suite=config.suite, seed=config.seed,
            signing=config.signing, instrumentation=instrumentation,
            backend=config.backend)
        core = CoalescingServingCore(server, serve_config,
                                     workers=worker_count(config))
    else:
        server = GroupKeyServer(config, instrumentation=instrumentation)
        core = AsyncServingCore(server, serve_config,
                                workers=worker_count(config))
        if initial_size:
            roster = [(f"user-{index:04d}", server.new_individual_key())
                      for index in range(initial_size)]
            server.bootstrap(roster)
    # Stands in for the out-of-band authentication exchange.
    register = (core if args.coalesce else server).register_individual_key
    keys = [server.new_individual_key() for _ in range(args.preregister)]
    for index, key in enumerate(keys):
        register(f"user{index}", key)
    async with AsyncKeyService(core) as service:
        print(f"async key server on udp {service.udp_address}"
              + (f", tcp {service.tcp_address}"
                 if service.tcp_address else ""))
        print(f"  mode={core.flavor} workers={worker_count(config)} "
              f"backend={config.backend} "
              f"open-enroll={serve_config.open_enroll}"
              + (f" slos={len(slos)}" if slos else ""))
        if server.signing_keypair is not None:
            public = server.signing_keypair.public_key
            print(f"  server-key={public.n:x}:{public.e:x}")
        for index, key in enumerate(keys):
            print(f"  registered user{index} individual-key={key.hex()}")
        print("  scrape: python -m repro.observability report --scrape "
              f"{service.udp_address[0]}:{service.udp_address[1]}",
              flush=True)
        if hasattr(signal, "SIGUSR1"):
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGUSR1,
                    lambda: print(core.dump_flight("signal"),
                                  file=sys.stderr))
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await asyncio.Event().wait()
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve a spec-configured group key server over "
                    "asyncio UDP/TCP endpoints.")
    parser.add_argument("spec", help="keyserver spec file (paper §5)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--udp-port", type=int, default=0)
    parser.add_argument("--tcp-port", type=int, default=0)
    parser.add_argument("--max-inflight", type=int, default=64)
    parser.add_argument("--rate", type=float, default=0.0,
                        help="per-client state-change rate cap (0 = off)")
    parser.add_argument("--coalesce", action="store_true",
                        help="fold concurrent joins/leaves into batch "
                             "flushes")
    parser.add_argument("--closed", action="store_true",
                        help="require pre-registered individual keys")
    parser.add_argument("--trace", action="store_true",
                        help="enable span tracing")
    parser.add_argument("--preregister", type=int, default=0,
                        help="individual keys to mint and print for "
                             "python -m repro client")
    parser.add_argument("--flight-dir", default=None,
                        help="directory for automatic flight-recorder "
                             "dumps (error / SLO breach)")
    args = parser.parse_args(argv)
    try:
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
