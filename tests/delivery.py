"""Test delivery the way the network does it: through a transport.

No rekey plan enumerates the group; a group address is resolved by the
transport's audience index.  Tests that hand-feed simulated clients
therefore subscribe them on an in-memory network as the server's
membership stands *after* the op — a joiner in, a leaver out, the order
every front end keeps — and send the op's messages through it.  Over
real sockets, :func:`serve_beside` runs blocking UDP clients beside a
live async key service.
"""

import asyncio

from repro.recovery import ServerBackend
from repro.serve import AsyncKeyService, ImmediateServingCore, ServeConfig
from repro.transport.inmemory import InMemoryNetwork


def subscribed(server, clients, handler=None):
    """An in-memory network with every client in the audiences its
    membership puts it in right now.  ``handler(client)`` picks the
    receive callable (default: ``client.process_message``)."""
    network = InMemoryNetwork(strict=False)
    audiences = ServerBackend(server).audiences
    for user_id, client in clients.items():
        receive = (handler(client) if handler is not None
                   else client.process_message)
        network.attach(user_id, receive)
        network.enroll(user_id, audiences(user_id))
    return network


def deliver(server, clients, messages, handler=None):
    """Send ``messages`` to ``clients`` through :func:`subscribed`."""
    network = subscribed(server, clients, handler)
    network.send_all(messages)
    return network


def serve_beside(server, drive, **config):
    """Serve ``server`` from an :class:`~repro.serve.AsyncKeyService`
    on loopback UDP and run the blocking ``drive(address)`` beside its
    event loop; returns what ``drive`` returns.  ``config`` overrides
    :class:`~repro.serve.ServeConfig` (default: closed enrolment, no
    recovery ticker)."""
    core = ImmediateServingCore(server, ServeConfig(
        **{"open_enroll": False, "tick_interval": 0, **config}))

    async def run():
        async with AsyncKeyService(core) as service:
            return await asyncio.to_thread(drive, service.udp_address)
    return asyncio.run(run())
