"""Plan-order release of rekey fan-out.

The paper (§5) assumes reliable *ordered* delivery, and a bare
:class:`~repro.core.client.GroupClient` handed two group rekeys out of
order desynchronises until it resyncs.  The serving cores overlap ops —
encrypt on workers, finish whenever the pool gets to it — so the moment
an op's outputs are *ready* says nothing about where the op sits in
plan order.  :class:`ReleaseOrder` is the gate between "ready" and "on
the wire": an op draws a ticket where it is planned (under the op lock,
which is what defines plan order), and later waits its turn before it
routes anything.

The :class:`~repro.core.pipeline.SealTurnstile` plays the same role one
stage earlier (sequence numbers are drawn in plan order); its turn is
passed on *before* ``finish()`` returns and before the event loop
resumes the waiting coroutine, which is exactly the window in which a
successor used to overtake.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Optional, Set


class ReleaseOrder:
    """Admits ops to the fan-out strictly in ticket order.

    ``ticket`` may be called from any thread (the cluster and journaled
    paths plan on a worker); ``turn`` and ``retire`` belong to the event
    loop.  Every drawn ticket must be retired — also by an op that was
    denied or died — or the ops planned after it wait forever; retiring
    is idempotent, so callers simply retire in a ``finally``.
    """

    def __init__(self):
        self._draw = threading.Lock()
        self._issued = 0
        self._serving = 0
        self._retired: Set[int] = set()
        self._waiting: Dict[int, asyncio.Future] = {}

    def ticket(self) -> int:
        """Reserve the next turn (call where the op is planned)."""
        with self._draw:
            ticket = self._issued
            self._issued += 1
            return ticket

    @property
    def idle(self) -> bool:
        """True when every drawn ticket has been retired."""
        return self._serving == self._issued

    async def turn(self, ticket: int) -> None:
        """Return once every earlier ticket is retired."""
        if self._serving >= ticket:
            return
        waiter = asyncio.get_running_loop().create_future()
        self._waiting[ticket] = waiter
        try:
            await waiter
        finally:
            del self._waiting[ticket]

    def retire(self, ticket: Optional[int]) -> None:
        """Pass the turn on (``None`` — no ticket was drawn — is a no-op)."""
        if ticket is None or ticket < self._serving:
            return
        self._retired.add(ticket)
        while self._serving in self._retired:
            self._retired.discard(self._serving)
            self._serving += 1
        waiter = self._waiting.get(self._serving)
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
