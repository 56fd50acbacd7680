"""Seeded fault injection at the transport boundary.

:class:`ChaosTransport` wraps an :class:`~repro.transport.inmemory.
InMemoryNetwork`-style inner transport (anything exposing ``attach`` /
``detach`` / ``deliver_to``) and perturbs every delivered copy:

* **drop** — the copy is silently lost;
* **duplicate** — the copy is delivered twice;
* **delay** — the copy is parked on a logical-time heap and released by
  :meth:`ChaosTransport.pump`; copies delayed by different amounts
  overtake each other, which is how *reordering* arises (exactly as in a
  real multicast fabric: reordering is differential delay);
* **crash/restart** — a crashed member's copies are lost without
  detaching its handler or leaving its audiences, so :meth:`restart`
  resumes delivery instantly;
* **partition** — a set of members is unreachable until :meth:`heal`.

Every decision comes from one seeded HMAC-DRBG, so a chaos run is a pure
function of ``(profile, workload)`` — rerunning a failing scenario
reproduces it bit-for-bit.  ``ChaosTransport`` itself exposes
``deliver_to``, so :class:`~repro.transport.reliable.ReliableDelivery`
can sit *on top of* chaos (retransmit through it) while chaos sits on
the raw bus.  The whole stack shares the raw bus's audience index, so a
group address fans out to its subscribers in subscription order.

This module is the repository's one loss model: :func:`chance` is the
only draw that decides a copy is lost, here and in the served
scenarios' drop filters (:func:`repro.chaos.serve_scenario.drop_filter`);
the raw bus is lossless.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.messages import DEST_USER, OutboundMessage
from ..crypto import drbg
from ..observability.spans import NULL_TRACER
from ..transport.base import Transport
from ..transport.inmemory import UnknownReceiverError


#: Rates are compared as 20-bit fixed point: one cheap DRBG draw each.
_RATE_BITS = 1 << 20


class ChaosError(ValueError):
    """Raised on invalid chaos configuration or operations."""


def chance(source, rate: float) -> bool:
    """One seeded fault decision: True with probability ``rate``.

    ``source`` is a DRBG (``randint_below``); a zero rate draws nothing.
    """
    if not rate:
        return False
    return source.randint_below(_RATE_BITS) < int(rate * _RATE_BITS)


@dataclass(frozen=True)
class FaultProfile:
    """One named, seeded bundle of fault rates.

    Rates are per delivered *copy* (as in real multicast: different
    receivers lose different copies).  ``max_delay`` bounds how many
    :meth:`ChaosTransport.pump` ticks a delayed copy can be parked —
    delay 0 disables reordering entirely.
    """

    name: str = "custom"
    seed: bytes = b"chaos"
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 0

    def validate(self) -> None:
        """Check rate ranges; raises ChaosError."""
        for label, rate in (("drop_rate", self.drop_rate),
                            ("duplicate_rate", self.duplicate_rate),
                            ("delay_rate", self.delay_rate)):
            if not 0.0 <= rate < 1.0:
                raise ChaosError(f"{label} must be in [0, 1)")
        if self.max_delay < 0:
            raise ChaosError("max_delay must be >= 0")
        if self.delay_rate and not self.max_delay:
            raise ChaosError("delay_rate needs max_delay >= 1")


#: Named profiles used by the scenario matrix and CI chaos-smoke job.
PROFILES: Dict[str, FaultProfile] = {
    "clean": FaultProfile(name="clean"),
    "drop10": FaultProfile(name="drop10", seed=b"chaos/drop10",
                           drop_rate=0.10),
    "dup-reorder": FaultProfile(name="dup-reorder", seed=b"chaos/dup-reorder",
                                duplicate_rate=0.10, delay_rate=0.25,
                                max_delay=3),
    "lossy-reorder": FaultProfile(name="lossy-reorder",
                                  seed=b"chaos/lossy-reorder",
                                  drop_rate=0.10, duplicate_rate=0.05,
                                  delay_rate=0.25, max_delay=3),
    "heavy": FaultProfile(name="heavy", seed=b"chaos/heavy",
                          drop_rate=0.20, duplicate_rate=0.10,
                          delay_rate=0.35, max_delay=5),
}


class ChaosTransport(Transport):
    """Fault-injecting wrapper over an in-memory style transport."""

    def __init__(self, network, profile: Optional[FaultProfile] = None,
                 registry=None, tracer=None):
        super().__init__(registry)
        self.profile = profile if profile is not None else FaultProfile()
        self.profile.validate()
        self._network = network
        self.audience = network.audience
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._random = drbg.make_source(self.profile.seed, b"chaos-faults")
        self._crashed: Set[str] = set()
        self._partitioned: Set[str] = set()
        # Delayed copies: (due tick, insertion order, user, payload).
        self._delayed: List[Tuple[int, int, str, bytes]] = []
        self._order = 0
        self.now = 0
        self.injected: Dict[str, int] = {
            "drop": 0, "duplicate": 0, "delay": 0,
            "crash_drop": 0, "partition_drop": 0}
        self._m_faults = self.registry.counter(
            "chaos_faults_total", "Faults injected, by kind.",
            labels=("fault",))

    # -- membership --------------------------------------------------------

    def attach(self, user_id: str, handler: Callable[[bytes], None]) -> None:
        """Register a receiver (delivers unless crashed/partitioned)."""
        self._crashed.discard(user_id)
        self._network.attach(user_id, handler)

    def detach(self, user_id: str) -> None:
        """Remove a receiver for good (a clean leave, not a crash)."""
        self._crashed.discard(user_id)
        self._partitioned.discard(user_id)
        self._network.detach(user_id)

    def crash(self, user_id: str) -> None:
        """Crash a member: all its copies are lost until :meth:`restart`."""
        if not self.audience.known(user_id):
            raise ChaosError(f"unknown member {user_id!r}")
        if user_id in self._crashed:
            raise ChaosError(f"member {user_id!r} already crashed")
        with self._tracer.span("chaos.crash", user=user_id):
            self._crashed.add(user_id)

    def restart(self, user_id: str) -> None:
        """Restart a crashed member (its handler and key state survive,
        but everything sent while down is gone — the recovery protocol's
        job to repair)."""
        if user_id not in self._crashed:
            raise ChaosError(f"member {user_id!r} is not crashed")
        with self._tracer.span("chaos.restart", user=user_id):
            self._crashed.discard(user_id)

    def partition(self, user_ids: Iterable[str]) -> None:
        """Cut the given members off from all delivery until healed."""
        users = set(user_ids)
        with self._tracer.span("chaos.partition", users=len(users)):
            self._partitioned |= users

    def heal(self, user_ids: Optional[Iterable[str]] = None) -> None:
        """Heal a partition (all of it, or just the given members)."""
        with self._tracer.span("chaos.heal"):
            if user_ids is None:
                self._partitioned.clear()
            else:
                self._partitioned -= set(user_ids)

    @property
    def crashed(self) -> Set[str]:
        """Currently crashed members (read-only copy)."""
        return set(self._crashed)

    # -- fault accounting --------------------------------------------------

    def _fault(self, kind: str) -> None:
        self.injected[kind] += 1
        self._m_faults.inc(fault=kind)

    # -- delivery ----------------------------------------------------------

    def send(self, outbound: OutboundMessage) -> None:
        """Fan a message out, one independent fault pipeline per copy."""
        payload = outbound.encoded or outbound.message.encode()
        if outbound.destination.kind == DEST_USER:
            self.stats.unicast_sends += 1
        else:
            self.stats.multicast_sends += 1
        self.stats.bytes_sent += len(payload)
        for user_id in self.audience.receivers(outbound):
            self.deliver_to(user_id, payload)

    def deliver_to(self, user_id: str, payload: bytes) -> bool:
        """Push one copy through the fault pipeline.

        Returns True iff at least one copy was delivered *now* (a
        delayed copy counts as in flight, not delivered — retransmitting
        callers like ReliableDelivery see it as success later, via the
        duplicate-suppressed original).
        """
        copies = 1
        if chance(self._random, self.profile.duplicate_rate):
            copies = 2
            self._fault("duplicate")
        delivered = False
        for _ in range(copies):
            delivered |= self._deliver_copy(user_id, payload)
        return delivered

    def _deliver_copy(self, user_id: str, payload: bytes) -> bool:
        if user_id in self._crashed:
            self._fault("crash_drop")
            self.stats.drops += 1
            return False
        if user_id in self._partitioned:
            self._fault("partition_drop")
            self.stats.drops += 1
            return False
        if chance(self._random, self.profile.drop_rate):
            self._fault("drop")
            self.stats.drops += 1
            return False
        if chance(self._random, self.profile.delay_rate):
            delay = 1 + self._random.randint_below(self.profile.max_delay)
            self._order += 1
            heapq.heappush(self._delayed,
                           (self.now + delay, self._order, user_id, payload))
            self._fault("delay")
            # In flight: will surface on a later pump() tick.  Reported
            # as delivered so reliable layers do not also retransmit it.
            return True
        return self._release(user_id, payload)

    def _release(self, user_id: str, payload: bytes) -> bool:
        """Hand one copy to the inner transport (post-delay checks)."""
        try:
            if self._network.deliver_to(user_id, payload):
                self.stats.deliveries += 1
                self.stats.bytes_delivered += len(payload)
                return True
        except UnknownReceiverError:
            # The member left (cleanly) while the copy was in flight.
            self.stats.drops += 1
        return False

    # -- logical time ------------------------------------------------------

    @property
    def in_flight(self) -> int:
        """Delayed copies not yet released."""
        return len(self._delayed)

    def pump(self, steps: int = 1) -> int:
        """Advance logical time, releasing every copy that came due.

        Copies parked with different delays overtake each other here —
        this is where reordering actually happens.  Returns the number
        of copies released.
        """
        released = 0
        for _ in range(steps):
            self.now += 1
            while self._delayed and self._delayed[0][0] <= self.now:
                _due, _order, user_id, payload = heapq.heappop(self._delayed)
                if user_id in self._crashed:
                    self._fault("crash_drop")
                    self.stats.drops += 1
                    continue
                if user_id in self._partitioned:
                    self._fault("partition_drop")
                    self.stats.drops += 1
                    continue
                self._release(user_id, payload)
                released += 1
        return released

    def quiesce(self, limit: int = 64) -> int:
        """Pump until nothing is in flight; returns ticks spent.

        Raises :class:`ChaosError` if the queue fails to drain within
        ``limit`` ticks (it cannot, absent a bug: delays are bounded).
        """
        ticks = 0
        while self._delayed:
            if ticks >= limit:
                raise ChaosError(
                    f"{len(self._delayed)} copies still in flight "
                    f"after {limit} ticks")
            self.pump()
            ticks += 1
        return ticks
