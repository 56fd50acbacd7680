"""LRU cache of expanded key schedules (constructed cipher objects).

Key-schedule expansion is a large share of small-message cost for the
pure-Python ciphers whose set-up is still a loop (an AES-128
construction costs ~3 encrypted blocks) — and a rekey payload item is
only two blocks long.  The server re-encrypts under the *same* keys
constantly (every key on a leaving member's path is used once per item,
the group key on every item of a star rekey), so caching the constructed
cipher converts that per-item cost into a dict hit.  Single DES no longer
profits: its table-driven schedule makes a construction cost ~0.3 blocks,
about what a miss adds here (DESIGN.md §9, "Key-schedule cache").

Cipher objects here are pure functions of ``(cipher_name, key)``: the
schedules derived in ``__init__`` never change and nothing writes to a
shared cipher object after construction, so sharing one instance
across call sites and threads is safe.  Invalidation therefore has
exactly two rules:

* capacity — least-recently-used entries are evicted at ``capacity``;
* explicit ``clear()`` — used by tests and by anyone rotating away from
  a compromised key who wants the schedule gone from memory now rather
  than after eviction.

Correctness never depends on the cache: a miss constructs the same
object ``CipherSuite.new_cipher`` always constructed.

Hit/miss/eviction accounting lives on the observability registry: the
cache owns a :class:`~repro.observability.metrics.MetricRegistry` whose
``keycache_*`` series are refreshed by a snapshot-time collector.  The
hot path keeps plain integer attributes (``hits``/``misses``/
``evictions`` — the historic API, unchanged) because a locked registry
increment costs as much as the cache hit it would be counting; the
collector folds the deltas into the registry counters whenever a
snapshot or exposition is taken, so exported numbers are always
current without taxing ``get``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional, Tuple

from ..observability.metrics import MetricRegistry


class KeyScheduleCache:
    """Bounded LRU mapping ``(cipher_name, key bytes)`` -> cipher object.

    >>> from .des import DES
    >>> cache = KeyScheduleCache(capacity=2)
    >>> a = cache.get("des", b"\\x01" * 8, DES)
    >>> a is cache.get("des", b"\\x01" * 8, DES)
    True
    >>> cache.hits, cache.misses
    (1, 1)
    """

    def __init__(self, capacity: int = 1024,
                 registry: Optional[MetricRegistry] = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        # The async serving layer encrypts independent runs on worker
        # threads; the shared cache must survive concurrent lookups.
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.registry = (registry if registry is not None
                         else MetricRegistry("keycache"))
        lookups = self.registry.counter(
            "keycache_lookups_total",
            "Key-schedule cache lookups by outcome.", labels=("result",))
        self._hit_series = lookups.labels(result="hit")
        self._miss_series = lookups.labels(result="miss")
        self._eviction_series = self.registry.counter(
            "keycache_evictions_total",
            "Key schedules evicted by the LRU capacity bound.").labels()
        self._entries_gauge = self.registry.gauge(
            "keycache_entries", "Cached key schedules.").labels()
        self._capacity_gauge = self.registry.gauge(
            "keycache_capacity", "Key-schedule cache capacity.").labels()
        self._published = {"hits": 0, "misses": 0, "evictions": 0}
        self.registry.add_collector(self._collect)

    def _collect(self, registry: MetricRegistry) -> None:
        """Fold counter deltas into the registry (runs at snapshot time)."""
        for attr, series in (("hits", self._hit_series),
                             ("misses", self._miss_series),
                             ("evictions", self._eviction_series)):
            delta = getattr(self, attr) - self._published[attr]
            if delta:
                series.inc(delta)
                self._published[attr] += delta
        self._entries_gauge.set(len(self._entries))
        self._capacity_gauge.set(self.capacity)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, cipher_name: str, key: bytes, factory: Callable):
        """Return the cached cipher for ``(cipher_name, key)`` or build one.

        ``factory`` is called with ``key`` on a miss.  A factory that
        raises (wrong key length, say) inserts nothing.
        """
        entry_key = (cipher_name, bytes(key))
        with self._lock:
            cipher = self._entries.get(entry_key)
            if cipher is not None:
                self.hits += 1
                self._entries.move_to_end(entry_key)
                return cipher
        # Construct outside the lock: expansion is the expensive part,
        # and two threads racing a miss just build the same pure object
        # twice (last insert wins — both are equivalent).
        cipher = factory(key)
        with self._lock:
            self.misses += 1
            self._entries[entry_key] = cipher
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return cipher

    def clear(self) -> None:
        """Drop every cached schedule (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters snapshot, for observability and the benchmark report."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: Process-wide cache shared by every :class:`~repro.crypto.suite.CipherSuite`
#: and by the rekey pipeline's encrypt stage.  Sized for the working set of
#: a deep tree rekey (path keys + individual keys touched in one batch).
SHARED_CACHE = KeyScheduleCache(capacity=1024)
