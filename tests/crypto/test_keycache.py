"""Key-schedule cache: hit/miss/eviction semantics and suite integration."""

import pytest

from repro.crypto import des
from repro.crypto.des import DES
from repro.crypto.keycache import SHARED_CACHE, KeyScheduleCache
from repro.crypto.suite import CipherSuite, FAST_TEST_SUITE


def _key(i: int) -> bytes:
    return i.to_bytes(8, "big")


class TestKeyScheduleCache:
    def test_miss_constructs_then_hit_reuses(self):
        cache = KeyScheduleCache(capacity=4)
        first = cache.get("des", _key(1), DES)
        assert cache.misses == 1 and cache.hits == 0
        second = cache.get("des", _key(1), DES)
        assert second is first
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_key_bytes_get_distinct_ciphers(self):
        """A cached cipher must never be served for different key bytes."""
        cache = KeyScheduleCache(capacity=8)
        a = cache.get("des", _key(1), DES)
        b = cache.get("des", _key(2), DES)
        assert a is not b
        # ... and the cached objects really do hold different schedules.
        block = b"\x00" * 8
        assert a.encrypt_block(block) != b.encrypt_block(block)

    def test_cipher_name_is_part_of_the_key(self):
        """Same key bytes under different cipher names are separate entries."""
        cache = KeyScheduleCache(capacity=8)
        a = cache.get("one", _key(1), DES)
        b = cache.get("two", _key(1), DES)
        assert a is not b

    def test_lru_eviction_order_and_counter(self):
        cache = KeyScheduleCache(capacity=2)
        a = cache.get("des", _key(1), DES)
        cache.get("des", _key(2), DES)
        cache.get("des", _key(1), DES)      # refresh key 1: key 2 is now LRU
        cache.get("des", _key(3), DES)      # evicts key 2
        assert cache.evictions == 1
        assert cache.get("des", _key(1), DES) is a      # still cached
        misses_before = cache.misses
        cache.get("des", _key(2), DES)                   # key 2 was evicted
        assert cache.misses == misses_before + 1

    def test_capacity_bound_holds(self):
        cache = KeyScheduleCache(capacity=3)
        for i in range(10):
            cache.get("des", _key(i), DES)
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_clear_drops_entries_but_keeps_counters(self):
        cache = KeyScheduleCache(capacity=4)
        first = cache.get("des", _key(1), DES)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("des", _key(1), DES) is not first
        assert cache.misses == 2

    def test_factory_error_inserts_nothing(self):
        cache = KeyScheduleCache(capacity=4)
        with pytest.raises(ValueError):
            cache.get("des", b"short", DES)
        assert len(cache) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            KeyScheduleCache(capacity=0)

    def test_stats_snapshot(self):
        cache = KeyScheduleCache(capacity=2)
        cache.get("des", _key(1), DES)
        cache.get("des", _key(1), DES)
        assert cache.stats() == {"size": 1, "capacity": 2, "hits": 1,
                                 "misses": 1, "evictions": 0}


class TestSuiteIntegration:
    def test_new_cipher_hits_shared_cache(self):
        suite = CipherSuite("des")
        key = b"suitekey"
        assert suite.new_cipher(key) is suite.new_cipher(key)

    def test_new_cipher_distinct_keys_distinct_ciphers(self):
        suite = CipherSuite("des")
        assert suite.new_cipher(b"suitekeA") is not suite.new_cipher(b"suitekeB")

    def test_cache_is_shared_across_equal_suites(self):
        """Two suite objects with the same cipher share schedules."""
        key = b"\x42" * 16
        one = CipherSuite("aes128", "sha256", None)
        two = CipherSuite("aes128")
        assert one.new_cipher(key) is two.new_cipher(key)

    def test_xor_cipher_bypasses_cache(self):
        key = b"xorkey00"
        assert (FAST_TEST_SUITE.new_cipher(key)
                is not FAST_TEST_SUITE.new_cipher(key))

    def test_new_cipher_still_validates_length(self):
        with pytest.raises(ValueError):
            CipherSuite("des").new_cipher(b"too-short")
        assert ("des", b"too-short") not in SHARED_CACHE._entries

    def test_cached_cipher_output_matches_fresh_construction(self):
        suite = CipherSuite("des3")
        key = bytes(range(24))
        block = b"abcdefgh"
        cached = suite.new_cipher(key)
        from repro.crypto.des3 import TripleDES
        assert cached.encrypt_block(block) == TripleDES(key).encrypt_block(block)


class TestWeakKeyScreeningCache:
    def test_verdicts_are_cached(self):
        des._SCREEN_CACHE.clear()
        key = b"\x3a" * 8
        assert not des.is_weak_key(key)
        assert key in des._SCREEN_CACHE
        # Second screening answers from the memo (same verdict object).
        assert des._SCREEN_CACHE[key] == (False, False)
        assert not des.is_semi_weak_key(key)

    def test_cached_verdicts_stay_correct(self):
        des._SCREEN_CACHE.clear()
        for weak in des.WEAK_KEYS:
            assert des.is_weak_key(weak)
            assert des.is_weak_key(weak)        # cached path
        for semi in des.SEMI_WEAK_KEYS:
            assert des.is_semi_weak_key(semi)
            assert des.is_semi_weak_key(semi)   # cached path

    def test_parity_flip_still_detected_via_cache(self):
        flipped = bytes(b ^ 1 for b in des.WEAK_KEYS[0])
        assert des.is_weak_key(flipped)

    def test_screening_cache_is_bounded(self):
        des._SCREEN_CACHE.clear()
        for i in range(des._SCREEN_CACHE_MAX + 10):
            des.is_weak_key(i.to_bytes(8, "big"))
        assert len(des._SCREEN_CACHE) <= des._SCREEN_CACHE_MAX

    @pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
    def test_any_bytes_like_key_gets_the_same_verdict(self, kind):
        des._SCREEN_CACHE.clear()
        cases = [(des.WEAK_KEYS[1], (True, False)),
                 (des.SEMI_WEAK_KEYS[2], (False, True)),
                 (bytes.fromhex("3b6a1f0c9d2e4857"), (False, False))]
        for key, verdict in cases:
            wrapped = kind(key)
            assert (des.is_weak_key(wrapped),
                    des.is_semi_weak_key(wrapped)) == verdict
        # The memo holds plain bytes copies, never the caller's buffer.
        assert all(type(key) is bytes for key in des._SCREEN_CACHE)

    def test_non_bytes_key_is_rejected(self):
        # bytes(8) would be eight zero bytes: a weak key, not an error.
        with pytest.raises(TypeError):
            des.is_weak_key(8)

    def test_wrong_length_still_raises(self):
        with pytest.raises(ValueError):
            des.is_weak_key(b"short")
        with pytest.raises(ValueError):
            des.is_semi_weak_key(b"way too long for DES")


class TestRegistryIntegration:
    """Counters live on the registry; the attribute API is the hot path."""

    def test_attribute_api_unchanged(self):
        cache = KeyScheduleCache(capacity=2)
        assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
        cache.get("des", _key(1), DES)
        cache.get("des", _key(1), DES)
        assert cache.stats() == {"size": 1, "capacity": 2, "hits": 1,
                                 "misses": 1, "evictions": 0}

    def test_snapshot_reflects_lookup_counters(self):
        cache = KeyScheduleCache(capacity=2)
        cache.get("des", _key(1), DES)
        cache.get("des", _key(1), DES)
        cache.get("des", _key(2), DES)
        cache.get("des", _key(3), DES)   # evicts key 1
        snapshot = cache.registry.snapshot()
        lookups = {s["labels"]["result"]: s["value"]
                   for s in snapshot["counters"]["keycache_lookups_total"]
                   ["series"]}
        assert lookups == {"hit": 1, "miss": 3}
        evictions = snapshot["counters"]["keycache_evictions_total"]
        assert evictions["series"][0]["value"] == 1
        gauges = snapshot["gauges"]
        assert gauges["keycache_entries"]["series"][0]["value"] == 2
        assert gauges["keycache_capacity"]["series"][0]["value"] == 2

    def test_collector_is_incremental_across_snapshots(self):
        cache = KeyScheduleCache(capacity=4)
        cache.get("des", _key(1), DES)
        first = cache.registry.snapshot()
        cache.get("des", _key(1), DES)
        second = cache.registry.snapshot()

        def misses(snap):
            return [s["value"] for s in
                    snap["counters"]["keycache_lookups_total"]["series"]
                    if s["labels"]["result"] == "miss"][0]

        assert misses(first) == 1
        assert misses(second) == 1   # no double counting
        hits = [s["value"] for s in
                second["counters"]["keycache_lookups_total"]["series"]
                if s["labels"]["result"] == "hit"]
        assert hits == [1.0]

    def test_shared_cache_has_registry(self):
        assert SHARED_CACHE.registry is not None
        assert "keycache_lookups_total" in SHARED_CACHE.registry

    def test_external_registry_can_be_supplied(self):
        from repro.observability.metrics import MetricRegistry
        registry = MetricRegistry("mine")
        cache = KeyScheduleCache(capacity=2, registry=registry)
        cache.get("des", _key(1), DES)
        snapshot = registry.snapshot()
        assert "keycache_lookups_total" in snapshot["counters"]
