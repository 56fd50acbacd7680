"""ResilientRpc: the retry state machine, driven deterministically.

Every test injects ``rng``/``sleep``/``clock`` so the machine's
decisions — attempt counts, backoff lengths, deadline cuts — are exact
assertions, not wall-clock races.
"""

import asyncio

import pytest

from repro.serve.rpc import (IdempotencyCache, PENDING, ResilientRpc,
                             RetryPolicy, RpcError, RpcOutcome)


class FakeTime:
    """A manual clock whose sleep() advances it (and records calls)."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    async def sleep(self, delay):
        self.sleeps.append(delay)
        self.now += delay


def _run(coro):
    return asyncio.run(coro)


def _rpc(policy, fake, rng=lambda: 0.5):
    # rng=0.5 makes the jitter factor exactly 1.0: deterministic backoff.
    return ResilientRpc(policy, rng=rng, sleep=fake.sleep, clock=fake.clock)


def test_policy_validation():
    for bad in (dict(timeout=0), dict(deadline=-1), dict(budget=-1),
                dict(backoff_base=-0.1), dict(multiplier=0.5),
                dict(jitter=1.5),
                dict(backoff_base=2.0, backoff_cap=1.0)):
        with pytest.raises(RpcError):
            RetryPolicy(**bad).validate()


def test_backoff_is_capped_exponential():
    policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.5,
                         multiplier=2.0, jitter=0.0)
    assert [policy.backoff(n, lambda: 0.0) for n in range(5)] \
        == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_jitter_spreads_the_backoff():
    policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
    assert policy.backoff(0, lambda: 0.0) == pytest.approx(0.05)
    assert policy.backoff(0, lambda: 1.0) == pytest.approx(0.15)


def test_first_attempt_success_no_sleep():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(), fake)

    async def attempt(timeout):
        fake.now += 0.01
        return b"reply"

    outcome = _run(rpc.call(attempt))
    assert outcome.ok and outcome.reply == b"reply"
    assert outcome.attempts == 1
    assert outcome.timeouts == 0
    assert fake.sleeps == []
    assert outcome.elapsed == pytest.approx(0.01)


def test_timeouts_retry_with_growing_backoff():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=1.0, deadline=100.0, budget=5,
                           backoff_base=0.1, backoff_cap=10.0,
                           multiplier=2.0, jitter=0.0), fake)
    calls = []

    async def attempt(timeout):
        calls.append(timeout)
        fake.now += timeout
        if len(calls) < 3:
            return None  # timeout
        return b"late"

    outcome = _run(rpc.call(attempt))
    assert outcome.ok and outcome.reply == b"late"
    assert outcome.attempts == 3
    assert outcome.timeouts == 2
    assert fake.sleeps == [0.1, 0.2]


def test_budget_exhaustion():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=1.0, deadline=100.0, budget=2,
                           jitter=0.0), fake)

    async def attempt(timeout):
        fake.now += timeout
        return None

    outcome = _run(rpc.call(attempt))
    assert not outcome.ok
    assert outcome.status == "budget"
    assert outcome.reply is None
    assert outcome.attempts == 3  # 1 initial + 2 retries
    assert outcome.timeouts == 3


def test_deadline_cuts_before_budget():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=1.0, deadline=2.5, budget=100,
                           backoff_base=0.0, jitter=0.0), fake)

    async def attempt(timeout):
        fake.now += timeout
        return None

    outcome = _run(rpc.call(attempt))
    assert outcome.status == "deadline"
    assert outcome.reply is None
    # 1.0 + 1.0 + 0.5 (the final attempt is clipped to the remaining
    # deadline), then the loop finds no time left.
    assert outcome.attempts == 3


def test_attempt_timeout_clipped_to_remaining_deadline():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=5.0, deadline=2.0, budget=0), fake)
    seen = []

    async def attempt(timeout):
        seen.append(timeout)
        return b"ok"

    _run(rpc.call(attempt))
    assert seen == [2.0]


def test_retryable_reply_reenters_backoff():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=1.0, deadline=100.0, budget=5,
                           backoff_base=0.1, jitter=0.0), fake)
    replies = [b"BUSY", b"BUSY", b"real"]

    async def attempt(timeout):
        return replies.pop(0)

    outcome = _run(rpc.call(attempt, retryable=lambda r: r == b"BUSY"))
    assert outcome.ok and outcome.reply == b"real"
    assert outcome.retried_replies == 2
    assert outcome.timeouts == 0
    assert len(fake.sleeps) == 2


def test_retryable_reply_never_escapes_on_budget():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(timeout=1.0, deadline=100.0, budget=1,
                           backoff_base=0.0, jitter=0.0), fake)

    async def attempt(timeout):
        return b"BUSY"

    outcome = _run(rpc.call(attempt, retryable=lambda r: r == b"BUSY"))
    assert outcome.status == "budget"
    assert outcome.reply is None  # busy is not a result
    assert outcome.retried_replies == 2


def test_budget_zero_means_one_attempt():
    fake = FakeTime()
    rpc = _rpc(RetryPolicy(budget=0), fake)
    calls = []

    async def attempt(timeout):
        calls.append(timeout)
        fake.now += timeout
        return None

    outcome = _run(rpc.call(attempt))
    assert outcome.status == "budget"
    assert len(calls) == 1


# -- the server half: IdempotencyCache ----------------------------------------


def test_cache_lifecycle():
    cache = IdempotencyCache()
    assert cache.get("u", 7) is None
    cache.begin("u", 7)
    assert cache.get("u", 7) is PENDING
    cache.commit("u", 7, b"reply")
    assert cache.get("u", 7) == b"reply"
    # Later commits are no-ops: the first reply is the reply.
    cache.commit("u", 7, b"other")
    assert cache.get("u", 7) == b"reply"


def test_cache_abort_forgets_pending_only():
    cache = IdempotencyCache()
    cache.begin("u", 1)
    cache.abort("u", 1)
    assert cache.get("u", 1) is None
    cache.begin("u", 2)
    cache.commit("u", 2, b"r")
    cache.abort("u", 2)  # completed entries survive aborts
    assert cache.get("u", 2) == b"r"


def test_commit_without_begin_is_not_cached():
    cache = IdempotencyCache()
    cache.commit("u", 9, b"reply")
    assert cache.get("u", 9) is None


def test_per_client_bound_prefers_completed_victims():
    cache = IdempotencyCache(per_client=2)
    cache.begin("u", 1)          # stays pending
    cache.begin("u", 2)
    cache.commit("u", 2, b"b")
    cache.begin("u", 3)          # evicts 2 (completed), not 1 (pending)
    assert cache.get("u", 1) is PENDING
    assert cache.get("u", 2) is None
    assert cache.get("u", 3) is PENDING


def test_per_client_bound_drops_pending_as_last_resort():
    cache = IdempotencyCache(per_client=2)
    cache.begin("u", 1)
    cache.begin("u", 2)
    cache.begin("u", 3)
    assert cache.get("u", 1) is None
    assert len(cache) == 2


def test_global_bound_evicts_oldest():
    cache = IdempotencyCache(max_entries=3, per_client=8)
    for index in range(3):
        cache.begin(f"u{index}", 0)
        cache.commit(f"u{index}", 0, b"r")
    cache.begin("u3", 0)
    assert cache.get("u0", 0) is None
    assert len(cache) == 3


def test_cache_validation():
    with pytest.raises(RpcError):
        IdempotencyCache(max_entries=0)
    with pytest.raises(RpcError):
        IdempotencyCache(per_client=0)
