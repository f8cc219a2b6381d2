"""Unit tests for the resilience layer: retry, backoff, breaker, grace.

Covers the policy objects in isolation (pure state machines), the
Fetcher's retry loop and deadline handling, the cache's grace-window
classifications, and the FetchResult edge cases the issue calls out:
an *empty* publication point (empty is not missing) and an unknown host
once its breaker has opened.
"""

import pytest

from repro.repository import (
    PERSISTENT,
    BreakerPolicy,
    BreakerState,
    CacheFreshness,
    CircuitBreaker,
    FaultInjector,
    FaultKind,
    Fetcher,
    FetchResult,
    FetchStatus,
    HostLocator,
    LocalCache,
    RepositoryRegistry,
    ResilienceConfig,
    RetryPolicy,
)
from repro.simtime import Clock
from repro.telemetry import MetricsRegistry


def make_world(files=(("a.roa", b"payload"),)):
    registry = RepositoryRegistry()
    server = registry.create_server(
        "continental", HostLocator.parse("63.174.23.0", 17054)
    )
    point = server.mount("rsync://continental/repo/")
    for name, data in files:
        point.put(name, data)
    return registry, point


def make_fetcher(registry, *, faults=None, resilience=None, **kw):
    return Fetcher(
        registry, Clock(), faults=faults, resilience=resilience,
        metrics=MetricsRegistry(), **kw,
    )


URI = "rsync://continental/repo/"


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base_backoff=4, backoff_multiplier=2.0,
                             max_backoff=10, jitter_fraction=0.0)
        assert policy.backoff(1) == 4
        assert policy.backoff(2) == 8
        assert policy.backoff(3) == 10  # capped
        assert policy.backoff(9) == 10

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter_fraction=0.25)
        for retry in (1, 2, 5):
            first = policy.backoff(retry, salt="rsync://x/")
            assert first == policy.backoff(retry, salt="rsync://x/")
            raw = min(policy.max_backoff,
                      policy.base_backoff * policy.backoff_multiplier ** (retry - 1))
            assert abs(first - raw) <= raw * policy.jitter_fraction + 1

    def test_jitter_varies_with_salt(self):
        policy = RetryPolicy(base_backoff=60, max_backoff=600,
                             jitter_fraction=0.25)
        values = {policy.backoff(2, salt=f"rsync://host{i}/") for i in range(16)}
        assert len(values) > 1  # retries desynchronize across points

    def test_worst_case_bounds_every_schedule(self):
        policy = RetryPolicy()
        worst = policy.worst_case_seconds()
        total = policy.max_attempts * policy.attempt_deadline
        for retry in range(1, policy.max_attempts):
            total += policy.backoff(retry, salt="rsync://anything/")
        assert total <= worst

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_jitter_is_pinned_across_runs(self):
        # The jitter is SHA-256 of (salt, retry) — no interpreter state,
        # no PYTHONHASHSEED dependence — so the schedule is a constant of
        # the codebase.  These golden values catch algorithm drift.
        policy = RetryPolicy()
        salt = "rsync://continental/repo/"
        assert [policy.backoff(r, salt=salt) for r in (1, 2)] == [5, 7]

    def test_backoff_schedule_survives_pickle_round_trip(self):
        # Worker processes receive their RetryPolicy by pickling; the
        # schedule a worker computes must be bit-identical to the
        # parent's, or parallel refreshes would advance their clocks
        # differently from serial ones.
        import pickle

        policy = RetryPolicy()
        clone = pickle.loads(pickle.dumps(policy))
        assert clone == policy
        salts = [f"rsync://host{i}.example/repo/" for i in range(8)]
        schedule = [policy.backoff(retry, salt=salt)
                    for salt in salts for retry in (1, 2, 3)]
        assert schedule == [clone.backoff(retry, salt=salt)
                            for salt in salts for retry in (1, 2, 3)]


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker("h", BreakerPolicy(failure_threshold=3))
        assert breaker.record(False, 0) is None
        assert breaker.record(False, 1) is None
        assert breaker.record(False, 2) is BreakerState.OPEN
        assert breaker.allow(3) == (False, None)

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker("h", BreakerPolicy(failure_threshold=2))
        breaker.record(False, 0)
        breaker.record(True, 1)
        assert breaker.record(False, 2) is None  # streak restarted
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_probe_then_close(self):
        policy = BreakerPolicy(failure_threshold=1, reset_timeout=100)
        breaker = CircuitBreaker("h", policy)
        breaker.record(False, 0)
        assert breaker.state is BreakerState.OPEN
        allowed, transition = breaker.allow(100)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.record(True, 101) is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        policy = BreakerPolicy(failure_threshold=1, reset_timeout=10)
        breaker = CircuitBreaker("h", policy)
        breaker.record(False, 0)
        breaker.allow(10)
        assert breaker.record(False, 11) is BreakerState.OPEN
        assert breaker.opened_at == 11  # reset timer restarts from the probe
        assert breaker.allow(12) == (False, None)
        assert [state for _, state in breaker.transitions] == [
            BreakerState.OPEN, BreakerState.HALF_OPEN, BreakerState.OPEN,
        ]

    def test_half_open_admits_only_the_policy_probe_count(self):
        # The re-entry edge case: before the first probe's outcome is
        # recorded, further allow() calls must NOT be admitted — a
        # half-open breaker grants exactly half_open_successes in-flight
        # probes, not unlimited traffic.
        policy = BreakerPolicy(failure_threshold=1, reset_timeout=10)
        breaker = CircuitBreaker("h", policy)
        breaker.record(False, 0)
        allowed, transition = breaker.allow(10)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.allow(10) == (False, None)  # probe still in flight
        assert breaker.allow(11) == (False, None)
        assert breaker.record(True, 12) is BreakerState.CLOSED
        assert breaker.allow(13) == (True, None)  # closed: traffic flows

    def test_half_open_multi_probe_accounting(self):
        policy = BreakerPolicy(
            failure_threshold=1, reset_timeout=10, half_open_successes=2,
        )
        breaker = CircuitBreaker("h", policy)
        breaker.record(False, 0)
        breaker.allow(10)  # -> HALF_OPEN, first probe admitted
        assert breaker.allow(10) == (True, None)   # second concurrent probe
        assert breaker.allow(10) == (False, None)  # third: over the cap
        assert breaker.record(True, 11) is None    # 1 of 2 successes
        assert breaker.allow(11) == (True, None)   # a slot freed up
        assert breaker.record(True, 12) is BreakerState.CLOSED

    def test_reopen_after_probe_failure_resets_probe_accounting(self):
        policy = BreakerPolicy(failure_threshold=1, reset_timeout=10)
        breaker = CircuitBreaker("h", policy)
        breaker.record(False, 0)
        breaker.allow(10)
        assert breaker.record(False, 11) is BreakerState.OPEN
        assert breaker.probing == 0
        # The next half-open episode starts with a fresh probe grant.
        allowed, transition = breaker.allow(21)
        assert allowed and transition is BreakerState.HALF_OPEN
        assert breaker.allow(21) == (False, None)
        assert breaker.record(True, 22) is BreakerState.CLOSED


class TestFetcherRetries:
    def test_plain_fetcher_single_attempt(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.UNREACHABLE, URI, count=2)
        fetcher = make_fetcher(registry, faults=faults)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.FAULTED
        assert result.attempts == 1 and result.elapsed == 0

    def test_retry_recovers_from_transient_fault(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.FLAKY, URI, count=1)  # first attempt only
        fetcher = make_fetcher(registry, faults=faults,
                               resilience=ResilienceConfig())
        result = fetcher.fetch_point(URI)
        assert result.ok and result.attempts == 2
        assert result.elapsed > 0  # the backoff wait advanced the clock
        assert fetcher.metrics.get("repro_fetch_retries_total").value() == 1

    def test_stall_burns_exactly_the_deadline_per_attempt(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, attempt_deadline=30,
                              jitter_fraction=0.0, base_backoff=5),
        )
        fetcher = make_fetcher(registry, faults=faults, resilience=config)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.TIMEOUT
        assert result.attempts == 2
        assert result.elapsed == 30 + 5 + 30  # deadline, backoff, deadline
        misses = fetcher.metrics.get("repro_fetch_deadline_misses_total")
        assert misses.value() == 2

    def test_delay_within_deadline_succeeds_and_costs_time(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.DELAY, URI, delay_seconds=10)
        fetcher = make_fetcher(registry, faults=faults,
                               resilience=ResilienceConfig())
        result = fetcher.fetch_point(URI)
        assert result.ok and result.elapsed == 10
        assert fetcher.clock.now == 10

    def test_delay_past_deadline_times_out(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.DELAY, URI, delay_seconds=50, count=1)
        config = ResilienceConfig(retry=RetryPolicy(attempt_deadline=30))
        fetcher = make_fetcher(registry, faults=faults, resilience=config)
        result = fetcher.fetch_point(URI)
        # First attempt times out (50 > 30), second succeeds (fault spent).
        assert result.ok and result.attempts == 2

    def test_unprotected_fetcher_pays_full_timeout_on_stall(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        fetcher = make_fetcher(registry, faults=faults)
        result = fetcher.fetch_point(URI)
        assert result.status is FetchStatus.TIMEOUT
        assert result.elapsed == fetcher.attempt_timeout

    def test_breaker_opens_and_short_circuits(self):
        registry, _ = make_world()
        faults = FaultInjector()
        faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=2, attempt_deadline=10),
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=10_000),
        )
        fetcher = make_fetcher(registry, faults=faults, resilience=config)
        first = fetcher.fetch_point(URI)
        assert first.status is FetchStatus.TIMEOUT  # 2 failures -> open
        second = fetcher.fetch_point(URI)
        assert second.status is FetchStatus.BREAKER_OPEN
        assert second.attempts == 0 and second.elapsed == 0
        skips = fetcher.metrics.get("repro_fetch_breaker_skips_total")
        assert skips.value() == 1
        transitions = fetcher.metrics.get("repro_breaker_transitions_total")
        assert transitions.value(state="open") == 1

    def test_breaker_probe_after_reset_timeout(self):
        registry, point = make_world()
        faults = FaultInjector()
        stall = faults.schedule(FaultKind.STALL, URI, count=PERSISTENT)
        config = ResilienceConfig(
            retry=RetryPolicy(max_attempts=1, attempt_deadline=10),
            breaker=BreakerPolicy(failure_threshold=1, reset_timeout=60),
        )
        fetcher = make_fetcher(registry, faults=faults, resilience=config)
        assert fetcher.fetch_point(URI).status is FetchStatus.TIMEOUT
        assert fetcher.breakers["continental"].state is BreakerState.OPEN
        stall.remaining = 0  # authority recovers
        fetcher.clock.advance(60)
        result = fetcher.fetch_point(URI)  # half-open probe succeeds
        assert result.ok
        assert fetcher.breakers["continental"].state is BreakerState.CLOSED


class TestFetchResultEdgeCases:
    def test_empty_publication_point_is_ok_not_missing(self):
        registry, _ = make_world(files=())
        fetcher = make_fetcher(registry)
        result = fetcher.fetch_point(URI)
        assert result.ok and result.files == {}
        # The cache serves the empty point: to the validator it is an
        # empty directory, not missing information.
        cache = LocalCache(metrics=MetricsRegistry())
        cache.update(result)
        assert dict(cache.snapshot()) == {URI: {}}
        assert dict(cache.snapshot(now=0)) == {URI: {}}

    def test_unknown_host_is_not_retried(self):
        registry, _ = make_world()
        fetcher = make_fetcher(registry, resilience=ResilienceConfig())
        result = fetcher.fetch_point("rsync://no-such-host/repo/")
        assert result.status is FetchStatus.UNKNOWN_HOST
        assert result.attempts == 1  # permanent within a refresh: no retry

    def test_unknown_host_after_breaker_open(self):
        registry, _ = make_world()
        config = ResilienceConfig(
            breaker=BreakerPolicy(failure_threshold=2, reset_timeout=10_000),
        )
        fetcher = make_fetcher(registry, resilience=config)
        uri = "rsync://no-such-host/repo/"
        assert fetcher.fetch_point(uri).status is FetchStatus.UNKNOWN_HOST
        assert fetcher.fetch_point(uri).status is FetchStatus.UNKNOWN_HOST
        third = fetcher.fetch_point(uri)
        assert third.status is FetchStatus.BREAKER_OPEN
        assert third.attempts == 0 and third.files == {}
        assert fetcher.breakers["no-such-host"].state is BreakerState.OPEN


class TestCacheGraceWindow:
    def fill(self, cache, at=0):
        cache.update(FetchResult(URI, FetchStatus.OK, {"a.roa": b"x"},
                                 fetched_at=at))

    def fail(self, cache, at):
        cache.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=at))

    def test_fresh_stale_expired_never(self):
        cache = LocalCache(stale_grace=100, metrics=MetricsRegistry())
        self.fill(cache, at=0)
        assert cache.classify(0)[URI] is CacheFreshness.FRESH
        self.fail(cache, at=50)
        assert cache.classify(50)[URI] is CacheFreshness.STALE
        assert cache.classify(101)[URI] is CacheFreshness.EXPIRED
        other = LocalCache(metrics=MetricsRegistry())
        other.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=5))
        assert other.classify(5)[URI] is CacheFreshness.NEVER

    def test_no_grace_serves_stale_forever(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        self.fail(cache, at=50)
        assert URI in cache.snapshot(now=10**9)
        assert cache.classify(10**9)[URI] is CacheFreshness.STALE


class TestCacheSnapshot:
    """The zero-copy serving view streaming refresh validates from."""

    def fill(self, cache, at=0):
        cache.update(FetchResult(URI, FetchStatus.OK, {"a.roa": b"x"},
                                 fetched_at=at))

    def fail(self, cache, at):
        cache.update(FetchResult(URI, FetchStatus.TIMEOUT, fetched_at=at))

    def test_maps_servable_points(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        snap = cache.snapshot()
        assert dict(snap.items()) == {URI: {"a.roa": b"x"}}
        assert len(snap) == 1 and URI in snap
        assert list(snap) == [URI]
        assert snap.get("rsync://nobody/repo/") is None

    def test_serves_references_not_copies(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fill(cache, at=0)
        snap = cache.snapshot()
        assert snap[URI] is cache.point(URI).files

    def test_never_fetched_omitted(self):
        cache = LocalCache(metrics=MetricsRegistry())
        self.fail(cache, at=5)  # attempted, never succeeded
        assert len(cache.snapshot()) == 0

    def test_grace_window_enforced(self):
        metrics = MetricsRegistry()
        cache = LocalCache(stale_grace=100, metrics=metrics)
        self.fill(cache, at=0)
        self.fail(cache, at=50)
        assert URI in cache.snapshot(now=50)  # stale but in grace
        assert metrics.get("repro_cache_stale_serves_total").value() == 1
        assert len(cache.snapshot(now=200)) == 0  # grace over: withheld
        assert metrics.get("repro_cache_expired_drops_total").value() == 1
