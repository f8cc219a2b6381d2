"""The query plane: ``QueryService`` over a relying party.

One service wraps one :class:`~repro.rp.RelyingParty` and serves five
endpoints, all deterministic on the simulated clock:

- ``lookup_prefix(prefix)`` — the covering VRPs of a prefix (any origin);
- ``lookup_asn(asn)`` — every VRP authorizing an origin AS;
- ``validate_route(prefix, origin)`` — full RFC 6811 validation with
  evidence, via the unified :func:`repro.rp.origin.validate`;
- ``history()`` — the relying party's retained journal entries (serial,
  VRP count, added/removed VRPs);
- ``diff(from_serial)`` — the net VRP change between two served epochs,
  the monitor-facing "what did the authorities just do to me" query.

Consistency contract: **every answer is computed against the backing
relying party's live VRP set.**  Each request first syncs with
``rp.vrps`` (one identity check; on a new set, publish it to
``rp.journal`` and adopt the journal's serial), so a refresh performed
behind the service's back — including a faulted one
mid-chaos-campaign — is visible to the very next query.  The
benchmark's campaign invariant holds the service to exactly that.

Serials are the relying party's :class:`~repro.rp.journal.VrpJournal`
serials, shared with an RTR cache serving the same journal: a refresh
that validates to an identical VRP set does not bump the serial, any
real change bumps it once.  Content queries are cached under the set's
content hash, so an A→B→A flap keeps them warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable

from ..rp import RelyingParty
from ..rp.journal import JournalEntry
from ..rp.origin import validate
from ..rp.vrp import VRP, VrpSet
from ..simtime import Clock
from ..telemetry import MetricsRegistry, default_registry
from .ratelimit import RateLimitConfig, TokenBucket
from .shard import ShardRouter

__all__ = [
    "ApiConfig",
    "ApiResponse",
    "QueryService",
    "QueryStatus",
    "VrpDiff",
]

# Most clients a service tracks rate-limit state for; beyond this the
# least-recently-seen client's bucket is dropped (and refills on return).
_MAX_TRACKED_CLIENTS = 4096


class QueryStatus:
    """Response outcomes (string constants, stable API)."""

    OK = "ok"
    RATE_LIMITED = "rate-limited"
    UNKNOWN_SERIAL = "unknown-serial"


@dataclass(frozen=True)
class ApiConfig:
    """Shape of one query service."""

    shards: int = 4                 # logical request-routing partitions
    cache_capacity: int = 4096      # response-cache entries, all shards
    rate_limit: RateLimitConfig | None = field(
        default_factory=RateLimitConfig
    )                               # None disables rate limiting

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"need at least one shard: {self.shards}")


@dataclass(frozen=True)
class VrpDiff:
    """Net VRP change between two served epochs."""

    from_serial: int
    to_serial: int
    added: tuple[VRP, ...]
    removed: tuple[VRP, ...]

    @property
    def empty(self) -> bool:
        return not self.added and not self.removed


@dataclass(frozen=True)
class ApiResponse:
    """Envelope every endpoint returns."""

    status: str                  # a QueryStatus constant
    serial: int                  # served epoch
    content_hash: str            # VRP set fingerprint the answer is for
    payload: object              # endpoint-specific; None unless OK
    cached: bool                 # answered from the response cache
    shard: int                   # shard that handled the request

    @property
    def ok(self) -> bool:
        return self.status == QueryStatus.OK


class QueryService:
    """Origin-validation-as-a-service over one relying party."""

    def __init__(
        self,
        rp: RelyingParty,
        *,
        config: ApiConfig | None = None,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.rp = rp
        self.config = config if config is not None else ApiConfig()
        self._clock = clock if clock is not None else rp.clock
        self.metrics = metrics if metrics is not None else default_registry()
        self._router = ShardRouter(
            self.config.shards, self.config.cache_capacity, self.metrics
        )
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()
        self._m_refreshes = self.metrics.counter(
            "repro_api_refreshes_total",
            help="refresh cycles driven through the query service",
        )
        self._m_rate_limited = self.metrics.counter(
            "repro_api_rate_limited_total",
            help="requests rejected by the per-client token bucket",
        )
        self._vrps: VrpSet | None = None
        self._serial = -1               # adopted from the journal below
        self._hash = ""
        self._sync()

    # -- epoch management ----------------------------------------------------

    def refresh(self):
        """Drive one refresh of the backing RP and adopt the result."""
        report = self.rp.refresh()
        self._m_refreshes.inc()
        self._sync()
        return report

    def _sync(self) -> None:
        """Adopt the backing RP's live VRP set if it is a new object.

        Refreshes reuse the same ``VrpSet`` object until a new run lands,
        so the per-query cost is one identity check.  A new set is
        published to the RP's journal, whose serial moves only on a
        content change; the content hash is recomputed only then.
        """
        live = self.rp.vrps
        if live is self._vrps:
            return
        serial = self.rp.journal.publish(live)
        if serial != self._serial:
            self._serial = serial
            self._hash = live.content_hash()
        self._vrps = live

    @property
    def serial(self) -> int:
        self._sync()
        return self._serial

    @property
    def content_hash(self) -> str:
        self._sync()
        return self._hash

    # -- the request path ----------------------------------------------------

    def _allow(self, client: str, now: int) -> bool:
        limit = self.config.rate_limit
        if limit is None:
            return True
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = self._buckets[client] = TokenBucket(limit, now=now)
            if len(self._buckets) > _MAX_TRACKED_CLIENTS:
                self._buckets.popitem(last=False)
        else:
            self._buckets.move_to_end(client)
        return bucket.try_acquire(now)

    def _serve(self, kind, cache_epoch, query_key, compute, size_of, client):
        """The shared request path: sync, route, rate-limit, cache, count.

        *cache_epoch* is the key's first component: the content hash for
        content queries (same content → same answer, even across an
        A→B→A flap), the serial for history-shaped queries (whose answer
        depends on the journal, not just the content).
        """
        shard = self._router.route(query_key)
        if not self._allow(client, self._clock.now):
            shard.count_request(kind, QueryStatus.RATE_LIMITED)
            self._m_rate_limited.inc()
            return ApiResponse(
                status=QueryStatus.RATE_LIMITED, serial=self._serial,
                content_hash=self._hash, payload=None, cached=False,
                shard=shard.index,
            )
        key = (cache_epoch, kind, query_key)
        payload = shard.cache.get(key)
        cached = payload is not None
        shard.count_cache("hit" if cached else "miss")
        if not cached:
            payload = compute()
            shard.cache.put(key, payload)
        shard.count_request(kind, QueryStatus.OK)
        shard.observe_response_size(size_of(payload))
        return ApiResponse(
            status=QueryStatus.OK, serial=self._serial,
            content_hash=self._hash, payload=payload, cached=cached,
            shard=shard.index,
        )

    # -- endpoints -----------------------------------------------------------

    def lookup_prefix(self, prefix, *, client: str = "anonymous") -> ApiResponse:
        """The covering VRPs of *prefix* (any origin), least-specific first."""
        self._sync()
        text = str(prefix)
        vrps = self._vrps
        return self._serve(
            "lookup_prefix", self._hash, text,
            lambda: tuple(vrps.covering(_as_prefix(prefix))),
            len, client,
        )

    def lookup_asn(self, asn, *, client: str = "anonymous") -> ApiResponse:
        """Every VRP authorizing origin *asn*, sorted."""
        self._sync()
        vrps = self._vrps
        return self._serve(
            "lookup_asn", self._hash, f"AS{int(asn)}",
            lambda: vrps.by_asn(asn),
            len, client,
        )

    def validate_route(
        self, prefix, origin, *, client: str = "anonymous"
    ) -> ApiResponse:
        """RFC 6811 validation of one announcement, with evidence."""
        self._sync()
        vrps = self._vrps
        return self._serve(
            "validate", self._hash, f"{prefix}|AS{int(origin)}",
            lambda: validate(prefix, origin, vrps),
            lambda outcome: len(outcome.covering),
            client,
        )

    def history(self, *, client: str = "anonymous") -> ApiResponse:
        """The journal's retained entries, oldest first."""
        self._sync()
        entries = self.rp.journal.entries
        return self._serve(
            "history", self._serial, "history",
            lambda: entries,
            lambda payload: 0,
            client,
        )

    def diff(
        self, from_serial: int, to_serial: int | None = None,
        *, client: str = "anonymous",
    ) -> ApiResponse:
        """Net VRP change between two served epochs.

        A range the journal cannot answer — compacted away, ahead of the
        current serial, or backwards — is ``unknown-serial``: the
        bounded-memory tradeoff, mirroring an RTR cache's Cache Reset
        when a router is too far behind.
        """
        self._sync()
        to_serial = self._serial if to_serial is None else to_serial
        query_key = f"diff|{from_serial}|{to_serial}"
        shard = self._router.route(query_key)
        entries = self.rp.journal.deltas(from_serial, to_serial)
        if entries is None:
            shard.count_request("diff", QueryStatus.UNKNOWN_SERIAL)
            return ApiResponse(
                status=QueryStatus.UNKNOWN_SERIAL, serial=self._serial,
                content_hash=self._hash, payload=None, cached=False,
                shard=shard.index,
            )
        return self._serve(
            "diff", self._serial, query_key,
            lambda: _net_diff(from_serial, to_serial, entries),
            lambda payload: len(payload.added) + len(payload.removed),
            client,
        )

    # -- introspection -------------------------------------------------------

    def cache_stats(self):
        """Aggregated (hits, misses, evictions) across all shards."""
        return self._router.cache_stats()

    @property
    def shard_count(self) -> int:
        return len(self._router)


def _as_prefix(prefix):
    from ..resources import Prefix

    return prefix if isinstance(prefix, Prefix) else Prefix.parse(str(prefix))


def _net_diff(
    from_serial: int, to_serial: int, entries: Iterable[JournalEntry]
) -> VrpDiff:
    """Fold per-epoch deltas into one net added/removed pair.

    A VRP added then removed (or vice versa) inside the window cancels
    out, so the diff describes the *net* change — what a monitor
    comparing only the endpoints would see.
    """
    net_added: set[VRP] = set()
    net_removed: set[VRP] = set()
    for entry in entries:
        for vrp in entry.added:
            if vrp in net_removed:
                net_removed.discard(vrp)
            else:
                net_added.add(vrp)
        for vrp in entry.removed:
            if vrp in net_added:
                net_added.discard(vrp)
            else:
                net_removed.add(vrp)
    return VrpDiff(
        from_serial=from_serial,
        to_serial=to_serial,
        added=tuple(sorted(net_added)),
        removed=tuple(sorted(net_removed)),
    )
