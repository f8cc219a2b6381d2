"""The relying party: fetch, cache, validate, classify.

Ties the pipeline together the way RFC 6480 describes a relying party
operating: periodically synchronize the distributed repositories into a
local cache, run path validation over the cache, and use the resulting
VRPs to classify BGP routes.

Discovery is top-down: the trust anchors' publication points are fetched
first, validation of what arrived reveals child SIA pointers, those are
fetched next, and so on until no new points appear.  Each round validates
the whole cache snapshot, but the validator replays every point whose
content and time edges did not move since its last run (see
:mod:`repro.rp.incremental`): a later round validates a point from
bytes again only if its cached copy changed in between, and a refresh
after churn validates only the changed points.

A point that cannot be fetched (unreachable, faulted) leaves whatever the
cache already had — or nothing, which is exactly the "missing
information" condition whose consequences Section 4 of the paper
analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..repository.cache import CacheFreshness, LocalCache
from ..repository.fetch import Fetcher, FetchResult, FetchStatus
from ..repository.scheduler import FetchScheduler, SchedulerConfig
from ..repository.uri import RsyncUri
from ..rpki.cert import ResourceCertificate
from ..simtime import Clock
from ..telemetry import MetricsRegistry, default_registry
from .origin import OriginValidationOutcome, validate
from .journal import VrpJournal
from .pathval import PathValidator, ValidationRun
from .states import Route, RouteValidity
from .vrp import VrpSet

__all__ = ["RelyingParty", "RefreshReport", "DegradationReport"]

# Issue codes that mean "this object's bytes were rejected and the object
# was excluded while its siblings kept validating" — the containment
# outcomes a DegradationReport aggregates.
_QUARANTINE_CODES = frozenset({
    "parse-failed", "object-quarantined", "crl-parse-failed", "hash-mismatch",
})


@dataclass
class DegradationReport:
    """What one refresh survived: the containment ledger.

    The invariant this records is *one bad object never aborts the
    refresh* — every damaged input ends up listed here instead of raised.
    Affected subtrees keep serving last-known-good VRPs through the
    cache's stale-grace machinery; everything else is unaffected.
    """

    # (point URI, file name, issue code) per excluded object.
    quarantined_objects: list[tuple[str, str, str]] = field(
        default_factory=list
    )
    # (point URI, reason) per point that failed to fetch or whose
    # validation was contained whole.
    degraded_points: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined_objects and not self.degraded_points

    def summary(self) -> str:
        return (
            f"{len(self.quarantined_objects)} object(s) quarantined, "
            f"{len(self.degraded_points)} point(s) degraded"
        )


@dataclass
class RefreshReport:
    """Everything one refresh cycle did."""

    run: ValidationRun
    fetches: list[FetchResult] = field(default_factory=list)
    rounds: int = 0
    budget_exhausted: bool = False
    skipped: list[str] = field(default_factory=list)
    freshness: dict[str, CacheFreshness] = field(default_factory=dict)
    degradation: DegradationReport = field(default_factory=DegradationReport)
    # Points the fetch scheduler deferred to stale-cache grace this cycle
    # (always empty without a ``schedule=`` config).
    deferred: list[str] = field(default_factory=list)

    @property
    def vrps(self) -> VrpSet:
        return self.run.vrps

    @property
    def elapsed(self) -> int:
        """Simulated seconds this refresh spent fetching (incl. backoff)."""
        return sum(result.elapsed for result in self.fetches)

    @property
    def stale_points(self) -> list[str]:
        """Points served from stale cache (grace window) this cycle."""
        return [uri for uri, f in self.freshness.items()
                if f is CacheFreshness.STALE]

    @property
    def expired_points(self) -> list[str]:
        """Points withheld from validation: stale beyond the grace window."""
        return [uri for uri, f in self.freshness.items()
                if f is CacheFreshness.EXPIRED]


class RelyingParty:
    """A relying party with its own fetcher, cache, and validator.

    Parameters
    ----------
    trust_anchors:
        Out-of-band configured self-signed certificates.
    fetcher:
        The delivery path (carries the routing-reachability predicate and
        the fault model).
    clock:
        Simulated time; ``None`` (the default) reuses the fetcher's clock,
        which is almost always what a call site wants.
    keep_stale:
        Cache policy on failed refresh (see :class:`LocalCache`).
    stale_grace:
        Grace window in simulated seconds for serving stale cache entries
        (see :class:`LocalCache`); ``None`` serves stale copies forever.
    fetch_budget:
        Cap in simulated seconds on fetching per refresh cycle.  Checked
        between fetches (a single stalled fetch can still overshoot by
        one attempt's worth), so pair it with a resilient fetcher whose
        per-attempt deadline is small.  Once exhausted, remaining points
        are skipped and validation falls back to the cache — the
        stale-serve path.  ``None`` (default) never stops fetching.
    schedule:
        Optional fetch scheduling, the Stalloris defense: a
        :class:`~repro.repository.scheduler.SchedulerConfig` (or a
        prebuilt :class:`~repro.repository.scheduler.FetchScheduler`)
        that orders each round's fetches by priority (staleness x
        authority weight, then past-latency EWMA) and enforces a
        per-authority time budget, so one slow delegation subtree cannot
        monopolize the refresh.  Over-budget points are *deferred*:
        listed on :attr:`RefreshReport.deferred`, recorded as degraded,
        and served from stale-cache grace like a failed fetch.
        ``None`` (the default) keeps the
        historical plain-sorted fetch order byte-identically.
    strict_manifests:
        Validator policy on manifest trouble (see :class:`PathValidator`).
    lean:
        Streaming refresh: validated ROA objects are counted but not
        retained on the :class:`~repro.rp.pathval.ValidationRun` (only
        VRPs, CA certificates, issues and contacts survive), and the
        validator reads straight out of the cache's zero-copy
        :meth:`~repro.repository.LocalCache.snapshot`.  This bounds
        refresh peak memory by the largest single publication point
        instead of the whole deployment — the Internet-scale
        configuration.  Layers that need the parsed
        objects (Suspenders corroboration, the monitor's ROA diffing)
        must keep the default False.
    metrics:
        Telemetry registry shared with this RP's cache and validator
        (None → the process-global default registry).  Give each relying
        party its own registry to keep their metrics separable.
    """

    def __init__(
        self,
        trust_anchors: list[ResourceCertificate],
        fetcher: Fetcher,
        clock: Clock | None = None,
        *,
        keep_stale: bool = True,
        stale_grace: int | None = None,
        fetch_budget: int | None = None,
        schedule: SchedulerConfig | FetchScheduler | None = None,
        strict_manifests: bool = False,
        lean: bool = False,
        metrics: MetricsRegistry | None = None,
    ):
        if fetch_budget is not None and fetch_budget < 1:
            raise ValueError(f"bad fetch budget {fetch_budget}")
        self.lean = lean
        self.fetcher = fetcher
        self.fetch_budget = fetch_budget
        self.metrics = metrics if metrics is not None else default_registry()
        if isinstance(schedule, FetchScheduler):
            self.scheduler: FetchScheduler | None = schedule
        elif schedule is not None:
            self.scheduler = FetchScheduler(schedule, metrics=self.metrics)
        else:
            self.scheduler = None
        self.cache = LocalCache(keep_stale=keep_stale, stale_grace=stale_grace,
                                metrics=self.metrics)
        self.validator = PathValidator(
            trust_anchors, strict_manifests=strict_manifests,
            metrics=self.metrics, collect_objects=not lean,
        )
        self._clock = clock if clock is not None else fetcher.clock
        self._last_run: ValidationRun | None = None
        # The serial-numbered delta history every serving consumer reads
        # (RTR cache, query plane); they publish :attr:`vrps` into it.
        self.journal = VrpJournal(metrics=self.metrics)
        self._m_refreshes = self.metrics.counter(
            "repro_rp_refresh_total", help="completed refresh cycles"
        )
        self._m_rounds = self.metrics.counter(
            "repro_rp_refresh_rounds_total",
            help="fetch-validate discovery rounds across all refreshes",
        )
        self._m_vrps = self.metrics.gauge(
            "repro_rp_vrps", help="VRPs produced by the most recent refresh"
        )
        self._m_classifications = self.metrics.counter(
            "repro_rp_route_classifications_total",
            help="RFC 6811 route classifications, by resulting state",
            labelnames=("state",),
        )
        self._m_budget_exhausted = self.metrics.counter(
            "repro_rp_budget_exhausted_total",
            help="refresh cycles that hit their fetch budget and fell back "
                 "to cached data",
        )
        self._m_quarantined = self.metrics.counter(
            "repro_rp_quarantined_objects_total",
            help="objects excluded by containment while siblings validated",
        )
        self._m_degraded = self.metrics.counter(
            "repro_rp_degraded_points_total",
            help="publication points degraded in a refresh (fetch failure "
                 "or contained validation error)",
        )

    # -- the refresh cycle ----------------------------------------------------

    def refresh(self) -> RefreshReport:
        """One full synchronize-and-validate cycle."""
        report = RefreshReport(run=ValidationRun())
        fetched: set[str] = set()
        pending = {
            str(RsyncUri.parse(anchor.sia))
            for anchor in self.validator.trust_anchors
        }
        run = ValidationRun()
        start = self._clock.now
        budget_hit = False
        unfetched_at_break: set[str] = set()
        deferred: set[str] = set()
        if self.scheduler is not None:
            self.scheduler.begin_cycle()
        with self.metrics.trace("repro_rp_refresh_seconds", self._clock):
            while pending and not budget_hit:
                report.rounds += 1
                ordered = (
                    sorted(pending) if self.scheduler is None
                    else self.scheduler.order(
                        pending, self.cache, self._clock.now
                    )
                )
                for uri in ordered:
                    if (
                        self.fetch_budget is not None
                        and self._clock.now - start >= self.fetch_budget
                    ):
                        # Budget gone: stop fetching, validate what the
                        # cache has (the stale-fallback path).
                        budget_hit = True
                        # Points the scheduler already deferred this round
                        # are reported as deferred, not also as skipped.
                        unfetched_at_break = pending - fetched - deferred
                        break
                    if self.scheduler is not None:
                        remaining = (
                            None if self.fetch_budget is None
                            else self.fetch_budget
                            - (self._clock.now - start)
                        )
                        if not self.scheduler.admit(
                            uri, remaining_budget=remaining
                        ):
                            # Deferred to stale-cache grace: the cache's
                            # last good copy keeps serving this cycle.
                            deferred.add(uri)
                            continue
                    try:
                        result = self.fetcher.fetch_point(uri)
                    except Exception:
                        # Containment: a crashing fetch degrades one point
                        # (recorded below via its FAULTED status), never
                        # the whole refresh.
                        result = FetchResult(
                            uri, FetchStatus.FAULTED,
                            fetched_at=self._clock.now,
                        )
                    self.cache.update(result)
                    report.fetches.append(result)
                    fetched.add(uri)
                    if self.scheduler is not None:
                        self.scheduler.record(uri, result.elapsed)
                run = self._validate()
                discovered = {
                    str(RsyncUri.parse(uri))
                    for cert in run.validated_cas
                    for uri in cert.all_publication_uris
                }
                pending = discovered - fetched - deferred
        if budget_hit:
            report.budget_exhausted = True
            # One computation covers both the points skipped when the
            # budget tripped and anything the final validation discovered.
            report.skipped = sorted(unfetched_at_break | (pending - fetched))
            self._m_budget_exhausted.inc()
        report.deferred = sorted(deferred)
        report.freshness = self.cache.classify(self._clock.now)
        report.run = run
        report.degradation = self._degradation(
            report.fetches, run, report.deferred
        )
        self._last_run = run
        self._m_refreshes.inc()
        self._m_rounds.inc(report.rounds)
        self._m_vrps.set(len(run.vrps))
        if report.degradation.quarantined_objects:
            self._m_quarantined.inc(len(report.degradation.quarantined_objects))
        if report.degradation.degraded_points:
            self._m_degraded.inc(len(report.degradation.degraded_points))
        return report

    @staticmethod
    def _degradation(
        fetches: list[FetchResult],
        run: ValidationRun,
        deferred: list[str] = (),
    ) -> DegradationReport:
        """Aggregate this cycle's containment outcomes.

        Every degraded point appears exactly once: a point both
        quarantined by validation *and* failing its fetch (a composed
        timing + Byzantine fault) is still one degraded point, reported
        under its first-seen reason.
        """
        degradation = DegradationReport()
        seen: set[str] = set()

        def degrade(uri: str, reason: str) -> None:
            if uri not in seen:
                seen.add(uri)
                degradation.degraded_points.append((uri, reason))

        for issue in run.issues:
            if issue.code in _QUARANTINE_CODES:
                degradation.quarantined_objects.append(
                    (issue.point_uri, issue.file_name, issue.code)
                )
            elif issue.code == "point-quarantined":
                degrade(issue.point_uri, issue.code)
        for result in fetches:
            if not result.ok:
                degrade(result.uri, result.status.value)
        for uri in deferred:
            degrade(uri, "budget-deferred")
        return degradation

    def _validate(self) -> ValidationRun:
        """One validation pass over the current cache snapshot.

        The snapshot is the cache's zero-copy view: the validator reads
        the cached file dicts by reference, so a validation round
        allocates no per-point copies no matter how large the deployment
        is.  The cache's maintained digests make the validator's point
        fingerprints O(points) to build.
        """
        now = self._clock.now
        return self.validator.run(
            self.cache.snapshot(now), now, digests=self.cache.digests(now)
        )

    # -- classification surface -------------------------------------------------

    @property
    def clock(self):
        """The simulated clock this relying party runs on."""
        return self._clock

    @property
    def vrps(self) -> VrpSet:
        """The VRPs from the most recent refresh (empty before the first)."""
        if self._last_run is None:
            return VrpSet()
        return self._last_run.vrps

    @property
    def last_run(self) -> ValidationRun | None:
        return self._last_run

    def validate_origin(self, prefix, origin) -> OriginValidationOutcome:
        """RFC 6811 validation with evidence, against the current VRP set."""
        outcome = validate(prefix, origin, self.vrps)
        self._m_classifications.inc(state=outcome.state.value)
        return outcome

    def classify(self, route: Route) -> RouteValidity:
        """RFC 6811 classification against the current VRP set."""
        return self.validate_origin(route.prefix, route.origin).state

    def classify_parts(self, prefix_text: str, origin: int) -> RouteValidity:
        return self.classify(Route.parse(prefix_text, origin))
