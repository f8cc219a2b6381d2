"""The chaos-campaign runner: randomized fault plans, checked invariants.

One campaign builds **three identically seeded worlds** and runs them in
clock lockstep for N refresh cycles:

- *clean*: no faults at all; the ground truth.
- *faulted*: a relying party fed the seeded fault plan through its own
  :class:`~repro.repository.faults.FaultInjector`.
- *scheduled*: a relying party running the
  :class:`~repro.repository.scheduler.FetchScheduler` defense under the
  same fault plan.  Its fetch order legitimately diverges (deferral is
  the whole point); it is held to safety — and to **bounded
  interference**: under any plan, a slow or amplifying authority must
  not starve *unrelated* authorities' publication points beyond a
  configured staleness bound.

An RTR fan-out rides on the faulted variant: the cache + router pair,
plus a :class:`~repro.rtr.CacheChain` of non-validating caches
re-serving the cache's beliefs tier by tier — with its own chaos:
garbage bytes mid-session, abrupt channel closes, and severed chain
links (which must heal by reconnecting).  The cache serves the faulted
relying party's own :class:`~repro.rp.journal.VrpJournal`, which a
:class:`~repro.api.QueryService` over the same relying party reads too.

After every cycle these invariants are checked:

- **safety** — each faulted variant's VRP set is a subset of the clean
  run's: faults may *remove* validated origins, never invent them.
- **equivalence** — each faulted relying party's last run equals, in
  VRPs and issues, a fresh :class:`~repro.rp.PathValidator` run over the
  same cache snapshot at the same instant.  The fresh validator has
  nothing stored, so it is the cold reference for every point the warm
  relying party replayed.  The attached router's table matches after
  resync, and **every chained cache in every tier** serves exactly the
  validating RP's set once pumped.
- **serial agreement** — the query plane's serial, the attached
  router's serial and the journal's serial are one number, and the
  query plane's ``diff`` since the previous cycle equals the change the
  router observed: one VRP delta, seen identically by every consumer.
- **no-crash** — nothing anywhere raises out of the cycle: a violation
  of the containment contract is an unhandled exception here.
- **bounded interference** — on the scheduled variant, every cached
  publication point *not* recently covered by a timing fault must have
  refreshed successfully within ``interference_bound`` simulated
  seconds: one authority's slow subtree may cost itself freshness, never
  its neighbors'.

On violation the campaign stops and :func:`shrink_plan` delta-debugs the
fault plan down to a minimal reproducer by re-running reduced plans from
scratch (everything is a pure function of seed + plan, so re-execution is
exact).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..api import ApiConfig, QueryService
from ..jurisdiction.regions import RIR
from ..modelgen import DeploymentConfig, build_deployment
from ..repository import Fetcher, FaultInjector
from ..repository.faults import POINT_KINDS
from ..repository.scheduler import SchedulerConfig
from ..repository.uri import RsyncUri
from ..rp import PathValidator, RelyingParty
from ..rtr import (
    CacheChain,
    DuplexPipe,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
)
from ..telemetry import MetricsRegistry
from .plan import FaultPlan, PlannedFault, build_plan
from ..repository.faults import FaultKind

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Violation",
    "run_campaign",
    "shrink_plan",
]

@dataclass(frozen=True)
class CampaignConfig:
    """Shape of one campaign: world size, cycle count, chaos knobs."""

    seed: int = 7
    cycles: int = 20
    gap_seconds: int = 900       # simulated time between cycles
    attempt_timeout: int = 600   # fetcher deadline (bounds STALL cost)
    rir_count: int = 2           # breadth of the generated deployment
    isps_per_rir: int = 1
    customers_per_isp: int = 1
    plant_violation: bool = False  # stage the stealthy-delete + replay demo
    rtr_tiers: int = 1           # chained-cache fan-out depth (0 = none)
    rtr_fanout: int = 2          # children per cache in the chain
    # Stalloris knobs: delegated slow points minted by one authority, and
    # the staleness bound the scheduled variant must hold for points no
    # timing fault recently covered (None derives one from the timings).
    amplification_points: int = 0
    interference_bound: int | None = None

    def deployment(self) -> DeploymentConfig:
        return DeploymentConfig(
            seed=self.seed,
            rirs=tuple(RIR)[: max(1, self.rir_count)],
            isps_per_rir=self.isps_per_rir,
            customers_per_isp=self.customers_per_isp,
            roas_per_isp=1,
            roas_per_customer=1,
            amplification_points=self.amplification_points,
        )

    def effective_interference_bound(self) -> int:
        """The bound actually enforced (derived unless configured).

        The derivation covers the scheduled relying party's worst case:
        an unrelated point refreshes every cycle, so its age stays under
        one cycle gap plus a few authority-budget-sized fetch bursts on
        either side of its own fetch — while an *unscheduled* starved
        point's age grows by a full cycle every cycle and crosses any
        fixed bound.
        """
        if self.interference_bound is not None:
            return self.interference_bound
        return 4 * (self.gap_seconds + 2 * self.attempt_timeout)


@dataclass(frozen=True)
class Violation:
    """One invariant broken at one cycle."""

    cycle: int
    # "safety" | "equivalence" | "serial-agreement" | "no-crash" |
    # "bounded-interference"
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}: {self.invariant}: {self.detail}"


@dataclass
class CampaignResult:
    """What one campaign execution did and found."""

    plan: FaultPlan
    cycles_run: int = 0
    violation: Violation | None = None
    faults_fired: int = 0
    quarantined_objects: int = 0
    degraded_points: int = 0
    rtr_events: int = 0
    serial_checks: int = 0       # cycles the serial agreement was checked
    chain_caches: int = 0
    clean_vrps: int = 0
    # Worst unrelated-point staleness age observed on the scheduled
    # variant, and the bound it was held to.
    interference_worst: int = 0
    interference_bound: int = 0
    metrics: MetricsRegistry | None = None

    @property
    def ok(self) -> bool:
        return self.violation is None


class _Variant:
    """One relying party (plus optional fault injector) over one world."""

    def __init__(self, name: str, world, config: CampaignConfig,
                 *, faulted: bool, schedule: SchedulerConfig | None = None):
        self.name = name
        self.world = world
        self.metrics = MetricsRegistry()
        self.faults = (
            FaultInjector(seed=config.seed) if faulted else None
        )
        fetcher = Fetcher(
            world.registry, world.clock,
            faults=self.faults,
            attempt_timeout=config.attempt_timeout,
            metrics=self.metrics,
            identity=f"chaos-{'faulted' if faulted else 'clean'}",
        )
        self.rp = RelyingParty(
            world.trust_anchors, fetcher,
            schedule=schedule,
            metrics=self.metrics,
        )

    def vrp_set(self) -> frozenset:
        return self.rp.vrps.as_frozenset()

    def cold_divergence(self) -> str | None:
        """How the last run differs from a cold validation of the same
        cache at the same instant, or None when it does not."""
        validator = self.rp.validator
        cold = PathValidator(
            validator.trust_anchors,
            strict_manifests=validator.strict_manifests,
            collect_objects=validator.collect_objects,
            metrics=MetricsRegistry(),
        )
        now = self.rp.clock.now
        reference = cold.run(self.rp.cache.snapshot(now), now)
        warm = self.rp.last_run
        if warm.vrps.as_frozenset() != reference.vrps.as_frozenset():
            return (f"{len(warm.vrps)} VRPs vs {len(reference.vrps)} from "
                    "a cold validator")
        if warm.issues != reference.issues:
            return (f"{len(warm.issues)} issues vs {len(reference.issues)} "
                    "from a cold validator")
        return None


class _Campaign:
    """Mutable state of one campaign execution."""

    def __init__(self, config: CampaignConfig, plan: FaultPlan | None):
        self.config = config
        self.metrics = MetricsRegistry()
        self._m_cycles = self.metrics.counter(
            "repro_chaos_cycles_total", help="campaign cycles completed"
        )
        self._m_scheduled = self.metrics.counter(
            "repro_chaos_faults_scheduled_total",
            help="planned faults scheduled onto injectors, by kind",
            labelnames=("kind",),
        )
        self._m_rtr_events = self.metrics.counter(
            "repro_chaos_rtr_events_total",
            help="RTR chaos events injected, by kind",
            labelnames=("kind",),
        )
        self._m_violations = self.metrics.counter(
            "repro_chaos_violations_total",
            help="invariant violations detected, by invariant",
            labelnames=("invariant",),
        )

        deployment = config.deployment()
        self.clean = _Variant(
            "clean", build_deployment(deployment), config, faulted=False
        )
        self.faulted = _Variant(
            "faulted", build_deployment(deployment), config, faulted=True
        )
        # The defense under test: a relying party running the fetch scheduler
        # with an authority budget of one attempt deadline — enough for a
        # first contact plus a recovery probe per slow host per cycle.
        self.scheduled = _Variant(
            "scheduled", build_deployment(deployment), config, faulted=True,
            schedule=SchedulerConfig(authority_budget=config.attempt_timeout),
        )
        self.worlds = [
            self.clean.world, self.faulted.world, self.scheduled.world
        ]
        self.t0 = self.scheduled.world.clock.now

        points = sorted(
            _normalize(ca.sia)
            for ca in self.clean.world.authorities()
            if ca.sia
        )
        self.plant_cycle: int | None = None
        self.plant_handle = ""
        self.plant_roa = ""
        if config.plant_violation:
            target = next(
                ca for ca in self.clean.world.authorities() if ca.issued_roas
            )
            self.plant_cycle = max(1, config.cycles // 2)
            self.plant_handle = target.handle
            self.plant_roa = sorted(target.issued_roas)[0]
        if plan is None:
            plan = build_plan(config.seed, config.cycles, points)
            if self.plant_cycle is not None:
                # The staged misbehavior: a persistent stale-but-signed
                # replay pinning the pre-deletion state of the target CA.
                target = self.clean.world.authorities()
                target_ca = next(
                    ca for ca in target if ca.handle == self.plant_handle
                )
                plan = plan.with_faults([PlannedFault(
                    cycle=self.plant_cycle,
                    kind=FaultKind.MANIFEST_REPLAY,
                    point_uri=_normalize(target_ca.sia),
                    persistent=True,
                )])
        self.plan = plan

        # Renewal rotation fixed at campaign start, so churn is identical
        # across executions regardless of the (possibly shrunk) plan.
        self.renewables = [
            (ca.handle, sorted(ca.issued_roas)[0])
            for ca in self.clean.world.authorities()
            if ca.issued_roas
        ]

        # RTR and the query plane ride on the faulted variant, both
        # reading its relying party's journal.
        self.server = RtrCacheServer(
            journal=self.faulted.rp.journal, metrics=self.faulted.metrics
        )
        self.service = QueryService(
            self.faulted.rp, config=ApiConfig(rate_limit=None),
            metrics=self.faulted.metrics,
        )
        self.pipe: DuplexPipe | None = None
        self.router: RtrRouterClient | None = None
        self.rtr_rng = random.Random(config.seed ^ 0x52545221)
        self._attach_router()
        # What the serial-agreement check compares against next cycle.
        self.last_serial = self.service.serial
        self.last_router_set = self.router.vrp_set().as_frozenset()
        # The fan-out tree: non-validating caches re-serving the faulted
        # variant's beliefs, checked tier by tier every cycle.
        self.chain: CacheChain | None = None
        if config.rtr_tiers > 0:
            self.chain = CacheChain(
                self.server,
                tiers=config.rtr_tiers,
                fanout=config.rtr_fanout,
            )

    # -- plumbing ------------------------------------------------------------

    def _attach_router(self) -> None:
        self.pipe = DuplexPipe()
        self.server.attach(self.pipe)
        self.router = RtrRouterClient(self.pipe)
        self.router.connect()
        self.server.process()
        self.router.process()

    def _advance_clocks(self) -> None:
        target = max(w.clock.now for w in self.worlds) + self.config.gap_seconds
        for world in self.worlds:
            world.clock.at_least(target)

    def _authority(self, world, handle: str):
        for ca in world.authorities():
            if ca.handle == handle:
                return ca
        return None

    def _churn(self, cycle: int) -> None:
        """Additive-only repository churn, identical in every world.

        Renewals keep checkpoints moving (feeding the replay faults);
        the occasional brand-new ROA grows the clean VRP set so the
        safety invariant is tested against a moving target.  Nothing is
        ever deleted or revoked here — removal is exclusively the staged
        violation's job.
        """
        rng = random.Random((self.config.seed << 16) ^ cycle)
        handle, roa_name = self.renewables[cycle % len(self.renewables)]
        for world in self.worlds:
            ca = self._authority(world, handle)
            if ca is not None and roa_name in ca.issued_roas:
                ca.renew_roa(roa_name)
        if cycle % 4 == 2:
            donor_handle, donor_roa = self.renewables[
                rng.randrange(len(self.renewables))
            ]
            asn = 64512 + cycle
            for world in self.worlds:
                ca = self._authority(world, donor_handle)
                if ca is None or donor_roa not in ca.issued_roas:
                    continue
                prefix = ca.issued_roas[donor_roa].prefixes[0].prefix
                ca.issue_roa(asn, str(prefix), name=f"chaos-{cycle}.roa")

    def _plant(self, cycle: int) -> None:
        if self.plant_cycle is None or cycle != self.plant_cycle:
            return
        # The stealthy deletion of the paper's Side Effect 2, staged in
        # every world: no CRL entry, manifest updated.  Clean sees the
        # ROA vanish; a replayed point resurrects it.
        for world in self.worlds:
            ca = self._authority(world, self.plant_handle)
            if ca is not None and self.plant_roa in ca.issued_roas:
                ca.delete_object(self.plant_roa)

    def _schedule(self, cycle: int) -> None:
        active = self.plan.active_at(cycle)
        for variant in (self.faulted, self.scheduled):
            variant.faults.clear()
            for planned in active:
                planned.schedule_on(variant.faults)
        for planned in active:
            self._m_scheduled.inc(kind=planned.kind.value)

    def _rtr_cycle(self, result: CampaignResult) -> None:
        """Sync the router, with seeded session-level chaos."""
        if self.rtr_rng.random() < 0.25 and not self.pipe.closed:
            # Malformed bytes from the "router": the cache must answer
            # with an Error Report and drop the session, never raise.
            self.pipe.to_cache.send(b"\x99\x00\x00\x07chaos!")
            self.server.process()
            self.router.process()
            self._m_rtr_events.inc(kind="garbage")
            result.rtr_events += 1
            self._attach_router()
        if self.rtr_rng.random() < 0.15:
            self.pipe.close()
            self.server.process()
            self._m_rtr_events.inc(kind="close")
            result.rtr_events += 1
            self._attach_router()
        if self.router.state is RouterState.FAILED or self.pipe.closed:
            self._attach_router()
        if self.chain is not None and self.rtr_rng.random() < 0.1:
            # Sever a random chain link; the next pump must heal it
            # with a reconnect and a full resync.
            caches = self.chain.caches()
            caches[self.rtr_rng.randrange(len(caches))].pipe.close()
            self._m_rtr_events.inc(kind="chain-close")
            result.rtr_events += 1
        self.server.update(self.faulted.rp.vrps)
        self.router.process()   # Serial Notify -> router polls
        self.server.process()   # answer the Serial Query
        self.router.process()   # apply the delta
        if self.chain is not None:
            self.chain.pump()   # propagate down every tier

    # -- the loop ------------------------------------------------------------

    def run(self) -> CampaignResult:
        result = CampaignResult(plan=self.plan, metrics=self.metrics)
        for cycle in range(self.config.cycles):
            violation = self._cycle(cycle, result)
            result.cycles_run = cycle + 1
            self._m_cycles.inc()
            if violation is not None:
                result.violation = violation
                self._m_violations.inc(invariant=violation.invariant)
                break
        result.clean_vrps = len(self.clean.rp.vrps)
        if self.chain is not None:
            result.chain_caches = len(self.chain.caches())
        faults = self.faulted.faults
        result.faults_fired = len(faults.applied) + faults.applied_dropped
        return result

    def _cycle(self, cycle: int, result: CampaignResult) -> Violation | None:
        try:
            self._advance_clocks()
            self._churn(cycle)
            self._plant(cycle)
            self._schedule(cycle)
            self.clean.rp.refresh()
            degradation = self.faulted.rp.refresh().degradation
            self.scheduled.rp.refresh()
            result.quarantined_objects += len(degradation.quarantined_objects)
            result.degraded_points += len(degradation.degraded_points)
            self._rtr_cycle(result)
        except Exception as exc:  # the no-crash invariant itself
            return Violation(
                cycle, "no-crash", f"{type(exc).__name__}: {exc}"
            )

        clean_set = self.clean.vrp_set()
        for variant in (self.faulted, self.scheduled):
            extras = variant.vrp_set() - clean_set
            if extras:
                shown = ", ".join(str(v) for v in sorted(extras)[:3])
                return Violation(
                    cycle, "safety",
                    f"{variant.name} RP accepted {len(extras)} VRP(s) the "
                    f"clean run never produced: {shown}",
                )
        for variant in (self.faulted, self.scheduled):
            divergence = variant.cold_divergence()
            if divergence is not None:
                return Violation(
                    cycle, "equivalence",
                    f"{variant.name} RP's warm run diverged: {divergence}",
                )
        served_set = self.faulted.vrp_set()
        router_set = self.router.vrp_set().as_frozenset()
        if router_set != served_set:
            return Violation(
                cycle, "equivalence",
                f"router table diverged from its cache after resync "
                f"({len(router_set)} vs {len(served_set)} VRPs)",
            )
        if self.chain is not None:
            for tier_index in range(self.chain.tiers):
                for position, cache in enumerate(self.chain.tier(tier_index)):
                    served = cache.current_vrps()
                    if served != served_set:
                        return Violation(
                            cycle, "equivalence",
                            f"chained cache tier {tier_index} #{position} "
                            f"diverged from the validating RP "
                            f"({len(served)} vs {len(served_set)} VRPs)",
                        )
        violation = self._check_serials(cycle, router_set)
        if violation is not None:
            return violation
        result.serial_checks += 1
        return self._check_interference(cycle, result)

    def _check_serials(
        self, cycle: int, router_set: frozenset
    ) -> Violation | None:
        """API serial == RTR serial == journal serial, and the API's
        diff since last cycle equals the change the router observed."""
        serials = (self.service.serial, self.router.serial,
                   self.faulted.rp.journal.serial)
        diff = self.service.diff(self.last_serial).payload
        before = self.last_router_set
        observed = (tuple(sorted(router_set - before)),
                    tuple(sorted(before - router_set)))
        if len(set(serials)) > 1 or diff is None or (
            (diff.added, diff.removed) != observed
        ):
            return Violation(
                cycle, "serial-agreement",
                "API/RTR/journal serials {}/{}/{}; API diff since {} "
                "{} the router's change".format(
                    *serials, self.last_serial,
                    "unknown" if diff is None else "disagrees with",
                ),
            )
        self.last_serial = serials[0]
        self.last_router_set = router_set
        return None

    def _check_interference(
        self, cycle: int, result: CampaignResult
    ) -> Violation | None:
        """The bounded-interference invariant on the scheduled variant.

        Points recently covered by a point-level fault (the timing and
        availability kinds, including AMPLIFY's subtree prefixes) are
        exempt — the attacker may of course cost *itself* freshness.
        Every other cached point must have refreshed successfully within
        the configured bound; staleness there means one authority's
        slowness leaked onto its neighbors.  The lookback window covers
        every cycle whose fault could still legitimately age a point at
        the bound.
        """
        bound = self.config.effective_interference_bound()
        result.interference_bound = bound
        now = self.scheduled.world.clock.now
        lookback = bound // self.config.gap_seconds + 2
        exempt = tuple({
            planned.point_uri
            for planned in self.plan.faults
            if planned.kind in POINT_KINDS and any(
                planned.active_at(k)
                for k in range(max(0, cycle - lookback), cycle + 1)
            )
        })
        for point in self.scheduled.rp.cache.points():
            if exempt and point.uri.startswith(exempt):
                continue
            since = point.last_success if point.last_success >= 0 else self.t0
            age = now - since
            result.interference_worst = max(result.interference_worst, age)
            if age > bound:
                return Violation(
                    cycle, "bounded-interference",
                    f"unrelated point {point.uri} stale for {age}s on the "
                    f"scheduled RP (bound {bound}s)",
                )
        return None


def run_campaign(
    config: CampaignConfig, plan: FaultPlan | None = None
) -> CampaignResult:
    """Execute one campaign; pure function of ``(config, plan)``.

    With ``plan=None`` the plan is built from the config's seed (plus the
    staged replay fault when ``plant_violation`` is set).  Passing an
    explicit plan re-executes exactly that plan — the shrinker's loop.
    """
    return _Campaign(config, plan).run()


def shrink_plan(
    config: CampaignConfig,
    plan: FaultPlan,
    *,
    max_runs: int = 200,
) -> tuple[FaultPlan, int]:
    """Delta-debug *plan* to a minimal still-violating reproducer.

    Returns ``(minimal plan, campaigns executed)``.  Strategy: confirm
    the violation, drop everything scheduled after the violating cycle,
    try each fault alone, then greedily remove entries one at a time
    until no single removal still violates.
    """
    runs = 0

    def violates(candidate: FaultPlan) -> bool:
        nonlocal runs
        runs += 1
        return run_campaign(config, candidate).violation is not None

    baseline = run_campaign(config, plan)
    runs += 1
    if baseline.violation is None:
        raise ValueError("plan does not violate; nothing to shrink")

    best = plan
    truncated = FaultPlan(
        seed=plan.seed, cycles=plan.cycles,
        faults=tuple(
            f for f in plan.faults if f.cycle <= baseline.violation.cycle
        ),
    )
    if len(truncated) < len(best) and violates(truncated):
        best = truncated

    for index in range(len(best.faults)):
        if runs >= max_runs:
            return best, runs
        single = FaultPlan(
            seed=best.seed, cycles=best.cycles,
            faults=(best.faults[index],),
        )
        if len(best) > 1 and violates(single):
            return single, runs

    improved = True
    while improved and runs < max_runs:
        improved = False
        for index in range(len(best.faults)):
            if runs >= max_runs:
                break
            candidate = best.without(index)
            if violates(candidate):
                best = candidate
                improved = True
                break
    return best, runs


def _normalize(sia: str) -> str:
    return str(RsyncUri.parse(sia))
