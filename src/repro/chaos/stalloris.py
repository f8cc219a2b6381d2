"""The Stalloris measurement harness: amplified slowdown vs. the scheduler.

This module stages the delegation-tree amplification attack end to end
and measures its one observable harm — *unrelated authorities' data going
stale* — with and without the :class:`~repro.repository.scheduler.
FetchScheduler` defense.

The attack (PAPERS.md, "Stalloris: RPKI downgrade attack"): one
misbehaving authority mints many delegated publication points
(``DeploymentConfig(amplification_points=N)``), keeps its *parent* point
responsive — the children's CA certificates must stay fetchable or the
attack self-limits to a single deadline burn — and then stalls every
child.  A relying party fetching in plain URI order with a global fetch
budget burns the whole budget inside the attacker's subtree and stops
re-fetching everyone else.

The harm metric is **victim staleness age**: ``now - last_success`` over
every cached point *not* published by the amplifying authority.  VRP
counts understate the damage — a skipped point is never re-attempted, so
its cached copy keeps validating while silently drifting out of date
(exactly the downgrade window the attack buys: a whacked or rotated ROA
goes unnoticed).  Under the unscheduled fetcher the victim age grows by
one full cycle every cycle, unbounded; under the scheduler it stays
pinned near one cycle gap, because the per-authority budget defers the
attacker's children instead of the victims.

:func:`measure_stalloris` is pure and deterministic — a fixed config
always produces the identical report — so the benchmarks pin its numbers
and ``python -m repro stalloris`` renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..jurisdiction.regions import RIR
from ..modelgen import DeploymentConfig, build_deployment
from ..repository import Fetcher, FaultInjector
from ..repository.faults import PERSISTENT, FaultKind
from ..repository.scheduler import SchedulerConfig
from ..repository.uri import RsyncUri
from ..rp import RelyingParty

__all__ = [
    "StallorisConfig",
    "StallorisRun",
    "StallorisReport",
    "measure_stalloris",
]

@dataclass(frozen=True)
class StallorisConfig:
    """Shape of one Stalloris measurement.

    The defaults make the attack decisive without being slow: eight
    stalled children cost ``8 x attempt_timeout`` = 4800 simulated
    seconds against a 1200-second global budget, so the unscheduled
    fetcher exhausts its budget inside the attacker's subtree from the
    first attacked cycle on.
    """

    seed: int = 1
    amplification_points: int = 8
    cycles: int = 5             # attacked refresh cycles after the warm-up
    gap_seconds: int = 900      # simulated time between refreshes
    attempt_timeout: int = 600  # fetcher deadline; bounds one stall's cost
    fetch_budget: int = 1200    # the unscheduled RP's global budget
    stale_grace: int = 3600     # downgrade threshold for victim age
    rir_count: int = 2
    isps_per_rir: int = 2
    customers_per_isp: int = 1

    def __post_init__(self) -> None:
        if self.amplification_points < 1:
            raise ValueError("the attack needs at least one slow child")
        if self.cycles < 1:
            raise ValueError(f"need at least one cycle, got {self.cycles}")

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

    def scheduler(self) -> SchedulerConfig:
        """The defense posture: the per-authority budget *replaces* the
        global budget (one attempt deadline per host per cycle — a first
        contact plus a recovery probe for a slow host)."""
        return SchedulerConfig(authority_budget=self.attempt_timeout)


@dataclass
class StallorisRun:
    """One defense posture's measurement: per-cycle series and downgrades."""

    scheduled: bool
    victim_age: list[int] = field(default_factory=list)    # per cycle, max
    fetch_seconds: list[int] = field(default_factory=list)  # per cycle
    skipped: list[int] = field(default_factory=list)  # victims not attempted
    deferred: list[int] = field(default_factory=list)  # scheduler deferrals
    # Simulated seconds from attack start until the worst victim age first
    # exceeded stale_grace (None = never downgraded).
    time_to_stale: int | None = None
    final_vrps: int = 0

    @property
    def name(self) -> str:
        return "scheduled" if self.scheduled else "budget"

    def as_dict(self) -> dict:
        return {
            "scheduled": self.scheduled,
            "victim_age": list(self.victim_age),
            "fetch_seconds": list(self.fetch_seconds),
            "skipped": list(self.skipped),
            "deferred": list(self.deferred),
            "time_to_stale": self.time_to_stale,
            "final_vrps": self.final_vrps,
        }


@dataclass
class StallorisReport:
    """Every run of one measurement, plus the attack's shape."""

    config: StallorisConfig
    amplifier_host: str = ""
    amplifier_points: int = 0
    runs: list[StallorisRun] = field(default_factory=list)

    def run(self, scheduled: bool) -> StallorisRun:
        for candidate in self.runs:
            if candidate.scheduled is scheduled:
                return candidate
        raise KeyError(f"no run with scheduled={scheduled!r}")

    def render(self) -> str:
        lines = [
            f"attacker: {self.amplifier_host} "
            f"({self.amplifier_points} stalled delegated points; "
            f"parent point stays responsive)",
            f"victim downgrade threshold (stale grace): "
            f"{self.config.stale_grace}s",
            "",
            f"{'run':<22}{'victim age by cycle':<34}"
            f"{'time-to-stale':>14}{'VRPs':>6}",
        ]
        for run in self.runs:
            ages = " ".join(f"{age:>5}" for age in run.victim_age)
            stale = ("never" if run.time_to_stale is None
                     else f"{run.time_to_stale}s")
            lines.append(
                f"{run.name:<22}{ages:<34}{stale:>14}{run.final_vrps:>6}"
            )
        return "\n".join(lines)


def measure_stalloris(config: StallorisConfig) -> StallorisReport:
    """Run the attack with and without the defense."""
    report = StallorisReport(config=config)
    for scheduled in (False, True):
        report.runs.append(_measure_one(config, scheduled, report))
    return report


def _measure_one(
    config: StallorisConfig,
    scheduled: bool,
    report: StallorisReport,
) -> StallorisRun:
    world = build_deployment(config.deployment())
    report.amplifier_host = world.amplifier_host or ""
    report.amplifier_points = len(world.amplifier_points)
    faults = FaultInjector(seed=config.seed)
    fetcher = Fetcher(
        world.registry, world.clock,
        faults=faults,
        attempt_timeout=config.attempt_timeout,
        identity="stalloris",
    )
    rp = RelyingParty(
        world.trust_anchors, fetcher,
        stale_grace=config.stale_grace,
        fetch_budget=(None if scheduled else config.fetch_budget),
        schedule=(config.scheduler() if scheduled else None),
    )
    run = StallorisRun(scheduled=scheduled)

    rp.refresh()  # healthy warm-up: every point cached and fresh
    # The attack: stall every *child* point.  The prefix deliberately
    # excludes the parent (".../repo/" does not start with ".../repo/amp"),
    # which must stay fetchable for the children to exist at all.
    faults.schedule(
        FaultKind.AMPLIFY,
        f"rsync://{world.amplifier_host}/repo/amp",
        count=PERSISTENT,
        delay_seconds=0,
    )
    attack_start = world.clock.now

    for _ in range(config.cycles):
        world.clock.advance(config.gap_seconds)
        cycle_start = world.clock.now
        refresh = rp.refresh()
        now = world.clock.now
        run.fetch_seconds.append(now - cycle_start)
        run.deferred.append(len(refresh.deferred))
        worst, missed = 0, 0
        for point in rp.cache.points():
            if RsyncUri.parse(point.uri).host == world.amplifier_host:
                continue
            worst = max(worst, now - point.last_success)
            if point.last_attempt < cycle_start:
                missed += 1
        run.victim_age.append(worst)
        run.skipped.append(missed)
        if run.time_to_stale is None and worst > config.stale_grace:
            run.time_to_stale = now - attack_start
    run.final_vrps = len(rp.vrps)
    return run
