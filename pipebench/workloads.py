"""The three workloads and the schedules that measure them.

Why each workload exists:

- ``flat-refresh`` — ``INTERNET_SCALES["internet-small"]`` (10^4 ROAs,
  205 authorities, 2 discovery rounds).  One cold refresh, then churn
  cycles: one authority renews, revokes or issues one ROA, and the clock
  advances.  It is decode- and verify-heavy.  Its cold refresh visits
  each point about once, so it is the control for any round-loop change.
  Its churn cycles re-validate the whole cache twice.
- ``deep-refresh`` — a hierarchical world (1,920 ROAs, 965 authorities,
  7 discovery rounds, one EE key per ROA) with the same cycle shape.
  ``PathValidator.run`` re-walks the whole cache every round, so this
  workload is dominated by the relying party's round loop, and it has
  the largest repository share (965 fetches per refresh).
- ``serve-churn`` — the internet-small world behind one relying party,
  an RTR cache with 4 router sessions and a query service without rate
  limiting.  Reboot-storm snapshot syncs, then cycles of one ROA change
  → refresh → RTR delta to every session → bursts of Zipf-skewed
  ``validate_route`` queries over VRP-matching and forged-origin keys,
  with a key universe several times the 4,096-entry response cache.
  Every change alters the VRP set, so each write invalidates the
  content-addressed cache in front of the reads.  It is the workload
  where RTR and the query plane carry real load.

Every workload runs the whole pipeline, so every end-to-end metric is
measured on each of them; the two refresh workloads keep few router
sessions and short query bursts, so serving stays a small share there.
The internet-small workloads also restart the relying party once per
round, for more samples of the cold refresh.

An untraced run (:func:`measure`) times each step with tracing off.  A
traced run (:class:`Traced`) follows a fixed schedule instead, so that
its per-layer counts repeat exactly for a seed, and alternates traced
and untraced repetitions of the same step kinds to measure the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass
from typing import Callable

from . import inputs, stats
from .gates import Gates, expected_vrps
from .pipeline import Pipeline

# Sampled API answers per burst compared against direct validation.
ANSWER_SAMPLE = 64

# Measuring rounds per untraced run, at least (see ``measure``).
MIN_ROUNDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable[[int], object]
    lean: bool
    sessions: int           # router sessions behind the RTR cache
    burst: int              # validate_route queries per burst
    universe: int           # distinct query keys
    actions: tuple[str, ...]
    restarts: bool          # an RP restart (cold refresh) every round


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            name="flat-refresh",
            why="internet-small refresh: decode- and verify-heavy; its cold "
                "refresh visits each point once (round-loop control)",
            config=inputs.flat_config, lean=True, sessions=2, burst=4000,
            universe=16384, actions=("revoke", "renew", "issue"),
            restarts=True,
        ),
        Workload(
            name="deep-refresh",
            why="7-round hierarchy: dominated by the relying party's "
                "per-round re-walk and the most fetches per refresh",
            config=inputs.deep_config, lean=False, sessions=4, burst=8000,
            universe=4096, actions=("revoke", "renew", "issue"),
            restarts=False,
        ),
        Workload(
            name="serve-churn",
            why="4 RTR sessions and Zipf query bursts over internet-small, "
                "each ROA change invalidating the response cache",
            config=inputs.flat_config, lean=True, sessions=4, burst=6000,
            universe=16384, actions=("revoke", "issue"),
            restarts=True,
        ),
    )
}


class Run:
    """The steps of one benchmark run, their samples and gate outcomes.

    Each timed part of a step runs inside ``self._timed(kind)``, which
    does three things around it: a full garbage collection first, so a
    collection owed by earlier untimed work cannot land inside the step;
    a host-speed probe (:func:`stats.probe`) just before and just after;
    and ``self.step(kind)``, a no-op in an untraced run and
    :meth:`Tracer.step` where a traced run wants the step traced.  Work
    that only prepares inputs or checks outputs stays outside.

    Every timing is kept as measured and, once the run is over, also in
    reference seconds (:func:`stats.host_factors`): divided by the host
    factor read from the probes around its step and its neighbours.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.gates = Gates()
        self.step = _untraced
        self.pipeline: Pipeline | None = None
        self.probes: list[tuple[float, float]] = []   # per timed step
        self.timings: list[tuple[str, float, int]] = []  # series, s, step
        # per query burst: (its timing's index, per-query latencies in µs)
        self.bursts: list[tuple[int, list[float]]] = []
        self.queries_served = 0
        self.cycles = 0
        self.rounds: list[int] = []       # discovery rounds per refresh
        self.cache = [0, 0, 0]            # API hits, misses, evictions

    # -- steps ------------------------------------------------------------

    @contextlib.contextmanager
    def _timed(self, kind: str):
        gc.collect()
        before = stats.probe()
        with self.step(kind):
            yield
        self.probes.append((before, stats.probe()))

    def _record(self, series: str, seconds: float) -> int:
        """Keep a timing of the last timed step; returns its index."""
        self.timings.append((series, seconds, len(self.probes) - 1))
        return len(self.timings) - 1

    def build(self) -> list[int]:
        w = self.workload
        with self._timed("setup"):
            self.pipeline, seconds = Pipeline.build(
                w.config(self.seed), lean=w.lean, sessions=w.sessions
            )
        timing = self._record("setup", seconds)
        # The world lives for the whole run: move it out of the
        # collector's view, so the collection before each step costs
        # time in proportion to what the steps allocate, not to the
        # world.  Young-generation collections inside a step are
        # unaffected.
        gc.collect()
        gc.freeze()
        return [timing]

    def cold_refresh(self) -> list[int]:
        with self._timed("cold_refresh"):
            report, seconds = self.pipeline.refresh()
        return self._cold(report, seconds)

    def restart(self) -> list[int]:
        """An RP restart: a new relying party's first, cold refresh.

        The new relying party reads the same repositories and is then
        dropped; the serving pipeline keeps its own.
        """
        rp = self.pipeline.fresh_rp()
        with self._timed("cold_refresh"):
            report, seconds = self.pipeline.refresh(rp)
        return self._cold(report, seconds)

    def _cold(self, report, seconds: float) -> list[int]:
        self.gates.refresh(f"cold refresh {len(self.rounds)}", report,
                           self.pipeline.world)
        self.rounds.append(report.rounds)
        return [self._record("cold_refresh", seconds)]

    def start_serving(self) -> None:
        """Publish the cold VRPs; derive churn and queries from the seed."""
        pipeline = self.pipeline
        pipeline.server.update(pipeline.rp.vrps)
        w = self.workload
        self.queries = inputs.QueryStream(
            self.seed, sorted(expected_vrps(pipeline.world)),
            universe=w.universe,
        )
        self.churn = inputs.Churn(self.seed, w.actions)
        self._sample_rng = inputs.stream(self.seed, "answer-sample")

    def storm(self) -> list[int]:
        pipeline = self.pipeline
        with self._timed("storm"):
            settled, seconds = pipeline.reboot_storm()
        label = f"reboot storm at cycle {self.cycles}"
        self.gates.check(settled, f"{label}: sessions not settled")
        self.gates.sessions(label, pipeline.clients, pipeline.server,
                            pipeline.rp.vrps)
        return [self._record("rtr_sync", seconds)]

    def cycle(self) -> list[int]:
        """One change → propagation → query burst."""
        pipeline = self.pipeline
        label = f"cycle {self.cycles}"
        self.cycles += 1
        change = self.churn.apply(pipeline.world)
        label = f"{label} ({change})"
        with self._timed("propagate"):
            report, refresh, propagation, settled = pipeline.propagate()
        self.gates.refresh(label, report, pipeline.world)
        self.rounds.append(report.rounds)
        self.gates.check(settled, f"{label}: sessions not settled")
        self.gates.sessions(label, pipeline.clients, pipeline.server,
                            pipeline.rp.vrps)
        self._record("refresh", refresh)
        return [self._record("propagation", propagation)] + self.burst()

    def burst(self) -> list[int]:
        """The next burst of the query stream."""
        pipeline = self.pipeline
        batch = self.queries.burst(self.workload.burst)
        sample = frozenset(self._sample_rng.sample(range(len(batch)),
                                                   ANSWER_SAMPLE))
        before = pipeline.service.cache_stats()
        with self._timed("burst"):
            kept, not_ok, latencies, seconds = pipeline.query_burst(
                batch, sample)
        after = pipeline.service.cache_stats()
        for i in range(3):
            self.cache[i] += after[i] - before[i]
        self.gates.answers(f"burst after cycle {self.cycles}", kept, not_ok,
                           batch, pipeline.rp.vrps)
        self.queries_served += len(batch)
        timing = self._record("burst", seconds)
        self.bursts.append((timing, latencies))
        return [timing]

    # -- results ------------------------------------------------------------

    def _divisors(self, ref: bool) -> list[float]:
        """Per timed step, what its times are divided by for reporting."""
        if ref:
            return stats.host_factors(self.probes)
        return [1.0] * len(self.probes)

    def series(self, name: str, *, ref: bool) -> list[float]:
        """Timings of one series, as measured or in reference seconds."""
        divisors = self._divisors(ref)
        return [seconds / divisors[step]
                for series, seconds, step in self.timings if series == name]

    def ref_seconds(self, indices) -> float:
        """Sum of the timings at *indices*, in reference seconds."""
        divisors = self._divisors(True)
        return sum(self.timings[i][1] / divisors[self.timings[i][2]]
                   for i in indices)

    def burst_samples(self, *, ref: bool) -> list[tuple[float, list[float]]]:
        """Per burst: its seconds and per-query latencies in µs."""
        divisors = self._divisors(ref)
        out = []
        for timing, latencies in self.bursts:
            _series, seconds, step = self.timings[timing]
            divisor = divisors[step]
            out.append((seconds / divisor, [us / divisor for us in latencies]))
        return out

    def timed_metrics(self, *, ref: bool) -> dict[str, float]:
        """Every timed end-to-end metric but setup_s, ref or as measured.

        The API figures are medians over the run's bursts of each
        burst's throughput and latency percentiles (every burst has at
        least 4,000 queries, 40 beyond its p99), so one burst caught by
        a host hiccup does not move them.
        """
        bursts = self.burst_samples(ref=ref)
        return {
            "cold_refresh_s": stats.median(
                self.series("cold_refresh", ref=ref)),
            "refresh_s": stats.median(self.series("refresh", ref=ref)),
            "propagation_s": stats.median(
                self.series("propagation", ref=ref)),
            "rtr_sync_s": stats.median(self.series("rtr_sync", ref=ref)),
            "api_qps": stats.median(
                len(latencies) / seconds for seconds, latencies in bursts),
            "api_p50_us": stats.median(
                stats.percentile(latencies, 50) for _, latencies in bursts),
            "api_p99_us": stats.median(
                stats.percentile(latencies, 99) for _, latencies in bursts),
        }

    def end_to_end(self) -> dict[str, float]:
        """The end-to-end metrics (see :data:`metrics.END_TO_END`)."""
        return {
            "setup_s": stats.median(self.series("setup", ref=False)),
            **self.timed_metrics(ref=True),
            "peak_rss_mb": stats.peak_rss_mb(),
        }

    def samples(self) -> dict:
        hits, misses, evictions = self.cache
        return {
            "timings": [
                {"series": series, "s": seconds, "step": step}
                for series, seconds, step in self.timings
            ],
            "probes_s": self.probes,
            "host_factors": stats.host_factors(self.probes),
            "api_bursts": [
                {"queries": len(raw), "s": seconds,
                 "latency_us": stats.summarize(raw),
                 "latency_ref_us": stats.summarize(ref)}
                for (seconds, raw), (_ref_s, ref) in zip(
                    self.burst_samples(ref=False),
                    self.burst_samples(ref=True))
            ],
            "api_queries": self.queries_served,
            "api_cache": {"hits": hits, "misses": misses,
                          "evictions": evictions},
            "cycles": self.cycles,
            "refresh_rounds": self.rounds,
        }


def _untraced(kind: str):
    return contextlib.nullcontext()


def measure(workload: Workload, seed: int, seconds: float) -> Run:
    """The untraced run: every end-to-end metric, tracing off.

    One set-up, a cold refresh and a reboot storm, then measuring rounds
    until *seconds* have passed (and at least :data:`MIN_ROUNDS`): a
    churn cycle, an RP restart (internet-small workloads) and another storm,
    each followed by a query burst.  Repeating every step kind in every
    round spreads its samples over the whole run, so the reported
    medians ride out the host's slow and fast spells instead of catching
    one of them.
    """
    run = Run(workload, seed)
    run.build()
    start = time.perf_counter()
    run.cold_refresh()
    run.start_serving()
    run.storm()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        run.cycle()
        if workload.restarts:
            run.restart()
        run.burst()
        run.storm()
        run.burst()
        rounds += 1
    return run


class Traced:
    """A traced run: per-layer self times and counts.

    A fixed schedule, so that counts repeat exactly for a seed: a traced
    set-up and cold refresh; RP restarts and reboot storms in untraced /
    traced pairs (restarts twice, in the order untraced, traced, traced,
    untraced, so a drift of the host's speed cancels); one traced churn
    cycle.  Each pair repeats the same work, so traced over untraced
    reference seconds of the pairs is the tracing overhead.  Rounds and
    API cache figures cover the traced steps alone.
    """

    def __init__(self, workload: Workload, seed: int):
        from .tracing import Tracer

        self.tracer = Tracer()
        self.run = run = Run(workload, seed)
        self.rounds = 0
        self._traced(run.build)
        self._traced(run.cold_refresh)
        run.start_serving()
        untraced = run.restart()
        traced = self._traced(run.restart) + self._traced(run.restart)
        untraced += run.restart()
        untraced += run.storm()
        traced += self._traced(run.storm)
        self._traced(run.cycle)
        self.cache = run.cache        # only the traced cycle queries
        self.overhead_ratio = (
            run.ref_seconds(traced) / run.ref_seconds(untraced)
        )

    def _traced(self, action):
        run = self.run
        refreshes = len(run.rounds)
        run.step = self.tracer.step
        try:
            return action()
        finally:
            run.step = _untraced
            self.rounds += sum(run.rounds[refreshes:])
