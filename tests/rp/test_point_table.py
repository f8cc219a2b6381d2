"""The point store: each publication point validated once per change.

A refresh discovers a hierarchy round by round and validates the whole
cache after every round.  The validator stores every point its last run
visited and replays it while its content and time edges hold, so a
refresh parses exactly what one standalone validation of its final cache
parses.  Parses are counted at ``repro.rp.pathval.parse_object``, the
name the validator looks up.
"""

import pytest

import repro.rp.pathval as pathval
from repro.jurisdiction.regions import RIR
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

_CONFIG = DeploymentConfig(
    rirs=(RIR.ARIN, RIR.RIPE), isps_per_rir=2, customers_per_isp=1,
    suballocation_depth=2, seed=33,
)


@pytest.fixture
def world():
    world = build_deployment(_CONFIG)
    world.clock.advance(HOUR)
    return world


@pytest.fixture
def parses(monkeypatch):
    """Count every parse the validator performs."""
    count = [0]
    original = pathval.parse_object

    def counting(data):
        count[0] += 1
        return original(data)

    monkeypatch.setattr(pathval, "parse_object", counting)
    return count


def make_rp(world, **kwargs):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, metrics=registry,
                        **kwargs)


def standalone(rp, world, parses):
    """(parse count, run) of one fresh validator's run over rp's cache."""
    before = parses[0]
    validator = PathValidator(rp.validator.trust_anchors,
                              metrics=MetricsRegistry())
    now = world.clock.now
    run = validator.run(rp.cache.all_files(now), now)
    return parses[0] - before, run


def point_parses(rp, world, parses, ca):
    """Parses one validation of *ca*'s publication point costs."""
    validator = PathValidator(rp.validator.trust_anchors,
                              metrics=MetricsRegistry())
    now = world.clock.now
    files = rp.cache.all_files(now)
    validator.run(files, now)
    del validator._points[ca.certificate.subject_key_id]
    before = parses[0]
    validator.run(files, now)
    return parses[0] - before


class TestOneValidationPerPoint:
    def test_cold_refresh_parses_like_one_standalone_run(self, world, parses):
        rp = make_rp(world)
        report = rp.refresh()
        refresh_parses = parses[0]
        assert report.rounds > 2  # several rounds revisit the same points
        once, run = standalone(rp, world, parses)
        assert refresh_parses == once > 0
        assert report.run == run

    def test_churn_refresh_reparses_only_the_changed_point(
        self, world, parses
    ):
        rp = make_rp(world)
        rp.refresh()
        churned = next(ca for ca in world.authorities() if ca.issued_roas)
        churned.renew_roa(next(iter(churned.issued_roas)))
        before = parses[0]
        rp.refresh()
        churn_parses = parses[0] - before
        once, run = standalone(rp, world, parses)
        # The first round still sees the cached pre-churn copy of the
        # changed point; only that point is validated a second time.
        changed = point_parses(rp, world, parses, churned)
        assert 0 < changed < once
        assert churn_parses <= once + changed
        assert rp.last_run == run

    def test_points_counter_splits_validated_and_replayed(self, world):
        rp = make_rp(world)
        report = rp.refresh()
        points = rp.metrics.get("repro_validation_points_total")
        # Every visited point was validated from bytes exactly once; the
        # other visits were replays.
        assert points.value(outcome="validated") == (
            rp.validator.points_validated
        )
        visited = len(report.run.validated_cas)
        assert visited <= rp.validator.points_validated < 2 * visited
        assert points.value(outcome="replayed") > 0


class TestReuseRule:
    def run_twice(self, world, rp, now_offset=0, **kwargs):
        validator = PathValidator(rp.validator.trust_anchors,
                                  metrics=MetricsRegistry(), **kwargs)
        now = world.clock.now
        files = rp.cache.all_files(now)
        first = validator.run(files, now)
        validated = validator.points_validated
        second = validator.run(files, now + now_offset)
        return validator, validated, first, second

    def test_same_instant_replays_every_point(self, world):
        rp = make_rp(world)
        rp.refresh()
        validator, validated, first, second = self.run_twice(world, rp)
        assert second == first
        assert validator.points_validated == validated
        assert validator.points_replayed == validated

    def test_lean_entries_hold_no_roas(self, world):
        rp = make_rp(world)
        rp.refresh()
        validator, _, first, second = self.run_twice(
            world, rp, collect_objects=False
        )
        stored = validator._points.values()
        assert stored
        assert all(entry.roas == () for entry in stored)
        assert sum(entry.roa_count for entry in stored) == first.roa_count
        assert second.roa_count == first.roa_count > 0
        assert first.validated_roas == []

    def test_second_run_replays_without_parsing(self, world, parses):
        rp = make_rp(world)
        rp.refresh()
        validator = PathValidator(rp.validator.trust_anchors,
                                  metrics=MetricsRegistry())
        now = world.clock.now
        files = rp.cache.all_files(now)
        counts = []
        for _ in range(2):
            before = parses[0]
            validator.run(files, now)
            counts.append(parses[0] - before)
        assert counts[0] > counts[1] == 0
        assert validator.points_replayed == validator.points_validated
