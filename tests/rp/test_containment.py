"""Fault containment through a full refresh: one bad object never aborts.

The robustness contract behind the chaos campaign's no-crash invariant,
tested at unit scale on the Figure 2 world: CORRUPT / TRUNCATE /
OVERSIZED payloads flow through ``RelyingParty.refresh``, the poisoned
object is quarantined into the :class:`~repro.rp.DegradationReport`,
every sibling keeps validating, and a stored point result never
outlives the damaged bytes it was computed from.
"""

import pytest

from repro.modelgen import build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.rp import DegradationReport, RelyingParty, VRP
from repro.simtime import HOUR

CONTINENTAL = "rsync://continental.example/repo/"


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, faults=None, **kwargs):
    fetcher = Fetcher(world.registry, world.clock, faults=faults)
    return RelyingParty(world.trust_anchors, fetcher, world.clock, **kwargs)


class TestCorruptContainment:
    def test_corrupt_object_quarantined_siblings_validate(self, world):
        faults = FaultInjector(seed=3)
        faults.schedule(
            FaultKind.CORRUPT, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()

        degradation = report.degradation
        assert not degradation.clean
        quarantined_files = {f for _, f, _ in degradation.quarantined_objects}
        assert world.target20_name in quarantined_files
        # The victim VRP is gone; every sibling of the same point — and
        # the rest of the tree — still validates.
        assert VRP.parse("63.174.16.0/20", 17054) not in rp.vrps
        assert VRP.parse("63.174.16.0/22", 7341) in rp.vrps
        assert VRP.parse("63.161.0.0/16-24", 1239) in rp.vrps
        assert len(rp.vrps) == 7

    def test_truncate_object_quarantined(self, world):
        faults = FaultInjector()
        faults.schedule(
            FaultKind.TRUNCATE, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()
        assert world.target20_name in {
            f for _, f, _ in report.degradation.quarantined_objects
        }
        assert len(rp.vrps) == 7

    def test_transient_fault_heals_on_next_refresh(self, world):
        faults = FaultInjector(seed=3)
        faults.schedule(
            FaultKind.CORRUPT, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        rp.refresh()
        assert len(rp.vrps) == 7
        world.clock.advance(HOUR)
        report = rp.refresh()
        assert report.degradation.clean
        assert len(rp.vrps) == 8

    def test_degradation_codes_are_quarantine_codes(self, world):
        faults = FaultInjector(seed=3)
        faults.schedule(
            FaultKind.CORRUPT, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()
        codes = {c for _, _, c in report.degradation.quarantined_objects}
        assert codes <= {
            "parse-failed", "object-quarantined",
            "crl-parse-failed", "hash-mismatch",
        }


class TestIncrementalMemoNotPoisoned:
    def test_corrupt_then_heal_with_memo(self, world):
        faults = FaultInjector(seed=3)
        faults.schedule(
            FaultKind.CORRUPT, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        rp.refresh()
        assert len(rp.vrps) == 7
        # Point replay is keyed by content, so the poisoned digest can
        # never shadow the healthy bytes: the healed refresh revalidates.
        world.clock.advance(HOUR)
        report = rp.refresh()
        assert len(rp.vrps) == 8
        assert report.degradation.clean

    def test_oversized_object_heals(self, world):
        faults = FaultInjector()
        faults.schedule(
            FaultKind.OVERSIZED, CONTINENTAL, file_name=world.target20_name
        )
        rp = make_rp(world, faults=faults)
        report = rp.refresh()
        assert world.target20_name in {
            f for _, f, _ in report.degradation.quarantined_objects
        }
        assert len(rp.vrps) == 7
        world.clock.advance(HOUR)
        rp.refresh()
        assert len(rp.vrps) == 8


class TestComposedFaultDegradation:
    """Timing + Byzantine faults on one point: once per category, no abort.

    The dedupe contract of ``RelyingParty._degradation``: however many
    sources flag the same publication point in one refresh — a failed
    fetch, a validation quarantine, a scheduler deferral — it appears
    exactly once in ``degraded_points``, under its first-seen reason.
    """

    def test_stalled_point_with_replayed_manifest_degrades_once(self, world):
        from collections import Counter

        faults = FaultInjector(seed=3)
        fetcher = Fetcher(world.registry, world.clock, faults=faults)
        rp = RelyingParty(world.trust_anchors, fetcher, world.clock,
                          stale_grace=8 * HOUR)
        rp.refresh()  # healthy warm-up: everything cached
        world.continental.renew_roa(world.target20_name)
        world.clock.advance(HOUR)
        rp.refresh()  # the renewed state becomes the replayable snapshot
        from repro.repository import PERSISTENT
        faults.schedule(FaultKind.MANIFEST_REPLAY, CONTINENTAL,
                        count=PERSISTENT)
        faults.schedule(FaultKind.STALL, CONTINENTAL, count=PERSISTENT)
        world.clock.advance(HOUR)
        report = rp.refresh()  # composed: stall + stale replayed manifest

        counts = Counter(u for u, _ in report.degradation.degraded_points)
        assert counts[CONTINENTAL] == 1
        assert dict(report.degradation.degraded_points)[CONTINENTAL] \
            == "timeout"
        # Containment, not abort: the stale copy serves through grace and
        # the rest of the tree is untouched.
        assert VRP.parse("63.161.0.0/16-24", 1239) in rp.vrps
        assert len(rp.vrps) == 8
        object_counts = Counter(report.degradation.quarantined_objects)
        assert all(n == 1 for n in object_counts.values())

    def test_degradation_dedupes_across_all_sources(self):
        from repro.repository import FetchResult, FetchStatus
        from repro.rp.pathval import Severity, ValidationIssue
        from repro.rp.relying_party import RelyingParty as RP

        uri = "rsync://composed.example/repo/"

        class FakeRun:
            issues = [
                ValidationIssue(Severity.ERROR, uri, "", "point-quarantined",
                                "validation raised ValueError: boom"),
                ValidationIssue(Severity.ERROR, uri, "", "point-quarantined",
                                "validation raised ValueError: again"),
            ]

        fetches = [FetchResult(uri, FetchStatus.TIMEOUT, fetched_at=0)]
        degradation = RP._degradation(fetches, FakeRun(), deferred=[uri])
        # Three sources, one entry — first-seen (quarantine) reason wins.
        assert degradation.degraded_points == [(uri, "point-quarantined")]

    def test_deferred_only_point_reports_budget_deferred(self):
        from repro.rp.relying_party import RelyingParty as RP

        class CleanRun:
            issues = []

        uri = "rsync://slow.example/repo/amp0/"
        degradation = RP._degradation([], CleanRun(), deferred=[uri])
        assert degradation.degraded_points == [(uri, "budget-deferred")]


class TestDegradedPoints:
    def test_unreachable_point_recorded(self, world):
        faults = FaultInjector()
        faults.schedule(FaultKind.UNREACHABLE, CONTINENTAL)
        rp = make_rp(world, faults=faults, keep_stale=False)
        report = rp.refresh()
        degraded = dict(report.degradation.degraded_points)
        assert CONTINENTAL in degraded
        # Quarantining the point does not abort the refresh: the rest of
        # the tree still validates.
        assert VRP.parse("63.161.0.0/16-24", 1239) in rp.vrps

    def test_degradation_report_summary(self):
        report = DegradationReport()
        assert report.clean
        report.quarantined_objects.append(("u", "f", "parse-failed"))
        report.degraded_points.append(("u", "faulted"))
        assert not report.clean
        text = report.summary()
        assert "1" in text
