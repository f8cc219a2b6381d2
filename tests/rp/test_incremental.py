"""Incremental validation: memo correctness, attack safety, refresh bookkeeping.

The contract under test is absolute: a relying party replaying stored
point results must produce a :class:`ValidationRun` equal to a fresh
validator's on the same cache — *especially* right after the events an
attacker (or misbehaving authority) controls: whacking, revocation,
expiry.  A stored result that survives any of those is a vulnerability,
not an optimization.
"""

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.rp.incremental as incremental
from repro import reset_default_metrics
from repro.modelgen import DeploymentConfig, build_deployment, build_figure2
from repro.repository import FaultInjector, FaultKind, Fetcher
from repro.repository.scheduler import SchedulerConfig
from repro.resources import ResourceSet
from repro.rp import VRP, PathValidator, RelyingParty, VerificationMemo, VrpSet
from repro.rpki import RoaPrefix, build_certificate, build_roa, parse_object
from repro.simtime import DAY, HOUR
from repro.telemetry import MetricsRegistry


@pytest.fixture(autouse=True)
def _fresh_metrics():
    reset_default_metrics()
    yield
    reset_default_metrics()


@pytest.fixture
def world():
    return build_figure2()


def make_rp(world, **kwargs):
    fetcher = Fetcher(world.registry, world.clock,
                      faults=kwargs.pop("faults", None))
    return RelyingParty(world.trust_anchors, fetcher, world.clock, **kwargs)


def cold_run(rp, world):
    """A from-scratch validation of exactly what *rp* has cached."""
    validator = PathValidator(
        rp.validator.trust_anchors,
        strict_manifests=rp.validator.strict_manifests,
    )
    now = world.clock.now
    return validator.run(rp.cache.snapshot(now), now)


class TestMemoUnits:
    def test_verification_memo_caches_verdicts(self, world):
        anchor = world.trust_anchors[0]
        memo = VerificationMemo()
        assert memo.verify_object(anchor, anchor.subject_key) is True
        assert memo.verify_object(anchor, anchor.subject_key) is True
        assert (memo.hits, memo.misses) == (1, 1)
        assert len(memo) == 1

    def test_verification_memo_caches_rejections(self, world):
        anchor = world.trust_anchors[0]
        wrong_key = world.sprint.certificate.subject_key
        memo = VerificationMemo()
        assert memo.verify_object(anchor, wrong_key) is False
        assert memo.verify_object(anchor, wrong_key) is False
        assert (memo.hits, memo.misses) == (1, 1)

    def test_verification_memo_distinguishes_keys(self, world):
        anchor = world.trust_anchors[0]
        memo = VerificationMemo()
        memo.verify_object(anchor, anchor.subject_key)
        # Same object, different key: separate entry, separate verdict.
        assert memo.verify_object(
            anchor, world.sprint.certificate.subject_key
        ) is False
        assert len(memo) == 2

    def test_verification_memo_bounded(self, world, monkeypatch):
        monkeypatch.setattr(incremental, "MEMO_ENTRIES", 1)
        anchor = world.trust_anchors[0]
        sprint = world.sprint.certificate
        memo = VerificationMemo()
        memo.verify_object(anchor, anchor.subject_key)
        memo.verify_object(sprint, anchor.subject_key)  # full: clears first
        assert len(memo) == 1


class TestZeroChurnRefresh:
    def test_warm_refresh_is_equal_and_verification_free(self, world):
        rp = make_rp(world)
        first = rp.refresh()
        verify = rp.metrics.get("repro_crypto_verify_total")
        before = (verify.value(outcome="accepted")
                  + verify.value(outcome="rejected"))
        # The cold refresh must have been observed by the counter, or the
        # zero-delta assertion below would pass vacuously.
        assert before > 0
        second = rp.refresh()
        after = (verify.value(outcome="accepted")
                 + verify.value(outcome="rejected"))
        assert second.run == first.run
        assert after - before == 0
        assert second.run == cold_run(rp, world)

    def test_points_reported_reused(self, world):
        rp = make_rp(world)
        rp.refresh()
        points = rp.metrics.get("repro_validation_points_total")
        validated_cold = points.value(outcome="validated")
        rp.refresh()
        assert points.value(outcome="validated") == validated_cold
        assert points.value(outcome="replayed") > 0


class TestAttackSafety:
    """After every adversarial event, warm output == cold output."""

    def assert_matches_cold(self, rp, world):
        report = rp.refresh()
        assert report.run == cold_run(rp, world)
        return report

    def test_roa_whack_propagates(self, world):
        rp = make_rp(world)
        rp.refresh()
        whacked = world.continental.roa_named(world.target20_name)
        world.continental.revoke_roa(world.target20_name)
        report = self.assert_matches_cold(rp, world)
        for prefix in whacked.prefixes:
            assert VRP(prefix=prefix.prefix,
                       max_length=prefix.effective_max_length,
                       asn=whacked.asn) not in report.vrps

    def test_roa_shrink_propagates(self, world):
        rp = make_rp(world)
        baseline = rp.refresh()
        old = world.continental.roa_named(world.target22_name)
        world.continental.revoke_roa(world.target22_name)
        world.continental.issue_roa(old.asn, "63.174.16.0/24",
                                    name=world.target22_name)
        report = self.assert_matches_cold(rp, world)
        assert report.run != baseline.run
        assert VRP.parse("63.174.16.0/24", old.asn) in report.vrps
        assert VRP.parse("63.174.16.0/22", old.asn) not in report.vrps

    def test_crl_revocation_kills_subtree(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.sprint.revoke_cert(world.continental.certificate)
        report = self.assert_matches_cold(rp, world)
        # All five Continental ROAs gone with the revoked RC.
        assert len(report.vrps) == 3

    def test_republished_revoked_cert_rejected_via_crl(self, world):
        rp = make_rp(world)
        rp.refresh()
        old_cert = world.continental.certificate
        world.sprint.revoke_cert(old_cert)
        # A misbehaving repository re-serves the revoked file; only the
        # (changed) CRL stands between it and acceptance.
        from repro.rpki import cert_file_name
        world.sprint.publication_point.put(
            cert_file_name(old_cert), old_cert.to_bytes()
        )
        report = self.assert_matches_cold(rp, world)
        assert report.run.has_issue("revoked")

    def test_clock_advance_past_expiry(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(91 * DAY)  # past every 90-day ROA window
        report = self.assert_matches_cold(rp, world)
        assert len(report.vrps) == 0
        assert report.run.has_issue("expired")

    def test_clock_advance_past_manifest_window(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(2 * DAY)  # beyond the 1-day manifest window
        report = self.assert_matches_cold(rp, world)
        assert report.run.has_issue("manifest-stale")

    def test_stale_issue_quotes_the_current_instant(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(2 * DAY)
        rp.refresh()
        # No validity edge lies between the two stale refreshes, but the
        # manifest-stale message quotes `now`: replaying it would be stale.
        world.clock.advance(HOUR)
        report = self.assert_matches_cold(rp, world)
        assert any(
            issue.code == "manifest-stale"
            and issue.message.endswith(f"now {world.clock.now}")
            for issue in report.run.issues
        )

    def test_small_clock_advance_still_reuses(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(1 * HOUR)  # no validity edge crossed
        report = self.assert_matches_cold(rp, world)
        points = rp.metrics.get("repro_validation_points_total")
        assert points.value(outcome="replayed") > 0
        assert len(report.vrps) == 8

    def test_renewal_after_expiry(self, world):
        rp = make_rp(world)
        rp.refresh()
        world.clock.advance(91 * DAY)
        rp.refresh()
        for ca in world.authorities():
            for name in list(ca.issued_roas):
                ca.renew_roa(name)
        report = self.assert_matches_cold(rp, world)
        assert len(report.vrps) == 8

    def test_strict_manifests_warm_equals_cold(self, world):
        faults = FaultInjector(seed=1)
        faults.schedule(
            FaultKind.CORRUPT,
            "rsync://continental.example/repo/",
            file_name=world.target20_name,
        )
        rp = make_rp(world, faults=faults, strict_manifests=True)
        rp.refresh()
        # The corrupt point is discarded whole on the cold refresh...
        assert rp.last_run.has_issue("point-discarded")
        # ...and the healed refresh replays nothing it must not.
        world.clock.advance(HOUR)
        report = self.assert_matches_cold(rp, world)
        assert not report.run.has_issue("point-discarded")


class TestExactTimeEdges:
    """Replay across clock moves: exact at every edge, free between them."""

    @pytest.fixture(scope="class")
    def cached(self):
        """(trust anchors, cache files, instant, edges) of a refreshed
        Figure 2 world.  The edges are read from the cached objects
        themselves, not from the validator under test."""
        world = build_figure2()
        # One ROA whose EE certificate expires long before the ROA: its
        # only expiry edge comes from the embedded certificate.
        ca = world.continental
        now = world.clock.now
        prefix = RoaPrefix.parse("63.174.31.0/24")
        ee = build_certificate(
            issuer_key=ca.key, issuer_key_id=ca.key_id, subject="short-ee",
            subject_key=ca.key.public,
            ip_resources=ResourceSet.from_prefixes([prefix.prefix]),
            serial=9001, not_before=now, not_after=now + DAY // 2,
            sia="", crldp=ca.crl_uri, is_ca=False,
        )
        roa = build_roa(ee_key=ca.key, ee_cert=ee, asn=64500,
                        prefixes=[prefix], serial=9002, not_before=now,
                        not_after=now + 90 * DAY)
        ca.publication_point.put("short-ee.roa", roa.to_bytes())
        rp = make_rp(world)
        rp.refresh()
        files = rp.cache.snapshot(now)
        edges = {
            edge
            for anchor in world.trust_anchors
            for edge in (anchor.not_before, anchor.not_after + 1)
        }
        for point in files.values():
            for data in point.values():
                obj = parse_object(data)
                for signed in (obj, getattr(obj, "ee_cert", None)):
                    if signed is not None:
                        edges |= {signed.not_before, signed.not_after + 1}
        assert now + DAY // 2 + 1 in edges
        return world.trust_anchors, files, now, sorted(edges)

    @staticmethod
    def validator(anchors):
        return PathValidator(anchors, metrics=MetricsRegistry())

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_warm_equals_cold_around_every_edge(self, cached, data):
        anchors, files, now, edges = cached
        assert edges
        warm = self.validator(anchors)
        warm.run(files, now)
        offsets = data.draw(st.lists(
            st.tuples(st.sampled_from(edges), st.sampled_from((-1, 0, 1))),
            min_size=1, max_size=4,
        ))
        for edge, delta in offsets:
            instant = edge + delta
            cold = self.validator(anchors).run(files, instant)
            assert warm.run(files, instant) == cold, instant

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_move_within_edges_replays_every_point(self, cached, data):
        anchors, files, now, edges = cached
        first = data.draw(st.one_of(
            st.sampled_from(edges),
            st.integers(edges[0] - DAY, edges[-1] + DAY),
        ))
        warm = self.validator(anchors)
        warm.run(files, first)
        # Every stored point's edges, plus the trust anchors' own (checked
        # by each run before any point is visited).
        stored = sorted(
            {edge for entry in warm._points.values() for edge in entry.edges}
            | {edge for anchor in anchors
               for edge in (anchor.not_before, anchor.not_after + 1)}
        )
        # The widest interval around `first` that crosses no edge.
        index = bisect_right(stored, first)
        low = stored[index - 1] if index else first - DAY
        high = stored[index] - 1 if index < len(stored) else first + DAY
        second = data.draw(st.integers(low, high))
        validated = warm.points_validated
        run = warm.run(files, second)
        assert warm.points_validated == validated
        assert run == self.validator(anchors).run(files, second)


class TestRefreshSkippedBookkeeping:
    """Regression: `skipped` is computed once — sorted and duplicate-free."""

    def test_budget_trip_mid_round(self, world):
        faults = FaultInjector()
        faults.schedule(
            FaultKind.DELAY,
            "rsync://continental.example/repo/",
            delay_seconds=60,
        )
        rp = make_rp(world, faults=faults, fetch_budget=10)
        report = rp.refresh()
        assert report.budget_exhausted
        # Continental's delayed fetch ate the budget mid-round; ETB (same
        # round, later in sort order) was skipped — exactly once, even
        # though it is also still pending after the final validation.
        assert report.skipped == ["rsync://etb.example/repo/"]
        assert report.skipped == sorted(set(report.skipped))
        fetched = {f.uri for f in report.fetches}
        assert not fetched & set(report.skipped)

    def test_no_budget_no_skips(self, world):
        rp = make_rp(world)
        report = rp.refresh()
        assert report.skipped == []
        assert not report.budget_exhausted

    def test_deferred_points_are_not_also_skipped(self):
        # With a scheduler and a budget both on, the budget can trip in a
        # round after the scheduler already deferred points of that same
        # round; those points are deferred, not skipped.
        world = build_deployment(DeploymentConfig(
            seed=1, isps_per_rir=2, customers_per_isp=1, roas_per_isp=1,
            roas_per_customer=1, amplification_points=6,
        ))
        faults = FaultInjector()
        faults.schedule(
            FaultKind.DELAY,
            "rsync://arin-isp-0.example/repo/cust0/",
            delay_seconds=60,
        )
        fetcher = Fetcher(world.registry, world.clock, faults=faults,
                          attempt_timeout=600)
        rp = RelyingParty(
            world.trust_anchors, fetcher, world.clock,
            schedule=SchedulerConfig(authority_max_points=2),
            fetch_budget=30,
        )
        report = rp.refresh()
        assert report.budget_exhausted
        amplified = [f"rsync://arin-amp.example/repo/amp{i}/"
                     for i in range(1, 6)]
        assert set(amplified) <= set(report.deferred)
        assert report.skipped  # the budget did cut the round short
        assert not set(report.skipped) & set(report.deferred)
        fetched = {f.uri for f in report.fetches}
        assert not fetched & set(report.skipped)


class TestVrpSetDeltas:
    def build(self, *texts_asns):
        return VrpSet(VRP.parse(t, a) for t, a in texts_asns)

    def test_added_and_removed(self):
        before = self.build(("10.0.0.0/8", 1), ("10.1.0.0/16", 2))
        after = self.build(("10.0.0.0/8", 1), ("10.2.0.0/16", 3))
        assert after.added(before) == [VRP.parse("10.2.0.0/16", 3)]
        assert after.removed(before) == [VRP.parse("10.1.0.0/16", 2)]
        assert before.added(before) == []
        assert before.removed(before) == []

    def test_difference_matches_legacy_semantics(self):
        a = self.build(("10.0.0.0/8", 1), ("10.1.0.0/16", 2), ("10.2.0.0/16", 3))
        b = self.build(("10.1.0.0/16", 2))
        assert a.added(b) == sorted(
            vrp for vrp in a if vrp not in b
        )

    def test_cached_views_invalidate_on_add(self):
        s = self.build(("10.1.0.0/16", 2))
        assert list(s) == [VRP.parse("10.1.0.0/16", 2)]
        frozen_before = s.as_frozenset()
        s.add(VRP.parse("10.0.0.0/8", 1))
        # Sorted view and frozenset both reflect the mutation.
        assert list(s) == [VRP.parse("10.0.0.0/8", 1),
                           VRP.parse("10.1.0.0/16", 2)]
        assert s.as_frozenset() == frozen_before | {VRP.parse("10.0.0.0/8", 1)}

    def test_duplicate_add_keeps_cache(self):
        s = self.build(("10.1.0.0/16", 2))
        view = s._sorted_view()
        s.add(VRP.parse("10.1.0.0/16", 2))  # no-op: not appended
        assert s._sorted_view() is view
