"""QueryService: consistency with the backing RP, epochs, and limits.

The load-bearing property is the consistency contract: every answer the
service emits must equal a direct :func:`repro.rp.origin.validate` (or
``VrpSet`` lookup) against the relying party's *live* VRP set, even when
the RP is refreshed behind the service's back.
"""

import random

import pytest

from repro.api import (
    ApiConfig,
    QueryService,
    QueryStatus,
    RateLimitConfig,
)
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.resources import Prefix
from repro.rp import RelyingParty, VrpJournal, VrpSet
from repro.rp.origin import validate
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry


@pytest.fixture
def world():
    return build_deployment(DeploymentConfig(
        seed=13, isps_per_rir=2, customers_per_isp=1,
    ))


@pytest.fixture
def rp(world):
    registry = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=registry)
    return RelyingParty(world.trust_anchors, fetcher, world.clock,
                        metrics=registry)


def make_service(rp, **config):
    return QueryService(rp, config=ApiConfig(**config),
                        metrics=MetricsRegistry())


def bound_journal(rp, window):
    """Give *rp* a journal retaining only *window* serials."""
    rp.journal = VrpJournal(window=window, metrics=MetricsRegistry())


def whack_a_roa(world):
    ca = next(ca for ca in world.authorities() if ca.issued_roas)
    ca.revoke_roa(next(iter(ca.issued_roas)))


class TestEpochs:
    def test_serial_bumps_only_on_content_change(self, world, rp):
        service = make_service(rp)
        assert service.serial == 0
        service.refresh()
        assert service.serial == 1
        world.clock.advance(HOUR)
        service.refresh()              # nothing changed upstream
        assert service.serial == 1
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        assert service.serial == 2

    def test_content_hash_tracks_vrp_set(self, rp):
        service = make_service(rp)
        service.refresh()
        assert service.content_hash == rp.vrps.content_hash()

    def test_history_records_deltas(self, world, rp):
        service = make_service(rp)
        service.refresh()
        before = set(rp.vrps)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        entries = service.history().payload
        # No genesis entry: the journal starts at serial 0 with nothing.
        assert [e.serial for e in entries] == [1, 2]
        assert set(entries[0].added) == before
        assert entries[1].removed
        assert set(entries[1].removed) == before - set(rp.vrps)
        assert entries[1].vrp_count == len(rp.vrps)

    def test_history_ring_is_bounded(self, world, rp):
        bound_journal(rp, 3)
        service = make_service(rp)
        service.refresh()
        for _ in range(4):
            whack_a_roa(world)
            world.clock.advance(HOUR)
            service.refresh()
        entries = service.history().payload
        assert len(entries) == 3
        assert [e.serial for e in entries] == [3, 4, 5]


class TestConsistency:
    def test_answers_match_direct_validate(self, rp):
        service = make_service(rp)
        service.refresh()
        for vrp in rp.vrps:
            served = service.validate_route(vrp.prefix, vrp.asn).payload
            direct = validate(vrp.prefix, vrp.asn, rp.vrps)
            assert served.state is direct.state
            assert served.covering == direct.covering

    def test_out_of_band_refresh_is_visible_immediately(self, world, rp):
        # The RP is refreshed directly, not through the service: the very
        # next query must already be answered against the new set.
        service = make_service(rp)
        service.refresh()
        victim = next(iter(rp.vrps))
        assert service.validate_route(
            victim.prefix, victim.asn).payload.state.value == "valid"
        whack_a_roa(world)
        world.clock.advance(HOUR)
        rp.refresh()                   # behind the service's back
        response = service.validate_route(victim.prefix, victim.asn)
        direct = validate(victim.prefix, victim.asn, rp.vrps)
        assert response.payload.state is direct.state
        assert response.serial == 2

    def test_cache_hit_returns_equal_payload(self, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        first = service.validate_route(vrp.prefix, vrp.asn)
        second = service.validate_route(vrp.prefix, vrp.asn)
        assert not first.cached and second.cached
        assert first.payload == second.payload
        assert first.shard == second.shard

    def test_flap_back_keeps_content_answers_warm(self, world, rp):
        # A -> B -> A where only another journal reader (an RTR update)
        # saw B: the serial moves twice, content answers stay warm.
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        service.validate_route(vrp.prefix, vrp.asn)
        ca = next(ca for ca in world.authorities() if ca.issued_roas)
        roa = next(iter(ca.issued_roas.values()))
        ca.issue_roa(64999, str(roa.prefixes[0].prefix), name="flap.roa")
        world.clock.advance(HOUR)
        rp.refresh()
        rp.journal.publish(rp.vrps)                       # B
        ca.revoke_roa("flap.roa")
        world.clock.advance(HOUR)
        rp.refresh()                                      # A again
        again = service.validate_route(vrp.prefix, vrp.asn)
        assert again.serial == 3
        assert again.cached           # keyed on content, not serial

    def test_changed_epoch_misses_the_cache(self, world, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        service.validate_route(vrp.prefix, vrp.asn)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        after = service.validate_route(vrp.prefix, vrp.asn)
        assert not after.cached        # key rotated with the content hash
        assert after.payload.state is validate(
            vrp.prefix, vrp.asn, rp.vrps).state

    def test_lookup_prefix_and_asn(self, rp):
        service = make_service(rp)
        service.refresh()
        vrp = next(iter(rp.vrps))
        by_prefix = service.lookup_prefix(str(vrp.prefix)).payload
        assert vrp in by_prefix
        assert set(by_prefix) == {
            v for v in rp.vrps if v.covers(vrp.prefix)
        }
        by_asn = service.lookup_asn(int(vrp.asn)).payload
        assert vrp in by_asn
        assert set(by_asn) == {v for v in rp.vrps if v.asn == vrp.asn}


class TestDiff:
    def test_diff_reports_the_whack(self, world, rp):
        service = make_service(rp)
        service.refresh()
        before = set(rp.vrps)
        whack_a_roa(world)
        world.clock.advance(HOUR)
        service.refresh()
        diff = service.diff(1).payload
        assert diff.from_serial == 1 and diff.to_serial == 2
        assert set(diff.removed) == before - set(rp.vrps)
        assert diff.added == ()

    def test_empty_diff_at_current_serial(self, rp):
        service = make_service(rp)
        service.refresh()
        diff = service.diff(1).payload
        assert diff.empty

    def test_unknown_serials_rejected(self, world, rp):
        bound_journal(rp, 2)
        service = make_service(rp)
        service.refresh()
        assert service.diff(7).status == QueryStatus.UNKNOWN_SERIAL
        for _ in range(3):
            whack_a_roa(world)
            world.clock.advance(HOUR)
            service.refresh()
        # The journal now holds serials [3, 4]; epoch 1 has aged out.
        assert service.diff(1).status == QueryStatus.UNKNOWN_SERIAL
        assert service.diff(2).status == QueryStatus.OK
        assert service.diff(3).status == QueryStatus.OK
        assert service.diff(4, 3).status == QueryStatus.UNKNOWN_SERIAL

    def test_serials_shared_with_rtr(self, world, rp):
        from repro.rtr import RtrCacheServer

        service = make_service(rp)
        server = RtrCacheServer(journal=rp.journal,
                                metrics=MetricsRegistry())
        rp.refresh()
        server.update(rp.vrps)
        assert service.serial == server.serial == rp.journal.serial == 1
        whack_a_roa(world)
        world.clock.advance(HOUR)
        rp.refresh()
        # The query plane publishes first; RTR adopts the same serial.
        assert service.serial == 2
        assert server.update(rp.vrps) == 2
        assert len(rp.journal.entries) == 2


class TestRateLimiting:
    def test_per_client_isolation(self, rp):
        service = make_service(
            rp, rate_limit=RateLimitConfig(capacity=3, refill_per_second=0),
        )
        service.refresh()
        noisy = [service.lookup_asn(1, client="noisy").status
                 for _ in range(5)]
        assert noisy == ["ok", "ok", "ok", "rate-limited", "rate-limited"]
        assert service.lookup_asn(1, client="quiet").status == "ok"

    def test_tokens_refill_on_the_simulated_clock(self, world, rp):
        service = make_service(
            rp, rate_limit=RateLimitConfig(capacity=2, refill_per_second=1),
        )
        service.refresh()
        assert service.lookup_asn(1, client="c").ok
        assert service.lookup_asn(1, client="c").ok
        assert not service.lookup_asn(1, client="c").ok
        world.clock.advance(2)
        assert service.lookup_asn(1, client="c").ok

    def test_disabled_when_config_is_none(self, rp):
        service = make_service(rp, rate_limit=None)
        service.refresh()
        assert all(service.lookup_asn(1, client="c").ok for _ in range(500))


class TestCoveringAtLoad:
    def test_covering_matches_brute_force_under_query_storm(self):
        # VrpSet.covering is the query plane's hot path; check the trie
        # against the O(n) definition across a large randomized set.
        rng = random.Random(99)
        from repro.rp import VRP

        vrps = VrpSet()
        for _ in range(400):
            length = rng.randint(8, 24)
            base = rng.getrandbits(length) << (32 - length)
            octets = ".".join(str((base >> s) & 0xFF)
                              for s in (24, 16, 8, 0))
            max_length = rng.randint(length, min(length + 8, 32))
            vrps.add(VRP.parse(f"{octets}/{length}-{max_length}",
                               rng.randint(1, 50)))
        probes = []
        for vrp in list(vrps)[:100]:
            probes.append(vrp.prefix)
            if vrp.prefix.length < 30:
                probes.append(Prefix(vrp.prefix.afi, vrp.prefix.network,
                                     vrp.prefix.length + 2))
        for prefix in probes:
            trie = sorted(vrps.covering(prefix))
            brute = sorted(v for v in vrps if v.covers(prefix))
            assert trie == brute
