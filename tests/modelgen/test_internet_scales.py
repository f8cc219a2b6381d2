"""Tests for the flat Internet-scale deployment family.

The flat generator (``DeploymentConfig(flat=True)``) mints many sibling
publication points directly under each RIR — no customer subtree, no
suballocation recursion — which is what lets
:data:`repro.modelgen.INTERNET_SCALES` reach 10⁴–10⁵ ROAs in O(n).
These tests pin the family's arithmetic, its determinism (same seed ⇒
identical world), and the replay-equivalence claim at ``internet-small``:
a warm refresh after churn produces byte-identical validated objects,
VRPs and issues to a fresh validator's cold run over the same cache.
"""

import pytest

from repro.modelgen import (
    INTERNET_SCALES,
    DeploymentConfig,
    build_deployment,
)
from repro.repository import Fetcher
from repro.rp import PathValidator, RelyingParty, VrpSet
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

# Small enough to build in ~a second, flat like the Internet scales.
TINY_FLAT = DeploymentConfig(
    isps_per_rir=6, customers_per_isp=0, roas_per_isp=8,
    roas_per_customer=0, flat=True, shared_ee_keys=True, seed=33,
)


def _flat_keypairs(config):
    """Keypairs a flat build consumes: 1 TA + (1 CA + EE keys) per ISP."""
    per_isp = 1 + (1 if config.shared_ee_keys else config.roas_per_isp)
    return len(config.rirs) * (1 + config.isps_per_rir * per_isp)


def _refresh(world, **kwargs):
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock), **kwargs,
    )
    return rp, rp.refresh()


class TestFlatGenerator:
    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(TINY_FLAT)

    def test_census(self, world):
        rirs = len(TINY_FLAT.rirs)
        assert world.roa_count() == rirs * 6 * 8
        # One trust anchor plus isps_per_rir ISPs per RIR, nothing deeper.
        assert len(world.authorities()) == rirs * (1 + 6)
        for root, _rir in world.roots:
            assert all(
                not list(child.children()) for child in root.children()
            )

    def test_keypair_consumption_matches_prediction(self, world):
        assert world.key_factory.issued == _flat_keypairs(TINY_FLAT)

    def test_shared_ee_keys_one_per_authority(self, world):
        seen = set()
        for root, _rir in world.roots:
            for isp in root.children():
                ee_keys = {
                    roa.ee_cert.subject_key_id
                    for roa in isp.issued_roas.values()
                }
                assert len(ee_keys) == 1       # shared within the authority
                seen |= ee_keys
        # ...but never across authorities (each draws its own keypair).
        assert len(seen) == len(TINY_FLAT.rirs) * 6

    def test_refresh_clean(self, world):
        rp, report = _refresh(world)
        assert report.run.errors() == []
        assert len(rp.vrps) == world.roa_count()

    def test_every_isp_asn_has_jurisdiction(self, world):
        isp_count = len(TINY_FLAT.rirs) * 6
        assert len(world.as_country) == isp_count
        assert all(country for country in world.as_country.values())


class TestConfigValidation:
    def test_shared_ee_keys_requires_flat(self):
        with pytest.raises(ValueError, match="flat"):
            DeploymentConfig(shared_ee_keys=True)

    def test_flat_bounds_roas_per_isp(self):
        with pytest.raises(ValueError):
            DeploymentConfig(flat=True, roas_per_isp=257)

    def test_flat_bounds_isps_per_rir(self):
        with pytest.raises(ValueError):
            DeploymentConfig(flat=True, isps_per_rir=255)


class TestInternetScalesRegistry:
    EXPECTED_ROAS = {
        "internet-small": 10_000,
        "internet": 30_000,
        "internet-large": 100_000,
    }

    def test_family_shape(self):
        assert set(INTERNET_SCALES) == set(self.EXPECTED_ROAS)
        for config in INTERNET_SCALES.values():
            assert config.flat and config.shared_ee_keys
            assert config.customers_per_isp == 0

    @pytest.mark.parametrize("name", sorted(EXPECTED_ROAS))
    def test_roa_arithmetic(self, name):
        config = INTERNET_SCALES[name]
        roas = len(config.rirs) * config.isps_per_rir * config.roas_per_isp
        assert roas == self.EXPECTED_ROAS[name]

    @pytest.mark.parametrize("name", sorted(EXPECTED_ROAS))
    def test_keypair_arithmetic(self, name):
        config = INTERNET_SCALES[name]
        # Shared EE keys: 1 TA + (1 CA + 1 EE) per ISP, per RIR — keygen
        # is O(authorities), not O(ROAs).
        per_rir = 1 + config.isps_per_rir * 2
        assert _flat_keypairs(config) == len(config.rirs) * per_rir


class TestDeterminism:
    def test_same_seed_builds_identical_worlds(self):
        first = build_deployment(TINY_FLAT)
        second = build_deployment(TINY_FLAT)
        assert first.roa_count() == second.roa_count()
        assert (
            [(ca.handle, ca.key_id) for ca in first.authorities()]
            == [(ca.handle, ca.key_id) for ca in second.authorities()]
        )
        assert first.as_country == second.as_country
        rp_a, _ = _refresh(first)
        rp_b, _ = _refresh(second)
        assert rp_a.vrps.content_hash() == rp_b.vrps.content_hash()

    def test_different_seed_differs(self):
        from dataclasses import replace

        first = build_deployment(TINY_FLAT)
        second = build_deployment(replace(TINY_FLAT, seed=34))
        assert (
            first.authorities()[0].key_id != second.authorities()[0].key_id
        )


class TestInternetSmallEquivalence:
    """The heavyweight pin: warm replay equals cold at 10^4 ROAs."""

    @pytest.fixture(scope="class")
    def world(self):
        return build_deployment(INTERNET_SCALES["internet-small"])

    def test_warm_refresh_equals_cold_run(self, world):
        rp, cold_report = _refresh(world)
        assert cold_report.run.errors() == []
        assert len(rp.vrps) == world.roa_count()
        churned = next(ca for ca in world.authorities() if ca.issued_roas)
        churned.renew_roa(next(iter(churned.issued_roas)))
        world.clock.advance(HOUR)
        warm = rp.refresh().run
        now = world.clock.now
        cold = PathValidator(
            world.trust_anchors, metrics=MetricsRegistry()
        ).run(rp.cache.snapshot(now), now)

        assert rp.validator.points_replayed > 0
        # Byte identity: the same validated objects (by content hash),
        # the same VRP set and content-addressed digest, the same issues.
        for objects in ("validated_cas", "validated_roas"):
            assert (
                [obj.hash_hex for obj in getattr(warm, objects)]
                == [obj.hash_hex for obj in getattr(cold, objects)]
            )
        assert warm.vrps.as_frozenset() == cold.vrps.as_frozenset()
        assert (
            VrpSet(warm.vrps).content_hash()
            == VrpSet(cold.vrps).content_hash()
        )
        assert warm.issues == cold.issues

    def test_lean_refresh_counts_without_retaining(self, world):
        rp, report = _refresh(world, lean=True)
        assert report.run.validated_roas == []
        assert report.run.roa_locations == {}
        assert report.run.roa_count == world.roa_count()
        assert len(rp.vrps) == world.roa_count()
        assert VrpSet(report.run.vrps).content_hash() \
            == rp.vrps.content_hash()
