"""Stateful property tests: invariants under arbitrary operation orders.

Two machines:

- :class:`CaMachine` drives a CA through random issue/renew/revoke/delete/
  rollover sequences and checks, after every step, that the publication
  point is internally consistent (manifest covers exactly the published
  files with correct hashes) and that a relying party validating the world
  sees exactly the engine's issued objects.

- :class:`RtrSyncMachine` drives a cache and a router through random
  VRP-set updates, polls and reconnects, and checks that whenever the
  router is synced it holds exactly the cache's current VRP set.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.crypto import KeyFactory, sha256_hex
from repro.repository import Fetcher, RepositoryRegistry, HostLocator
from repro.resources import ResourceSet
from repro.rp import VRP, RelyingParty, VrpJournal, VrpSet
from repro.rpki import (
    CRL_FILE,
    MANIFEST_FILE,
    CertificateAuthority,
    IssuanceError,
    parse_object,
)
from repro.rtr import DuplexPipe, RouterState, RtrCacheServer, RtrRouterClient
from repro.simtime import Clock


class CaMachine(RuleBasedStateMachine):
    """Random walks over the CA engine's public operations."""

    @initialize()
    def setup(self):
        self.clock = Clock()
        self.registry = RepositoryRegistry()
        server = self.registry.create_server(
            "root.example", HostLocator.parse("198.51.100.1", 64496)
        )
        self.root = CertificateAuthority.create_trust_anchor(
            handle="ROOT",
            ip_resources=ResourceSet.parse("10.0.0.0/8"),
            clock=self.clock,
            key_factory=KeyFactory(seed=4242, bits=512),
            sia="rsync://root.example/repo/",
            publication_point=server.mount("rsync://root.example/repo/"),
        )
        self.rng = random.Random(99)
        self.roa_counter = 0

    # -- operations -----------------------------------------------------------

    @rule()
    def issue_roa(self):
        index = self.roa_counter
        self.roa_counter += 1
        if index >= 256:
            return
        prefix = f"10.{index}.0.0/16"
        self.root.issue_roa(64500 + index, f"{prefix}-24")

    @rule()
    def renew_random_roa(self):
        roas = sorted(self.root.issued_roas)
        if roas:
            try:
                self.root.renew_roa(self.rng.choice(roas))
            except IssuanceError:
                pass

    @rule()
    def revoke_random_roa(self):
        roas = sorted(self.root.issued_roas)
        if roas:
            self.root.revoke_roa(self.rng.choice(roas))

    @rule()
    def delete_random_roa(self):
        roas = sorted(self.root.issued_roas)
        if roas:
            self.root.delete_object(self.rng.choice(roas))

    @rule()
    def advance_time(self):
        self.clock.advance(3600)
        self.root.publish()  # periodic re-publication, like a cron job

    @rule()
    def roll_key(self):
        self.root.roll_key()

    # -- invariants --------------------------------------------------------------

    @invariant()
    def manifest_matches_point_exactly(self):
        if not hasattr(self, "root"):
            return
        point = self.root.publication_point
        manifest_blob = point.get(MANIFEST_FILE)
        assert manifest_blob is not None
        manifest = parse_object(manifest_blob)
        on_disk = {name for name in point.names() if name != MANIFEST_FILE}
        assert manifest.file_names == on_disk
        for name in on_disk:
            assert manifest.hash_of(name) == sha256_hex(point.get(name))

    @invariant()
    def crl_always_present_and_fresh(self):
        if not hasattr(self, "root"):
            return
        crl = parse_object(self.root.publication_point.get(CRL_FILE))
        assert crl.verify_signature(self.root.key.public)

    @invariant()
    def relying_party_sees_exactly_issued_roas(self):
        if not hasattr(self, "root"):
            return
        rp = RelyingParty(
            [self.root.certificate],
            Fetcher(self.registry, self.clock),
            self.clock,
        )
        rp.refresh()
        expected = set()
        for roa in self.root.issued_roas.values():
            for rp_entry in roa.prefixes:
                expected.add(VRP(
                    rp_entry.prefix, rp_entry.effective_max_length, roa.asn
                ))
        assert set(rp.vrps) == expected


class RtrSyncMachine(RuleBasedStateMachine):
    """Random walks over cache updates and router session events."""

    vrp_pool = [
        VRP.parse(f"10.{i}.0.0/16-24", 64500 + i) for i in range(12)
    ]

    @initialize()
    def setup(self):
        self.cache = RtrCacheServer(journal=VrpJournal(window=3))
        self.pipe = DuplexPipe()
        self.cache.attach(self.pipe)
        self.router = RtrRouterClient(self.pipe)
        self.router.connect()
        self._pump()

    def _pump(self):
        for _ in range(4):
            self.cache.process()
            self.router.process()

    @rule(mask=st.integers(min_value=0, max_value=2**12 - 1))
    def update_cache(self, mask):
        chosen = {
            vrp for index, vrp in enumerate(self.vrp_pool)
            if mask & (1 << index)
        }
        self.cache.update(VrpSet(chosen))

    @rule()
    def deliver(self):
        self._pump()

    @rule()
    def router_polls(self):
        self.router.poll()
        self._pump()

    @rule()
    def router_reconnects(self):
        self.router.connect()
        self._pump()

    @precondition(lambda self: self.router.state is RouterState.SYNCED)
    @invariant()
    def synced_router_matches_cache_when_current(self):
        if not hasattr(self, "router"):
            return
        # The router may lag (updates not yet pulled); only when its
        # serial matches the cache must the contents agree exactly.
        if self.router.serial == self.cache.serial:
            assert self.router.vrp_count == self.cache.vrp_count

    @invariant()
    def pumped_router_converges(self):
        if not hasattr(self, "router"):
            return
        self.router.poll()
        self._pump()
        assert self.router.state is RouterState.SYNCED
        assert self.router.serial == self.cache.serial
        assert self.router.vrp_count == self.cache.vrp_count


CaMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=12, deadline=None
)
RtrSyncMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=15, deadline=None
)

TestCaMachine = CaMachine.TestCase
TestRtrSyncMachine = RtrSyncMachine.TestCase
