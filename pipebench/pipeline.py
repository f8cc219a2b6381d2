"""The system under test, assembled once per set-up.

One world behind one relying party, an RTR cache server feeding a fixed
set of in-memory router sessions, and a query service.  Everything runs
on the calling thread: router sessions are ``DuplexPipe`` channels that
:meth:`Pipeline.serve` polls round-robin, and the query service has one
closed-loop caller.  The steps here are the timed units of the
workloads; they time themselves and return seconds.
"""

from __future__ import annotations

import time

from repro.api import ApiConfig, QueryService
from repro.crypto import KeyFactory
from repro.modelgen import deployment
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.rtr import DuplexPipe, RtrCacheServer, RtrRouterClient
from repro.rtr.router_client import RouterState

# Serve rounds after which unsynced sessions count as failed.
MAX_SERVE_ROUNDS = 16


class Pipeline:
    """RP + RTR cache + router sessions + query service over one world."""

    def __init__(self, world, *, lean: bool, sessions: int):
        self.world = world
        self.lean = lean
        self.rp = self.fresh_rp()
        self.server = RtrCacheServer()
        self.service = QueryService(self.rp, config=ApiConfig(rate_limit=None))
        self.sessions = sessions
        self.clients: list[RtrRouterClient] = []

    @classmethod
    def build(cls, config, *, lean: bool, sessions: int):
        """The set-up step: world (keygen included) plus serving objects.

        Returns ``(pipeline, seconds)``.  The process-wide key cache is
        dropped first so every set-up pays its own key generation.
        """
        KeyFactory.clear_cache()
        start = time.perf_counter()
        world = deployment.build_deployment(config)
        pipeline = cls(world, lean=lean, sessions=sessions)
        return pipeline, time.perf_counter() - start

    def fresh_rp(self) -> RelyingParty:
        """A new relying party, empty cache, over this world."""
        world = self.world
        return RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
            lean=self.lean,
        )

    def refresh(self, rp: RelyingParty | None = None):
        """One refresh of *rp* (default: the serving relying party).

        Returns ``(report, seconds)``.
        """
        rp = self.rp if rp is None else rp
        start = time.perf_counter()
        report = rp.refresh()
        return report, time.perf_counter() - start

    def serve(self) -> bool:
        """Poll the cache and every session until all are synced.

        One round lets the server answer whatever routers sent, then
        every router consume whatever the server sent.  Returns False
        when the fleet is not settled after :data:`MAX_SERVE_ROUNDS`.
        """
        server = self.server
        clients = self.clients
        for _ in range(MAX_SERVE_ROUNDS):
            server.process()
            for client in clients:
                client.process()
            if self.settled():
                return True
        return False

    def settled(self) -> bool:
        serial = self.server.serial
        return all(
            client.state is RouterState.SYNCED
            and client.serial == serial
            and not client.pipe.to_router.pending()
            and not client.pipe.to_cache.pending()
            for client in self.clients
        )

    def reboot_storm(self):
        """Every router reconnects and pulls a full snapshot.

        The old sessions hang up first (dropped by an untimed server
        tick); the timed part is connect → all sessions SYNCED.  Returns
        ``(settled, seconds)``.
        """
        for client in self.clients:
            client.pipe.close()
        self.server.process()
        self.clients = []
        for _ in range(self.sessions):
            pipe = DuplexPipe()
            self.server.attach(pipe)
            self.clients.append(RtrRouterClient(pipe))
        start = time.perf_counter()
        for client in self.clients:
            client.connect()
        settled = self.serve()
        return settled, time.perf_counter() - start

    def propagate(self):
        """Refresh, publish to the RTR cache, serve until all synced.

        Returns ``(report, refresh_seconds, propagation_seconds,
        settled)``: the refresh alone, and change → every session
        holding the new VRP set.
        """
        start = time.perf_counter()
        report = self.rp.refresh()
        refreshed = time.perf_counter()
        self.server.update(self.rp.vrps)
        settled = self.serve()
        done = time.perf_counter()
        return report, refreshed - start, done - start, settled

    def query_burst(self, queries, keep):
        """Closed-loop ``validate_route`` calls, one after another.

        Only the answers at the indices in *keep* are retained (for the
        correctness sample), so the burst's garbage is the service's own.
        Returns ``(kept answers by index, answers not OK, latencies_us,
        seconds)``.
        """
        validate_route = self.service.validate_route
        clock = time.perf_counter
        kept = {}
        not_ok = 0
        latencies = []
        burst_start = clock()
        for index, (prefix, origin) in enumerate(queries):
            start = clock()
            response = validate_route(prefix, origin)
            latencies.append((clock() - start) * 1e6)
            if not response.ok:
                not_ok += 1
            if index in keep:
                kept[index] = response
        return kept, not_ok, latencies, clock() - burst_start
