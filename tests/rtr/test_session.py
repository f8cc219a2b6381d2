"""Tests for the RTR cache server and router client state machines."""

import warnings

import pytest

from repro.rp import VRP, VrpJournal, VrpSet
from repro.rtr import DuplexPipe, RouterState, RtrCacheServer, RtrRouterClient


def vrps(*specs):
    return VrpSet(VRP.parse(text, asn) for text, asn in specs)


FIGURE2 = [
    ("63.174.16.0/20", 17054),
    ("63.174.16.0/22", 7341),
    ("63.161.0.0/16-24", 1239),
]


def make_pair(initial=FIGURE2, **server_kwargs):
    server = RtrCacheServer(**server_kwargs)
    if initial:
        server.update(vrps(*initial))
    pipe = DuplexPipe()
    server.attach(pipe)
    client = RtrRouterClient(pipe)
    return server, client


def pump(server, client, rounds=4):
    """Run both ends until quiescent."""
    for _ in range(rounds):
        server.process()
        client.process()


class TestResetSync:
    def test_full_sync(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3
        assert client.serial == server.serial
        assert client.vrp_set() == vrps(*FIGURE2)

    def test_empty_cache_sync(self):
        server, client = make_pair(initial=[])
        client.connect()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 0
        assert client.serial == 0

    def test_session_id_learned(self):
        server, client = make_pair(session_id=99)
        client.connect()
        pump(server, client)
        assert client.session_id == 99


class TestIncrementalSync:
    def synced_pair(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        return server, client

    def test_announce_flows(self):
        server, client = self.synced_pair()
        new = vrps(*FIGURE2, ("8.8.8.0/24", 15169))
        server.update(new)
        pump(server, client)   # notify -> serial query -> delta
        assert client.vrp_count == 4
        assert VRP.parse("8.8.8.0/24", 15169) in client.vrp_set()
        assert client.serial == server.serial

    def test_withdraw_flows(self):
        """A whack propagates to the router as an RTR withdrawal."""
        server, client = self.synced_pair()
        whacked = vrps(*FIGURE2[1:])  # the /20 ROA is gone
        server.update(whacked)
        pump(server, client)
        assert client.vrp_count == 2
        assert VRP.parse("63.174.16.0/20", 17054) not in client.vrp_set()

    def test_noop_update_keeps_serial(self):
        server, client = self.synced_pair()
        serial = server.serial
        server.update(vrps(*FIGURE2))
        assert server.serial == serial

    def test_multiple_updates_coalesce(self):
        server, client = self.synced_pair()
        server.update(vrps(*FIGURE2, ("8.8.8.0/24", 15169)))
        server.update(vrps(*FIGURE2))  # and back out again
        pump(server, client)
        assert client.vrp_set() == vrps(*FIGURE2)
        assert client.serial == server.serial

    def test_poll_without_changes(self):
        server, client = self.synced_pair()
        client.poll()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3


class TestCacheResetPaths:
    def test_stale_serial_forces_reset(self):
        server, client = make_pair(journal=VrpJournal(window=2))
        client.connect()
        pump(server, client)
        # Age the router's serial out of the history window.
        base = list(FIGURE2)
        for i in range(4):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
            server.process()  # drain notifies without letting client react
        client.poll()
        pump(server, client)
        # The cache sent Cache Reset; the client resynced from scratch.
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == len(base)
        assert client.serial == server.serial

    def test_serial_ahead_of_cache_forces_reset(self):
        # A router synced to serial 7 of one cache reconnects to another
        # cache (same session id) still at serial 1.  An empty delta
        # would leave it SYNCED on VRPs the new cache never served.
        foreign = ("192.0.2.0/24", 64999)
        old_cache, client = make_pair(initial=[])
        for i in range(7):
            old_cache.update(vrps(foreign, (f"10.{i}.0.0/16", 64512 + i)))
        client.connect()
        pump(old_cache, client)
        assert client.serial == 7
        server = RtrCacheServer()
        server.update(vrps(*FIGURE2))
        client.pipe = DuplexPipe()
        server.attach(client.pipe)
        resets = server.metrics.get("repro_rtr_cache_resets_total")
        before = resets.value(reason="unknown-serial")
        client.poll()
        pump(server, client)
        assert resets.value(reason="unknown-serial") == before + 1
        assert client.state is RouterState.SYNCED
        assert client.serial == server.serial == 1
        assert client.vrp_set() == vrps(*FIGURE2)

    def test_session_id_mismatch_forces_reset(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.session_id = 12345  # simulate a cache restart from the past
        client.poll()
        pump(server, client)
        assert client.state is RouterState.SYNCED
        assert client.vrp_count == 3


class TestMultipleRouters:
    def test_two_routers_converge(self):
        server = RtrCacheServer()
        server.update(vrps(*FIGURE2))
        pipes = [DuplexPipe(), DuplexPipe()]
        clients = [RtrRouterClient(p) for p in pipes]
        for pipe in pipes:
            server.attach(pipe)
        for client in clients:
            client.connect()
        for _ in range(4):
            server.process()
            for client in clients:
                client.process()
        assert all(c.vrp_count == 3 for c in clients)
        server.update(vrps(*FIGURE2[:1]))
        for _ in range(4):
            server.process()
            for client in clients:
                client.process()
        assert all(c.vrp_count == 1 for c in clients)


class TestFailureModes:
    def test_closed_pipe_fails_client(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.pipe.close()
        client.poll()
        client.process()
        assert client.state is RouterState.FAILED
        assert client.errors

    def test_garbage_from_cache_fails_client(self):
        server, client = make_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_router.send(b"\xff" * 16)
        client.process()
        assert client.state is RouterState.FAILED

    def test_server_rejects_bad_session_pdu(self):
        from repro.rtr import CacheResponse, encode_pdu

        server, client = make_pair()
        # A router must never send Cache Response; the server errors out.
        client.pipe.to_cache.send(encode_pdu(CacheResponse(1)))
        server.process()
        client.process()
        assert client.state is RouterState.FAILED

    def test_bad_server_args(self):
        with pytest.raises(ValueError):
            RtrCacheServer(session_id=70000)


class TestMalformedPduHandling:
    """RFC 6810 §10: malformed bytes get an Error Report, then the drop."""

    def make_instrumented_pair(self):
        from repro.telemetry import MetricsRegistry

        registry = MetricsRegistry()
        server = RtrCacheServer(metrics=registry)
        server.update(vrps(*FIGURE2))
        pipe = DuplexPipe()
        server.attach(pipe)
        client = RtrRouterClient(pipe)
        return server, client, registry

    def test_malformed_bytes_drop_session_not_server(self):
        server, client, registry = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\x99\x00\x00\x07chaos!")
        server.process()  # must not raise
        client.process()
        assert client.state is RouterState.FAILED
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="decode") == 1

    def test_error_report_sent_before_drop(self):
        from repro.rtr import ErrorReport, decode_pdus

        server, client, _ = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\xff" * 9)
        server.process()
        raw = client.pipe.to_router.receive()
        pdus, _ = decode_pdus(raw)
        assert any(isinstance(p, ErrorReport) for p in pdus)

    def test_dead_session_ignored_afterwards(self):
        server, client, registry = self.make_instrumented_pair()
        client.connect()
        pump(server, client)
        client.pipe.to_cache.send(b"\x99garbage")
        server.process()
        # More garbage on the dead session must be a no-op, not a
        # second error.
        client.pipe.to_cache.send(b"\x99more-garbage")
        server.process()
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="decode") == 1

    def test_fresh_session_survives_a_poisoned_sibling(self):
        server, bad, registry = self.make_instrumented_pair()
        bad.connect()
        pump(server, bad)
        bad.pipe.to_cache.send(b"\x99\x00bad")
        server.process()
        pipe = DuplexPipe()
        server.attach(pipe)
        good = RtrRouterClient(pipe)
        good.connect()
        pump(server, good)
        assert good.state is RouterState.SYNCED
        assert good.vrp_set() == vrps(*FIGURE2)

    def test_protocol_violation_counted(self):
        from repro.rtr import CacheResponse, encode_pdu

        server, client, registry = self.make_instrumented_pair()
        client.pipe.to_cache.send(encode_pdu(CacheResponse(1)))
        server.process()
        errors = registry.get("repro_rtr_errors_total")
        assert errors.value(kind="protocol") == 1


class TestEndToEndWithRelyingParty:
    def test_whack_reaches_the_router(self):
        """Full pipeline: repositories -> relying party -> RTR -> router."""
        from repro.core import execute_whack, plan_whack
        from repro.modelgen import build_figure2
        from repro.repository import Fetcher
        from repro.rp import RelyingParty, Route, RouteValidity, validate

        world = build_figure2()
        rp = RelyingParty(
            world.trust_anchors, Fetcher(world.registry, world.clock),
            world.clock,
        )
        rp.refresh()

        server = RtrCacheServer()
        server.update(rp.vrps)
        pipe = DuplexPipe()
        server.attach(pipe)
        router = RtrRouterClient(pipe)
        router.connect()
        pump(server, router)
        assert router.vrp_count == 8

        route = Route.parse("63.174.16.0/20", 17054)
        assert validate(route.prefix, route.origin,
                        router.vrp_set()).state is RouteValidity.VALID

        # The whack: repository change -> RP refresh -> RTR delta -> router.
        execute_whack(plan_whack(world.sprint, world.target20,
                                 world.continental))
        rp.refresh()
        server.update(rp.vrps)
        pump(server, router)
        assert router.vrp_count == 7
        assert validate(route.prefix, route.origin,
                        router.vrp_set()).state is not RouteValidity.VALID


class TestDeltaCompaction:
    def test_history_bounded_by_window(self):
        server, client = make_pair(journal=VrpJournal(window=3))
        base = list(FIGURE2)
        for i in range(8):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
        assert len(server.journal.entries) <= 3
        assert server.metrics.get(
            "repro_journal_compactions_total").value(reason="window") > 0

    def test_history_bounded_by_vrp_size(self):
        server = RtrCacheServer(journal=VrpJournal(window=64, max_vrps=4))
        base = []
        for i in range(6):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
        assert server.journal.retained_vrps <= 4
        assert server.metrics.get(
            "repro_journal_compactions_total").value(reason="size") > 0

    def test_compacted_serial_answered_with_reset(self):
        server, client = make_pair(journal=VrpJournal(window=2))
        client.connect()
        pump(server, client)
        base = list(FIGURE2)
        for i in range(5):
            base.append((f"10.{i}.0.0/16", 64512 + i))
            server.update(vrps(*base))
            server.process()
        resets = server.metrics.get("repro_rtr_cache_resets_total")
        before = resets.value(reason="compacted")
        client.poll()
        pump(server, client)
        assert resets.value(reason="compacted") == before + 1
        assert client.state is RouterState.SYNCED
        assert client.vrp_set() == vrps(*base)

    def test_in_window_serial_still_served_incrementally(self):
        server, client = make_pair(journal=VrpJournal(window=8))
        client.connect()
        pump(server, client)
        resets = server.metrics.get("repro_rtr_cache_resets_total")
        before = (resets.value(reason="compacted")
                  + resets.value(reason="session-id"))
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        pump(server, client)
        assert client.vrp_count == 4
        after = (resets.value(reason="compacted")
                 + resets.value(reason="session-id"))
        assert after == before

    def test_snapshot_burst_cached_per_serial(self):
        server, _client = make_pair()
        burst, count = server._snapshot_burst()
        again, _count = server._snapshot_burst()
        assert again is burst  # same serial: same cached bytes
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        rebuilt, rebuilt_count = server._snapshot_burst()
        assert rebuilt is not burst
        assert rebuilt_count == count + 1

    def test_history_gauges_track(self):
        server, _client = make_pair(journal=VrpJournal(window=4))
        registry = server.metrics
        server.update(vrps(*FIGURE2, ("10.0.0.0/16", 64512)))
        assert registry.get(
            "repro_journal_retained_serials").value() == float(
                len(server.journal.entries))
        assert registry.get(
            "repro_journal_retained_vrps").value() == float(
                server.journal.retained_vrps)


class TestSharedJournal:
    def test_notifies_when_another_reader_moved_the_serial(self):
        # The query plane may publish the RP's new set before the RTR
        # update runs; the cache must still announce the new serial.
        journal = VrpJournal()
        server, client = make_pair(initial=[], journal=journal)
        client.connect()
        pump(server, client)
        new = vrps(*FIGURE2)
        journal.publish(new)
        assert server.update(new) == journal.serial == 1
        pump(server, client)
        assert client.serial == 1
        assert client.vrp_set() == new

    def test_update_returns_the_journal_serial(self):
        journal = VrpJournal()
        server = RtrCacheServer(journal=journal)
        assert server.update(vrps(*FIGURE2)) == journal.serial == 1
        assert server.serial == journal.serial
        assert server.current_vrps() == journal.current.as_frozenset()


class TestUpdateUnification:
    def test_vrpset_path_emits_no_warning(self):
        server = RtrCacheServer()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            server.update(vrps(*FIGURE2))
        assert server.serial == 1
