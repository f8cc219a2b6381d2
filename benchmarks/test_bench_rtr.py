"""Experiment ``rtr``: router-fleet fan-out under churn and Byzantine faults.

The claim pinned here is the serving-stack half of the paper's blast
radius: one validating relying party — itself refreshing through a
hostile delivery layer — can feed **1,000+ simultaneous RTR sessions**
through a tier of chained non-validating caches, with

1. **bounded per-cycle cost** — after the initial full sync, a
   one-ROA-per-cycle churn costs O(delta x sessions) prefix PDUs, never
   a re-send of the world;
2. **bounded delta history** — the root cache's VRP journal stays
   capped (compaction observed) no matter how many serials the campaign
   burns, and a laggard that sleeps through the window gets a Cache
   Reset, not an unbounded replay;
3. **zero divergence** — every cycle, every chained cache and every
   synced router serves exactly the validating RP's VRP set (the fan-out
   multiplies reach, never content).

Artifact: ``BENCH_rtr.json`` under ``benchmarks/artifacts/``.
"""

import json
import time

from conftest import write_artifact

from repro.modelgen import INTERNET_SCALES, DeploymentConfig, build_deployment
from repro.repository import PERSISTENT, FaultInjector, FaultKind, Fetcher
from repro.rp import RelyingParty, VrpJournal
from repro.rtr import (
    CacheChain,
    DuplexPipe,
    RouterState,
    RtrCacheServer,
    RtrRouterClient,
)
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

SCALE = DeploymentConfig(isps_per_rir=2, customers_per_isp=1, seed=19)
TIERS = 1
FANOUT = 10
ROUTERS_PER_CACHE = 100   # 10 caches x 100 routers = 1,000 edge sessions
LAGGARDS = 5              # attached to the root, never polling
CYCLES = 12
HISTORY_WINDOW = 8        # < CYCLES, so compaction must fire
BYZANTINE_LOAD = (
    FaultKind.MANIFEST_REPLAY,
    FaultKind.STALE_CRL,
    FaultKind.KEY_SWAP,
    FaultKind.SPLIT_VIEW,
)
GARBAGE = b"\x99\x00\x00\x07chaos!"

_RESULTS: dict = {}


def _serve_round(chain, routers):
    """Two half-rounds: queries answered, then bursts applied."""
    for _ in range(2):
        for cache in chain.caches():
            cache.server.process()
        for _cache, client in routers:
            client.process()


def _run_fleet() -> dict:
    if _RESULTS:
        return _RESULTS
    world = build_deployment(SCALE)
    faults = FaultInjector(seed=5, background_rate=0.01)
    points = sorted(ca.sia for ca in world.authorities() if ca.sia)
    for index, kind in enumerate(BYZANTINE_LOAD):
        faults.schedule(kind, points[index % len(points)], count=PERSISTENT)
    metrics = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, faults=faults,
                      metrics=metrics, identity="bench-rtr")
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=metrics)
    world.clock.advance(HOUR)
    rp.refresh()

    root = RtrCacheServer(
        journal=VrpJournal(window=HISTORY_WINDOW, metrics=metrics),
        metrics=metrics,
    )
    root.update(rp.vrps)
    chain = CacheChain(root, tiers=TIERS, fanout=FANOUT)
    chain.pump()

    routers = []
    for cache in chain.deepest():
        for _ in range(ROUTERS_PER_CACHE):
            pipe = DuplexPipe()
            cache.server.attach(pipe)
            client = RtrRouterClient(pipe)
            client.connect()
            routers.append((cache, client))
    laggards = []
    for _ in range(LAGGARDS):
        pipe = DuplexPipe()
        root.attach(pipe)
        lag = RtrRouterClient(pipe)
        lag.connect()
        laggards.append(lag)
    _serve_round(chain, routers)
    root.process()
    for lag in laggards:
        lag.process()
    total_sessions = root.session_count + sum(
        cache.server.session_count for cache in chain.caches()
    )

    donor = next(ca for ca in world.authorities() if ca.issued_roas)
    prefix = donor.issued_roas[
        sorted(donor.issued_roas)[0]
    ].prefixes[0].prefix

    pdu_counter = metrics.get("repro_rtr_pdus_sent_total")
    per_cycle_prefix_pdus = []
    per_cycle_delta_vrps = []
    divergent_cycles = 0
    stale_router_cycles = 0
    serve_seconds = 0.0
    prev_truth = rp.vrps.as_frozenset()
    for cycle in range(CYCLES):
        donor.issue_roa(64512 + cycle, str(prefix),
                        name=f"bench-{cycle}.roa")
        world.clock.advance(HOUR)
        rp.refresh()
        before = pdu_counter.value(type="prefix_pdu")
        start = time.perf_counter()
        root.update(rp.vrps)
        chain.pump()
        # One misbehaving router per cycle: garbage bytes mid-session.
        # The serving side must drop it without disturbing its 99
        # siblings on the same cache; the operator then reconnects.
        victim_index = cycle % len(routers)
        victim_cache, victim = routers[victim_index]
        victim.pipe.to_cache.send(GARBAGE)
        victim_cache.server.process()
        fresh_pipe = DuplexPipe()
        victim_cache.server.attach(fresh_pipe)
        replacement = RtrRouterClient(fresh_pipe)
        replacement.connect()
        routers[victim_index] = (victim_cache, replacement)
        _serve_round(chain, routers)
        serve_seconds += time.perf_counter() - start
        per_cycle_prefix_pdus.append(
            pdu_counter.value(type="prefix_pdu") - before
        )

        truth = rp.vrps.as_frozenset()
        per_cycle_delta_vrps.append(len(truth ^ prev_truth))
        prev_truth = truth
        if root.current_vrps() != truth or chain.divergent():
            divergent_cycles += 1
        stale = sum(
            1 for _cache, client in routers
            if client.state is not RouterState.SYNCED
            or client.vrp_set().as_frozenset() != truth
        )
        if stale:
            stale_router_cycles += 1

    # The laggards slept through every cycle; the delta window has long
    # compacted past their serial, so their next poll must be answered
    # with Cache Reset + a full snapshot, never an unbounded replay.
    resets = metrics.get("repro_rtr_cache_resets_total")
    resets_before = resets.value(reason="compacted")
    for lag in laggards:
        lag.poll()
    root.process()
    for lag in laggards:
        lag.process()   # Cache Reset -> Reset Query
    root.process()
    for lag in laggards:
        lag.process()   # snapshot applied
    truth = rp.vrps.as_frozenset()

    _RESULTS.update({
        "total_sessions": total_sessions,
        "cycles": CYCLES,
        "serve_seconds": serve_seconds,
        "per_cycle_prefix_pdus": per_cycle_prefix_pdus,
        "per_cycle_delta_vrps": per_cycle_delta_vrps,
        "divergent_cycles": divergent_cycles,
        "stale_router_cycles": stale_router_cycles,
        "root_serial": root.serial,
        "vrps": len(rp.vrps),
        "history_serials": len(root.journal.entries),
        "history_vrps": root.journal.retained_vrps,
        "compactions": metrics.get(
            "repro_journal_compactions_total").value(reason="window"),
        "laggard_resets": resets.value(reason="compacted") - resets_before,
        "laggards_synced": sum(
            1 for lag in laggards
            if lag.state is RouterState.SYNCED
            and lag.vrp_set().as_frozenset() == truth
        ),
        "decode_drops": metrics.get("repro_rtr_errors_total").value(
            kind="decode"),
    })
    return _RESULTS


def test_thousand_sessions_zero_divergence():
    result = _run_fleet()
    assert result["total_sessions"] >= 1000 + FANOUT
    assert result["divergent_cycles"] == 0, (
        "a chained cache served a set other than the validating RP's"
    )
    assert result["stale_router_cycles"] == 0, (
        "an edge router missed a cycle's delta"
    )
    # One garbage-sender dropped per cycle, siblings untouched.
    assert result["decode_drops"] == CYCLES


def test_delta_history_bounded_and_compacted():
    result = _run_fleet()
    assert result["history_serials"] <= HISTORY_WINDOW
    assert result["compactions"] > 0, "compaction never fired"
    assert result["laggard_resets"] == LAGGARDS
    assert result["laggards_synced"] == LAGGARDS


def test_per_cycle_cost_bounded():
    result = _run_fleet()
    sessions = result["total_sessions"]
    # Per-cycle serving cost is O(delta x sessions) — the delta varies
    # with the cycle's churn plus whatever the Byzantine faults flapped
    # — plus one full resync for the reconnecting victim.  A re-send of
    # the world every cycle would be ~vrps x sessions regardless of
    # delta, an order of magnitude more.
    costs = zip(result["per_cycle_delta_vrps"],
                result["per_cycle_prefix_pdus"])
    for cycle, (delta, cost) in enumerate(costs):
        bound = (delta + 1) * sessions + 4 * result["vrps"]
        assert cost <= bound, (
            f"cycle {cycle}: {cost:.0f} prefix PDUs for a "
            f"{delta}-VRP delta (bound {bound:.0f})"
        )
    # Throughput floor, deliberately loose for slow CI machines.
    syncs = sessions * result["cycles"]
    rate = syncs / max(result["serve_seconds"], 1e-9)
    assert rate >= 2000, f"serve throughput {rate:.0f} session-syncs/s"


INTERNET_SESSIONS = 32
INTERNET_CHURN_CYCLES = 3

# Kept separate from _RESULTS: that dict doubles as _run_fleet()'s memo
# ("if _RESULTS: return"), so foreign keys must never land in it.
_INTERNET_RESULTS: dict = {}


def test_internet_scale_session_sync():
    """Re-bench RTR serving at an Internet-scale VRP count (10^4).

    A full snapshot sync now moves 10^4 prefix PDUs per session, so the
    cost model the 1,015-session fleet pins — snapshots are paid once,
    churn is O(delta x sessions) — is re-asserted where snapshots are
    three hundred times heavier.
    """
    world = build_deployment(INTERNET_SCALES["internet-small"])
    metrics = MetricsRegistry()
    fetcher = Fetcher(world.registry, world.clock, metrics=metrics)
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=metrics)
    world.clock.advance(HOUR)
    rp.refresh()

    root = RtrCacheServer(
        journal=VrpJournal(window=HISTORY_WINDOW, metrics=metrics),
        metrics=metrics,
    )
    root.update(rp.vrps)
    sessions = []
    for _ in range(INTERNET_SESSIONS):
        pipe = DuplexPipe()
        root.attach(pipe)
        client = RtrRouterClient(pipe)
        client.connect()
        sessions.append(client)

    pdu_counter = metrics.get("repro_rtr_pdus_sent_total")
    start = time.perf_counter()
    root.process()
    for client in sessions:
        client.process()
    snapshot_seconds = time.perf_counter() - start
    truth = rp.vrps.as_frozenset()
    assert all(c.state is RouterState.SYNCED for c in sessions)
    assert all(c.vrp_set().as_frozenset() == truth for c in sessions)
    snapshot_pdus = pdu_counter.value(type="prefix_pdu")
    pdus_per_second = snapshot_pdus / max(snapshot_seconds, 1e-9)

    donor = next(ca for ca in world.authorities() if ca.issued_roas)
    prefix = donor.issued_roas[
        sorted(donor.issued_roas)[0]
    ].prefixes[0].prefix
    churn_pdus = []
    start = time.perf_counter()
    for cycle in range(INTERNET_CHURN_CYCLES):
        donor.issue_roa(65000 + cycle, str(prefix),
                        name=f"inet-{cycle}.roa")
        world.clock.advance(HOUR)
        rp.refresh()
        before = pdu_counter.value(type="prefix_pdu")
        root.update(rp.vrps)
        # Two half-rounds: Notify answered with Serial Query, then the
        # delta burst applied.
        for _ in range(2):
            root.process()
            for client in sessions:
                client.process()
        churn_pdus.append(pdu_counter.value(type="prefix_pdu") - before)
    churn_seconds = time.perf_counter() - start
    # Each cycle adds one VRP: delta serving must stay O(delta x
    # sessions), never a re-send of the 10^4-entry snapshot.
    for cycle, cost in enumerate(churn_pdus):
        assert cost <= 2 * INTERNET_SESSIONS, (
            f"cycle {cycle}: {cost:.0f} prefix PDUs for a 1-VRP delta "
            f"across {INTERNET_SESSIONS} sessions"
        )
    truth = rp.vrps.as_frozenset()
    assert all(c.vrp_set().as_frozenset() == truth for c in sessions)

    _INTERNET_RESULTS.update({
        "scale": "internet-small",
        "vrps": len(rp.vrps),
        "sessions": INTERNET_SESSIONS,
        "snapshot_seconds": round(snapshot_seconds, 4),
        "snapshot_prefix_pdus": round(snapshot_pdus),
        "snapshot_pdus_per_second": round(pdus_per_second),
        "churn_cycles": INTERNET_CHURN_CYCLES,
        "churn_prefix_pdus": [round(c) for c in churn_pdus],
        "churn_seconds": round(churn_seconds, 4),
    })


def test_write_artifact():
    result = _run_fleet()
    assert _INTERNET_RESULTS
    rate = (result["total_sessions"] * result["cycles"]
            / max(result["serve_seconds"], 1e-9))
    write_artifact("BENCH_rtr.json", json.dumps({
        "experiment": "rtr",
        "pins": {
            "total_sessions": {
                "measured": result["total_sessions"],
                "bound": 1000, "op": ">=",
            },
            "session_syncs_per_second": {
                "measured": round(rate),
                "bound": 2000, "op": ">=",
            },
            "divergent_cycles": {
                "measured": result["divergent_cycles"],
                "bound": 0, "op": "==",
            },
            "internet_churn_prefix_pdus_per_cycle": {
                "measured": max(_INTERNET_RESULTS["churn_prefix_pdus"]),
                "bound": 2 * INTERNET_SESSIONS, "op": "<=",
            },
        },
        "internet": _INTERNET_RESULTS,
        "topology": {
            "tiers": TIERS,
            "fanout": FANOUT,
            "routers_per_cache": ROUTERS_PER_CACHE,
            "laggards": LAGGARDS,
            "total_sessions": result["total_sessions"],
        },
        "churn": {
            "cycles": result["cycles"],
            "roas_per_cycle": 1,
            "byzantine_load": [k.value for k in BYZANTINE_LOAD],
            "garbage_pdus_per_cycle": 1,
        },
        "serving": {
            "serve_seconds": round(result["serve_seconds"], 4),
            "session_syncs_per_second": round(rate),
            "per_cycle_prefix_pdus": [
                round(c) for c in result["per_cycle_prefix_pdus"]
            ],
            "per_cycle_delta_vrps": result["per_cycle_delta_vrps"],
            "divergent_cycles": result["divergent_cycles"],
            "stale_router_cycles": result["stale_router_cycles"],
        },
        "delta_window": {
            "history_window": HISTORY_WINDOW,
            "history_serials_at_end": result["history_serials"],
            "history_vrps_at_end": result["history_vrps"],
            "window_compactions": round(result["compactions"]),
            "laggard_cache_resets": round(result["laggard_resets"]),
            "laggards_resynced": result["laggards_synced"],
        },
        "final": {
            "root_serial": result["root_serial"],
            "vrps": result["vrps"],
        },
    }, indent=2) + "\n")
