"""Experiment ``chaos``: what fault containment costs, and that it holds.

Two claims:

1. **Bounded overhead.**  A relying party refreshing a medium-scale
   deployment through a hostile delivery layer — persistent Byzantine
   faults on the busiest publication points plus a background drop rate —
   stays within **2x** the wall-clock cost of the identical clean refresh
   sequence.  Containment (quarantine, degradation accounting, stale
   fallback) must not turn one misbehaving authority into a denial of
   service on the relying party itself.

2. **Invariants at scale.**  The 200-cycle seeded campaign, mixing every
   timing and Byzantine fault kind against a faulted relying party (its
   every warm run checked against a cold validator) and an RTR pair,
   completes with zero unhandled exceptions and the safety, equivalence
   and serial-agreement invariants intact every cycle — the acceptance
   sweep for the chaos harness.

Artifact: ``BENCH_chaos.json`` under ``benchmarks/artifacts/``.
"""

import json
import time

from conftest import write_artifact

from repro.chaos import FAULT_MENU, CampaignConfig, run_campaign
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import (
    PERSISTENT,
    FaultInjector,
    FaultKind,
    Fetcher,
)
from repro.rp import RelyingParty
from repro.simtime import HOUR
from repro.telemetry import MetricsRegistry

MEDIUM = DeploymentConfig(
    isps_per_rir=4, customers_per_isp=2, suballocation_depth=2, seed=21,
)
EPOCHS = 3
BYZANTINE_LOAD = (
    FaultKind.MANIFEST_REPLAY,
    FaultKind.STALE_CRL,
    FaultKind.KEY_SWAP,
    FaultKind.SPLIT_VIEW,
)

_TIMINGS: dict[str, float] = {}


def _refresh_seconds(faulted: bool) -> float:
    """Total wall seconds for EPOCHS refreshes, cached per variant."""
    key = "faulted" if faulted else "clean"
    if key in _TIMINGS:
        return _TIMINGS[key]
    world = build_deployment(MEDIUM)
    faults = None
    if faulted:
        faults = FaultInjector(seed=3, background_rate=0.02)
        points = sorted(
            str_uri for str_uri in (
                ca.sia for ca in world.authorities() if ca.sia
            )
        )
        for index, kind in enumerate(BYZANTINE_LOAD):
            faults.schedule(
                kind, points[index % len(points)], count=PERSISTENT
            )
    fetcher = Fetcher(world.registry, world.clock, faults=faults,
                      metrics=MetricsRegistry(), identity="bench")
    rp = RelyingParty(world.trust_anchors, fetcher, metrics=fetcher.metrics)
    total = 0.0
    for _ in range(EPOCHS):
        world.clock.advance(HOUR)
        start = time.perf_counter()
        rp.refresh()
        total += time.perf_counter() - start
    _TIMINGS[key] = total
    return total


def test_faulted_refresh_within_2x_clean():
    clean = _refresh_seconds(faulted=False)
    faulted = _refresh_seconds(faulted=True)
    assert faulted <= 2.0 * clean, (
        f"containment overhead too high: {faulted:.3f}s faulted vs "
        f"{clean:.3f}s clean over {EPOCHS} epochs"
    )


def test_200_cycle_campaign_acceptance():
    config = CampaignConfig(seed=7, cycles=200)
    result = run_campaign(config)
    assert result.violation is None, str(result.violation)
    assert result.cycles_run == 200
    assert result.serial_checks == 200   # API == RTR == journal serial
    # The seeded plan exercises the full fault menu.
    planned_kinds = {fault.kind for fault in result.plan.faults}
    assert planned_kinds == set(FAULT_MENU)
    assert result.faults_fired > 0
    assert result.quarantined_objects > 0
    _TIMINGS["campaign"] = {
        "cycles": result.cycles_run,
        "faults_planned": len(result.plan),
        "faults_fired": result.faults_fired,
        "quarantined_objects": result.quarantined_objects,
        "degraded_points": result.degraded_points,
        "rtr_events": result.rtr_events,
        "serial_checks": result.serial_checks,
        "clean_vrps": result.clean_vrps,
        "violation": None,
    }


def test_write_artifact():
    clean = _refresh_seconds(faulted=False)
    faulted = _refresh_seconds(faulted=True)
    campaign = _TIMINGS.get("campaign", {})
    write_artifact("BENCH_chaos.json", json.dumps({
        "experiment": "chaos",
        "pins": {
            "faulted_over_clean_ratio": {
                "measured": round(faulted / clean, 3),
                "bound": 2.0, "op": "<=",
            },
            "campaign_violations": {
                "measured": 0 if campaign.get("violation") is None else 1,
                "bound": 0, "op": "==",
            },
        },
        "refresh_overhead": {
            "scale": {
                "isps_per_rir": MEDIUM.isps_per_rir,
                "customers_per_isp": MEDIUM.customers_per_isp,
                "suballocation_depth": MEDIUM.suballocation_depth,
                "seed": MEDIUM.seed,
            },
            "epochs": EPOCHS,
            "clean_seconds": round(clean, 4),
            "faulted_seconds": round(faulted, 4),
            "ratio": round(faulted / clean, 3),
            "bound": 2.0,
            "byzantine_load": [k.value for k in BYZANTINE_LOAD],
            "background_drop_rate": 0.02,
        },
        "campaign": campaign,
    }, indent=2) + "\n")
