"""Experiment ``scale``: deployment size vs validation cost (footnote 4).

The paper notes production deployment was ~1200-1400 ROAs, "less than 1%
of projected deployment."  This benchmark sweeps the synthetic generator
across deployment scales and measures full relying-party validation
(fetch + path validation + VRP extraction), the operation whose cost
growth determines whether relying parties can keep their caches complete
— completeness being the property Side Effect 6 turns on.

Two families:

1. The hierarchical shapes (tens to hundreds of ROAs) time the full
   refresh under pytest-benchmark, as before.
2. The flat Internet-scale family (:data:`repro.modelgen.INTERNET_SCALES`,
   10⁴–10⁵ ROAs) pins the projected-deployment claims in
   ``BENCH_scale.json``:

   - a cold streaming (lean serial) refresh completes inside a wall-clock
     and per-VRP budget;
   - a warm zero-churn refresh performs **zero** RSA
     verifications;
   - renewing one ROA costs exactly **4** RSA verifications — O(1) in
     deployment size, the same constant the hierarchical worlds pin;
   - streaming peak memory stays bounded by a small constant plus a
     per-ROA term far below parsed-object size (no full-deployment
     materialization).

   ``REPRO_BENCH_SCALE=full`` extends the sweep to ``internet`` and
   ``internet-large`` (10⁵ ROAs; minutes of keygen+build).

Artifacts: ``scale_sweep.txt`` and ``BENCH_scale.json`` under
``benchmarks/artifacts/``.
"""

import json
import os
import time
import tracemalloc

import pytest

from conftest import write_artifact

from repro.modelgen import INTERNET_SCALES, DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.rp import RelyingParty
from repro.simtime import HOUR
from repro.telemetry import default_registry

SCALES = {
    "small": DeploymentConfig(isps_per_rir=2, customers_per_isp=1, seed=21),
    "medium": DeploymentConfig(isps_per_rir=6, customers_per_isp=2, seed=21),
    "large": DeploymentConfig(isps_per_rir=12, customers_per_isp=3, seed=21),
}

# The default run exercises internet-small (10^4 ROAs); the full sweep
# (REPRO_BENCH_SCALE=full) adds the 3x10^4 and 10^5 worlds, whose keygen
# and build take minutes on one core.
INTERNET_ENABLED = ["internet-small"]
if os.environ.get("REPRO_BENCH_SCALE") == "full":
    INTERNET_ENABLED += ["internet", "internet-large"]

# Pinned bounds (generous for slow CI; typical measurements in comments).
MAX_COLD_SECONDS = 60.0        # internet-small cold lean refresh: ~3.5 s
MAX_COLD_PER_VRP_MS = 3.0      # ~0.35 ms/VRP measured
WARM_VERIFIES = 0              # zero-churn warm refresh
CHURN_VERIFIES = 4             # manifest + CRL + EE cert + ROA, any scale
# Streaming peak: small constant + per-VRP term.  The non-lean path costs
# ~7 KB/ROA of parsed objects at 10^4 ROAs; the lean bound below (~2.5
# KB/ROA, covering the VRP set + trie + transient per-point parses) is
# unreachable with full-deployment materialization.
PEAK_BASE_BYTES = 16_000_000
PEAK_PER_ROA_BYTES = 2_500

_RESULTS: dict[str, tuple[int, int]] = {}
_INTERNET: dict[str, dict] = {}
_PINS: dict[str, dict] = {}
_WORLDS: dict[str, object] = {}


def _world(scale: str):
    """Build (once per module) the named Internet-scale world."""
    if scale not in _WORLDS:
        start = time.perf_counter()
        world = build_deployment(INTERNET_SCALES[scale])
        _WORLDS[scale] = (world, time.perf_counter() - start)
    return _WORLDS[scale]


def _verify_total() -> float:
    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def _pin(name: str, measured, bound, op: str) -> None:
    _PINS[name] = {"measured": measured, "bound": bound, "op": op}


@pytest.mark.parametrize("scale", list(SCALES))
def test_scale_validation(benchmark, scale):
    world = build_deployment(SCALES[scale])

    def validate():
        rp = RelyingParty(
            world.trust_anchors,
            Fetcher(world.registry, world.clock),
            world.clock,
        )
        report = rp.refresh()
        return rp, report

    rp, report = benchmark(validate)
    assert report.run.errors() == []
    assert len(rp.vrps) == world.roa_count()
    _RESULTS[scale] = (world.roa_count(), len(world.authorities()))

    if scale == "large":
        lines = ["scale    ROAs  authorities"]
        for name, (roas, authorities) in _RESULTS.items():
            lines.append(f"{name:<8} {roas:>4}  {authorities:>4}")
        lines.append("")
        lines.append("(timings in the pytest-benchmark table)")
        write_artifact("scale_sweep.txt", "\n".join(lines))


@pytest.mark.parametrize("scale", INTERNET_ENABLED)
def test_internet_cold_refresh_bounded(scale):
    world, build_seconds = _world(scale)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock), lean=True,
    )
    start = time.perf_counter()
    report = rp.refresh()
    cold_seconds = time.perf_counter() - start

    roas = world.roa_count()
    assert roas >= 10_000
    assert report.run.errors() == []
    assert len(rp.vrps) == roas
    per_vrp_ms = cold_seconds / roas * 1000
    assert cold_seconds <= MAX_COLD_SECONDS * max(1, roas // 10_000)
    assert per_vrp_ms <= MAX_COLD_PER_VRP_MS

    _INTERNET.setdefault(scale, {}).update({
        "roas": roas,
        "authorities": len(world.authorities()),
        "build_seconds": round(build_seconds, 3),
        "cold_seconds": round(cold_seconds, 3),
        "cold_per_vrp_ms": round(per_vrp_ms, 4),
        "rounds": report.rounds,
    })
    if scale == "internet-small":
        _pin("cold_refresh_seconds", round(cold_seconds, 3),
             MAX_COLD_SECONDS, "<=")
        _pin("cold_per_vrp_ms", round(per_vrp_ms, 4),
             MAX_COLD_PER_VRP_MS, "<=")


@pytest.mark.parametrize("scale", INTERNET_ENABLED)
def test_internet_streaming_memory_bounded(scale):
    # The bound scales with a per-ROA term far below parsed-object size,
    # so it is unreachable if the refresh materializes the deployment's
    # objects — the assertion behind "streaming".
    world, _build_seconds = _world(scale)
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock), lean=True,
    )
    tracemalloc.start()
    report = rp.refresh()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    roas = world.roa_count()
    bound = PEAK_BASE_BYTES + PEAK_PER_ROA_BYTES * roas
    assert report.run.validated_roas == []       # lean: counted, not kept
    assert report.run.roa_count == roas
    assert len(rp.vrps) == roas
    assert peak <= bound, (
        f"{scale}: streaming refresh peaked at {peak / 1e6:.1f} MB "
        f"(bound {bound / 1e6:.1f} MB) — objects are being materialized"
    )
    _INTERNET.setdefault(scale, {})["streaming_peak_mb"] = round(peak / 1e6, 2)
    if scale == "internet-small":
        _pin("streaming_peak_mb", round(peak / 1e6, 2),
             round(bound / 1e6, 2), "<=")


def test_internet_warm_and_churn_verifies_pinned():
    world, _build_seconds = _world("internet-small")
    rp = RelyingParty(
        world.trust_anchors, Fetcher(world.registry, world.clock),
    )
    world.clock.advance(HOUR)
    rp.refresh()                # cold: stores point results and verdicts

    world.clock.advance(HOUR)
    before = _verify_total()
    start = time.perf_counter()
    warm_report = rp.refresh()
    warm_seconds = time.perf_counter() - start
    warm_verifies = _verify_total() - before
    assert warm_verifies == WARM_VERIFIES, (
        f"zero-churn warm refresh performed {warm_verifies:.0f} RSA "
        "verifications"
    )
    assert len(warm_report.vrps) == world.roa_count()

    # Renew one ROA: exactly one publication point replays, at the same
    # 4-verification cost the 40-ROA hierarchical worlds pin — O(1) in
    # deployment size.
    churned = next(ca for ca in world.authorities() if ca.issued_roas)
    churned.renew_roa(next(iter(churned.issued_roas)))
    world.clock.advance(HOUR)
    before = _verify_total()
    start = time.perf_counter()
    churn_report = rp.refresh()
    churn_seconds = time.perf_counter() - start
    churn_verifies = _verify_total() - before
    assert churn_verifies == CHURN_VERIFIES, (
        f"one-ROA churn performed {churn_verifies:.0f} RSA verifications "
        f"(pinned {CHURN_VERIFIES})"
    )
    assert len(churn_report.vrps) == world.roa_count()

    _INTERNET.setdefault("internet-small", {}).update({
        "warm_seconds": round(warm_seconds, 3),
        "warm_rsa_verifies": int(warm_verifies),
        "churn_seconds": round(churn_seconds, 3),
        "churn_rsa_verifies": int(churn_verifies),
    })
    _pin("warm_zero_churn_rsa_verifies", int(warm_verifies),
         WARM_VERIFIES, "==")
    _pin("one_roa_churn_rsa_verifies", int(churn_verifies),
         CHURN_VERIFIES, "==")


def test_write_artifact():
    assert "internet-small" in _INTERNET
    for name in ("cold_refresh_seconds", "cold_per_vrp_ms",
                 "streaming_peak_mb", "warm_zero_churn_rsa_verifies",
                 "one_roa_churn_rsa_verifies"):
        assert name in _PINS, f"pin {name} never recorded"
    write_artifact("BENCH_scale.json", json.dumps({
        "experiment": "scale",
        "pins": _PINS,
        "internet_scales": _INTERNET,
        "sweep": {
            name: {"roas": roas, "authorities": authorities}
            for name, (roas, authorities) in _RESULTS.items()
        },
        "full_sweep": os.environ.get("REPRO_BENCH_SCALE") == "full",
    }, indent=2) + "\n")
