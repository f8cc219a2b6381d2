"""Experiment ``incremental``: steady-state revalidation cost vs churn.

The relying party must keep its cache complete and current (Side Effect
6), which in practice means revalidating it on every refresh.  This
benchmark pins the property that makes that sustainable at deployment
scale (the ROADMAP north star): a relying party's validator replays
unchanged publication points and memoizes signature verdicts, so a
refresh's *cryptographic* cost is proportional to what changed, not to
how much is cached.

Two claims are asserted, not just timed:

1. **Zero churn, zero verifications.**  A warm refresh over an unchanged
   repository performs exactly 0 RSA signature verifications (measured by
   the ``repro_crypto_verify_total`` counter, which only the real modular
   exponentiation increments) — and still produces a ``ValidationRun``
   equal to the cold run's.
2. **Cost tracks churn, not size.**  After renewing a single ROA, the
   warm refresh re-verifies only the affected publication point — the
   same small constant at 120-ROA and 300-ROA deployments, while the
   cold cost more than doubles between them.
"""

import pytest

from conftest import write_artifact

from repro import default_registry
from repro.modelgen import DeploymentConfig, build_deployment
from repro.repository import Fetcher
from repro.rp import RelyingParty

SCALES = {
    "medium": DeploymentConfig(isps_per_rir=6, customers_per_isp=2, seed=21),
    "large": DeploymentConfig(isps_per_rir=12, customers_per_isp=3, seed=21),
}

# scale -> (roa_count, cold_verifies, churn_verifies)
_RESULTS: dict[str, tuple[int, float, float]] = {}


def _verify_total() -> float:
    counter = default_registry().get("repro_crypto_verify_total")
    return (counter.value(outcome="accepted")
            + counter.value(outcome="rejected"))


def _make_rp(world) -> RelyingParty:
    return RelyingParty(
        world.trust_anchors,
        Fetcher(world.registry, world.clock),
        world.clock,
    )


def test_zero_churn_refresh_verifies_nothing(benchmark):
    world = build_deployment(SCALES["medium"])
    rp = _make_rp(world)
    cold = rp.refresh()

    before = _verify_total()
    warm = rp.refresh()
    assert _verify_total() - before == 0, (
        "a zero-churn warm refresh must skip every RSA verification"
    )
    assert warm.run == cold.run, (
        "memoization must not change validation output"
    )

    # Timed portion: the steady-state refresh (fetch sweep + replayed
    # validation).  Every benchmark round is warm and churn-free.
    report = benchmark(rp.refresh)
    assert report.run == cold.run
    points = rp.metrics.get("repro_validation_points_total")
    assert points.value(outcome="replayed") > 0


@pytest.mark.parametrize("scale", list(SCALES))
def test_warm_cost_tracks_churn_not_size(benchmark, scale):
    world = build_deployment(SCALES[scale])
    rp = _make_rp(world)
    before = _verify_total()
    rp.refresh()
    cold_verifies = _verify_total() - before

    churned_ca = next(ca for ca in world.authorities() if ca.issued_roas)
    roa_name = next(iter(churned_ca.issued_roas))

    churned_ca.renew_roa(roa_name)
    before = _verify_total()
    rp.refresh()
    churn_verifies = _verify_total() - before
    assert 0 < churn_verifies < cold_verifies * 0.05, (
        "renewing one ROA must re-verify only its publication point"
    )
    _RESULTS[scale] = (world.roa_count(), cold_verifies, churn_verifies)

    def churn_and_refresh():
        churned_ca.renew_roa(roa_name)
        return rp.refresh()

    report = benchmark(churn_and_refresh)
    assert report.run.errors() == []

    if scale == "large" and "medium" in _RESULTS:
        m_roas, m_cold, m_churn = _RESULTS["medium"]
        l_roas, l_cold, l_churn = _RESULTS["large"]
        # Cold work grows with the deployment; churn work does not.
        assert l_cold / m_cold >= 2.0
        assert l_churn <= m_churn * 1.5
        lines = [
            "scale    ROAs  cold-verifies  one-roa-churn-verifies",
            f"medium   {m_roas:>4}  {int(m_cold):>13}  {int(m_churn):>22}",
            f"large    {l_roas:>4}  {int(l_cold):>13}  {int(l_churn):>22}",
            "",
            "zero churn -> zero verifications; warm == cold ValidationRun",
            "(timings in the pytest-benchmark table)",
        ]
        write_artifact("incremental_churn.txt", "\n".join(lines))
