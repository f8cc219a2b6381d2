"""Seed-derived inputs: world configs, authority churn and query streams.

Everything a run feeds the program comes from here and from the
workload seed alone; the program under test only ever sees the
generated inputs (a ``DeploymentConfig``, CA actions, queries).  Each
input family draws from its own RNG stream so that, for example, a
longer query burst does not shift the churn choices.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
from dataclasses import dataclass

from repro.modelgen import INTERNET_SCALES, DeploymentConfig
from repro.rp.vrp import VRP

# Simulated seconds between churn cycles.  Manifests and CRLs are valid
# for a day, so even a long run stays far from any expiry and every
# untouched object keeps validating.
CYCLE_SECONDS = 600

# First origin AS of ROAs the churn issues; above every generated AS.
CHURN_ASN_BASE = 4_200_000_000

# Offset that turns a VRP's origin into a forged one.
FORGED_ASN_OFFSET = 1_000_000


def stream(seed: int, purpose: str) -> random.Random:
    """An RNG for one input family, a pure function of (seed, purpose)."""
    return random.Random(f"pipebench:{purpose}:{seed}")


def flat_config(seed: int) -> DeploymentConfig:
    """``internet-small``: 10^4 ROAs, 205 authorities, 2 discovery rounds."""
    return dataclasses.replace(INTERNET_SCALES["internet-small"], seed=seed)


def deep_config(seed: int) -> DeploymentConfig:
    """Hierarchical world: 1,920 ROAs, 965 authorities, 7 discovery rounds."""
    return DeploymentConfig(
        seed=seed, isps_per_rir=12, customers_per_isp=3,
        suballocation_depth=4, roas_per_customer=2,
    )


@dataclass(frozen=True)
class Change:
    """One authority action applied between two refreshes."""

    action: str          # "renew", "revoke" or "issue"
    authority: str       # CA handle
    roa: str             # file name of the ROA renewed, revoked or issued

    def __str__(self) -> str:
        return f"{self.action} {self.authority}/{self.roa}"


class Churn:
    """Applies one seeded authority change per cycle to a world.

    The seed picks the authority and the ROA; the action follows the
    fixed rotation *actions*, so that every seed puts the same kind of
    change in the same cycle.  (A renewal leaves the VRP set unchanged,
    so the RTR cache keeps its snapshot and the query plane its cached
    answers; drawing the action at random would make that differ from
    seed to seed.)  The refresh workloads rotate revoke, renew, issue;
    the serving workload only revokes and issues, so that every cycle
    really changes the VRP set and invalidates the query plane's
    content-addressed cache.
    """

    def __init__(self, seed: int, actions: tuple[str, ...]):
        self._rng = stream(seed, "churn")
        self._actions = actions
        self._cycle = 0

    def apply(self, world) -> Change:
        rng = self._rng
        cycle = self._cycle
        self._cycle += 1
        authorities = [ca for ca in world.authorities() if ca.issued_roas]
        ca = authorities[rng.randrange(len(authorities))]
        names = sorted(ca.issued_roas)
        name = names[rng.randrange(len(names))]
        action = self._actions[cycle % len(self._actions)]
        if action == "renew":
            ca.renew_roa(name)
        elif action == "revoke":
            ca.revoke_roa(name)
        else:
            prefix = ca.issued_roas[name].prefixes[0].prefix
            name, _roa = ca.issue_roa(
                CHURN_ASN_BASE + cycle, str(prefix),
                name=f"pipebench-{cycle}.roa",
            )
        world.clock.advance(CYCLE_SECONDS)
        return Change(action, ca.handle, name)


class QueryStream:
    """Zipf-skewed ``validate_route`` keys over a fixed key universe.

    Half the universe are VRP-matching (prefix, origin) pairs and half
    forged-origin pairs on the same prefixes.  Key rank ``r`` is drawn
    with weight ``1 / r`` (Zipf), so a few keys are hot and the long tail
    keeps the response cache missing.  Popularity ranks are shuffled so
    hot keys are spread over the address space.
    """

    def __init__(self, seed: int, vrps: list[VRP], *, universe: int):
        rng = stream(seed, "queries")
        chosen = rng.sample(sorted(vrps), min(universe // 2, len(vrps)))
        keys: list[tuple[str, int]] = []
        for vrp in chosen:
            keys.append((str(vrp.prefix), int(vrp.asn)))
            keys.append((str(vrp.prefix), int(vrp.asn) + FORGED_ASN_OFFSET))
        rng.shuffle(keys)
        self.keys = keys
        cumulative = []
        total = 0.0
        for rank in range(1, len(keys) + 1):
            total += 1.0 / rank
            cumulative.append(total)
        self._cumulative = cumulative
        self._total = total
        self._rng = rng

    def burst(self, size: int) -> list[tuple[str, int]]:
        """The next *size* queries of the stream."""
        rng = self._rng
        cumulative = self._cumulative
        total = self._total
        keys = self.keys
        last = len(keys) - 1
        return [
            keys[min(bisect.bisect_left(cumulative, rng.random() * total), last)]
            for _ in range(size)
        ]
