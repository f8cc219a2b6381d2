"""Chaos campaigns: Byzantine faults, containment invariants, shrinking.

The adversarial counterpart of the validation stack.  ``repro.chaos``
composes the delivery-layer fault injector's full menu — timing faults,
byte corruption, and the Byzantine authority behaviors of the
misbehaving-RPKI-authorities threat model — into seeded, re-executable
campaigns over generated deployments, and checks on every refresh cycle
that the relying parties uphold their robustness contract:

- **safety**: a faulted relying party never validates a VRP the clean
  one would not (faults subtract, never invent);
- **equivalence**: a faulted relying party's warm run equals a cold
  validator's run over the same cache, and an attached RTR router
  matches it after resync;
- **no-crash**: no fault, however malformed, escapes containment as an
  unhandled exception;
- **bounded interference**: a relying party running the fetch scheduler
  never lets one slow or amplifying authority age *unrelated*
  authorities' cached points beyond a configured staleness bound.

When an invariant breaks, :func:`shrink_plan` re-executes reduced fault
plans (everything is a pure function of seed + plan) until it finds a
minimal reproducer.  :func:`measure_stalloris` stages the amplified
slowdown attack on its own and quantifies the time-to-stale downgrade
with and without the scheduler defense.  Entry points: ``python -m repro
chaos`` and ``python -m repro stalloris``.
"""

from .campaign import (
    CampaignConfig,
    CampaignResult,
    Violation,
    run_campaign,
    shrink_plan,
)
from .plan import FAULT_MENU, FaultPlan, PlannedFault, build_plan
from .stalloris import (
    StallorisConfig,
    StallorisReport,
    StallorisRun,
    measure_stalloris,
)

__all__ = [
    "FAULT_MENU",
    "CampaignConfig",
    "CampaignResult",
    "FaultPlan",
    "PlannedFault",
    "StallorisConfig",
    "StallorisReport",
    "StallorisRun",
    "Violation",
    "build_plan",
    "measure_stalloris",
    "run_campaign",
    "shrink_plan",
]
