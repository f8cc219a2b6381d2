"""Correctness gates: every timed step is checked against ground truth.

The truth side never runs the relying party: expected VRPs are read off
the world's issuing authorities (``issued_roas``), so a refresh that
drops, invents or mis-normalizes a VRP is caught.  Each failed gate is
one failed operation; the run's ``failed / attempted`` is the
``ops_failed_ratio`` and any failure makes the run incorrect.
"""

from __future__ import annotations

from repro.rp.origin import validate
from repro.rp.vrp import VRP
from repro.rtr.router_client import RouterState

# Divergences kept per run for the report (all are counted).
_MAX_REPORTED = 20


def expected_vrps(world) -> frozenset[VRP]:
    """The VRPs the world's issued ROAs authorize.

    A ROA prefix without a maxLength authorizes exactly its own length
    (RFC 6482), so ``max_length None`` is normalized to the prefix length.
    """
    out = set()
    for ca in world.authorities():
        for roa in ca.issued_roas.values():
            asn = roa.asn
            for entry in roa.prefixes:
                prefix = entry.prefix
                max_length = (
                    prefix.length if entry.max_length is None
                    else entry.max_length
                )
                out.add(VRP(prefix, max_length, asn))
    return frozenset(out)


class Gates:
    """Counts attempted and failed operations and records what diverged."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.divergences: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.divergences) < _MAX_REPORTED:
                self.divergences.append(what)
        return ok

    def refresh(self, label: str, report, world) -> None:
        """A refresh is clean and its VRPs equal the world's truth."""
        got = report.vrps.as_frozenset()
        want = expected_vrps(world)
        issues = report.run.issues
        degraded = report.degradation.degraded_points
        detail = ""
        if got != want:
            missing = sorted(want - got)[:3]
            extra = sorted(got - want)[:3]
            detail = (f"; {len(want - got)} missing (e.g. "
                      f"{', '.join(map(str, missing))}), {len(got - want)} "
                      f"unexpected (e.g. {', '.join(map(str, extra))})")
        if issues:
            detail += f"; {len(issues)} issue(s), first: {issues[0]}"
        if degraded:
            detail += f"; degraded points: {degraded[:3]}"
        self.check(
            got == want and not issues and not degraded,
            f"{label}: VRP set diverged from issued ROAs{detail}",
        )

    def sessions(self, label: str, clients, server, rp_vrps) -> None:
        """Every router session is SYNCED at the server's serial and
        holds exactly the relying party's VRPs."""
        want = rp_vrps.as_frozenset()
        for index, client in enumerate(clients):
            state_ok = (
                client.state is RouterState.SYNCED
                and client.serial == server.serial
                and not client.errors
            )
            got = client.vrp_set().as_frozenset()
            self.check(
                state_ok and got == want,
                f"{label}: router session {index} is {client.state.value} "
                f"at serial {client.serial}/{server.serial}, holds "
                f"{len(got)} VRPs vs {len(want)} "
                f"({len(got ^ want)} differ), errors {client.errors[:1]}",
            )

    def answers(self, label: str, kept, not_ok: int, queries, vrps) -> None:
        """Every API answer is OK; a seeded sample equals direct validation.

        *kept* maps sampled query indices to the answers served.
        """
        self.check(not_ok == 0,
                   f"{label}: {not_ok} of {len(queries)} answers not OK")
        for index, response in sorted(kept.items()):
            prefix, origin = queries[index]
            served = response.payload
            direct = validate(prefix, origin, vrps)
            self.check(
                served == direct,
                f"{label}: query {prefix} AS{origin} served "
                f"{getattr(served, 'state', served)} but direct validation "
                f"says {direct.state}",
            )
