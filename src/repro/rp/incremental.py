"""What a validator keeps between runs: point results and signature verdicts.

A relying party that keeps its cache complete (the property Side Effect 6
of the paper turns on) must revalidate it on every refresh — and a naive
validator pays for the *whole* repository every time: every object is
re-parsed and every RSA signature re-checked even when not a single byte
changed since the last epoch.  Production relying parties survive at
deployment scale because their steady-state cost is proportional to
*churn*, not repository size.  :class:`~repro.rp.PathValidator` gets the
same property from two pieces of state, neither of which changes a
single validation verdict:

- :class:`PointResult` — one publication point's local outcome, stored
  with the exact key under which replaying it is the same as
  recomputing it.  The validator keeps the result of every point its
  last run visited and replays a point whose key still matches.
- :class:`VerificationMemo` — signature verification is a pure function
  of ``(key, message, signature)``.  Objects are content-addressed (their
  ``hash_hex`` covers payload *and* signature), so the verdict for
  ``(object hash, key fingerprint)`` can be cached across runs; a hit
  skips the modular exponentiation entirely.  When a churned point is
  revalidated, its unchanged objects hit the memo, so one renewed ROA
  costs its own signature checks and the point's new manifest and CRL.

Reuse rules — the attack-safety contract
----------------------------------------

A stored point result is replayed only when **all** of the following
hold, otherwise the point is revalidated from bytes (the ``reason`` label
of ``repro_incremental_invalidations_total`` says which rule failed):

- ``new``: the previous run visited the point at all.
- ``issuer``: the issuing CA certificate is byte-identical.  A shrunk or
  reissued parent dirties every point it issues for.
- ``content``: every cached copy (primary and mirrors) of the point has
  the same content digest as when the result was computed, and the same
  set of copies is present.  A whacked, shrunk, replaced, or newly
  published object — and any CRL or manifest change, which live in the
  same point — therefore always dirties the point.
- ``time``: ``now`` is on the same side of every *time edge* of the
  point.  Every time predicate validation evaluates is ``edge <= now``
  for an edge of an object it parsed: ``not_before <= now`` (edge
  ``not_before``), ``now <= not_after`` (false from edge
  ``not_after + 1`` on) and ``next_update < now`` (``next_update`` is the
  CRL's or manifest's ``not_after``, so the same edge).  The validator
  records both edges of every object the point's validation parsed,
  embedded EE certificates included, so the count of edges ``<= now`` —
  one ``bisect_right`` — fixes every predicate.  An issue whose message
  quotes ``now`` (an expired object, a stale CRL or manifest) adds the
  edges ``now`` and ``now + 1``, so that point replays only at the same
  instant.  Clocks here can be rewound; the rule holds in both
  directions.

The manifest policy is not part of the key: a validator's policy is fixed
when it is built, and each validator keeps its own results.

Because reuse replays the exact issues, certificates, ROAs, and VRPs the
cold computation produced, a warm run is byte-for-byte identical to a
fresh validator's run on the same cache — the property
``tests/rp/test_incremental.py`` enforces after whacking, revocation, and
expiry events, and ``benchmarks/test_bench_incremental.py`` pins the
zero-churn/zero-verification headline claim.

There is no parse memo: keeping every parsed object alive costs more
memory than the whole lean refresh it would speed up, and point replay
already skips the parses of every unchanged point.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..crypto import RsaPublicKey, sha256
from ..rpki.ghostbusters import GhostbustersRecord
from ..rpki.objects import SignedObject
# Not called here: the pipeline benchmark's tracer wraps this binding by
# name, and a traced run fails if it is missing.
from ..rpki.parse import parse_object  # noqa: F401
from ..rpki.roa import Roa
from .vrp import VRP

__all__ = [
    "MEMO_ENTRIES",
    "PointResult",
    "VerificationMemo",
    "time_signature",
]

# Verdicts the memo holds before it is cleared wholesale: room for every
# signature of an internet-small deployment (about two per ROA), and a
# bound for long-running monitors.
MEMO_ENTRIES = 65536


def time_signature(edges: tuple[int, ...], now: int) -> int:
    """How many of the sorted time *edges* are at or before *now*.

    Two instants with the same count evaluate every ``edge <= now``
    predicate identically (see the module docstring).
    """
    return bisect_right(edges, now)


class VerificationMemo:
    """Content-addressed cache of signature-verification verdicts.

    Keyed by the SHA-256 of ``(object hash, key fingerprint)``: the
    object's ``hash_hex`` covers its signed bytes *and* its signature,
    and the key fingerprint is the raw ``(modulus, exponent)`` pair, so a
    hit is exactly a re-verification of the same bytes under the same key
    — a pure recomputation, skipped.  One 32-byte digest per entry keeps
    an entry at about a third of what holding the hash string and the key
    integers would cost.  Holds at most :data:`MEMO_ENTRIES`
    verdicts; a full memo is cleared wholesale, which is crude but
    deterministic and safe (the memo is only ever an optimization).
    """

    def __init__(self) -> None:
        self._verdicts: dict[bytes, bool] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._verdicts)

    def verify_object(self, obj: SignedObject, key: RsaPublicKey) -> bool:
        """Memoized ``obj.verify_signature(key)``."""
        modulus, exponent = key.cache_key
        memo_key = sha256(b"%s:%x:%x" % (obj.hash_hex.encode(), modulus,
                                          exponent))
        verdict = self._verdicts.get(memo_key)
        if verdict is not None:
            self.hits += 1
            return verdict
        self.misses += 1
        verdict = obj.verify_signature(key)
        if len(self._verdicts) >= MEMO_ENTRIES:
            self._verdicts.clear()
        self._verdicts[memo_key] = verdict
        return verdict


@dataclass(frozen=True)
class PointResult:
    """One publication point's local validation outcome, replayable.

    *Local* means everything the point itself contributed to the
    :class:`~repro.rp.pathval.ValidationRun` — issues, accepted child CA
    certificates (in file order; the caller recurses into them), ROAs and
    their VRPs, the validated contact — but nothing from child subtrees.
    ``roa_count`` is the number of validated ROAs; a lean validator
    leaves ``roas`` empty and keeps only this count.

    ``fingerprint`` is the reuse key (issuer certificate hash, per-copy
    content digests); ``edges`` are the sorted time edges of every object
    the computation parsed and ``time_sig`` is
    ``time_signature(edges, now)`` at the instant it ran.
    """

    fingerprint: tuple
    edges: tuple[int, ...]
    time_sig: int
    selected_uri: str
    issues: tuple = ()
    children: tuple = ()
    roas: tuple[Roa, ...] = ()
    roa_count: int = 0
    vrps: tuple[VRP, ...] = ()
    contact: GhostbustersRecord | None = None
