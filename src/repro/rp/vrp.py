"""Validated ROA payloads (VRPs) and the indexed set route validation uses.

Path validation reduces every valid ROA to one or more VRPs — the triple
``(prefix, maxLength, asn)`` of RFC 6811.  :class:`VrpSet` indexes them in
a radix trie so that finding the *covering* VRPs of a route (the central
query of origin validation) is a single trie walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..resources import ASN, Prefix, PrefixMap

__all__ = ["VRP", "VrpSet"]


@dataclass(frozen=True, order=True)
class VRP:
    """One validated ROA payload: prefix, maxLength, origin ASN."""

    prefix: Prefix
    max_length: int
    asn: ASN

    def __post_init__(self) -> None:
        if not self.prefix.length <= self.max_length <= self.prefix.afi.bits:
            raise ValueError(
                f"maxLength {self.max_length} out of range for {self.prefix}"
            )

    @classmethod
    def parse(cls, text: str, asn: ASN | int) -> "VRP":
        """Parse the paper's ``"63.160.0.0/12-13"`` notation."""
        from ..rpki.roa import RoaPrefix

        roa_prefix = RoaPrefix.parse(text)
        return cls(
            prefix=roa_prefix.prefix,
            max_length=roa_prefix.effective_max_length,
            asn=ASN(int(asn)),
        )

    def covers(self, prefix: Prefix) -> bool:
        """True if this VRP is a *covering* ROA for the prefix (any ASN)."""
        return self.prefix.covers(prefix)

    def matches(self, prefix: Prefix, origin: ASN) -> bool:
        """The RFC 6811 *matching* test: covers, within maxLength, same AS."""
        return (
            self.prefix.covers(prefix)
            and prefix.length <= self.max_length
            and self.asn == origin
        )

    def __str__(self) -> str:
        if self.max_length == self.prefix.length:
            return f"({self.prefix}, {self.asn})"
        return f"({self.prefix}-{self.max_length}, {self.asn})"


class VrpSet:
    """An immutable-after-build, trie-indexed collection of VRPs.

    Iteration order, equality, and the delta methods all work over the
    *sorted* VRP list; that view (and a frozenset twin used for membership
    algebra) is computed once per mutation epoch and cached —
    :meth:`add` invalidates both — so the monitor's per-epoch set
    comparisons stop paying an O(n log n) sort per call.
    """

    def __init__(self, vrps: Iterable[VRP] = ()):
        self._index: PrefixMap[list[VRP]] = PrefixMap()
        self._all: list[VRP] = []
        self._members: set[VRP] = set()
        self._sorted: list[VRP] | None = None
        self._frozen: frozenset[VRP] | None = None
        self._content_hash: str | None = None
        self._by_asn: dict[ASN, tuple[VRP, ...]] | None = None
        self.extend(vrps)

    def add(self, vrp: VRP) -> None:
        if vrp in self._members:
            return
        self._insert(vrp)
        self._invalidate()

    def extend(self, vrps: Iterable[VRP]) -> int:
        """Bulk-add *vrps* with a single cache invalidation at the end.

        The fast path for construction: membership is one set probe per
        VRP (no per-bucket scan) and the sorted/frozen/hash/by-ASN views
        are dropped once for the whole batch instead of once per element.
        Returns how many VRPs were actually new.
        """
        added = 0
        for vrp in vrps:
            if vrp in self._members:
                continue
            self._insert(vrp)
            added += 1
        if added:
            self._invalidate()
        return added

    def _insert(self, vrp: VRP) -> None:
        bucket = self._index.get_or_insert(vrp.prefix, list)
        bucket.append(vrp)
        self._all.append(vrp)
        self._members.add(vrp)

    def _invalidate(self) -> None:
        self._sorted = None
        self._frozen = None
        self._content_hash = None
        self._by_asn = None

    def covering(self, prefix: Prefix) -> Iterator[VRP]:
        """All VRPs whose prefix covers *prefix*, least-specific first."""
        for _, bucket in self._index.covering(prefix):
            yield from bucket

    def _sorted_view(self) -> list[VRP]:
        if self._sorted is None:
            self._sorted = sorted(self._all)
        return self._sorted

    def as_frozenset(self) -> frozenset[VRP]:
        """This set's VRPs as a (cached) frozenset, for set algebra."""
        if self._frozen is None:
            self._frozen = frozenset(self._members)
        return self._frozen

    def content_hash(self) -> str:
        """A SHA-256 fingerprint of this set's *content*, cached per epoch.

        Two sets holding the same VRPs hash identically no matter how
        they were built — the content-addressed idiom the incremental
        engine uses for its memos, reused by ``repro.api`` to key its
        response cache so any refresh-induced VRP change changes the key
        and an unchanged set keeps every cached answer warm.
        """
        if self._content_hash is None:
            from ..crypto.hashing import sha256_hex

            payload = "\n".join(str(v) for v in self._sorted_view())
            self._content_hash = sha256_hex(payload.encode("utf-8"))
        return self._content_hash

    def by_asn(self, asn: ASN | int) -> tuple[VRP, ...]:
        """All VRPs authorizing *asn* as origin, sorted (cached per epoch).

        The per-ASN inverse of :meth:`covering` — the query plane's
        ``lookup_asn`` endpoint.  The index is built lazily on first use
        and invalidated by :meth:`add` like the other cached views.
        """
        if self._by_asn is None:
            index: dict[ASN, list[VRP]] = {}
            for vrp in self._sorted_view():
                index.setdefault(vrp.asn, []).append(vrp)
            self._by_asn = {a: tuple(vs) for a, vs in index.items()}
        return self._by_asn.get(ASN(int(asn)), ())

    def __iter__(self) -> Iterator[VRP]:
        return iter(self._sorted_view())

    def __len__(self) -> int:
        return len(self._all)

    def __contains__(self, vrp: VRP) -> bool:
        return vrp in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VrpSet):
            return NotImplemented
        return self._sorted_view() == other._sorted_view()

    def added(self, previous: "VrpSet") -> list[VRP]:
        """VRPs in this set that *previous* lacked, sorted.

        The per-epoch monitor delta: with both frozensets cached this is
        one set difference, not a membership probe per element.
        """
        return sorted(self.as_frozenset() - previous.as_frozenset())

    def removed(self, previous: "VrpSet") -> list[VRP]:
        """VRPs *previous* had that this set lacks, sorted (whack signal)."""
        return sorted(previous.as_frozenset() - self.as_frozenset())

    def __repr__(self) -> str:
        return f"VrpSet({len(self._all)} VRPs)"
