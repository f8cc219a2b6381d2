"""Certificate-path validation: from cached bytes to validated ROAs.

Implements the relying party's core algorithm (RFC 6487/6482/6486
semantics): starting from trust anchors, walk the certificate hierarchy
through the cached publication points, checking at every step

- signatures (issuer key signs child object),
- validity windows against simulated time,
- revocation against the issuer's CRL,
- resource coverage (child resources ⊆ issuing certificate's resources —
  the least-privilege rule whose *shrinking* is the whacking attack), and
- manifest consistency (with an explicit strictness policy, because the
  RFCs "do not specify what action should be taken" on mismatch — paper,
  Section 4).

Everything that fails produces a :class:`ValidationIssue` instead of an
exception: for a relying party, broken data is an input condition, and the
paper's entire Section 4 is about what those conditions do to routing.

Validation is organized around *publication points*: each accepted CA
certificate leads to one point, whose local outcome (issues, accepted
children, ROAs, VRPs, contact) is computed as a unit and only then
recursed into.  A validator keeps the unit of every point its last run
visited and replays it, instead of validating the point from bytes again,
when the point's fingerprint and time-edge signature both still match
(the rules are in :mod:`repro.rp.incremental`).  The same key makes a
relying party's discovery rounds validate each point once per refresh,
and makes a refresh after churn cost O(changed points).  Replay is exact:
a warm run equals a fresh validator's cold run on the same cache.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field

from ..crypto import RsaPublicKey, sha256_hex
from ..repository.cache import point_digest
from ..repository.uri import RsyncUri
from ..telemetry import MetricsRegistry, default_registry
from ..rpki.ca import CRL_FILE, MANIFEST_FILE
from ..rpki.cert import ResourceCertificate
from ..rpki.crl import Crl
from ..rpki.errors import ObjectFormatError
from ..rpki.manifest import Manifest
from ..rpki.parse import parse_object
from ..rpki.ghostbusters import GhostbustersRecord
from ..rpki.objects import SignedObject
from ..rpki.roa import Roa
from .incremental import PointResult, VerificationMemo, time_signature
from .vrp import VRP, VrpSet

__all__ = [
    "Severity",
    "ValidationIssue",
    "ValidationRun",
    "PathValidator",
]

_MAX_DEPTH = 32


class Severity(enum.Enum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found while validating cached RPKI data."""

    severity: Severity
    point_uri: str
    file_name: str
    code: str
    message: str

    def __str__(self) -> str:
        return (
            f"[{self.severity.value}] {self.point_uri}{self.file_name}: "
            f"{self.code}: {self.message}"
        )


@dataclass
class ValidationRun:
    """The output of one full path-validation pass."""

    vrps: VrpSet = field(default_factory=VrpSet)
    validated_cas: list[ResourceCertificate] = field(default_factory=list)
    validated_roas: list[Roa] = field(default_factory=list)
    issues: list[ValidationIssue] = field(default_factory=list)
    # Where each validated ROA was found: roa.hash_hex -> point URI.
    # Suspenders uses this to check revocation corroboration later.
    roa_locations: dict[str, str] = field(default_factory=dict)
    # Validated Ghostbusters contact per publication point URI.
    contacts: dict[str, GhostbustersRecord] = field(default_factory=dict)
    # Count of validated ROAs — equals len(validated_roas) except under
    # a lean (streaming) validator, which counts without retaining the
    # parsed Roa objects.
    roa_count: int = 0

    def errors(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.ERROR]

    def warnings(self) -> list[ValidationIssue]:
        return [i for i in self.issues if i.severity is Severity.WARNING]

    def has_issue(self, code: str) -> bool:
        return any(issue.code == code for issue in self.issues)


class PathValidator:
    """Validates a cache snapshot into a :class:`ValidationRun`.

    Parameters
    ----------
    trust_anchors:
        The self-signed certificates configured out of band (the TAL
        analog).  These are *axioms*: their resources are accepted as-is.
    strict_manifests:
        If True, a publication point whose manifest is missing, invalid,
        stale, or inconsistent with the fetched files is discarded whole.
        If False (default, matching deployed RP behaviour circa the
        paper), individual objects are still used and issues are recorded
        as warnings — the lenient end of the "what to do about incomplete
        information?" tradeoff.
    collect_objects:
        If False (the *lean* streaming mode), validated ROA objects and
        their locations are counted but not retained on the
        :class:`ValidationRun` — only VRPs, CA certificates, issues and
        contacts survive the pass.  At Internet scale this is the
        difference between O(point) and O(deployment) peak memory for a
        refresh; layers that need the objects themselves (Suspenders
        corroboration, the monitor) keep the default True.

    Every run stores the result of each point it visited and replays it
    on the next run while the point's key still matches; signature
    verdicts are memoized by content.  Replayed and freshly computed
    points take the identical code path, so a warm run's output is
    byte-for-byte equal to a fresh validator's.
    """

    def __init__(
        self,
        trust_anchors: list[ResourceCertificate],
        *,
        strict_manifests: bool = False,
        metrics: MetricsRegistry | None = None,
        collect_objects: bool = True,
    ):
        if not trust_anchors:
            raise ValueError("at least one trust anchor is required")
        self.trust_anchors = list(trust_anchors)
        self.strict_manifests = strict_manifests
        self.collect_objects = collect_objects
        self.verify_memo = VerificationMemo()
        # CA subject key id -> result, for every point the last run
        # visited (quarantined points excepted).
        self._points: dict[str, PointResult] = {}
        # Time edges of the objects parsed for the point being validated.
        self._edges: list[int] = []
        # Point visits across every run: validated from bytes vs replayed.
        self.points_validated = 0
        self.points_replayed = 0
        # Why points of the current run could not be replayed, by reason.
        self._dirty: Counter[str] = Counter()
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_runs = self.metrics.counter(
            "repro_validation_runs_total", help="full path-validation passes"
        )
        self._m_objects = self.metrics.counter(
            "repro_validation_objects_total",
            help="objects accepted by path validation, by type",
            labelnames=("type",),
        )
        self._m_issues = self.metrics.counter(
            "repro_validation_issues_total",
            help="validation issues recorded, by severity",
            labelnames=("severity",),
        )
        self._m_points = self.metrics.counter(
            "repro_validation_points_total",
            help="publication points visited by path validation, validated "
                 "from bytes vs replayed",
            labelnames=("outcome",),
        )
        self._m_invalidations = self.metrics.counter(
            "repro_incremental_invalidations_total",
            help="why a stored point result could not be replayed",
            labelnames=("reason",),
        )

    def run(
        self,
        cache_files: dict[str, dict[str, bytes]],
        now: int,
        *,
        digests: dict[str, str] | None = None,
    ) -> ValidationRun:
        """Validate everything reachable from the trust anchors.

        *cache_files* maps publication point URI → file name → bytes
        (the shape of :meth:`repro.repository.LocalCache.snapshot`).
        *digests* optionally maps point URI → content digest (the shape
        of :meth:`repro.repository.LocalCache.digests`); it keys point
        replay, and a visited point's digest is computed from its bytes
        when absent.
        """
        validated_before = self.points_validated
        replayed_before = self.points_replayed
        result = ValidationRun()
        seen_cas: set[str] = set()
        visited: dict[str, PointResult] = {}
        for anchor in self.trust_anchors:
            if not anchor.is_self_signed or not self._verify(
                anchor, anchor.subject_key
            ):
                result.issues.append(ValidationIssue(
                    Severity.ERROR, anchor.sia, "", "ta-bad-signature",
                    f"trust anchor {anchor.subject!r} is not properly self-signed",
                ))
                continue
            if not anchor.is_current(now):
                result.issues.append(ValidationIssue(
                    Severity.ERROR, anchor.sia, "", "ta-expired",
                    f"trust anchor {anchor.subject!r} not valid at t={now}",
                ))
                continue
            result.validated_cas.append(anchor)
            self._descend(anchor, cache_files, digests, now, result, seen_cas,
                          visited, depth=0)
        self._points = visited
        self._m_runs.inc()
        if self.points_validated > validated_before:
            self._m_points.inc(self.points_validated - validated_before,
                               outcome="validated")
        if self.points_replayed > replayed_before:
            self._m_points.inc(self.points_replayed - replayed_before,
                               outcome="replayed")
        for reason, count in self._dirty.items():
            self._m_invalidations.inc(count, reason=reason)
        self._dirty.clear()
        if result.validated_cas:
            self._m_objects.inc(len(result.validated_cas), type="ca")
        if result.roa_count:
            self._m_objects.inc(result.roa_count, type="roa")
        if result.contacts:
            self._m_objects.inc(len(result.contacts), type="ghostbusters")
        for severity in Severity:
            count = sum(1 for i in result.issues if i.severity is severity)
            if count:
                self._m_issues.inc(count, severity=severity.value)
        return result

    # -- memo-aware primitives ----------------------------------------------

    def _verify(self, obj: SignedObject, key: RsaPublicKey) -> bool:
        """Signature check, via the verification memo."""
        return self.verify_memo.verify_object(obj, key)

    def _parse(self, data: bytes) -> SignedObject:
        """Parse, recording the object's time edges for the current point.

        Only integer fields become edges.  Any other value makes every
        comparison against ``now`` raise, whatever ``now`` is, so it can
        never make a verdict depend on the clock.
        """
        obj = parse_object(data)
        for signed in (obj, getattr(obj, "ee_cert", None)):
            if signed is None:
                continue
            not_before = signed.payload.get("not_before")
            not_after = signed.payload.get("not_after")
            if isinstance(not_before, int):
                self._edges.append(not_before)
            if isinstance(not_after, int):
                self._edges.append(not_after + 1)
        return obj

    def _stamp(self, now: int) -> int:
        """*now*, for an issue message that quotes it.

        Such a message is only exact at this very instant, so the point
        gets the edges ``now`` and ``now + 1`` and replays only at *now*.
        """
        self._edges += (now, now + 1)
        return now

    # -- internals ----------------------------------------------------------

    def _descend(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        digests: dict[str, str] | None,
        now: int,
        result: ValidationRun,
        seen_cas: set[str],
        visited: dict[str, PointResult],
        depth: int,
    ) -> None:
        """Validate (or replay) the publication point of one accepted CA
        certificate, then recurse into its accepted children."""
        if depth > _MAX_DEPTH:
            result.issues.append(ValidationIssue(
                Severity.ERROR, ca_cert.sia, "", "depth-exceeded",
                "certificate chain deeper than the validator allows",
            ))
            return
        key_id = ca_cert.subject_key_id
        if key_id in seen_cas:
            return  # loop guard (malicious self-recertification)
        seen_cas.add(key_id)

        fingerprint = self._point_fingerprint(ca_cert, cache_files, digests)
        entry = self._replayable(key_id, fingerprint, now)
        if entry is not None:
            self.points_replayed += 1
            visited[key_id] = entry
        else:
            self.points_validated += 1
            try:
                entry = self._validate_point(
                    ca_cert, cache_files, now, fingerprint
                )
            except Exception as exc:  # containment: one bad point ≠ dead run
                # Never stored: the next run retries the point from bytes.
                entry = self._quarantined_point(ca_cert, exc)
            else:
                visited[key_id] = entry

        # Apply the point's local outcome, then recurse into the subtree.
        # Replayed and freshly computed results take the identical path, so
        # warm output is byte-for-byte equal to cold output by construction.
        result.issues.extend(entry.issues)
        if entry.contact is not None:
            result.contacts[entry.selected_uri] = entry.contact
        result.roa_count += entry.roa_count
        if self.collect_objects:
            for roa in entry.roas:
                result.validated_roas.append(roa)
                result.roa_locations[roa.hash_hex] = entry.selected_uri
        result.vrps.extend(entry.vrps)
        for child in entry.children:
            result.validated_cas.append(child)
            self._descend(child, cache_files, digests, now, result, seen_cas,
                          visited, depth + 1)

    def _replayable(
        self, key_id: str, fingerprint: tuple, now: int
    ) -> PointResult | None:
        """The last run's result for this CA's point, if still exact at
        *now*; None — after noting why — when the point is dirty."""
        entry = self._points.get(key_id)
        if entry is None:
            reason = "new"
        elif entry.fingerprint[0] != fingerprint[0]:
            reason = "issuer"
        elif entry.fingerprint != fingerprint:
            reason = "content"
        elif time_signature(entry.edges, now) != entry.time_sig:
            reason = "time"
        else:
            return entry
        self._dirty[reason] += 1
        return None

    def _point_fingerprint(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        digests: dict[str, str] | None,
    ) -> tuple:
        """The exact reuse key for one CA's publication point.

        Covers the issuing certificate (byte hash — a reissued or shrunk
        parent always dirties the point, and the issuer CRL lives *in*
        the point so content covers it) and the content digest of every
        cached copy, primary and mirrors alike.
        """
        copies = []
        for uri in (_normalize(u) for u in ca_cert.all_publication_uris):
            files = cache_files.get(uri)
            if files is None:
                continue
            digest = digests.get(uri) if digests is not None else None
            copies.append((uri, digest or point_digest(files)))
        return (ca_cert.hash_hex, tuple(copies))

    def _validate_point(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        now: int,
        fingerprint: tuple,
    ) -> PointResult:
        """Cold-validate one publication point into a replayable result."""
        issues: list[ValidationIssue] = []
        self._edges = []

        point_uri, files, manifest = self._select_point_copy(
            ca_cert, cache_files, now
        )
        if files is None:
            issues.append(ValidationIssue(
                Severity.ERROR, _normalize(ca_cert.sia), "", "point-missing",
                f"publication point of {ca_cert.subject!r} absent from cache",
            ))
            return self._finish_point(
                now, fingerprint, point_uri, issues, [], [], [], None,
            )
        if point_uri != _normalize(ca_cert.sia):
            issues.append(ValidationIssue(
                Severity.WARNING, _normalize(ca_cert.sia), "", "using-mirror",
                f"primary copy unusable or absent; using mirror {point_uri}",
            ))

        crl = self._load_crl(point_uri, files, ca_cert, now, issues)
        usable = self._apply_manifest(
            point_uri, files, ca_cert, now, issues, manifest
        )
        children: list[ResourceCertificate] = []
        roas: list[Roa] = []
        vrps: list[VRP] = []
        contact: GhostbustersRecord | None = None
        if usable is not None:  # strict mode may discard the point whole
            for file_name in sorted(usable):
                if file_name in (CRL_FILE, MANIFEST_FILE):
                    continue
                data = usable[file_name]
                try:
                    obj = self._parse(data)
                except ObjectFormatError as exc:
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name, "parse-failed",
                        str(exc),
                    ))
                    continue
                except Exception as exc:
                    # Anything past the format layer (decoder recursion
                    # blow-ups, pathological payloads) quarantines just
                    # this object; siblings keep validating.
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name,
                        "object-quarantined",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                try:
                    if isinstance(obj, ResourceCertificate):
                        child = self._check_child_cert(
                            point_uri, file_name, obj, ca_cert, crl, now, issues
                        )
                        if child is not None:
                            children.append(child)
                    elif isinstance(obj, Roa):
                        roa = self._check_roa(
                            point_uri, file_name, obj, ca_cert, crl, now, issues
                        )
                        if roa is not None:
                            roas.append(roa)
                            for roa_prefix in roa.prefixes:
                                vrps.append(VRP(
                                    prefix=roa_prefix.prefix,
                                    max_length=roa_prefix.effective_max_length,
                                    asn=roa.asn,
                                ))
                    elif isinstance(obj, GhostbustersRecord):
                        record = self._check_ghostbusters(
                            point_uri, file_name, obj, ca_cert, crl, now, issues
                        )
                        if record is not None:
                            contact = record
                    else:
                        issues.append(ValidationIssue(
                            Severity.WARNING, point_uri, file_name,
                            "unexpected-type",
                            f"unexpected object type {obj.TYPE!r} in publication point",
                        ))
                except Exception as exc:
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name,
                        "object-quarantined",
                        f"{type(exc).__name__}: {exc}",
                    ))
                    continue
        return self._finish_point(
            now, fingerprint, point_uri, issues, children, roas, vrps, contact,
        )

    def _finish_point(
        self,
        now: int,
        fingerprint: tuple,
        point_uri: str,
        issues: list[ValidationIssue],
        children: list[ResourceCertificate],
        roas: list[Roa],
        vrps: list[VRP],
        contact: GhostbustersRecord | None,
    ) -> PointResult:
        """Package a point's outcome with the time edges it parsed."""
        edges = tuple(sorted(set(self._edges)))
        return PointResult(
            fingerprint=fingerprint,
            edges=edges,
            time_sig=time_signature(edges, now),
            selected_uri=point_uri,
            issues=tuple(issues),
            children=tuple(children),
            # Lean mode keeps no parsed ROA past its point: the count is
            # all a lean run (or a replay of this entry) needs.
            roas=tuple(roas) if self.collect_objects else (),
            roa_count=len(roas),
            vrps=tuple(vrps),
            contact=contact,
        )

    @staticmethod
    def _quarantined_point(
        ca_cert: ResourceCertificate, exc: Exception
    ) -> PointResult:
        """An empty result for a point whose validation raised.

        Deliberately never stored: the next run retries the point from
        scratch instead of replaying the failure.
        """
        issue = ValidationIssue(
            Severity.ERROR, _normalize(ca_cert.sia), "", "point-quarantined",
            f"validation raised {type(exc).__name__}: {exc}",
        )
        return PointResult(
            fingerprint=(),
            edges=(),
            time_sig=0,
            selected_uri=_normalize(ca_cert.sia),
            issues=(issue,),
        )

    def _select_point_copy(
        self,
        ca_cert: ResourceCertificate,
        cache_files: dict[str, dict[str, bytes]],
        now: int,
    ) -> tuple[str, dict[str, bytes] | None, Manifest | None]:
        """Pick which cached copy of a CA's publication point to use.

        Candidates are the primary SIA then each mirror.  A copy is
        *consistent* when its manifest parses, verifies under the CA key,
        is current, and every listed file is present with a matching
        hash.  The first consistent copy wins and is returned with its
        verified manifest; if none is consistent, the first cached copy
        (primary preferred) is returned without one, so its problems
        surface as ordinary validation issues.
        """
        candidates = [_normalize(u) for u in ca_cert.all_publication_uris]
        first_present: tuple[str, dict[str, bytes]] | None = None
        for uri in candidates:
            files = cache_files.get(uri)
            if files is None:
                continue
            if first_present is None:
                first_present = (uri, files)
            manifest = self._consistent_manifest(files, ca_cert, now)
            if manifest is not None:
                return uri, files, manifest
        if first_present is not None:
            return (*first_present, None)
        return _normalize(ca_cert.sia), None, None

    def _consistent_manifest(
        self, files: dict[str, bytes], ca_cert: ResourceCertificate, now: int
    ) -> Manifest | None:
        """The copy's verified manifest if the copy is consistent, else None."""
        data = files.get(MANIFEST_FILE)
        if data is None:
            return None
        try:
            manifest = self._parse(data)
        except Exception:
            return None  # an unparseable manifest is an inconsistent copy
        if not isinstance(manifest, Manifest):
            return None
        if not self._verify(manifest, ca_cert.subject_key):
            return None
        if manifest.next_update < now:
            return None
        on_disk = {name for name in files if name != MANIFEST_FILE}
        if manifest.file_names != on_disk:
            return None
        if not all(
            sha256_hex(files[name]) == manifest.hash_of(name)
            for name in on_disk
        ):
            return None
        return manifest

    def _load_crl(self, point_uri, files, ca_cert, now, issues) -> Crl | None:
        data = files.get(CRL_FILE)
        if data is None:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, CRL_FILE, "crl-missing",
                "no CRL at publication point; revocation cannot be checked",
            ))
            return None
        try:
            crl = self._parse(data)
        except Exception as exc:
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, CRL_FILE, "crl-parse-failed", str(exc),
            ))
            return None
        if not isinstance(crl, Crl) or not self._verify(
            crl, ca_cert.subject_key
        ):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, CRL_FILE, "crl-bad-signature",
                "CRL does not verify under the CA key",
            ))
            return None
        if crl.next_update < now:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, CRL_FILE, "crl-stale",
                f"CRL nextUpdate {crl.next_update} is in the past (now {self._stamp(now)})",
            ))
        return crl

    def _apply_manifest(
        self, point_uri, files, ca_cert, now, issues, manifest
    ) -> dict[str, bytes] | None:
        """Check manifest consistency; returns the usable file dict.

        *manifest* is the copy's already verified manifest, when
        :meth:`_select_point_copy` found the copy consistent; otherwise
        the manifest is parsed and verified here so its problems are
        reported.  Returns None if strict mode discards the whole point.
        """
        strict_fail: str | None = None
        data = files.get(MANIFEST_FILE)
        if manifest is None and data is None:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, MANIFEST_FILE, "manifest-missing",
                "no manifest; cannot detect missing or extra objects",
            ))
            strict_fail = "manifest-missing"
        elif manifest is None:
            try:
                parsed = self._parse(data)
                manifest = parsed if isinstance(parsed, Manifest) else None
            except Exception:
                manifest = None
            if manifest is None or not self._verify(
                manifest, ca_cert.subject_key
            ):
                issues.append(ValidationIssue(
                    Severity.ERROR, point_uri, MANIFEST_FILE,
                    "manifest-bad", "manifest unparsable or badly signed",
                ))
                manifest = None
                strict_fail = "manifest-bad"

        usable = {k: v for k, v in files.items() if k != MANIFEST_FILE}
        if manifest is not None:
            if manifest.next_update < now:
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, MANIFEST_FILE, "manifest-stale",
                    f"manifest nextUpdate {manifest.next_update} < now {self._stamp(now)}",
                ))
                strict_fail = strict_fail or "manifest-stale"
            on_disk = set(usable)
            listed = manifest.file_names
            for missing in sorted(listed - on_disk):
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, missing, "manifest-file-missing",
                    "file listed in manifest but absent from fetch",
                ))
                strict_fail = strict_fail or "manifest-file-missing"
            for extra in sorted(on_disk - listed):
                issues.append(ValidationIssue(
                    Severity.WARNING, point_uri, extra, "manifest-file-extra",
                    "file present but not listed in manifest",
                ))
            for file_name in sorted(on_disk & listed):
                if sha256_hex(usable[file_name]) != manifest.hash_of(file_name):
                    issues.append(ValidationIssue(
                        Severity.ERROR, point_uri, file_name, "hash-mismatch",
                        "file bytes do not match the manifest hash",
                    ))
                    del usable[file_name]
                    strict_fail = strict_fail or "hash-mismatch"

        if self.strict_manifests and strict_fail is not None:
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, MANIFEST_FILE, "point-discarded",
                f"strict mode discarded the point ({strict_fail})",
            ))
            return None
        return usable

    def _check_child_cert(
        self, point_uri, file_name, cert, ca_cert, crl, now, issues
    ) -> ResourceCertificate | None:
        if cert.issuer_key_id != ca_cert.subject_key_id:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "wrong-issuer",
                "certificate names a different issuer than this point's CA",
            ))
            return None
        if not self._verify(cert, ca_cert.subject_key):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "bad-signature",
                f"certificate for {cert.subject!r} fails signature check",
            ))
            return None
        if not cert.is_current(now):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "expired",
                f"certificate for {cert.subject!r} not valid at t={self._stamp(now)}",
            ))
            return None
        if crl is not None and crl.is_revoked(cert.serial):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "revoked",
                f"certificate serial {cert.serial} is on the issuer's CRL",
            ))
            return None
        if not ca_cert.ip_resources.covers(cert.ip_resources):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "overclaim",
                f"certificate for {cert.subject!r} claims resources its "
                "issuer does not hold",
            ))
            return None
        return cert

    def _check_roa(
        self, point_uri, file_name, roa, ca_cert, crl, now, issues
    ) -> Roa | None:
        ee = roa.ee_cert
        if ee.issuer_key_id != ca_cert.subject_key_id:
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "wrong-issuer",
                "ROA's EE certificate names a different issuer",
            ))
            return None
        if not self._verify(ee, ca_cert.subject_key):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "ee-bad-signature",
                "embedded EE certificate fails signature check",
            ))
            return None
        if not ee.is_current(now) or not roa.is_current(now):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "expired",
                f"ROA {roa.describe()} not valid at t={self._stamp(now)}",
            ))
            return None
        if crl is not None and crl.is_revoked(ee.serial):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "revoked",
                f"ROA {roa.describe()} EE serial {ee.serial} is revoked",
            ))
            return None
        if not ca_cert.ip_resources.covers(ee.ip_resources):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "overclaim",
                f"ROA {roa.describe()} EE claims resources the CA lacks",
            ))
            return None
        if not self._verify(roa, ee.subject_key):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "roa-bad-signature",
                "ROA fails signature check under its EE key",
            ))
            return None
        if not ee.ip_resources.covers(roa.resources()):
            issues.append(ValidationIssue(
                Severity.ERROR, point_uri, file_name, "roa-overclaim",
                "ROA names prefixes outside its EE certificate",
            ))
            return None
        return roa

    def _check_ghostbusters(
        self, point_uri, file_name, record, ca_cert, crl, now, issues
    ) -> GhostbustersRecord | None:
        """Validate a contact record: same EE discipline as a ROA."""
        ee = record.ee_cert
        if (
            ee.issuer_key_id != ca_cert.subject_key_id
            or not self._verify(ee, ca_cert.subject_key)
            or not self._verify(record, ee.subject_key)
        ):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-bad-signature",
                "ghostbusters record fails its signature chain",
            ))
            return None
        if not ee.is_current(now) or not record.is_current(now):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-expired",
                "ghostbusters record expired",
            ))
            return None
        if crl is not None and crl.is_revoked(ee.serial):
            issues.append(ValidationIssue(
                Severity.WARNING, point_uri, file_name, "gbr-revoked",
                "ghostbusters record EE certificate revoked",
            ))
            return None
        return record


def _normalize(sia: str) -> str:
    """Normalize an SIA string to the cache's canonical URI form."""
    return str(RsyncUri.parse(sia))
