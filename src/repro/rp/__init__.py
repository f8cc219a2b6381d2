"""The relying party: path validation and route origin validation.

Turns cached repository bytes into validated ROA payloads (VRPs) and
classifies BGP routes valid / unknown / invalid per RFC 6811 — the
semantics whose side effects the paper's Section 4 dissects.
"""

from .alt_semantics import (
    DispositionVrp,
    DispositionVrpSet,
    SubprefixDisposition,
    classify_disposition,
)
from .incremental import PointResult, VerificationMemo
from .journal import JournalEntry, VrpJournal
from .lta import LocalOverrides, classify_with_overrides
from .origin import OriginValidationOutcome, validate
from .pathval import PathValidator, Severity, ValidationIssue, ValidationRun
from .relying_party import DegradationReport, RefreshReport, RelyingParty
from .states import Route, RouteValidity
from .suspenders import RetainedVrp, SuspendersRelyingParty
from .vrp import VRP, VrpSet

__all__ = [
    "DispositionVrp",
    "DispositionVrpSet",
    "LocalOverrides",
    "SubprefixDisposition",
    "classify_disposition",
    "DegradationReport",
    "JournalEntry",
    "OriginValidationOutcome",
    "PointResult",
    "VerificationMemo",
    "RetainedVrp",
    "SuspendersRelyingParty",
    "classify_with_overrides",
    "PathValidator",
    "RefreshReport",
    "RelyingParty",
    "Route",
    "RouteValidity",
    "Severity",
    "VRP",
    "ValidationIssue",
    "ValidationRun",
    "VrpJournal",
    "VrpSet",
    "validate",
]
