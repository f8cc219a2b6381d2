"""The VRP journal: one serial-numbered, bounded history of VRP deltas.

The RTR cache answers a router's Serial Query from
:meth:`VrpJournal.deltas`, and the query plane's ``history``/``diff``
answer from the same entries, so a whacked ROA is one withdrawal at one
serial for every router and every monitor (the last hop of Figure 1).
The serial moves only on a content change (RFC 8210).  Entries are
bounded in serials (``window``) and in delta VRPs (``max_vrps``); a
reader asking for a compacted or future serial gets ``None`` and
re-syncs from :attr:`VrpJournal.current` (see docs/rtr.md).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

from ..telemetry import MetricsRegistry, default_registry
from .vrp import VRP, VrpSet

__all__ = ["JournalEntry", "VrpJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One serial: the published set's size and its change from before."""

    serial: int
    vrp_count: int               # VRPs in the set published at this serial
    added: tuple[VRP, ...]       # vs the previous serial, sorted
    removed: tuple[VRP, ...]

    @property
    def size(self) -> int:
        return len(self.added) + len(self.removed)


class VrpJournal:
    """The current VRP set plus a bounded window of per-serial deltas."""

    def __init__(
        self,
        *,
        window: int = 16,
        max_vrps: int = 4096,
        metrics: MetricsRegistry | None = None,
    ):
        if window < 1 or max_vrps < 1:
            raise ValueError(
                f"journal bounds must be >= 1: {window}, {max_vrps}")
        self.window = window
        self.max_vrps = max_vrps
        self.serial = 0
        self.current = VrpSet()
        self._entries: deque[JournalEntry] = deque()
        self.retained_vrps = 0
        metrics = metrics if metrics is not None else default_registry()
        self._m_serials = metrics.gauge(
            "repro_journal_retained_serials",
            help="serials retained in the VRP journal's delta window",
        )
        self._m_vrps = metrics.gauge(
            "repro_journal_retained_vrps",
            help="VRPs held across the VRP journal's retained deltas",
        )
        self._m_compactions = metrics.counter(
            "repro_journal_compactions_total",
            help="journal serials compacted away, by reason",
            labelnames=("reason",),
        )

    def publish(self, vrps: VrpSet) -> int:
        """Make *vrps* the current set; returns the (possibly same) serial."""
        if vrps is self.current:
            return self.serial
        added = vrps.added(self.current)
        removed = vrps.removed(self.current)
        self.current = vrps
        if not added and not removed:
            return self.serial
        self.serial += 1
        self._entries.append(JournalEntry(
            self.serial, len(vrps), tuple(added), tuple(removed),
        ))
        self.retained_vrps += len(added) + len(removed)
        self._compact()
        return self.serial

    def _compact(self) -> None:
        floor = self.serial - self.window
        entries = self._entries
        while entries:
            if entries[0].serial <= floor:
                reason = "window"
            elif self.retained_vrps > self.max_vrps:
                reason = "size"
            else:
                break
            self.retained_vrps -= entries.popleft().size
            self._m_compactions.inc(reason=reason)
        self._m_serials.set(len(entries))
        self._m_vrps.set(self.retained_vrps)

    @property
    def entries(self) -> tuple[JournalEntry, ...]:
        """The retained entries, oldest first."""
        return tuple(self._entries)

    def deltas(
        self, from_serial: int, to_serial: int | None = None
    ) -> list[JournalEntry] | None:
        """The entries taking *from_serial* to *to_serial* (default: now).

        ``None`` when the range is not answerable: *from_serial* is
        behind the retained window (compacted away), either end is ahead
        of the current serial, or the range runs backwards.
        """
        to_serial = self.serial if to_serial is None else to_serial
        oldest = self._entries[0].serial - 1 if self._entries else self.serial
        if not oldest <= from_serial <= to_serial <= self.serial:
            return None
        return list(islice(
            self._entries, from_serial - oldest, to_serial - oldest
        ))
