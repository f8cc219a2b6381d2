"""The cache side of RTR: a relying party serving a router fleet.

Serves a :class:`~repro.rp.journal.VrpJournal` — the current VRP set
under a monotonically increasing *serial* plus a bounded window of
per-serial deltas — to any number of attached router sessions behind an
event-driven :class:`~repro.rtr.mux.SessionMux`.  The journal is the
relying party's own (``RtrCacheServer(journal=rp.journal)``, so RTR and
the query plane share one serial space) or a private one.  When
:meth:`RtrCacheServer.update` moves the journal's serial, a Serial
Notify goes down every session; the routers then pull the delta.

Three serving-scale mechanisms (see docs/rtr.md):

- **Session multiplexing.**  Input is drained through the mux's ready
  set with per-session fairness budgets, so one tick costs O(active
  sessions), not O(fleet), and one chatty session cannot starve its
  siblings.
- **Delta compaction.**  A Serial Query for a serial the journal has
  compacted away (or one ahead of the cache) is answered with Cache
  Reset: a snapshot re-sync, never an unbounded history replay.
- **Burst caching.**  The full-snapshot burst and every delta burst are
  encoded once per serial and re-served as bytes, so syncing 1,000
  routers costs one encoding plus 1,000 buffer appends.

This is the last hop of the paper's Figure 1: the cache's beliefs,
however they were manipulated, become every attached router's
route-validity oracle.
"""

from __future__ import annotations

from ..rp.journal import JournalEntry, VrpJournal
from ..rp.vrp import VRP, VrpSet
from ..telemetry import MetricsRegistry, default_registry
from .channel import ChannelClosed, DuplexPipe
from .mux import MuxSession, SessionMux
from .pdu import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PrefixPdu,
    ResetQuery,
    SerialNotify,
    SerialQuery,
    encode_pdu,
)

__all__ = ["RtrCacheServer"]

def _prefix_pdu(announce: bool, vrp: VRP) -> PrefixPdu:
    return PrefixPdu(
        announce=announce, prefix=vrp.prefix,
        max_length=vrp.max_length, asn=vrp.asn,
    )


class RtrCacheServer:
    """An RTR cache serving the VRP set of one relying party."""

    def __init__(
        self,
        *,
        session_id: int = 1,
        journal: VrpJournal | None = None,
        fairness_budget: int | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if not 0 <= session_id <= 0xFFFF:
            raise ValueError(f"session id out of range: {session_id}")
        self.session_id = session_id
        self.metrics = metrics if metrics is not None else default_registry()
        self.journal = (
            journal if journal is not None
            else VrpJournal(metrics=self.metrics)
        )
        self._notified = self.journal.serial
        self._snapshot: tuple[int, bytes, int] | None = None
        # serial -> that serial's delta PDUs, encoded once; pruned to the
        # serials the journal retains.
        self._delta_bytes: dict[int, bytes] = {}
        mux_budget = {} if fairness_budget is None else {
            "fairness_budget": fairness_budget
        }
        self.mux = SessionMux(metrics=self.metrics, **mux_budget)
        self._m_pdus = self.metrics.counter(
            "repro_rtr_pdus_sent_total",
            help="PDUs sent to router sessions, by PDU type",
            labelnames=("type",),
        )
        # Bound children per PDU label: label resolution is too slow for
        # the per-PDU send path, a child increment is one attribute add.
        self._pdu_counters: dict[str, object] = {}
        self._m_serial_bumps = self.metrics.counter(
            "repro_rtr_serial_bumps_total",
            help="serial increments announced to router sessions",
        )
        self._m_vrps = self.metrics.gauge(
            "repro_rtr_vrps", help="VRPs in the currently served set"
        )
        self._m_errors = self.metrics.counter(
            "repro_rtr_errors_total",
            help="router sessions dropped for cause, by error class",
            labelnames=("kind",),
        )
        self._m_resets = self.metrics.counter(
            "repro_rtr_cache_resets_total",
            help="Cache Reset answers forcing a client snapshot re-sync, "
                 "by reason",
            labelnames=("reason",),
        )

    # -- data-side API -----------------------------------------------------

    def update(self, vrps: VrpSet) -> int:
        """Publish *vrps* to the journal; returns the (possibly same) serial.

        Whenever the journal's serial has moved past the last one
        announced (by this call, or by another reader of a shared
        journal publishing first), every session gets a Serial Notify.
        """
        serial = self.journal.publish(vrps)
        if serial != self._notified:
            self._m_serial_bumps.inc(serial - self._notified)
            self._notified = serial
            self._m_vrps.set(len(self.journal.current))
            oldest = serial - len(self.journal.entries)
            self._delta_bytes = {
                s: burst for s, burst in self._delta_bytes.items()
                if s > oldest
            }
            self._notify_all()
        return serial

    @property
    def serial(self) -> int:
        return self.journal.serial

    @property
    def vrp_count(self) -> int:
        return len(self.journal.current)

    def current_vrps(self) -> frozenset[VRP]:
        """The served VRP set (the chained-tier equivalence probe)."""
        return self.journal.current.as_frozenset()

    @property
    def session_count(self) -> int:
        return len(self.mux)

    # -- session management ------------------------------------------------

    def attach(self, pipe: DuplexPipe) -> None:
        """Register a router session on *pipe*."""
        self.mux.attach(pipe)

    def _count_label(self, label: str, amount: int = 1) -> None:
        child = self._pdu_counters.get(label)
        if child is None:
            child = self._pdu_counters[label] = self._m_pdus.labels(type=label)
        child.inc(amount)

    def _notify_all(self) -> None:
        encoded = encode_pdu(SerialNotify(self.session_id, self.serial))
        delivered = self.mux.broadcast(encoded)
        if delivered:
            self._count_label("serial_notify", delivered)

    def process(self) -> None:
        """One mux tick: handle whatever routers have sent, fairly.

        Sessions that sent more than the fairness budget stay ready and
        continue on the next call; malformed bytes get an Error Report
        and the drop (RFC 6810 §10) without disturbing siblings.
        """
        for event in self.mux.poll():
            session = event.session
            if event.error is not None:
                # Malformed bytes from a router: the mux already dropped
                # the session; report the error best-effort and move on.
                self._m_errors.inc(kind="decode")
                self._send_error(session, 0, event.error)
                continue
            if event.closed:
                continue
            for pdu in event.pdus:
                try:
                    self._handle(session, pdu)
                except Exception as exc:
                    self._m_errors.inc(kind="internal")
                    self._send_error(
                        session, 0, f"internal error: {type(exc).__name__}"
                    )
                    self.mux.drop(session)
                    break

    # -- protocol ----------------------------------------------------------

    def _handle(self, session: MuxSession, pdu: Pdu) -> None:
        if isinstance(pdu, ResetQuery):
            self._send_full(session)
        elif isinstance(pdu, SerialQuery):
            self._send_incremental(session, pdu)
        elif isinstance(pdu, ErrorReport):
            self.mux.drop(session)
        # Anything else from a router is a protocol violation; RFC 6810
        # says send an Error Report and drop the session.
        elif not isinstance(pdu, (SerialNotify,)):
            self._m_errors.inc(kind="protocol")
            self._send_error(session, 3, f"unexpected {type(pdu).__name__}")
            self.mux.drop(session)

    def _snapshot_burst(self) -> tuple[bytes, int]:
        """The full-sync burst for the current serial, encoded once.

        Returns ``(bytes, prefix_pdu_count)``; every router syncing at
        this serial is served the same cached bytes.
        """
        if self._snapshot is None or self._snapshot[0] != self.serial:
            parts = [encode_pdu(CacheResponse(self.session_id))]
            count = 0
            for vrp in self.journal.current:  # cached sorted view
                parts.append(encode_pdu(_prefix_pdu(True, vrp)))
                count += 1
            parts.append(encode_pdu(EndOfData(self.session_id, self.serial)))
            self._snapshot = (self.serial, b"".join(parts), count)
        return self._snapshot[1], self._snapshot[2]

    def _send_full(self, session: MuxSession) -> None:
        self._send_burst(session, *self._snapshot_burst())

    def _send_incremental(self, session: MuxSession, query: SerialQuery) -> None:
        if query.session_id != self.session_id:
            # The router is talking to a previous incarnation of this
            # cache; make it start over.
            self._send_reset(session, "session-id")
            return
        entries = self.journal.deltas(query.serial)
        if entries is None:
            # Compacted away, or a serial this cache never reached: a
            # snapshot re-sync, never a delta the cache cannot vouch for.
            ahead = query.serial > self.serial
            self._send_reset(session, "unknown-serial" if ahead
                             else "compacted")
            return
        burst = b"".join(
            [encode_pdu(CacheResponse(self.session_id))]
            + [self._delta_burst(entry) for entry in entries]
            + [encode_pdu(EndOfData(self.session_id, self.serial))]
        )
        self._send_burst(session, burst, sum(entry.size for entry in entries))

    def _delta_burst(self, entry: JournalEntry) -> bytes:
        """One serial's withdrawals then announcements, encoded once."""
        burst = self._delta_bytes.get(entry.serial)
        if burst is None:
            burst = self._delta_bytes[entry.serial] = b"".join(
                [encode_pdu(_prefix_pdu(False, vrp)) for vrp in entry.removed]
                + [encode_pdu(_prefix_pdu(True, vrp)) for vrp in entry.added]
            )
        return burst

    # -- transmission ------------------------------------------------------

    def _send_bytes(self, session: MuxSession, burst: bytes) -> bool:
        try:
            session.send(burst)
            return True
        except ChannelClosed:
            self.mux.drop(session)
            return False

    def _send_burst(self, session: MuxSession, burst: bytes, prefixes: int):
        """Send one Cache Response .. End of Data burst and count it."""
        if self._send_bytes(session, burst):
            self._count_label("cache_response")
            if prefixes:
                self._count_label("prefix_pdu", prefixes)
            self._count_label("end_of_data")

    def _send_reset(self, session: MuxSession, reason: str) -> None:
        self._m_resets.inc(reason=reason)
        if self._send_bytes(session, encode_pdu(CacheReset())):
            self._count_label("cache_reset")

    def _send_error(self, session: MuxSession, code: int, text: str) -> None:
        """Best-effort Error Report to a session being (or already) dropped."""
        try:
            session.send(encode_pdu(ErrorReport(error_code=code, text=text)))
            self._count_label("error_report")
        except ChannelClosed:
            pass
