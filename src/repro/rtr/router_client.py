"""The router side of RTR: a BGP speaker's VRP table.

Implements the RFC 6810 router state machine: reset synchronization on
connect, incremental pulls on Serial Notify, and full resynchronization on
Cache Reset or a session-id change.  The resulting :meth:`vrp_set` is what
the router's route selection uses — plug it into
:class:`repro.bgp.SelectionPolicy` via :func:`repro.rp.validate` and the
whole paper pipeline runs over a faithful cache-to-router channel.
"""

from __future__ import annotations

import enum

from ..rp.vrp import VRP, VrpSet
from .channel import ChannelClosed, DuplexPipe
from .pdu import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PduDecodeError,
    PrefixPdu,
    ResetQuery,
    SerialNotify,
    SerialQuery,
    decode_pdus,
    encode_pdu,
)

__all__ = ["RouterState", "RtrRouterClient"]


class RouterState(enum.Enum):
    IDLE = "idle"              # connected, nothing requested yet
    SYNCING = "syncing"        # awaiting/receiving a data burst
    SYNCED = "synced"          # up to date as of self.serial
    FAILED = "failed"          # protocol error; session dead


class RtrRouterClient:
    """One router's RTR session and VRP table."""

    def __init__(self, pipe: DuplexPipe):
        self.pipe = pipe
        self.state = RouterState.IDLE
        self.serial = 0
        self.session_id: int | None = None
        self._vrps: set[VRP] = set()
        # PDU application is order-sensitive: the same VRP may be announced
        # at one serial and withdrawn at a later one within a single burst.
        self._pending: list[tuple[bool, VRP]] = []
        self._burst_is_reset = False
        self._receive_buffer = b""
        self.errors: list[str] = []

    # -- queries -----------------------------------------------------------

    def vrp_set(self) -> VrpSet:
        """The router's current validated-ROA table."""
        return VrpSet(self._vrps)

    @property
    def vrp_count(self) -> int:
        return len(self._vrps)

    # -- actions ------------------------------------------------------------

    def connect(self) -> None:
        """Start the session with a full reset synchronization."""
        self._burst_is_reset = True
        self._send(ResetQuery())
        self.state = RouterState.SYNCING

    def poll(self) -> None:
        """Ask for changes since our serial (routers also poll on a timer)."""
        if self.session_id is None:
            self.connect()
            return
        self._send(SerialQuery(self.session_id, self.serial))
        self._burst_is_reset = False
        self.state = RouterState.SYNCING

    def process(self) -> None:
        """Consume everything the cache has sent since the last call."""
        if self.state is RouterState.FAILED:
            return
        try:
            data = self._receive_buffer + self.pipe.to_router.receive()
        except ChannelClosed:
            self._fail("connection closed")
            return
        try:
            pdus, self._receive_buffer = decode_pdus(data)
        except PduDecodeError as exc:
            self._send(ErrorReport(error_code=0, text=str(exc)))
            self._fail(f"undecodable bytes from cache: {exc}")
            return
        for pdu in pdus:
            self._handle(pdu)

    # -- state machine -------------------------------------------------------------

    def _handle(self, pdu: Pdu) -> None:
        if isinstance(pdu, SerialNotify):
            if self.state is RouterState.SYNCED:
                self.session_id = pdu.session_id
                self.poll()
            return
        if isinstance(pdu, CacheResponse):
            if self.session_id is not None and pdu.session_id != self.session_id:
                # Cache restarted with new state: our serial is meaningless.
                self.session_id = pdu.session_id
                self._burst_is_reset = True
            self.session_id = pdu.session_id
            self._pending.clear()
            self.state = RouterState.SYNCING
            return
        if isinstance(pdu, PrefixPdu):
            vrp = VRP(pdu.prefix, pdu.max_length, pdu.asn)
            self._pending.append((pdu.announce, vrp))
            return
        if isinstance(pdu, EndOfData):
            if self._burst_is_reset:
                self._vrps = set()
            for announce, vrp in self._pending:
                if announce:
                    self._vrps.add(vrp)
                else:
                    self._vrps.discard(vrp)
            self._pending.clear()
            self.serial = pdu.serial
            self.session_id = pdu.session_id
            self.state = RouterState.SYNCED
            return
        if isinstance(pdu, CacheReset):
            self._burst_is_reset = True
            self._send(ResetQuery())
            self.state = RouterState.SYNCING
            return
        if isinstance(pdu, ErrorReport):
            self._fail(f"cache error {pdu.error_code}: {pdu.text}")
            return

    def _send(self, pdu: Pdu) -> None:
        try:
            self.pipe.to_cache.send(encode_pdu(pdu))
        except ChannelClosed:
            self._fail("connection closed")

    def _fail(self, reason: str) -> None:
        self.errors.append(reason)
        self.state = RouterState.FAILED
