"""The RPKI-to-Router protocol (RFC 6810): caches feeding BGP speakers.

The final hop of the paper's Figure 1 pipeline, with real wire encoding:
a relying-party cache serves its VRP set over RTR sessions — multiplexed
through an event-driven :class:`SessionMux` with per-session fairness,
deltas read from a bounded :class:`~repro.rp.journal.VrpJournal`, and
cache-to-cache chaining for router-fleet fan-out; routers hold local tables
synchronized by serial-numbered deltas.
"""

from .cache_server import RtrCacheServer
from .chain import CacheChain, ChainedRtrCache
from .channel import Channel, ChannelClosed, DuplexPipe
from .mux import MuxEvent, MuxSession, SessionMux
from .pdu import (
    CacheReset,
    CacheResponse,
    EndOfData,
    ErrorReport,
    Pdu,
    PduDecodeError,
    PduType,
    PrefixPdu,
    ResetQuery,
    RTR_VERSION,
    SerialNotify,
    SerialQuery,
    decode_pdus,
    encode_pdu,
)
from .router_client import RouterState, RtrRouterClient

__all__ = [
    "CacheChain",
    "CacheReset",
    "CacheResponse",
    "ChainedRtrCache",
    "Channel",
    "ChannelClosed",
    "DuplexPipe",
    "EndOfData",
    "ErrorReport",
    "MuxEvent",
    "MuxSession",
    "Pdu",
    "PduDecodeError",
    "PduType",
    "PrefixPdu",
    "RTR_VERSION",
    "ResetQuery",
    "RouterState",
    "RtrCacheServer",
    "RtrRouterClient",
    "SerialNotify",
    "SerialQuery",
    "SessionMux",
    "decode_pdus",
    "encode_pdu",
]
