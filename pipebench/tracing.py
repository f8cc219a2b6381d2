"""Outside-in per-layer tracing of the pipeline.

The traced run wraps the public entry points of each layer *where its
callers look them up*: a module that did ``from x import f`` holds its
own reference to ``f``, so a wrapper placed only on ``x`` never fires.
:data:`TARGETS` therefore names the binding site, not the definition.

While a step is traced every wrapped call records a span (layer, start,
end, parent span) and adds its *self time* (its span minus its child
spans) to its layer.  The step itself is the root span; its own self
time is the time no layer accounts for (``trace.unattributed_s``).
Counts come from the wrappers and from deltas of the program's own
``MetricsRegistry`` counters over the traced steps.

Wrappers exist only inside :meth:`Tracer.step`: they are installed on
entry and the original attributes restored on exit, and an untraced run
never imports this module.
"""

from __future__ import annotations

import array
import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

from repro.telemetry import default_registry

# (layer, module, attribute): the binding each layer's callers use.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("modelgen.build", "repro.modelgen.deployment", "build_deployment"),
    ("crypto.keygen", "repro.crypto.keys", "generate_keypair"),
    ("crypto.sign", "repro.crypto.rsa", "RsaPrivateKey.sign"),
    ("crypto.decode", "repro.rpki.objects", "decode"),
    ("crypto.verify", "repro.crypto.rsa", "RsaPublicKey.verify"),
    ("rpki.parse", "repro.rp.pathval", "parse_object"),
    ("rpki.parse", "repro.rp.incremental", "parse_object"),
    ("rp.pathval", "repro.rp.pathval", "PathValidator.run"),
    ("rp.vrp_build", "repro.rp.vrp", "VrpSet.extend"),
    ("repository.fetch", "repro.repository.fetch", "Fetcher.fetch_point"),
    ("repository.cache", "repro.repository.cache", "LocalCache.update"),
    ("repository.cache", "repro.repository.cache", "LocalCache.snapshot"),
    ("repository.cache", "repro.repository.cache", "LocalCache.digests"),
    ("repository.cache", "repro.repository.cache", "LocalCache.classify"),
    ("rtr.client", "repro.rtr.router_client", "RtrRouterClient.process"),
    ("rtr.pdu_decode", "repro.rtr.router_client", "decode_pdus"),
    ("rtr.pdu_decode", "repro.rtr.mux", "decode_pdus"),
    ("rtr.server", "repro.rtr.cache_server", "RtrCacheServer.process"),
    ("rtr.update", "repro.rtr.cache_server", "RtrCacheServer.update"),
    ("api.self", "repro.api.service", "QueryService.validate_route"),
    ("rp.origin", "repro.api.service", "validate"),
)

# Layers whose first argument's length is counted as bytes.
_BYTE_LAYERS = frozenset({"crypto.decode"})

# (count name, metric, labels): registry counters read as deltas over
# the traced steps.  All of them live in the default registry, which
# every pipeline object uses.
COUNTERS: tuple[tuple[str, str, dict], ...] = (
    ("verify_rejected", "repro_crypto_verify_total", {"outcome": "rejected"}),
    ("keygens", "repro_crypto_keygen_total", {}),
    ("fetches_ok", "repro_fetch_total", {"status": "ok"}),
    ("fetch_bytes", "repro_fetch_bytes_total", {}),
    ("fetch_objects", "repro_fetch_objects_total", {}),
    ("prefix_pdus", "repro_rtr_pdus_sent_total", {"type": "prefix_pdu"}),
)

_ROOT = "e2e"


def _counter_values() -> dict[str, float]:
    registry = default_registry()
    out = {}
    for name, metric, labels in COUNTERS:
        counter = registry.get(metric)
        out[name] = 0.0 if counter is None else counter.value(**labels)
    return out


class Tracer:
    """Span recorder and per-step, per-layer aggregates."""

    def __init__(self) -> None:
        self.layers: list[str] = [_ROOT]
        for layer, _module, _attr in TARGETS:
            if layer not in self.layers:
                self.layers.append(layer)
        self._layer_id = {layer: i for i, layer in enumerate(self.layers)}
        # Spans, column-wise: layer id, start, end, parent span (-1: none).
        self.span_layer = array.array("H")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("l")
        self.span_step = array.array("H")
        self.steps: list[str] = []
        # kind -> layer -> [self seconds, calls, bytes]
        self.by_kind: dict[str, dict[str, list]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0, 0])
        )
        # kind -> counter name -> delta
        self.counters: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: list[list] = []  # open spans: [id, child s, start]
        self._step = 0
        self._kind: dict | None = None

    # -- spans --------------------------------------------------------------

    def _enter(self, layer_id: int) -> list:
        stack = self._stack
        frame = [len(self.span_start), 0.0, 0.0]
        self.span_layer.append(layer_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_step.append(self._step)
        self.span_end.append(0.0)
        stack.append(frame)
        frame[2] = start = time.perf_counter()
        self.span_start.append(start)
        return frame

    def _exit(self, layer: str, frame: list, nbytes: int = 0) -> None:
        end = time.perf_counter()
        span, child, start = frame
        self.span_end[span] = end
        stack = self._stack
        stack.pop()
        elapsed = end - start
        if stack:
            stack[-1][1] += elapsed
        totals = self._kind[layer]
        totals[0] += elapsed - child
        totals[1] += 1
        totals[2] += nbytes

    def _wrap(self, layer: str, fn):
        layer_id = self._layer_id[layer]
        count_bytes = layer in _BYTE_LAYERS
        enter = self._enter
        exit_ = self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(layer, frame, len(args[0]) if count_bytes else 0)

        return traced

    @contextlib.contextmanager
    def _installed(self):
        saved = []
        try:
            for layer, module_name, attr in TARGETS:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[name]
                saved.append((owner, name, original))
                setattr(owner, name, self._wrap(layer, original))
            yield
        finally:
            for owner, name, original in reversed(saved):
                setattr(owner, name, original)

    @contextlib.contextmanager
    def step(self, kind: str):
        """Trace one timed step: install wrappers, open the root span."""
        self._step = len(self.steps)
        self.steps.append(kind)
        self._kind = self.by_kind[kind]
        before = _counter_values()
        with self._installed():
            frame = self._enter(self._layer_id[_ROOT])
            try:
                yield
            finally:
                self._exit(_ROOT, frame)
        after = _counter_values()
        deltas = self.counters[kind]
        for name, value in after.items():
            deltas[name] += value - before[name]

    # -- results ----------------------------------------------------------

    def layer_totals(self, kinds=None) -> dict[str, list]:
        """layer -> [self seconds, calls, bytes] summed over step kinds."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0, 0])
        for kind, layers in self.by_kind.items():
            if kinds is not None and kind not in kinds:
                continue
            for layer, (seconds, calls, nbytes) in layers.items():
                total = out[layer]
                total[0] += seconds
                total[1] += calls
                total[2] += nbytes
        return out

    def counter_totals(self, kinds=None) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for kind, deltas in self.counters.items():
            if kinds is not None and kind not in kinds:
                continue
            for name, value in deltas.items():
                out[name] += value
        return out

    def dump(self, path: str) -> None:
        """Write the spans (JSON lines: one header, then one per span)."""
        with open(path, "w") as out:
            out.write(json.dumps({"layers": self.layers,
                                  "steps": self.steps,
                                  "fields": ["layer", "step", "start",
                                             "end", "parent"]}) + "\n")
            for i in range(len(self.span_start)):
                out.write(
                    f"[{self.span_layer[i]},{self.span_step[i]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f},"
                    f"{self.span_parent[i]}]\n"
                )
