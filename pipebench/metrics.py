"""Metric names, units and directions, and the per-layer derivations.

``BENCHMARK.json`` lists the same names; the self-check keeps the two
in step.  Each per-layer metric notes the end-to-end metric it should
move and on which workload.
"""

from __future__ import annotations

# (name, unit, better).  Timings other than setup_s are in reference
# units: as measured, divided by the host factor probed around each step
# (see pipebench.stats.PROBE_REF_S).
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),            # build_deployment + RP/RTR/API objects
    ("cold_refresh_s", "ref_s", "lower"),  # first refresh on an empty cache
    ("refresh_s", "ref_s", "lower"),      # median refresh after one change
    ("propagation_s", "ref_s", "lower"),  # change -> every session synced
    ("rtr_sync_s", "ref_s", "lower"),     # reboot storm, full snapshot sync
    ("api_qps", "1/ref_s", "higher"),     # closed-loop validate_route rate
    ("api_p50_us", "ref_us", "lower"),
    ("api_p99_us", "ref_us", "lower"),
    ("peak_rss_mb", "MB", "lower"),       # ru_maxrss
)

PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # cold_refresh_s on flat-refresh
    ("crypto.decode_s", "s", "lower"),
    ("crypto.decode_calls", "count", "lower"),
    ("crypto.decode_bytes", "bytes", "lower"),
    ("crypto.verify_s", "s", "lower"),
    ("crypto.verify_calls", "count", "lower"),
    ("crypto.verify_rejected", "count", "lower"),
    # cold_refresh_s / refresh_s on both refresh workloads
    ("rpki.parse_s", "s", "lower"),
    ("rpki.parse_calls", "count", "lower"),
    # cold_refresh_s on deep-refresh, refresh_s on flat-refresh
    ("rp.pathval_s", "s", "lower"),
    ("rp.pathval_runs", "count", "lower"),
    ("rp.refresh_rounds", "count", "lower"),
    # parse calls per fetched object: cold refresh, churn refreshes
    ("rp.parse_per_object", "ratio", "lower"),
    ("rp.parse_per_object_churn", "ratio", "lower"),
    ("rp.vrp_build_s", "s", "lower"),
    # guards: a small share of any refresh today
    ("repository.fetch_s", "s", "lower"),
    ("repository.fetch_calls", "count", "lower"),
    ("repository.fetch_failed", "count", "lower"),
    ("repository.fetch_bytes", "bytes", "lower"),
    ("repository.cache_s", "s", "lower"),
    # rtr_sync_s and propagation_s on serve-churn
    ("rtr.client_s", "s", "lower"),
    ("rtr.pdu_decode_s", "s", "lower"),
    ("rtr.server_s", "s", "lower"),
    ("rtr.update_s", "s", "lower"),
    ("rtr.prefix_pdus", "count", "lower"),
    # api_qps, api_p50_us (hits) and api_p99_us (misses) on serve-churn
    ("api.cache_hit_ratio", "ratio", "higher"),
    ("api.evictions", "count", "lower"),
    ("api.self_s", "s", "lower"),
    ("rp.origin_s", "s", "lower"),
    # setup_s on every workload
    ("modelgen.build_s", "s", "lower"),
    ("crypto.keygen_s", "s", "lower"),
    ("crypto.keygen_count", "count", "lower"),
    ("crypto.sign_s", "s", "lower"),
    # tracing guards
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)

def per_layer(traced) -> dict[str, float]:
    """Per-layer metrics of a :class:`~pipebench.workloads.Traced` run."""
    tracer = traced.tracer
    layers = tracer.layer_totals()
    counters = tracer.counter_totals()

    def seconds(layer):
        return layers[layer][0]

    def calls(layer):
        return layers[layer][1]

    def parse_ratio(kind):
        parses = tracer.layer_totals({kind})["rpki.parse"][1]
        objects = tracer.counter_totals({kind})["fetch_objects"]
        return parses / objects

    hits, misses, evictions = traced.cache
    steps = sum(seconds(layer) for layer in tracer.layers)
    return {
        "crypto.decode_s": seconds("crypto.decode"),
        "crypto.decode_calls": calls("crypto.decode"),
        "crypto.decode_bytes": layers["crypto.decode"][2],
        "crypto.verify_s": seconds("crypto.verify"),
        "crypto.verify_calls": calls("crypto.verify"),
        "crypto.verify_rejected": counters["verify_rejected"],
        "rpki.parse_s": seconds("rpki.parse"),
        "rpki.parse_calls": calls("rpki.parse"),
        "rp.pathval_s": seconds("rp.pathval"),
        "rp.pathval_runs": calls("rp.pathval"),
        "rp.refresh_rounds": traced.rounds,
        "rp.parse_per_object": parse_ratio("cold_refresh"),
        "rp.parse_per_object_churn": parse_ratio("propagate"),
        "rp.vrp_build_s": seconds("rp.vrp_build"),
        "repository.fetch_s": seconds("repository.fetch"),
        "repository.fetch_calls": calls("repository.fetch"),
        "repository.fetch_failed": (
            calls("repository.fetch") - counters["fetches_ok"]
        ),
        "repository.fetch_bytes": counters["fetch_bytes"],
        "repository.cache_s": seconds("repository.cache"),
        "rtr.client_s": seconds("rtr.client"),
        "rtr.pdu_decode_s": seconds("rtr.pdu_decode"),
        "rtr.server_s": seconds("rtr.server"),
        "rtr.update_s": seconds("rtr.update"),
        "rtr.prefix_pdus": counters["prefix_pdus"],
        "api.cache_hit_ratio": hits / (hits + misses),
        "api.evictions": evictions,
        "api.self_s": seconds("api.self"),
        "rp.origin_s": seconds("rp.origin"),
        "modelgen.build_s": seconds("modelgen.build"),
        "crypto.keygen_s": seconds("crypto.keygen"),
        "crypto.keygen_count": counters["keygens"],
        "crypto.sign_s": seconds("crypto.sign"),
        "trace.overhead_ratio": traced.overhead_ratio,
        "trace.traced_s": steps,
        "trace.unattributed_s": seconds("e2e"),
    }
