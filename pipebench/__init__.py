"""End-to-end and per-layer benchmark of the relying-party pipeline.

Run it from the root of a checkout::

    python3 pipebench/run.py --workload flat-refresh --seed 1 --seconds 10 --trace 0

See ``pipebench/README.md`` for the workloads, the metrics and how the
traced run attributes time to layers.
"""
