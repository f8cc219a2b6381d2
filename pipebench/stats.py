"""Summary statistics and machine metadata for benchmark results."""

from __future__ import annotations

import math
import os
import platform
import random
import resource
import statistics
import sys
import time

# Samples a reported tail percentile must leave beyond it.
TAIL_SAMPLES = 10

# Iterations of the calibration loop taken at the start and end of a run
# (about 0.1 s of pure Python).
_CALIBRATION_ITERATIONS = 1_000_000

# The host-speed probe's fixed work (about 20 ms): an arithmetic loop,
# random lookups in a table too big for the fastest caches with a small
# tuple built per lookup, and 512-bit modular exponentiations -- the
# interpreter, memory and big-integer mix the pipeline itself runs.
_PROBE_LOOP = 80_000
_probe_rng = random.Random(20131121)
_PROBE_TABLE = {i: (i, i * 7) for i in range(50_000)}
_PROBE_KEYS = [_probe_rng.randrange(50_000) for _ in range(25_000)]
_PROBE_MODULUS = (1 << 511) + 187
_PROBE_BASES = [_probe_rng.randrange(_PROBE_MODULUS) for _ in range(50)]

# The probe's duration on the reference host: the 2-core Xeon (Python
# 3.11) the benchmark was written on, in its typical state.  A step that
# took t seconds while the probes around it read p seconds is reported
# as t * PROBE_REF_S / p reference seconds (ref_s): about what it would
# have taken on the reference host.
PROBE_REF_S = 0.025

# Steps on each side whose probes join a step's host factor.
_FACTOR_WINDOW = 1


def median(values) -> float:
    return statistics.median(list(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile *q* (0-100) of *values*."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float | None:
    """The highest of p90/p99/p99.9 with at least TAIL_SAMPLES samples
    beyond it among *count* samples, or None when even p90 has fewer."""
    best = None
    for q in (90.0, 99.0, 99.9):
        if count * (100.0 - q) / 100.0 >= TAIL_SAMPLES:
            best = q
    return best


def summarize(values) -> dict:
    """Median, count and the highest tail percentile the count supports."""
    out = {"n": len(values), "median": median(values)}
    q = tail_percentile(len(values))
    if q is not None:
        out[f"p{q:g}"] = percentile(values, q)
    return out


def _spin(iterations: int) -> float:
    """Seconds a fixed pure-Python loop of *iterations* takes."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    assert total > 0
    return elapsed


def calibrate() -> float:
    """The calibration loop, taken at the start and the end of every run
    and printed next to the results, so drift of the host between runs
    is visible."""
    return _spin(_CALIBRATION_ITERATIONS)


def probe() -> float:
    """The host-speed probe taken just before and after each timed step.

    On a shared or virtualized host the speed of the same code can
    wander by tens of percent over seconds, and by as much from one run
    to the next; the probe tracks it well enough that dividing a step's
    time by the speed measured around it removes most of that wander
    (see ``pipebench/README.md``).  It is the benchmark's own code, so
    no change to the program can move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(_PROBE_LOOP):
        total += i * i % 7
    table = _PROBE_TABLE
    built = {}
    for key in _PROBE_KEYS:
        value = table[key]
        built[key] = (value[1], total)
    for base in _PROBE_BASES:
        total += pow(base, 65537, _PROBE_MODULUS) & 1
    elapsed = time.perf_counter() - start
    assert total > 0 and built
    return elapsed


def host_factors(probes) -> list[float]:
    """Per timed step, how much slower than the reference host it ran.

    *probes* holds one ``(before, after)`` probe pair per step, in run
    order.  A step's factor is the median of the probes of the step and
    its neighbours (:data:`_FACTOR_WINDOW` on each side), over
    :data:`PROBE_REF_S`.  The host's speed drifts over seconds while a
    single probe is noisy; the median of six smooths the probe
    noise yet still follows the drift.  On repeated runs of one workload
    it about halved the quartile spread of the per-run medians against
    raw times, and beat both a step's own two probes and one factor for
    the whole run on multi-second steps.
    """
    out = []
    for i in range(len(probes)):
        window = probes[max(0, i - _FACTOR_WINDOW):i + _FACTOR_WINDOW + 1]
        out.append(
            median([p for pair in window for p in pair]) / PROBE_REF_S
        )
    return out


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss``) in MB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    scale = 1.0 if sys.platform == "darwin" else 1024.0
    return peak * scale / (1024.0 * 1024.0)


def machine() -> dict:
    """The host facts every result is recorded with."""
    return {
        "nproc": (len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
