"""Run one workload of the pipeline benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload flat-refresh --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (a separate, traced run).  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record
(machine metadata, calibration, raw samples, divergences) is written to
``.pipebench-out/`` in the checkout, with the spans of a traced run.

Exit status: 0 when every correctness gate passed, 1 when one failed
(the result line still says what was measured), 2 when the checkout has
no program to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pipebench-out")


def _arguments(argv):
    parser = argparse.ArgumentParser(
        description="Relying-party pipeline benchmark", allow_abbrev=False,
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured churn phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"pipebench: no program to benchmark ({SRC}/repro is missing); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from pipebench import metrics, stats, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"pipebench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # The benchmark must not lean on deprecated program API.
    warnings.simplefilter("error", DeprecationWarning)

    calibration = [stats.calibrate()]
    started = time.perf_counter()
    if args.trace:
        traced = workloads.Traced(workload, args.seed)
        run = traced.run
        values = metrics.per_layer(traced)
        names = metrics.PER_LAYER
    else:
        run = workloads.measure(workload, args.seed, args.seconds)
        values = run.end_to_end()
        names = metrics.END_TO_END
    wall = time.perf_counter() - started
    calibration.append(stats.calibrate())
    measured = {} if args.trace else run.timed_metrics(ref=False)

    gates = run.gates
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": stats.machine(),
        "calibration_s": calibration,
        "wall_s": wall,
        "samples": run.samples(),
        "metrics": values,
        "as_measured": measured,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "ops_failed_ratio": gates.failed / max(gates.attempted, 1),
        "divergences": gates.divergences,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}"
    )
    with open(stem + ".json", "w") as out:
        json.dump(record, out, indent=1)
    if args.trace:
        traced.tracer.dump(stem + ".spans.jsonl")

    machine = record["machine"]
    print(f"workload {workload.name}  seed {args.seed}  "
          f"trace {args.trace}  wall {wall:.1f}s")
    print(f"machine: {machine['nproc']} cpu, Python {machine['python']} "
          f"({machine['implementation']}), {machine['platform']}")
    print(f"calibration loop: {calibration[0]:.4f}s at start, "
          f"{calibration[1]:.4f}s at end")
    for name, unit, _better in names:
        line = f"  {name:28s} {values[name]:14.6g} {unit}"
        if name in measured:
            line += f"  (as measured: {measured[name]:.6g})"
        print(line)
    print(f"ops: {gates.attempted} attempted, {gates.failed} failed "
          f"(ops_failed_ratio {record['ops_failed_ratio']:.6g})")
    for divergence in gates.divergences:
        print(f"DIVERGED: {divergence}")
    correct = gates.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
