"""Self-check of the pipeline benchmark.

Run from the root of a checkout (about three minutes)::

    python3 -m pytest pipebench/tests -q

It checks that ``BENCHMARK.json`` and the code agree, that the benchmark
uses no deprecated program API, that per-layer counts repeat exactly for
a seed, that the wasted-work ratio reads what the workloads predict, and
that the benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from pipebench import metrics, workloads  # noqa: E402

# Counts that must repeat exactly across traced runs with one seed.
EXACT_COUNTS = (
    "rpki.parse_calls", "crypto.verify_calls", "crypto.decode_calls",
    "rtr.prefix_pdus", "rp.refresh_rounds", "repository.fetch_calls",
    "crypto.keygen_count", "api.evictions", "api.cache_hit_ratio",
)


def _run(workload: str, seed: int, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("pipebench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    """Two traced flat-refresh runs and one deep-refresh run, seed 7."""
    return {
        "flat": [_result(_run("flat-refresh", 7, 1)) for _ in range(2)],
        "deep": _result(_run("deep-refresh", 7, 1)),
    }


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert spec["command"] == ["python3", "pipebench/run.py"]
    assert spec["paths"] == ["pipebench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    for key, table in (("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == [
            tuple(row) for row in table
        ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_no_deprecated_program_api():
    """No raw-set RTR update, no origin.classify, no engine knobs.

    Every run also turns DeprecationWarning into an error, so a
    deprecated call that slips past this scan fails the traced runs.
    """
    banned_calls = {"classify", "classify_parts", "explain"}
    banned_keywords = {"incremental", "mode", "workers"}
    for name in os.listdir(BENCH):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(BENCH, name)) as f:
            tree = ast.parse(f.read(), name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = getattr(func, "attr", getattr(func, "id", ""))
            assert called not in banned_calls, (name, node.lineno)
            for keyword in node.keywords:
                assert keyword.arg not in banned_keywords, (name, node.lineno)
            if called == "update" and node.args:
                # The RTR cache is only ever fed a relying party's VrpSet.
                assert ast.unparse(node.args[0]).endswith("rp.vrps"), (
                    name, node.lineno)
    with open(os.path.join(BENCH, "run.py")) as f:
        assert 'simplefilter("error", DeprecationWarning)' in f.read()


def test_per_layer_counts_repeat_exactly(traced):
    first, second = traced["flat"]
    for name in EXACT_COUNTS:
        assert first[name] == second[name], name


def test_every_per_layer_metric_is_reported(traced):
    names = [name for name, _unit, _better in metrics.PER_LAYER]
    for result in (*traced["flat"], traced["deep"]):
        assert list(result) == names


def test_wasted_work_ratio(traced):
    """Parse calls per fetched object: ~1 cold and ~2 per churn cycle on
    the flat world, ~4.2 cold on the deep one (today's round loop)."""
    flat, deep = traced["flat"][0], traced["deep"]
    assert flat["rp.parse_per_object"] == pytest.approx(1.0, abs=0.15)
    assert flat["rp.parse_per_object_churn"] == pytest.approx(2.0, abs=0.15)
    assert deep["rp.parse_per_object"] == pytest.approx(4.2, abs=0.4)


def test_tracing_accounts_for_the_steps(traced):
    """No layer goes unmeasured, and tracing costs a modest share.

    The overhead ratio compares a few multi-second steps, so the host's
    speed wander alone moves it by tens of percent; the limit catches a
    wrapper that got expensive, not a few percent.
    """
    for result in (*traced["flat"], traced["deep"]):
        assert result["trace.unattributed_s"] < 0.05 * result["trace.traced_s"]
        assert result["trace.overhead_ratio"] < 1.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("flat-refresh", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
