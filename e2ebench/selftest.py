"""Tests of the end-to-end benchmark itself (not part of the repository's tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import bench  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.validation.golden import trajectory_rows  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, tmp_path: Path) -> tuple[str, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return out.stdout, json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_the_benchmark_emits():
    assert CONFIG["command"] == ["python3", "e2ebench/run.py"]
    assert {w["name"] for w in CONFIG["workloads"]} == set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in CONFIG["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in CONFIG["per_layer"]] == list(bench.PER_LAYER)
    setup = next(m for m in CONFIG["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in CONFIG["end_to_end"])


@pytest.mark.parametrize(
    ("workload", "trace"),
    [
        ("fleet-100k-random", 0),
        ("fleet-10k-autofl", 0),
        ("fleet-10k-autofl", 1),
        ("service-drain", 0),
        ("service-drain", 1),
    ],
)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    stdout, result = _run(workload, trace, tmp_path)
    declared = bench.PER_LAYER if trace else bench.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {name: metric["unit"] for name, metric in result["metrics"].items()} == dict(declared)
    for name, unit in declared:
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in stdout.splitlines()
        ), name
    if trace:
        assert (tmp_path / f"{workload}-seed3-trace1.trace.json").is_file()
        assert (tmp_path / f"{workload}-seed3-trace1.spans.jsonl").is_file()
        # Phases plus residual add up to the measured round and job totals.
        layer = result["metrics"]
        phases = ("environment.sample_ms", "environment.faults_ms", "core.select_ms",
                  "core.feedback_ms", "round_engine.execute_ms", "results.to_execution_ms",
                  "fl.train_ms", "runner.self_ms")
        total = sum(layer[name]["value"] for name in phases)
        assert total == pytest.approx(layer["runner.round_ms"]["value"], rel=1e-9)


def test_tampered_trajectory_fails_the_gate():
    spec = bench.SIM_WORKLOADS["fleet-10k-autofl"].spec(0, tiny=True)
    spec = dataclasses.replace(spec, scenario=dataclasses.replace(spec.scenario, max_rounds=3))
    ledger = bench.Ledger()
    reference = trajectory_rows(bench.run_sim(spec).result)
    rows = trajectory_rows(bench.run_sim(spec).result)
    assert bench.check_trajectory(ledger, "untouched", rows, reference)
    rows[1]["global_energy_j"] += 1e-9
    assert not bench.check_trajectory(ledger, "tampered", rows, reference)
    assert ledger.attempted == 2 and ledger.failures == [
        "tampered: trajectory differs from the reference at round 1"
    ]


def test_tampered_store_row_fails_the_gate(tmp_path):
    spec = bench.drain_spec(7)
    spec = dataclasses.replace(spec, scenario=dataclasses.replace(spec.scenario, max_rounds=3))
    result = run_experiment(spec)
    ledger = bench.Ledger()
    service = bench.Service.create(
        tmp_path / "service", [result], bench.ServiceStats(), ledger, None, tmp_path
    )
    expected = {spec.spec_hash(): result}
    bench.check_store_results(ledger, service.store, expected)
    assert not ledger.failures
    service.store.close()
    with sqlite3.connect(service.root / "store.sqlite") as conn:
        (payload,) = conn.execute("SELECT payload FROM results").fetchone()
        row = json.loads(payload)
        row["summaries"][0]["global_energy_j"] *= 1.000001
        conn.execute("UPDATE results SET payload = ?", (json.dumps(row),))
    bench.check_store_results(ledger, service.store, expected)
    assert len(ledger.failures) == 1 and "stored summary differs" in ledger.failures[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "e2ebench", ignore=shutil.ignore_patterns(
        "__pycache__", ".work", "out"))
    out = subprocess.run(
        [*CONFIG["command"], "--workload", "service-drain", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
