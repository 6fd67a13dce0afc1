"""Smoke test of the benchmark: every workload at tiny sizes, in seconds.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REPORT_ONLY = {"fail_ratio": "ratio", "ops_attempted": "count", "pass_ms.samples": "count"}


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def printed_metrics(stdout: str) -> dict[tuple[str, int], dict[str, str]]:
    """Report lines per (workload, trace): metric name -> unit."""
    blocks: dict[tuple[str, int], dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        if "-seed" in line and not line.startswith(" "):
            name, _, trace = line.split()[0].partition("-seed")
            current = blocks.setdefault((name, int(trace[-1])), {})
        elif line.startswith("  ") and current is not None and not line.strip().startswith("FAILED"):
            metric, _, unit = line.split()
            current[metric] = unit
    return blocks


def test_every_workload_runs_and_emits_every_metric_with_its_unit():
    proc = run_bench("--seed", "3", "--seconds", "0.3", "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0

    expected = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    blocks = printed_metrics(proc.stdout)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(blocks) == sorted((n, t) for n in names for t in (0, 1))
    for (workload, trace), printed in blocks.items():
        for metric, unit in {**expected[trace], **REPORT_ONLY}.items():
            assert printed.get(metric) == unit, (workload, trace, metric)
        for metric, unit in expected[trace].items():
            entry = result["metrics"][f"{workload}/trace{trace}/{metric}"]
            assert entry["unit"] == unit and isinstance(entry["value"], float)
        if trace == 0:
            assert all(result["metrics"][f"{workload}/trace0/{m}"]["value"] > 0 for m in expected[0])


def test_one_workload_prints_exactly_its_metrics_on_the_last_line():
    proc = run_bench("--workload", "credit_chain", "--seed", "4", "--seconds", "0.2", "--tiny", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]


def test_predictions_cover_exactly_the_per_layer_metrics():
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    predicted = [m for row in rows for m in row["metrics"]]
    assert sorted(predicted) == sorted(m["name"] for m in BENCHMARK["per_layer"])


def test_failed_check_makes_the_run_fail(monkeypatch, capsys):
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    import workloads

    monkeypatch.setattr(workloads, "F64_TOL", -1.0)
    code = run.main(["--workload", "pair_heavy", "--seed", "5", "--seconds", "0.1", "--tiny"])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out.splitlines()[-1])["correct"] is False
    assert "FAILED float32 agrees with float64" in out


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "pair_heavy", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
