"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Named outside pytest's test_*.py pattern so the repository's own test run
does not collect it: every case here runs the real program for seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import mixes  # noqa: E402
import run  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_end_to_end_metric(workload):
    # --seconds 0 measures a single round
    res = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert res["metrics"]["success_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", ["construct", "cold-algebra"])
def test_traced_run_prints_every_layer_metric(workload):
    res = _result(_bench("--workload", workload, "--seed", "4", "--seconds", "0",
                         "--trace", "1"))
    assert res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = res["metrics"]
    assert {k: v["unit"] for k, v in got.items()} == want
    assert got["report.write_report.calls"]["value"] == 1.0
    assert 0.0 < got["trace.overhead_ratio"]["value"] <= 2.0
    if workload == "construct":
        assert got["geometry.nodes"]["value"] > 0
        # every node re-charts its centre once after its estimate
        assert got["geometry.cartan_project.per_node"]["value"] > 1
        assert got["algfile.parse_algebra_file.calls"]["value"] == 0
    else:
        assert got["algfile.parse_algebra_file.calls"]["value"] == 1.0
        assert got["geometry.nodes"]["value"] == 0
        assert got["liealg.validate.calls"]["value"] >= 1.0


def test_planted_wrong_expectation_raises_failed_ratio(monkeypatch, capsys):
    # the sl(3,R) control is planted as "expected to exit 0"
    monkeypatch.setattr(mixes, "expect_control",
                        lambda status, rep: None if status == 0 else "exit %d" % status)
    assert run.main(["--workload", "cold-algebra", "--seed", "5", "--seconds", "0"]) == 0
    out = capsys.readouterr()
    res = json.loads(out.out.strip().splitlines()[-1])
    assert res["correct"] is False
    assert 0 < res["failed"] < res["attempted"]
    assert res["metrics"]["success_ratio"]["value"] < 1.0
    assert "MISMATCH [verify file-sl3r-control] verify --algebra-file" in out.err


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
