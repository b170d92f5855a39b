"""Smoke test of the benchmark on shrunken inputs.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
It is kept out of the main test suite because it spawns the CLI.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's input so a run takes seconds."""
    monkeypatch.setattr(workloads, "TABLE_MAX_X", 4)
    monkeypatch.setattr(workloads, "TABLE_Z_SPAN", 75)
    monkeypatch.setattr(workloads, "CORPUS_LINES", 6000)
    monkeypatch.setattr(workloads, "SAMPLE_N", 1000)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_reports_every_metric(name, trace, tiny, capsys):
    code = run.main(["--workload", name, "--seed", "7", "--seconds", "0.1",
                     "--trace", str(trace)])
    out, err = capsys.readouterr()
    assert code == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, err
    assert result["attempted"] >= run.MIN_REPS
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_refuses_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sample-1m",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracles_reject_perturbed_artifacts(tmp_path, tiny):
    wl = workloads.make("fit-table-120k", 3, tmp_path, ROOT)
    code, _, _ = run.run_child(["-m", "menzerath", *wl.argv], tmp_path, tmp_path / "log")
    assert code == 0
    out = tmp_path / "out"
    assert oracles.check(wl, out) == []

    report = json.loads((out / "report.json").read_text())
    hyperbolic = next(b for b in report["models"] if b["model"] == "hyperbolic")
    hyperbolic["params"]["b"] *= 1 + 1e-7
    (out / "report.json").write_text(json.dumps(report))
    assert any("hyperbolic.b" in e for e in oracles.check(wl, out))

    lines = (out / "cells.csv").read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)
    lines[1] = ",".join(fields)
    (out / "cells.csv").write_text("\n".join(lines) + "\n")
    assert any("sums to" in e for e in oracles.check_cells(out / "cells.csv", wl.expected))


def test_sample_oracle_rejects_wrong_marginal(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SAMPLE_N", 10_000)
    wl = workloads.make("sample-1m", 5, tmp_path, ROOT)
    code, _, _ = run.run_child(["-m", "menzerath", *wl.argv], tmp_path, tmp_path / "log")
    assert code == 0
    path = tmp_path / "out" / "samples.csv"
    assert oracles.check(wl, tmp_path / "out") == []
    lines = path.read_text().splitlines()
    smallest = min(x for x, _ in wl.expected)
    # Move a tenth of the draws onto the smallest x: still inside the
    # support, but far outside the marginal's sampling error.
    for i in range(2, len(lines), 10):
        lines[i] = f"{smallest},{lines[i].split(',')[1]}"
    path.write_text("\n".join(lines) + "\n")
    assert any("frequencies" in e for e in oracles.check(wl, tmp_path / "out"))
