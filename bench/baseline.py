"""Run every workload over several seeds and write the figures as JSON.

    python3 bench/baseline.py --seeds 1-10 --out bench/BASELINE.json

For each workload this runs ``run.py --trace 0`` once per seed and
reports, for each end-to-end metric, the median over seeds, the
quartiles and the spread (interquartile range over median), and the
same for the unscaled wall times of the CLI, import-only and
calibration processes.  It then makes two traced runs on the first
seed and records the per-layer metrics of both, so the deterministic
counts can be compared.  The output also names the machine, the
library versions and the git commit.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Traced runs per workload, to compare the deterministic counts.
TRACED_RUNS = 2


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    *_, detail, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    result["unscaled"] = json.loads(detail).get("unscaled", {})
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    return result


def _spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def _machine() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_sha": sha}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    result = {"machine": _machine(), "run_seconds": seconds, "seeds": seeds,
              "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_run(name, seed, seconds, 0) for seed in seeds]
        traced = [_run(name, seeds[0], seconds, 1) for _ in range(TRACED_RUNS)]
        result["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + traced),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: _spread([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "unscaled": {k: _spread([r["unscaled"][k]["value"] for r in runs])
                         for k in runs[0]["unscaled"]},
            "per_layer": {m["name"]: [r["metrics"][m["name"]]["value"] for r in traced]
                          for m in spec["per_layer"]},
        }
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
