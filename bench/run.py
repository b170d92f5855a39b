"""Benchmark of the ``menzerath`` command line, end to end and by layer.

Usage, from the root of a source checkout (``src/`` next to ``bench/``):

    python3 bench/run.py --workload fit-table-120k --seed 1 --seconds 42 --trace 0

The workload inputs are generated from ``--seed`` before any timing.
With ``--trace 0`` the unmodified CLI runs as one cold process after
another for ``--seconds`` seconds, each timed from spawn to exit with
its peak RSS read from ``os.wait4``.  Before each, a cold run of
``calibrate.py`` measures the machine's current speed, and in every
other repetition a cold process that only imports ``menzerath.cli``
measures start-up; both times are scaled by the calibration (see
``CAL_REF_S``).  Every artifact is checked against the oracles in
``oracles.py``.  With ``--trace 1`` the same command runs in this
process with every public function of the package wrapped in a timing
span (``tracing.py``), and the per-layer metrics come from those spans
and from ``python -X importtime``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it gives each metric's median, quartiles and sample count, and for the
untraced run the unscaled wall times of the CLI, the import-only and the
calibration processes.  The exit code is 0 when the benchmark ran,
whether or not the checks passed, and 2 when the checkout has no
package to run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 60.0
# At least this many repetitions per run, however short --seconds is.
MIN_REPS = 3
SETUP_CMD = ["-c", "import menzerath.cli"]
# An import-only process runs in every SETUP_EVERY-th repetition: its
# time, once scaled, spreads far less than the CLI's, so the repetitions
# are spent on the CLI.
SETUP_EVERY = 2
# The speed of a shared machine drifts by tens of percent from one
# second to the next, and the CLI's own CPU time drifts with it.  So
# each time is scaled by a fixed calibration process (calibrate.py) run
# right before the CLI, where the machine is still at much the same
# speed: the CLI's wall time by the calibration's, an import-only
# process's by the calibration's start-up (its wall time less the work
# after its imports).  The factors are the calibration's medians on the
# 2-vCPU machine of the recorded baseline, so scaled times read as
# seconds there.
CAL_CMD = [str(HERE / "calibrate.py")]
CAL_REF_S = 1.35
CAL_START_REF_S = 0.5
# How far the traced call's wall time may stray from its root spans.
MAIN_TOLERANCE_MS = 5.0
IMPORT_PACKAGES = ("numpy", "scipy", "menzerath")
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


def run_child(args, cwd: Path, log: Path):
    """Run ``python args`` to completion: (exit code or None, wall s, peak RSS MB).

    The exit code is ``None`` when the child was killed for running past
    the timeout.  RSS comes from this child's own rusage.
    """
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=_child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted while waiting: leave no child running behind.
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    return code, wall, usage.ru_maxrss / 1024.0


def _with_out(argv: list, out: Path) -> list:
    argv = list(argv)
    argv[argv.index("--out") + 1] = str(out)
    return argv


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _digests(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest()
            for n in names if (out / n).is_file()}


class Checker:
    """Full oracle check until one repetition passes, then byte equality."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None

    def __call__(self, out: Path) -> list:
        if self.reference is not None:
            got = _digests(out, self.workload.artifacts)
            differ = sorted(n for n in self.reference if got.get(n) != self.reference[n])
            return [f"{differ} differ from the first checked repetition"] if differ else []
        errors = oracles.check(self.workload, out)
        if not errors:
            self.reference = _digests(out, self.workload.artifacts)
        return errors


def _summary(values: list, unit: str) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _report(correct: bool, attempted: int, failed: int, detail: dict,
            unscaled: dict = None) -> None:
    print(json.dumps({"detail": detail, "unscaled": unscaled or {}}))
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in detail.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def _more(attempted: int, rep_s: float, deadline: float) -> bool:
    """Whether to start another repetition: until MIN_REPS, then only if it
    is expected to end before the deadline, so a run lasts --seconds."""
    return attempted < MIN_REPS or time.perf_counter() + rep_s <= deadline


def run_calibration(work: Path):
    """(wall s, work s) of one calibration process.

    Without it no time can be scaled, so a failure ends the run.
    """
    log = work / "calibration.log"
    code, wall_s, _ = run_child(CAL_CMD, work, log)
    if code != 0:
        raise RuntimeError(f"calibration process exited with {code}: "
                           + log.read_text(errors="replace")[-2000:])
    return wall_s, json.loads(log.read_text().splitlines()[-1])["work_s"]


def measure(workload, work: Path, seconds: float) -> None:
    """Cold processes in turn: import-only (every SETUP_EVERY-th
    repetition), calibration, then the CLI."""
    checker = Checker(workload)
    out = work / "out"
    reps = []
    attempted = failed = 0
    rep_s = 0.0
    deadline = time.perf_counter() + seconds
    while _more(attempted, rep_s, deadline):
        rep_start = time.perf_counter()
        errors, setup_s = [], None
        if attempted % SETUP_EVERY == 0:
            code, setup_s, _ = run_child(SETUP_CMD, work, work / "setup.log")
            if code != 0:
                errors.append(f"import-only process exited with {code}")
        attempted += 1
        cal_s, cal_work_s = run_calibration(work)
        _fresh(out)
        code, wall_s, rss_mb = run_child(["-m", "menzerath", *workload.argv], work,
                                         work / "cli.log")
        if code != 0:
            errors.append(f"CLI exited with {code}: "
                          + (work / "cli.log").read_text(errors="replace")[-2000:])
        else:
            errors += checker(out)
        if errors:
            failed += 1
            print(f"repetition {attempted} failed: {errors}", file=sys.stderr)
        reps.append({"ok": not errors, "setup_s": setup_s, "wall_s": wall_s,
                     "cal_s": cal_s, "cal_work_s": cal_work_s, "peak_rss_mb": rss_mb})
        rep_s = time.perf_counter() - rep_start
    values = {"wall_s": [CAL_REF_S * r["wall_s"] / r["cal_s"] for r in reps],
              "setup_s": [None if r["setup_s"] is None
                          else CAL_START_REF_S * r["setup_s"] / (r["cal_s"] - r["cal_work_s"])
                          for r in reps],
              "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    raw = {key: [r[key] for r in reps] for key in ("wall_s", "setup_s", "cal_s", "cal_work_s")}
    ok = [r["ok"] for r in reps]

    def pick(vals: list) -> list:
        # Failed repetitions are timed too, but only used when none passed.
        timed = [(v, o) for v, o in zip(vals, ok) if v is not None]
        return [v for v, o in timed if o] or [v for v, _ in timed]

    detail = {key: _summary(pick(values[key]), unit) for key, unit in UNITS.items()}
    unscaled = {key: _summary(pick(v), "s") for key, v in raw.items()}
    _report(failed == 0, attempted, failed, detail, unscaled)


def import_times(work: Path) -> dict:
    """Cumulative import time of each package, from ``-X importtime``, in ms.

    Returns ``None`` when the import fails.  A package's time is the sum
    over its outermost entries: those not nested under another entry of
    the same package.  Submodules of numpy that scipy imports therefore
    count towards both numpy and scipy.
    """
    log = work / "importtime.log"
    code, _, _ = run_child(["-X", "importtime", *SETUP_CMD], work, log)
    if code != 0:
        return None
    rows = []
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cumulative), name.strip()))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    path = []
    # Lines come in post-order; reversed, every entry follows its parent.
    for depth, cumulative, name in reversed(rows):
        del path[depth:]
        path.append(name.split(".")[0])
        top = path[-1]
        if top in totals and top not in path[:-1]:
            totals[top] += cumulative / 1e3
    return totals


def _in_process(cli, argv):
    """(exit code, seconds) of ``cli.main(argv)`` in this process.

    An exception escaping ``main`` is printed and reported as exit code
    ``None``, so one broken run still yields a result line.
    """
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start


def traced(workload, work: Path, seconds: float) -> None:
    """Per-layer metrics from in-process runs with every public function wrapped."""
    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    import menzerath.cli as cli

    checker = Checker(workload)
    reference_out = _fresh(work / "out")
    deadline = time.perf_counter() + seconds
    attempted, errors = 1, []
    code, _, _ = run_child(["-m", "menzerath", *workload.argv], work, work / "cli.log")
    errors += [f"untraced CLI exited with {code}"] if code != 0 else checker(reference_out)
    reference = _digests(reference_out, workload.artifacts)

    imports = {p: [] for p in IMPORT_PACKAGES}
    samples, counts = {}, None
    failed = 1 if errors else 0
    rep_s = 0.0
    while _more(attempted, rep_s, deadline):
        rep_start = time.perf_counter()
        attempted += 1
        rep_errors = []
        times = import_times(work)
        if times is None:
            rep_errors.append("import-only process failed")
        else:
            for pkg, ms in times.items():
                imports[pkg].append(ms)
        tracer = tracing.Tracer()
        out = _fresh(work / "traced")
        undo = tracing.install(tracer)
        try:
            code, main_s = _in_process(cli, _with_out(workload.argv, out))
        finally:
            tracing.uninstall(undo)
        if code != 0:
            rep_errors.append(f"traced run exited with {code}")
        if _digests(out, workload.artifacts) != reference:
            rep_errors.append("traced artifacts differ from the untraced CLI run")
        m = tracing.aggregate(tracer)
        m["cli.bytes_written"] = sum(f.stat().st_size for f in out.iterdir())
        rep_counts = {k: m[k] for k in tracing.DETERMINISTIC}
        if counts is not None and rep_counts != counts:
            rep_errors.append(f"deterministic counts moved: {rep_counts} != {counts}")
        counts = rep_counts
        # The layer self times add up to the root spans' time by
        # construction; the wall time of the call checks that the root
        # spans cover all of main.
        if abs(main_s * 1e3 - m["cli.main_ms"]) > MAIN_TOLERANCE_MS:
            rep_errors.append(f"root spans cover {m['cli.main_ms']:.1f} ms "
                              f"of a {main_s * 1e3:.1f} ms main")
        if rep_errors:
            failed += 1
            errors += rep_errors
        m["trace.overhead_s"] = tracing.span_cost_s() * len(tracer.spans)
        for k, v in m.items():
            samples.setdefault(k, {True: [], False: []})[not rep_errors].append(v)
        spans = tracing.spans_json(tracer)
        rep_s = time.perf_counter() - rep_start
    for e in errors:
        print(f"traced run check failed: {e}", file=sys.stderr)
    trace_dir = ROOT / ".bench_trace"
    trace_dir.mkdir(exist_ok=True)
    (trace_dir / f"{workload.name}-seed{workload.seed}.json").write_text(
        json.dumps({"workload": workload.name, "argv": workload.argv, "spans": spans}))
    detail = {f"import.{p}_ms": _summary(v or [0.0], "ms") for p, v in imports.items()}
    for k, s in samples.items():
        detail[k] = _summary(s[True] or s[False], tracing.UNITS[k])
    _report(failed == 0, attempted, failed, detail)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "menzerath" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'menzerath'}", file=sys.stderr)
        return 2
    work = _fresh(ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = workloads.make(args.workload, args.seed, work, ROOT)
        # Compile the package's bytecode and warm the file cache once,
        # untimed: an installed package ships both.
        run_child(SETUP_CMD, work, work / "warm.log")
        if args.trace:
            traced(workload, work, args.seconds)
        else:
            measure(workload, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
