"""The checks past tier-1, one pytest test per gate.

Run them with ``python -m pytest -v tests/gates.py``.  Tier-1 collects only
``test_*.py`` files, so it runs none of them.  They pin the artifact bytes of
seeded runs at benchmark scale, compare two kernels with numpy and Python on
about 2x10^6 values each, and bound the memory and page faults of cold
commands.  Each ``menzerath`` command runs through :func:`launch`.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BUNDLED = ROOT / "data" / "menzerath_synthetic.csv"

# A small parent: Linux carries a parent's RSS at exec into the child's
# ru_maxrss, so no command is spawned from this process, which may hold
# large inputs.  Given a CPU count, it pins itself, and so the command,
# to that many of the CPUs it may use.
_PARENT = (
    "import os, subprocess, sys\n"
    "cpus = int(sys.argv[1])\n"
    "if cpus:\n"
    "    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])\n"
    "proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)\n"
)
# One-CPU runs pin the command with os.sched_setaffinity, which is Linux only.
ONE_CPU = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                             reason="needs os.sched_setaffinity")


def launch(*args, env=None, cpus=0):
    """Run ``python args`` through the small parent, on ``cpus`` CPUs if not 0.

    Returns the command's own peak RSS in MB and its minor page faults.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **(env or {})}
    proc = subprocess.run([sys.executable, "-c", _PARENT, str(cpus), sys.executable, *args],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    code, maxrss, minflt = map(int, proc.stdout.split())
    assert code == 0, (args, proc.stderr)
    return maxrss / 1024, minflt


@functools.cache
def workload(name, dir):
    """Write the seed-1 input of ``bench/workloads.py``'s ``name`` under ``dir``; return its path."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    (dir / name).mkdir()
    argv = workloads.make(name, 1, dir / name, ROOT).argv
    return argv[argv.index("--input") + 1]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("workloads")


def digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}


SAMPLE = ["sample", "--n", "200000", "--seed", "1"]
SCATTER = ["fit", "--emit", "svg", "--n", "200000", "--seed", "1"]
# name: (input, argv, {artifact: (sha256, needle, count)}).  The input is a
# data file or a workload.  Each needle's count says what moved when a
# sha256 fails.  200,000 rows are 24 full _text._BLOCK (2^13-row) blocks
# and a partial 25th.
PINNED = {
    # 120,085 rects, 120,000 of them cells; a header and 126,320 cell rows.
    "fit-table-120k": ("fit-table-120k", ["fit", "--boundaries", "--emit", "csv,svg", "--seed", "1"], {
        "figure.svg": ("b6f2d352c440f0f2ed594efb11f7b1392001f48c87fc838f20b0c84410619512", "<rect", 120085),
        "cells.csv": ("a4e96ec8d5f589517ce1e395603f8019ffd4bce85775fc0f763ae33bf6630374", "\n", 126321),
        "curves.csv": ("9a129f6a283fd5c20f2ca82491b84d3bad76f1181d74306f5c2e823f18a5c428", "\n", 81),
    }),
    "fit-corpus-300k": ("fit-corpus-300k", ["fit", "--kind", "corpus", "--emit", "json", "--seed", "1"], {
        "report.json": ("f4509f9e482aa2898b5512293d6a9eed37af76f43bc74dfb478713a2c1fce2f4", "\n", 145),
    }),
    "sample": (BUNDLED, SAMPLE, {
        "samples.csv": ("a1e03f4cae7eef4e30792e0ff15089b57c7ac306d7fcd242783925093e178176", "\n", 200002),
    }),
    "sample-boundaries": (BUNDLED, SAMPLE + ["--boundaries"], {
        "samples.csv": ("a6919a10f0fd4fc9c0725c37a949da8a72d25c87b7fbcb20a81f931ed3b2067c", "\n", 200002),
    }),
    "scatter": (BUNDLED, SCATTER, {
        "figure.svg": ("98d2ac4b9cfb7ef58aee6734a31b8c76d789b102e82cd634bc9839a6a1c56806", 'r="2.5"', 200000),
    }),
    "scatter-boundaries": (BUNDLED, SCATTER + ["--boundaries"], {
        "figure.svg": ("7b19201185df7eb12fee39387ef8b977fcf555fc21bffaf4d2d4aa71c775d5e6", 'r="2.5"', 200000),
    }),
    # The 1579-value z marginal sends draws in every chunk past the guide
    # table to the CDF search.
    "sample-120k": ("fit-table-120k", SAMPLE, {
        "samples.csv": ("a1e3f868a171b76ad6e5ab8d38a443fe62cc7d07452052d16f82e81d722a42f9", "\n", 200002),
    }),
    "sample-120k-boundaries": ("fit-table-120k", SAMPLE + ["--boundaries"], {
        "samples.csv": ("2bbca3f924bf09c14d111df9b2925451225c26461393668f9b721ef93507b180", "\n", 200002),
    }),
}


@pytest.mark.parametrize("name, env, cpus", [pytest.param(name, None, 0, id=name) for name in PINNED] + [
    # The command asks for one OpenBLAS thread only when the variable is
    # unset (tests/test_entry.py); no artifact byte may depend on the count.
    pytest.param(name, {"OPENBLAS_NUM_THREADS": "2"}, 0, id=f"{name}-openblas-2")
    for name in ("sample", "sample-boundaries")
] + [
    # The draw chunks of samples.csv run on a thread per usable CPU; on
    # one CPU, on one thread, to the same bytes.
    pytest.param(name, None, 1, id=f"{name}-1cpu", marks=ONE_CPU)
    for name in ("sample", "sample-boundaries", "sample-120k")
])
def test_pinned_run(name, env, cpus, work, tmp_path):
    source, argv, pins = PINNED[name]
    path = source if isinstance(source, Path) else workload(source, work)
    launch("-m", "menzerath", *argv, "--input", str(path), "--out", str(tmp_path), env=env,
           cpus=cpus)
    for artifact, (sha256, needle, count) in pins.items():
        data = (tmp_path / artifact).read_bytes()
        got = (hashlib.sha256(data).hexdigest(), data.count(needle.encode()))
        assert got == (sha256, count), artifact


def test_demos_regenerate_data_and_match_the_cli(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in sorted(ROOT.glob("demos/0[0-5]_*.py")):
        subprocess.run([sys.executable, demo], cwd=ROOT, env=env, check=True)
    subprocess.run(["git", "diff", "--exit-code", "data/"], cwd=ROOT, check=True)
    launch("-m", "menzerath", "fit", "--input", str(BUNDLED), "--models", "copula", "--boundaries",
           "--n", "100", "--seed", "0", "--emit", "json,csv", "--out", str(tmp_path))
    demo = digests(ROOT / "demos" / "output")
    assert digests(tmp_path) == {name: demo[name] for name in ("report.json", "curves.csv", "cells.csv")}


def test_traced_counters_see_every_table_and_artifact():
    # A counter reads 0 when the tracer no longer finds the function or
    # attribute it observes, so the smoke test's finiteness check cannot
    # tell; the seed-1 values are pinned here.
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fit-table-120k", "--seed", "1",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    want = {"table.cells": 120000, "boundaries.grid_cells": 120000, "copula.phi2_evals": 249561,
            "report.bytes": 7081697, "svgfig.bytes": 8645831}
    got = {name: metrics[name]["value"] for name in want}
    print("traced counters:", got)
    assert got == want


def assert_flat_peak(runs, cpus=0):
    """Each argv of ``runs`` as one cold command; their peak RSS values lie within 15 MB."""
    rss = {key: launch("-m", "menzerath", *argv, cpus=cpus)[0] for key, argv in runs.items()}
    print("peak RSS (MB):", rss)
    assert max(rss.values()) - min(rss.values()) <= 15, rss


@pytest.mark.parametrize("kind, tiles", [("corpus", (500, 5000)), ("table", (4000, 40000))], ids=["corpus", "table"])
def test_ingest_memory_follows_the_block(kind, tiles, tmp_path):
    if kind == "corpus":
        head, body = b"", (ROOT / "data" / "syllables_synthetic.txt").read_bytes()
    else:
        lines = BUNDLED.read_bytes().splitlines(keepends=True)
        head, body = b"x,z,count\n", b"".join(line for line in lines if line[:1].isdigit())
        assert body.count(b"\n") == 77
    runs = {}
    for n in tiles:
        path = tmp_path / f"{kind}-{n}"
        path.write_bytes(head + body * n)
        runs[n] = ["fit", "--kind", kind, "--input", str(path), "--out", str(tmp_path / f"out-{n}")]
    assert_flat_peak(runs)


@pytest.mark.parametrize("cpus", [0, pytest.param(1, marks=ONE_CPU)], ids=["all-cpus", "1cpu"])
@pytest.mark.parametrize("source", [BUNDLED, "fit-table-120k"], ids=["bundled", "wide-120k"])
def test_sample_memory_follows_the_block(source, cpus, work, tmp_path):
    # samples.csv is drawn in draw chunks of cli._CHUNK_BLOCKS blocks of
    # _text._BLOCK rows (2^16 rows), at most one per pool thread ahead of
    # the one being written, on a 6 x 20 support and on the 80 x 1579
    # support of the 120k table.  The thread count is capped.
    path = source if isinstance(source, Path) else workload(source, work)
    assert_flat_peak({n: ["sample", "--input", str(path), "--n", str(n), "--emit", "csv",
                          "--out", str(tmp_path / f"out-{n}")] for n in (100_000, 1_000_000)},
                     cpus)


# The entry without its allocator policy: one BLAS thread, cli.main, flush
# and os._exit.
_PROBE = ("import os, sys; os.environ.setdefault('OPENBLAS_NUM_THREADS', '1'); "
          "from menzerath import cli; code = cli.main(); "
          "sys.stdout.flush(); sys.stderr.flush(); os._exit(code)")


def test_cold_fit_keeps_its_freed_memory(work, tmp_path):
    # On glibc the entry keeps freed memory, so its numpy temporaries stop
    # faulting pages back in.
    args = ["fit", "--input", workload("fit-table-120k", work), "--boundaries",
            "--emit", "json,csv,svg", "--seed", "1"]
    faults = {name: launch(*command, *args, "--out", str(tmp_path / name))[1]
              for name, command in (("entry", ["-m", "menzerath"]), ("probe", ["-c", _PROBE]))}
    print("minor page faults:", faults, "ratio %.2f" % (faults["entry"] / faults["probe"]))
    assert faults["entry"] <= 0.7 * faults["probe"], faults
    assert digests(tmp_path / "entry") == digests(tmp_path / "probe")


def test_float_text_kernel_equals_python_on_2e6_values_and_rows():
    # Seeded bit patterns and value families through _text._format_rows,
    # against Python's own %r and %.2f of every value.
    import numpy as np
    from menzerath import _text
    rng = np.random.default_rng(17)
    n = 2_000_000 // 7
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, np.finfo(float).max, 9.999999999999999e-05]
    edges += [sign * 2.0**k for k in range(-1074, 1024) for sign in (1, -1)]
    for base in (1e-4, 1e16):
        for direction in (0.0, np.inf):
            a = base
            for _ in range(50):
                a = np.nextafter(a, direction)
                edges.append(a)
    families = {
        "uniform": rng.random(n),
        "uniform * 1e-6": rng.random(n) * 1e-6,
        "bit patterns": rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
        "3 decimals": np.round(rng.uniform(-1e3, 1e3, n), 3),
        "integers to 1e17": rng.integers(-10**17, 10**17, n).astype(np.float64),
        "ties k/8": rng.integers(-8000, 8000, n) / 8,
        "ties k/200": rng.integers(-80000, 80000, n) / 200,
        "edges": np.array(edges),
    }
    values = sum(len(v) for v in families.values())
    mismatches = 0
    for name, column in families.items():
        for spec in ("%r", "%.2f"):
            got = "\n".join(_text._format_rows(spec, "\n", column))
            want = "\n".join([spec] * len(column)) % tuple(column.tolist())
            miss = 0
            if got != want:
                miss = max(1, sum(g != w for g, w in zip(got.split("\n"), want.split("\n"))))
            if miss:
                print(f"{name} {spec}: {miss} mismatches")
            mismatches += miss
    print(f"{values} values under %r and %.2f: {mismatches} mismatches")
    assert mismatches == 0
    # Whole rows: the cells.csv, <rect> and <circle> templates through
    # _text._format_rows, against a plain Python %-format of each block.
    from itertools import chain
    ints = [-2**63, -2**63 + 1, 2**63 - 1, 0, 1, -1]
    ints += [s * 10**k + d for k in range(19) for s in (1, -1) for d in (-1, 0, 1)]
    def int_column(n):
        c = rng.integers(-2**63, 2**63 - 1, n, endpoint=True) >> rng.integers(0, 64, n)
        c[rng.integers(0, n, len(ints))] = ints
        return c
    def float_column(n):
        c = rng.random(n) * 10.0 ** rng.integers(-8, 4, n)
        pick = rng.integers(0, n, 4000)
        c[pick] = np.concatenate([families["bit patterns"], families["edges"]])[:4000]
        c[rng.integers(0, n, 100)] = [1e15, -1e15, 2.5e300, np.nan, np.inf] * 20
        return c
    templates = [
        ("%d,%d,%d,%r,%r", "\n", 800_000, "ddd" + "ff"),
        ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="#2166ac"/>', "\n", 700_000, "ffff"),
        ('<circle cx="%.2f" cy="%.2f" r="2.5" fill="#d6604d" fill-opacity="0.35"/>', "", 600_000, "ff"),
    ]
    rows = mismatches = 0
    for row, sep, n, kinds in templates:
        columns = [int_column(n) if k == "d" else float_column(n) for k in kinds]
        got = list(_text._format_rows(row, sep, *columns))
        for i, start in enumerate(range(0, n, _text._BLOCK)):
            values = [c[start : start + _text._BLOCK].tolist() for c in columns]
            want = sep.join([row] * len(values[0])) % tuple(chain.from_iterable(zip(*values)))
            if got[i] != want:
                miss = sum(g != w for g, w in zip(got[i].split(sep or ">"), want.split(sep or ">")))
                print(f"{row[:10]} block {i}: {miss} mismatches")
                mismatches += max(miss, 1)
        assert len(got) == -(-n // _text._BLOCK)
        rows += n
    print(f"{rows} rows through _format_rows: {mismatches} mismatches")
    assert mismatches == 0


def test_cell_index_equals_numpy_row_unique_at_scale():
    # Seeded (x, z) row families through table._cell_index, against
    # np.unique(..., axis=0, return_inverse=True), with a count of the
    # lexsort calls that tells the lookup and sort branches apart.
    from unittest import mock
    import numpy as np
    from menzerath import table
    rng = np.random.default_rng(23)
    def block(x_hi, z_hi, rows):
        # Index chunks: uniform support indices below the bounds.
        return rng.integers(0, x_hi, rows), rng.integers(0, z_hi, rows)
    def corpus(rows):
        # Words of 1-8 syllables with 1-4 letters each, as in a corpus block.
        xs = np.minimum(rng.geometric(0.45, rows), 8)
        return xs, xs + rng.binomial(3 * xs, 0.3)
    band_x, band_z = np.divmod(np.arange(80 * 1500), 1500)
    band = (np.tile(band_x + 1, 3), np.tile(band_z + 1, 3))
    shuffle = rng.permutation(len(band[0]))
    far = np.array([-2**62, 0, 2**62])
    families = {
        "corpus-like block": [corpus(1 << 16) for _ in range(8)],
        "80 x 1500 band, three sources": [band, (band[0][shuffle], band[1][shuffle])],
        "6 x 20 index chunks": [block(6, 20, 1 << 16) for _ in range(4)],
        "80 x 1579 index chunks": [block(80, 1579, 1 << 16) for _ in range(4)],
        "sparse 200 x 10^4 table": [
            (rng.integers(1, 201, 20_000), rng.integers(1, 10_001, 20_000)) for _ in range(10)],
        "near -2^62, 0 and 2^62": [
            tuple(rng.choice(far[:k], 50_000) + rng.integers(-3, 4, 50_000) for _ in range(2))
            for k in (1, 1, 2, 3)],
    }
    rows, branches = 0, set()
    for name, cases in families.items():
        for xs, zs in cases:
            xs, zs = xs.astype(np.int64), zs.astype(np.int64)
            with mock.patch.object(table.np, "lexsort", wraps=np.lexsort) as sort:
                cell_xs, cell_zs, index = table._cell_index(xs, zs)
            cells, want = np.unique(np.column_stack((xs, zs)), axis=0, return_inverse=True)
            assert np.array_equal(cell_xs, cells[:, 0]) and np.array_equal(cell_zs, cells[:, 1]), name
            assert np.array_equal(index, want.ravel()), name
            branches.add("sort" if sort.call_count else "lookup")
            rows += len(xs)
        print(f"{name}: equal")
    print(f"{rows} rows, branches run: {sorted(branches)}")
    assert rows >= 2_000_000 and branches == {"lookup", "sort"}
