"""The ``python -m menzerath`` entry: one BLAS thread, glibc keeps freed
memory, no interpreter teardown.

The entry must change nothing a user sees: its output, exit code and
artifacts equal those of ``cli.main`` called in this process.
"""

import builtins
import ctypes
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import menzerath
from menzerath import cli

DATA = Path(__file__).resolve().parent.parent / "data"
TABLE = str(DATA / "menzerath_synthetic.csv")


def _allocator_setting(name):
    return name == "GLIBC_TUNABLES" or name.startswith("MALLOC_")


# The environment without the user's allocator settings, under which the
# entry applies its own on glibc.
CLEAN_ENV = {k: v for k, v in os.environ.items() if not _allocator_setting(k)}
try:
    GLIBC = os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
except (AttributeError, ValueError, OSError):
    GLIBC = False

# Runs the package as ``-m`` does, in a fresh interpreter whose atexit
# marker prints only if the interpreter tears down.
PROBE = """
import atexit, runpy, sys
atexit.register(sys.stdout.write, "teardown\\n")
try:
    runpy.run_module("menzerath", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(f"SystemExit {exc.code}", file=sys.stderr)
    raise
"""


def _entry(args, cwd, probe=PROBE, env=os.environ):
    # The package's own directory on the path: cwd is not the checkout.
    path = os.pathsep.join([str(Path(menzerath.__file__).parent.parent),
                            env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-c", probe, *args], capture_output=True,
                          text=True, cwd=cwd, env={**env, "PYTHONPATH": path})


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("args, code", [
    (("fit", "--input", TABLE, "--boundaries", "--emit", "json,csv,svg", "--out", "out"), 0),
    (("sample", "--input", TABLE, "--n", "1000", "--seed", "3", "--emit", "csv,svg",
      "--out", "out"), 0),
    (("fit", "--input", "missing.csv", "--out", "out"), 1),
    (("fit", "--input", TABLE, "--boundaries", "--log-copula", "--out", "out"), 2),
])
def test_entry_skips_teardown_and_changes_nothing_else(args, code, tmp_path, capsys,
                                                       monkeypatch):
    (tmp_path / "entry").mkdir()
    (tmp_path / "main").mkdir()
    proc = _entry(args, tmp_path / "entry")
    monkeypatch.chdir(tmp_path / "main")
    assert cli.main(list(args)) == code
    main_out, main_err = capsys.readouterr()
    assert "teardown" not in proc.stdout
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, main_out, main_err)
    assert _files(tmp_path / "entry") == _files(tmp_path / "main")
    if code == 0:
        assert _files(tmp_path / "entry")


def test_usage_error_takes_the_normal_exit_path(tmp_path, capsys):
    proc = _entry(("fit",), tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit"])
    assert exc.value.code == 2
    assert proc.returncode == 2
    assert proc.stdout == "teardown\n"
    assert proc.stderr == capsys.readouterr().err + "SystemExit 2\n"


def test_entry_without_stdout(tmp_path):
    # Python sets sys.stdout to None when it starts with descriptor 1 closed.
    probe = ("import runpy, sys; sys.stdout = None; "
             "runpy.run_module('menzerath', run_name='__main__', alter_sys=True)")
    proc = _entry(("fit", "--input", TABLE, "--out", "out"), tmp_path, probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert (tmp_path / "out" / "report.json").is_file()


class _Exit(Exception):
    pass


def _fake_exit(code):
    raise _Exit(code)


@pytest.fixture
def mallopt(monkeypatch):
    """Calls to ``mallopt`` through ``ctypes.CDLL``, on a clean glibc setup."""
    for name in [k for k in os.environ if _allocator_setting(k)]:
        monkeypatch.delenv(name)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    calls = []

    def call(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=call))
    return calls


@pytest.mark.parametrize("preset, threads", [(None, "1"), ("3", "3")])
def test_entry_asks_for_one_blas_thread_unless_set(preset, threads, monkeypatch, mallopt):
    # Imported here: an import that ran the command would end the whole
    # test run if it happened at collection.
    from menzerath import __main__ as entry

    # setenv first, so that monkeypatch restores the variable afterwards
    # whether or not it was set.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset or "")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(os.environ["OPENBLAS_NUM_THREADS"]) or 7)
    monkeypatch.setattr(os, "_exit", _fake_exit)
    with pytest.raises(_Exit) as exc:
        entry.run()
    assert exc.value.args == (7,)
    assert seen == [threads]


def test_entry_sets_both_malloc_thresholds_before_the_cli_loads(monkeypatch, mallopt):
    from menzerath import __main__ as entry

    real_import = builtins.__import__

    def watch(name, globals=None, locals=None, fromlist=(), level=0):
        if (name, level) in {("cli", 1), ("menzerath.cli", 0)}:
            mallopt.append("import cli")
        return real_import(name, globals, locals, fromlist, level)

    monkeypatch.setattr(builtins, "__import__", watch)
    monkeypatch.setattr(cli, "main", lambda: mallopt.append("main") or 0)
    monkeypatch.setattr(os, "_exit", _fake_exit)
    with pytest.raises(_Exit):
        entry.run()
    assert mallopt == [(-3, 32 << 20), (-1, 1 << 30), "import cli", "main"]


def _no_mallopt(name):
    return types.SimpleNamespace()


def _no_library(name):
    raise OSError("no such library")


@pytest.mark.parametrize("env, libc, cdll", [
    ({"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}, "glibc 2.36", None),
    ({"MALLOC_MMAP_THRESHOLD_": "65536"}, "glibc 2.36", None),
    ({"MALLOC_ARENA_MAX": "2"}, "glibc 2.36", None),
    ({}, None, None),
    ({}, "musl", None),
    ({}, ValueError("unrecognized configuration name"), None),
    ({}, "glibc 2.36", _no_library),
    ({}, "glibc 2.36", _no_mallopt),
])
def test_entry_keeps_the_users_allocator(env, libc, cdll, monkeypatch, mallopt):
    from menzerath import __main__ as entry

    for name, value in env.items():
        monkeypatch.setenv(name, value)

    def confstr(name):
        assert name == "CS_GNU_LIBC_VERSION"
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(os, "confstr", confstr)
    if cdll is not None:
        monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(cli, "main", lambda: 5)
    monkeypatch.setattr(os, "_exit", _fake_exit)
    with pytest.raises(_Exit) as exc:
        entry.run()
    assert exc.value.args == (5,)
    assert mallopt == []


# Notes each first lookup of ``mallopt`` through ``ctypes.CDLL``.
WATCH_MALLOPT = """
import ctypes, sys
class Watch(ctypes.CDLL):
    def __getattr__(self, name):
        if name == "mallopt":
            print("mallopt", file=sys.stderr)
        return super().__getattr__(name)
ctypes.CDLL = Watch
"""


@pytest.mark.parametrize("run, calls", [
    ("import runpy; runpy.run_module('menzerath', run_name='__main__', alter_sys=True)",
     "mallopt\n"),
    ("import menzerath; from menzerath import cli; sys.exit(cli.main(sys.argv[1:]))", ""),
])
def test_only_the_entry_sets_malloc_thresholds(run, calls, tmp_path):
    proc = _entry(("fit", "--input", TABLE, "--out", "out"), tmp_path,
                  WATCH_MALLOPT + run, CLEAN_ENV)
    assert (proc.returncode, proc.stderr) == (0, calls if GLIBC else "")
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.skipif(not GLIBC, reason="glibc's allocator only")
def test_entry_reuses_a_freed_numpy_array_without_page_faults(tmp_path):
    # The command's own main replaced by one that frees a 1 MiB array and
    # counts the minor faults of the next one.  glibc's defaults unmap the
    # first on free (or trim it off the heap top), so the second faults
    # its 256 pages in again.
    probe = """
import resource, runpy, sys, types

def main():
    import numpy as np
    a = np.ones(1 << 17)
    del a
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    a = np.ones(1 << 17)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return 0

sys.modules["menzerath.cli"] = types.SimpleNamespace(main=main)
runpy.run_module("menzerath", run_name="__main__", alter_sys=True)
"""
    proc = _entry((), tmp_path, probe, CLEAN_ENV)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert int(proc.stdout) < 16


def test_numpy_loads_after_the_entry_sets_one_thread(tmp_path):
    # OpenBLAS reads the variable once, when numpy loads it.
    probe = """
import os, runpy, sys
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print("numpy sees", os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
            sys.meta_path.remove(self)
sys.meta_path.insert(0, Watch())
runpy.run_module("menzerath", run_name="__main__", alter_sys=True)
"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = _entry(("fit", "--input", "missing.csv"), tmp_path, probe, env)
    assert proc.returncode == 1
    assert proc.stderr.startswith("numpy sees 1\n")


def test_cli_module_is_not_a_second_entry(tmp_path):
    # `python -m menzerath.cli` defines the command and runs nothing.
    probe = ("import runpy; "
             "runpy.run_module('menzerath.cli', run_name='__main__', alter_sys=True)")
    proc = _entry(("fit", "--input", TABLE, "--out", "out"), tmp_path, probe)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert not (tmp_path / "out").exists()
