"""The documented public API: README's library quick start runs as
written, and names resolve without loading what they do not need."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_quick_start_runs(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    out = tmp_path / "out"
    assert sorted(p.name for p in out.iterdir()) == [
        "cells.csv", "curves.csv", "figure.svg", "report.json"]
    assert (out / "figure.svg").read_text(encoding="utf-8") == scope["svg_text"]


def test_names_load_only_what_their_modules_need():
    # A fresh interpreter: the test suite itself has imported everything.
    probe = ("import sys; "
             "from menzerath import Domain, build_table, parse_frequency_table, "
             "fit_linear, render_svg; "
             "print([m for m in ('scipy', 'regex') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
