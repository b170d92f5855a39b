"""Golden artifacts: the CLI's outputs on the bundled table, byte for byte.

The files under ``golden/`` were written by the command lines in
``RUNS`` from the repository root, with ``--out golden/<name>``.  Any
change to a report, CSV, figure or sample byte shows up here; a change
that is meant to move an output must say so and regenerate the files.
"""

from pathlib import Path

import pytest

from menzerath.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
TABLE = HERE.parent / "data" / "menzerath_synthetic.csv"
CORPUS = HERE.parent / "data" / "syllables_synthetic.txt"

RUNS = {
    "fit": ["fit", "--input", str(TABLE), "--boundaries", "--emit", "json,csv,svg"],
    "sample": ["sample", "--input", str(TABLE), "--n", "1000", "--seed", "3",
               "--emit", "csv,svg"],
    # No copula block is selected, so the figure fits a copula of its own.
    "fit-normal-scores": ["fit", "--input", str(TABLE), "--models", "hyperbolic,gaussian",
                          "--estimator", "normal-scores", "--emit", "json,csv,svg"],
    "fit-corpus-log": ["fit", "--input", str(CORPUS), "--kind", "corpus",
                       "--log-copula", "--emit", "json,csv"],
    "sample-boundaries": ["sample", "--input", str(TABLE), "--boundaries",
                          "--emit", "csv,svg"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_artifacts_match_golden_bytes(name, tmp_path, capsys):
    assert main([*RUNS[name], "--out", str(tmp_path)]) == 0
    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for file_name in expected:
        got = (tmp_path / file_name).read_bytes()
        want = (GOLDEN / name / file_name).read_bytes()
        assert got == want, f"{name}/{file_name} differs from the golden file"
