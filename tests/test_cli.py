"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

DATA = Path(__file__).resolve().parent.parent / "data"

TABLE = """x,z,count
1,2,14
1,3,6
2,4,11
2,5,18
2,6,7
3,6,5
3,7,9
3,8,4
4,9,5
4,11,2
"""


def run(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "menzerath", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text(TABLE, encoding="utf-8")
    return path


def test_cold_import_loads_no_regex_or_urllib():
    # A fresh interpreter: the test suite itself imports regex.
    probe = (
        "import sys, menzerath.cli; "
        "print([m for m in ('regex', 'urllib.request') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestFit:
    def test_basic_fit_writes_report(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file),
            "--models", "hyperbolic,altmann,copula",
            "--out", str(out), "--emit", "json",
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        names = [b["model"] for b in payload["models"]]
        assert names == ["hyperbolic", "altmann", "copula"]
        copula = payload["models"][2]
        assert copula["estimator"] == "pearson-raw"
        assert copula["seed"] == 0
        assert copula["rss"] >= 0.0
        assert payload["sampling"] == {"seed": 0, "n": 100}

    def test_all_artifacts(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file),
            "--out", str(out), "--emit", "json,csv,svg",
        )
        assert result.returncode == 0, result.stderr
        for name in ("report.json", "curves.csv", "cells.csv", "figure.svg"):
            assert (out / name).exists()

    def test_degenerate_table_exit_2(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("2,5,9\n", encoding="utf-8")
        result = run("fit", "--input", str(path), "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "variance" in result.stderr.lower()

    def test_parse_error_exit_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,one\n", encoding="utf-8")
        result = run("fit", "--input", str(path), "--out", str(tmp_path / "o"))
        assert result.returncode == 1
        assert "line 1" in result.stderr

    def test_missing_file_exit_1(self, tmp_path):
        result = run("fit", "--input", str(tmp_path / "nope.csv"))
        assert result.returncode == 1

    @pytest.mark.parametrize("flags", [
        ("fit", "--seed", "-1"),
        ("fit", "--seed", "-1", "--emit", "svg"),
        ("fit", "--emit", "svg", "--n", "-1"),
        ("sample", "--seed", "-1"),
    ])
    def test_negative_seed_or_n_exit_1(self, flags, table_file, tmp_path):
        result = run(*flags, "--input", str(table_file), "--out", str(tmp_path / "o"))
        assert result.returncode == 1
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (("--constituent-delimiter=ab",), "delimiter must be a single character, got 'ab'"),
        (("--constituent-delimiter=#",), "delimiters must be distinct"),
        (("--subconstituent-mode", "delimited", "--subconstituent-delimiter=-"),
         "delimiters must be distinct"),
        (("--constituent-delimiter=\n",), "delimiters cannot be '\\n'"),
        (("--subconstituent-mode", "delimited", "--subconstituent-delimiter=\n"),
         "delimiters cannot be '\\n'"),
        (("--constituent-delimiter= ",), "delimiters cannot be whitespace"),
        (("--constituent-delimiter=\t",), "delimiters cannot be whitespace"),
        (("--subconstituent-mode", "delimited", "--subconstituent-delimiter=\u3000"),
         "delimiters cannot be whitespace"),
    ])
    @pytest.mark.parametrize("command", ["fit", "sample"])
    def test_bad_corpus_delimiter_exit_1(self, command, flags, message, tmp_path):
        result = run(
            command, "--kind", "corpus", "--input", str(DATA / "syllables_synthetic.txt"),
            *flags, "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: {message}")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_zero_samples_draw_an_empty_scatter(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file), "--n", "0", "--emit", "svg",
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert 'id="samples"' not in (out / "figure.svg").read_text()

    def test_unknown_model_exit_1(self, table_file, tmp_path):
        result = run(
            "fit", "--input", str(table_file), "--models", "fancy",
            "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 1

    def test_boundaries_adds_both_copula_variants(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file), "--models", "hyperbolic",
            "--boundaries", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        names = [b["model"] for b in payload["models"]]
        assert names == ["hyperbolic", "copula", "copula-boundaries"]
        by_name = {b["model"]: b for b in payload["models"]}
        assert by_name["copula"]["infeasible_mass"] > 0.0
        assert by_name["copula-boundaries"]["infeasible_mass"] == 0.0

    def test_log_copula_flag(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file), "--models", "copula",
            "--log-copula", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["models"][0]["estimator"] == "pearson-log"

    @pytest.mark.parametrize("command", ["fit", "sample"])
    def test_log_copula_conflicting_estimator_exit_1(self, command, table_file, tmp_path):
        result = run(
            command, "--input", str(table_file), "--log-copula",
            "--estimator", "normal-scores", "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 1
        assert "--log-copula conflicts with --estimator normal-scores" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_log_copula_with_its_own_estimator(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(table_file), "--models", "copula",
            "--log-copula", "--estimator", "pearson-log", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["models"][0]["estimator"] == "pearson-log"

    def test_boundaries_log_copula_exit_2(self, tmp_path):
        # Every one-constituent construct has x' = 0 in the boundary
        # table, where the log correlation is undefined.
        result = run(
            "fit", "--input", str(DATA / "menzerath_synthetic.csv"), "--boundaries",
            "--log-copula", "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 2
        assert result.stderr.startswith("fit error: log_x undefined")
        assert not (tmp_path / "o").exists()

    def test_boundaries_log_copula_names_cause_and_way_out(self, tmp_path):
        result = run(
            "fit", "--input", str(DATA / "menzerath_synthetic.csv"), "--boundaries",
            "--log-copula", "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 2
        assert "x' = x - 1 of a one-constituent construct" in result.stderr
        assert "--estimator normal-scores" in result.stderr

    def test_missing_scatter_is_reported(self, tmp_path):
        # z is constant, so no copula can be fitted for the scatter.
        path = tmp_path / "t.csv"
        path.write_text("1,3,5\n2,3,4\n3,3,2\n", encoding="utf-8")
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(path), "--models", "altmann-direct",
            "--emit", "svg,json", "--n", "50", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == (
            "warning: figure.svg has no sample scatter: "
            "correlation undefined: a variable has zero variance\n"
        )
        assert 'id="samples"' not in (out / "figure.svg").read_text()
        assert (out / "report.json").exists()

    def test_empirical_curve_built_once(self, tmp_path, monkeypatch):
        import menzerath.cli
        import menzerath.table

        original = menzerath.table.empirical_mal_curve
        calls = []

        def counted(table):
            calls.append(table)
            return original(table)

        for name, module in list(sys.modules.items()):
            if name.startswith("menzerath.") and \
                    getattr(module, "empirical_mal_curve", None) is original:
                monkeypatch.setattr(module, "empirical_mal_curve", counted)
        code = menzerath.cli.main([
            "fit", "--input", str(DATA / "menzerath_synthetic.csv"), "--boundaries",
            "--emit", "json,csv,svg", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        assert len(calls) == 1

    def test_corpus_input(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab-cde\nab\nabc-de-fg\nab-cd\nabcd\n", encoding="utf-8")
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(corpus), "--kind", "corpus",
            "--models", "hyperbolic", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["dataset"]["total"] == 5

    def test_corpus_file_splits_lines_at_newline_only(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"ab-c\rd-ef\r\nab-cd\nabc\n")
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(corpus), "--kind", "corpus",
            "--models", "hyperbolic", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        curve = json.loads((out / "report.json").read_text())["dataset"]["mal_curve"]
        assert [(p["x"], p["n"]) for p in curve] == [(1, 1.0), (2, 1.0), (3, 1.0)]

    @pytest.mark.parametrize("kind, text", [
        ("table", TABLE),
        ("corpus", "ka-ta\nab-cde\nab\nabc-de-fg\nab-cd\nabcd\n"),
    ], ids=["table", "corpus"])
    def test_leading_byte_order_mark_is_skipped(self, kind, text, tmp_path):
        datasets = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path = tmp_path / f"input-{len(bom)}.txt"
            path.write_bytes(bom + text.encode("utf-8"))
            out = tmp_path / f"out-{len(bom)}"
            result = run(
                "fit", "--input", str(path), "--kind", kind,
                "--models", "hyperbolic", "--out", str(out),
            )
            assert result.returncode == 0, result.stderr
            datasets.append(json.loads((out / "report.json").read_text())["dataset"])
        assert datasets[0] == datasets[1]

    def test_cdf_rounding_above_one_is_accepted(self, tmp_path):
        # The float running sum of the z marginal passes 1 before its
        # last value, z = 500 with a count of 1.
        counts = np.random.default_rng(1).integers(1, 10**15, 69, endpoint=True)
        rows = [f"{i + 1},{2 * i + 2 + i % 3},{counts[i]}\n" for i in range(68)]
        path = tmp_path / "t.csv"
        path.write_text("x,z,count\n" + "".join(rows) + "68,500,1\n", encoding="utf-8")
        result = run(
            "fit", "--input", str(path), "--boundaries", "--emit", "json,csv,svg",
            "--out", str(tmp_path / "out"),
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("flags", [[], ["--boundaries"]])
    def test_x_without_copula_mass_is_named(self, flags, tmp_path):
        # A count of 1 on the last x, x = 69, does not move the float
        # running sum of the x marginal, so the copula gives it no mass.
        counts = np.random.default_rng(1).integers(1, 10**15, 69, endpoint=True)
        rows = [f"{i + 1},{2 * i + 2 + i % 3},{counts[i]}\n" for i in range(68)]
        path = tmp_path / "t.csv"
        path.write_text("".join(rows) + "69,500,1\n", encoding="utf-8")
        result = run("fit", "--input", str(path), *flags, "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert result.stderr == "fit error: model 'copula' puts no mass on x = 69\n"

    @pytest.mark.parametrize(
        "flags", [[], ["--boundaries"], ["--estimator", "normal-scores"]]
    )
    def test_rho_next_to_one_is_clamped(self, flags, tmp_path):
        # Every estimator puts rho within 1e-15 of 1 here.  Unclamped, one
        # phi2 double difference fell 1e-9 below 0, and the clipped grid
        # failed its sum check with a ValueError no handler named.
        path = tmp_path / "t.csv"
        path.write_text(
            "x,z,count\n8706560,37040459,10924788\n7,12145,1738087240749641256\n"
            "37,37,6\n921621098,271924340164,1280175535187855079\n",
            encoding="utf-8",
        )
        result = run("fit", "--input", str(path), *flags, "--out", str(tmp_path / "o"))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert "clamped to 0.999999999" in lines[0]
        assert [line for line in lines if line.startswith("fit error:")] == [
            "fit error: model 'copula' puts no mass on x = 37"
        ]

    def test_count_past_int64_names_its_line(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1,2,99999999999999999999\n", encoding="utf-8")
        result = run("fit", "--input", str(path), "--out", str(tmp_path / "o"))
        assert result.returncode == 1
        assert result.stderr == (
            "error: line 1: count 99999999999999999999 exceeds 2**63 - 1\n"
        )

    def test_boundary_domain_table_converted(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("#domain=boundaries\n0,1,5\n1,3,5\n2,4,2\n", encoding="utf-8")
        out = tmp_path / "out"
        result = run(
            "fit", "--input", str(path), "--models", "hyperbolic", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        payload = json.loads((out / "report.json").read_text())
        assert payload["dataset"]["domain"] == "segments"


class TestStreamedInput:
    """The CLI hands its open input to the parsers, which read blocks."""

    @pytest.mark.parametrize("kind, text", [
        ("table", "# t\r\n" + TABLE.replace("\n", "\r\n")),
        ("corpus", "# c\nab-c\u0301de\r\nab\nabc-de-fg\nab-cd\nabcd\n" * 5),
    ], ids=["table", "corpus"])
    def test_input_read_in_blocks(self, kind, text, tmp_path, monkeypatch, capsys):
        from menzerath import cli, ingest

        path = tmp_path / "input.txt"
        path.write_bytes(text.encode("utf-8"))
        argv = ["fit", "--input", str(path), "--kind", kind, "--models", "hyperbolic"]
        assert cli.main([*argv, "--out", str(tmp_path / "whole")]) == 0
        whole = capsys.readouterr().out
        sizes = []

        class Guarded(io.TextIOWrapper):
            def read(self, size=-1):
                assert size is not None and size >= 0, "read() of the whole file"
                sizes.append(size)
                return super().read(size)

            def readlines(self, hint=-1):
                raise AssertionError("readlines() of the whole file")

        def guarded_open(file, **kwargs):
            return Guarded(open(file, "rb"), **kwargs)

        monkeypatch.setattr(cli, "open", guarded_open, raising=False)
        monkeypatch.setattr(ingest, "_BLOCK", 16)
        out = tmp_path / "blocks"
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == whole
        assert (out / "report.json").read_bytes() == \
            (tmp_path / "whole" / "report.json").read_bytes()
        assert len(sizes) > 1 and set(sizes) == {16}


class TestSample:
    def test_writes_samples_with_metadata_header(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "sample", "--input", str(table_file), "--n", "50", "--seed", "3",
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        lines = (out / "samples.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# model=copula estimator=pearson-raw rho=")
        assert "seed=3" in lines[0]
        assert lines[1] == "x,z"
        assert len(lines) == 52

    def test_n_zero_exit_1(self, table_file, tmp_path):
        result = run(
            "sample", "--input", str(table_file), "--n", "0",
            "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 1

    def test_log_copula_recorded_in_header(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "sample", "--input", str(table_file), "--log-copula", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        header = (out / "samples.csv").read_text().split("\n")[0]
        assert "estimator=pearson-log" in header

    def test_boundaries_samples_feasible(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "sample", "--input", str(table_file), "--boundaries",
            "--n", "200", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        rows = (out / "samples.csv").read_text().strip().split("\n")[2:]
        for row in rows:
            x, z = map(int, row.split(","))
            assert 1 <= x <= z

    def test_svg_emitted_on_request(self, table_file, tmp_path):
        out = tmp_path / "out"
        result = run(
            "sample", "--input", str(table_file), "--emit", "svg", "--out", str(out)
        )
        assert result.returncode == 0, result.stderr
        assert (out / "figure.svg").exists()

    def test_json_rejected_exit_1(self, table_file, tmp_path):
        result = run(
            "sample", "--input", str(table_file), "--emit", "csv,json",
            "--out", str(tmp_path / "o"),
        )
        assert result.returncode == 1
        assert "unknown emit kind(s): ['json']" in result.stderr
        assert not (tmp_path / "o").exists()


# A positive integer of 1 to 18 digits, the digit count drawn first.
_WIDE = st.integers(1, 18).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1))


class TestSampleChunks:
    """Streamed samples.csv against an independent one-shot formatting."""

    @pytest.mark.parametrize("boundaries", [False, True])
    def test_chunked_csv_matches_one_shot(
        self, boundaries, table_file, tmp_path, monkeypatch
    ):
        from menzerath import (
            _text,
            cli,
            fit_copula,
            pairs_from_boundaries,
            parse_frequency_table,
            sample_copula,
            to_boundaries,
        )

        flags = ["--boundaries"] if boundaries else []
        argv = ["sample", "--input", str(table_file), "--n", "50", "--seed", "4",
                "--emit", "csv,svg", *flags]
        assert cli.main([*argv, "--out", str(tmp_path / "whole")]) == 0
        # 50 rows in chunks of 7: seven full chunks and a 1-row remainder.
        monkeypatch.setattr(_text, "_BLOCK", 7)
        out = tmp_path / "chunked"
        assert cli.main([*argv, "--out", str(out)]) == 0

        table = parse_frequency_table(TABLE)
        if boundaries:
            model = fit_copula(to_boundaries(table))
            expected = pairs_from_boundaries(sample_copula(model, 50, 4))
        else:
            model = fit_copula(table)
            expected = sample_copula(model, 50, 4)
        header, columns, *rows = (out / "samples.csv").read_text().split("\n")
        assert header.startswith("# model=copula") and header.endswith("n=50 seed=4")
        assert columns == "x,z"
        assert rows == [f"{x},{z}" for x, z in expected.tolist()] + [""]
        # The scatter is drawn from the same rows, however they were chunked.
        whole = (tmp_path / "whole" / "figure.svg").read_bytes()
        assert (out / "figure.svg").read_bytes() == whole
        assert (out / "samples.csv").read_bytes() == (
            tmp_path / "whole" / "samples.csv"
        ).read_bytes()

    @pytest.mark.parametrize("boundaries", [False, True])
    def test_wide_chunks_take_the_sort_branch(self, boundaries, tmp_path, monkeypatch):
        from menzerath import (
            Domain,
            _text,
            build_table,
            cli,
            fit_copula,
            pairs_from_boundaries,
            sample_copula,
            to_boundaries,
            write_frequency_table,
        )
        from menzerath import table as table_module

        # Every (x, x + e) for x in 1..48 and e in 0..47: 48 distinct x
        # and 95 distinct z (48 and 48 as boundary counts).  Seven draws
        # span more support indices than the lookup's 4 * 7 + 1024 keys.
        rng = np.random.default_rng(5)
        table = build_table(
            [(x, x + e, int(rng.integers(1, 6))) for x in range(1, 49) for e in range(48)],
            Domain.SEGMENTS,
        )
        path = tmp_path / "table.csv"
        path.write_text(write_frequency_table(table), encoding="utf-8")
        argv = ["sample", "--input", str(path), "--n", "50", "--seed", "4",
                "--out", str(tmp_path / "out"), *["--boundaries"] * boundaries]
        monkeypatch.setattr(_text, "_BLOCK", 7)
        with mock.patch.object(table_module.np, "lexsort", wraps=np.lexsort) as sort:
            assert cli.main(argv) == 0
        # The table's rows take the lookup; only 7-row chunks were sorted.
        assert sort.call_count > 0
        assert all(len(call.args[0][0]) <= 7 for call in sort.call_args_list)
        model = fit_copula(to_boundaries(table) if boundaries else table)
        expected = sample_copula(model, 50, 4)
        if boundaries:
            expected = pairs_from_boundaries(expected)
        rows = (tmp_path / "out" / "samples.csv").read_text().split("\n")[2:]
        assert rows == [f"{x},{z}" for x, z in expected.tolist()] + [""]

    @given(
        cells=st.lists(st.tuples(_WIDE, _WIDE, st.integers(1, 5)), min_size=2, max_size=12),
        n=st.integers(1, 60),
        chunk=st.integers(1, 9),
        seed=st.integers(0, 2**32),
        boundaries=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    @pytest.mark.filterwarnings("ignore:.*clamped:UserWarning")
    def test_gathered_rows_match_one_shot_formatting(
        self, cells, n, chunk, seed, boundaries
    ):
        """Rows of 1- to 19-digit fields, in repeated chunks and a partial last one."""
        from menzerath import (
            Domain,
            Estimator,
            _text,
            build_table,
            cli,
            fit_copula,
            pairs_from_boundaries,
            sample_copula,
            to_boundaries,
            write_frequency_table,
        )

        table = build_table([(x, x + extra, k) for x, extra, k in cells], Domain.SEGMENTS)
        fit_table = to_boundaries(table) if boundaries else table
        # The rank-based estimator is defined on any two-valued axes.
        assume(len(fit_table.support_x) > 1 and len(fit_table.support_z) > 1)
        model = fit_copula(fit_table, Estimator.NORMAL_SCORES)
        expected = sample_copula(model, n, seed)
        if boundaries:
            expected = pairs_from_boundaries(expected)
        want = (("%d,%d\n" * n) % tuple(expected.ravel().tolist())).encode("ascii")
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "table.csv"
            path.write_text(write_frequency_table(table), encoding="utf-8")
            argv = ["sample", "--input", str(path), "--n", str(n), "--seed", str(seed),
                    "--estimator", "normal-scores", "--out", work]
            with mock.patch.object(_text, "_BLOCK", chunk):
                assert cli.main(argv + ["--boundaries"] * boundaries) == 0
            text = (Path(work) / "samples.csv").read_bytes()
        header, columns, rows = text.split(b"\n", 2)
        assert header.startswith(b"# model=copula") and columns == b"x,z"
        assert rows == want


class TestDeterminism:
    def test_fit_and_sample_reproducible(self, table_file, tmp_path):
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            r1 = run(
                "fit", "--input", str(table_file), "--out", str(out),
                "--emit", "json,csv,svg", "--seed", "9",
            )
            r2 = run(
                "sample", "--input", str(table_file), "--out", str(out),
                "--n", "100", "--seed", "9", "--emit", "svg",
            )
            assert r1.returncode == 0 and r2.returncode == 0
            outputs.append(
                {
                    name: (out / name).read_bytes()
                    for name in (
                        "report.json", "curves.csv", "cells.csv",
                        "figure.svg", "samples.csv",
                    )
                }
            )
        assert outputs[0] == outputs[1]

    def test_bundled_dataset_runs(self, tmp_path):
        result = run(
            "fit", "--input", str(DATA / "menzerath_synthetic.csv"),
            "--out", str(tmp_path / "out"), "--emit", "json",
        )
        assert result.returncode == 0, result.stderr


@pytest.mark.filterwarnings("ignore:.*clamped:UserWarning")
def test_seeded_extreme_tables_exit_cleanly(tmp_path):
    # Tables of 1-5 rows with log-uniform x up to 2**31, z - x up to 2**38
    # and counts up to 2**61, through every command in-process: each run
    # ends in a named exit code, never in an uncaught exception.
    from menzerath import cli

    rng = np.random.default_rng(2026)

    def draw(bits):
        # A bit length up to ``bits``, then a value of at most that length.
        return int(rng.integers(0, 1 << int(rng.integers(0, bits + 1)), endpoint=True))

    path = tmp_path / "t.csv"
    codes = set()
    for _ in range(60):
        cells = []
        for _ in range(int(rng.integers(1, 6))):
            x = max(1, draw(31))
            cells.append((x, x + draw(38), max(1, draw(61))))
        path.write_text("x,z,count\n" + "".join("%d,%d,%d\n" % cell for cell in cells))
        runs = [["fit"], ["fit", "--boundaries"], ["fit", "--estimator", "normal-scores"],
                ["sample"]]
        xs = [x for x, _, _ in cells]
        if max(xs) - min(xs) <= 10**6:
            runs.append(["fit", "--emit", "svg"])
        for command, *flags in runs:
            argv = [command, "--input", str(path), *flags, "--out", str(tmp_path / "o")]
            code = cli.main(argv)
            assert code in (0, 1, 2), (cells, argv)
            codes.add(code)
    assert 0 in codes
