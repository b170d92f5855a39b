"""Canonical JSON reports and CSV exports."""

import json
import math

import numpy as np
import pytest

from menzerath import (
    MODEL_ORDER,
    AltmannFit,
    ComparisonReport,
    Domain,
    Estimator,
    HyperbolicFit,
    MalCurve,
    Space,
    boundary_copula_cells,
    build_table,
    cell_probabilities,
    cells_csv,
    compare,
    curves_csv,
    dataset_summary,
    empirical_mal_curve,
    eval_model,
    fit_bivariate,
    fit_copula,
    fit_linear,
    hyperbolic_from_linear,
    predicted_mal,
    predicted_mal_from_cells,
    rss,
    write_report,
)

from util import expand, random_table


def sample_report():
    rng = np.random.default_rng(61)
    t = random_table(rng)
    curve = empirical_mal_curve(t)
    hyp = HyperbolicFit(1.2, 1.8)
    alt = AltmannFit(3.0, 0.4)
    blocks = (
        {
            "model": "altmann",
            "space": "log",
            "params": {"a": alt.a, "b": alt.b, "log_a": alt.log_a},
            "rss": rss(curve, eval_model(alt, curve.xs)),
        },
        {
            "model": "hyperbolic",
            "space": "raw",
            "params": {"a": hyp.a, "b": hyp.b},
            "rss": rss(curve, eval_model(hyp, curve.xs)),
        },
    )
    return t, ComparisonReport(
        dataset=dataset_summary(t), models=blocks, sampling={"seed": 0, "n": 100}
    )


class TestComparisonReport:
    def test_blocks_reordered_canonically(self):
        _, report = sample_report()
        assert [b["model"] for b in report.models] == ["hyperbolic", "altmann"]

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ComparisonReport(dataset={}, models=({"model": "mystery", "rss": 0.0},))

    def test_negative_rss_rejected(self):
        with pytest.raises(ValueError):
            ComparisonReport(
                dataset={},
                models=({"model": "altmann", "space": "log", "rss": -1.0},),
            )

    def test_block_must_name_space_or_estimator(self):
        with pytest.raises(ValueError):
            ComparisonReport(dataset={}, models=({"model": "altmann", "rss": 0.0},))


class TestWriteReport:
    def test_byte_identical_across_runs(self):
        _, report = sample_report()
        assert write_report(report) == write_report(report)

    def test_ends_with_newline_and_sorted_keys(self):
        _, report = sample_report()
        text = write_report(report)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert list(payload) == sorted(payload)

    def test_model_block_order_survives_serialization(self):
        _, report = sample_report()
        payload = json.loads(write_report(report))
        assert [b["model"] for b in payload["models"]] == ["hyperbolic", "altmann"]

    def test_empty_model_list(self):
        t, _ = sample_report()
        text = write_report(ComparisonReport(dataset=dataset_summary(t)))
        payload = json.loads(text)
        assert payload["models"] == []
        assert payload["dataset"]["total"] == t.total

    def test_floats_round_trip_exactly(self):
        _, report = sample_report()
        payload = json.loads(write_report(report))
        assert payload["models"][0]["rss"] == report.models[0]["rss"]

    def test_rss_rederivable_from_report_plus_dataset(self):
        t, report = sample_report()
        payload = json.loads(write_report(report))
        curve = empirical_mal_curve(t)
        for block in payload["models"]:
            p = block["params"]
            if block["model"] == "hyperbolic":
                fit = HyperbolicFit(p["a"], p["b"])
            else:
                fit = AltmannFit(p["a"], p["b"])
            again = rss(curve, eval_model(fit, curve.xs))
            assert again == pytest.approx(block["rss"], abs=1e-9)

    def test_copula_rss_rederivable(self):
        rng = np.random.default_rng(62)
        t = random_table(rng)
        curve = empirical_mal_curve(t)
        model = fit_copula(t)
        cells = cell_probabilities(model)
        block = {
            "model": "copula",
            "estimator": model.estimator.value,
            "params": {"rho": model.rho},
            "rss": rss(curve, predicted_mal_from_cells(cells)),
        }
        payload = json.loads(
            write_report(ComparisonReport(dataset=dataset_summary(t), models=(block,)))
        )
        # Re-derive: refit marginals from the dataset, reuse reported rho.
        refit = fit_copula(t)
        assert refit.rho == payload["models"][0]["params"]["rho"]
        again = rss(curve, predicted_mal_from_cells(cell_probabilities(refit)))
        assert again == pytest.approx(payload["models"][0]["rss"], abs=1e-9)


class TestDatasetSummary:
    def test_boundary_table_log_moments_null(self):
        t = build_table([(0, 0, 3), (1, 2, 4), (2, 1, 1)], Domain.BOUNDARIES)
        summary = dataset_summary(t)
        assert summary["moments"]["log_x"] is None
        assert summary["correlation"]["log"] is None
        assert "mal_curve" not in summary

    def test_log_moments_null_per_axis(self):
        # Zeros in x only: log x has no moments, log z keeps its own.
        t = build_table([(0, 1, 3), (1, 2, 4), (2, 5, 1)], Domain.BOUNDARIES)
        summary = dataset_summary(t)
        _, ez = expand(t)
        assert summary["moments"]["log_x"] is None
        log_z = summary["moments"]["log_z"]
        assert log_z["mean"] == pytest.approx(np.log(ez).mean(), abs=1e-12)
        assert log_z["sd"] == pytest.approx(np.log(ez).std(), abs=1e-12)
        assert summary["correlation"]["log"] is None
        assert summary["correlation"]["raw"] is not None

    def test_segment_table_carries_curve(self):
        rng = np.random.default_rng(63)
        t = random_table(rng)
        summary = dataset_summary(t)
        curve = empirical_mal_curve(t)
        assert [p["x"] for p in summary["mal_curve"]] == [int(x) for x in curve.xs]


class TestCsvExports:
    def test_curves_csv_layout(self):
        t, report = sample_report()
        curve = empirical_mal_curve(t)
        alt = AltmannFit(3.0, 0.4)
        text = curves_csv(curve, {"altmann": eval_model(alt, curve.xs)})
        lines = text.strip().split("\n")
        assert lines[0] == "x,y_empirical,y_altmann"
        assert len(lines) == 1 + len(curve.xs)
        x0, y0, m0 = lines[1].split(",")
        assert int(x0) == int(curve.xs[0])
        assert float(y0) == curve.ys[0]
        assert float(m0) == alt.a * int(x0) ** -alt.b

    def test_cells_csv_includes_union_of_cells(self):
        rng = np.random.default_rng(64)
        t = random_table(rng)
        cells = cell_probabilities(fit_copula(t))
        text = cells_csv(t, {"copula": cells})
        lines = text.strip().split("\n")
        assert lines[0] == "x,z,count,p_copula"
        keys = set(t.cells) | set(cells.cells)
        assert len(lines) == 1 + len(keys)
        total_count = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total_count == t.total
        total_p = sum(float(line.split(",")[3]) for line in lines[1:])
        assert total_p == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        t, _ = sample_report()
        curve = empirical_mal_curve(t)
        a = curves_csv(curve, {})
        b = curves_csv(curve, {})
        assert a == b


class TestCompare:
    def test_blocks_match_direct_fits_in_model_order(self):
        rng = np.random.default_rng(64)
        t = random_table(rng)
        curve = empirical_mal_curve(t)
        result = compare(t, ["copula-boundaries", "gaussian", "hyperbolic", "copula"],
                         Estimator.PEARSON_RAW, seed=5)
        names = [b["model"] for b in result.blocks]
        assert names == ["hyperbolic", "gaussian", "copula", "copula-boundaries"]
        assert names == [n for n in MODEL_ORDER if n in names]
        expected = {
            "hyperbolic": eval_model(hyperbolic_from_linear(fit_linear(t)), curve.xs),
            "gaussian": predicted_mal(fit_bivariate(t, Space.RAW), curve.xs),
            "copula": predicted_mal_from_cells(cell_probabilities(fit_copula(t))),
            "copula-boundaries": predicted_mal_from_cells(boundary_copula_cells(t)[0]),
        }
        for block in result.blocks:
            want = expected[block["model"]]
            assert result.curves[block["model"]].ys.tolist() == want.ys.tolist()
            assert block["rss"] == rss(curve, want)
        assert sorted(result.cells) == sorted(result.copulas) == [
            "copula", "copula-boundaries"
        ]
        assert result.copulas["copula"].rho == fit_copula(t).rho
        for block in result.blocks:
            copula = block["model"] in result.copulas
            assert block.get("seed") == (5 if copula else None)

    def test_unknown_model_rejected(self):
        t = random_table(np.random.default_rng(65))
        with pytest.raises(ValueError, match="fancy"):
            compare(t, ["hyperbolic", "fancy"])
