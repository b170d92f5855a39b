"""Canonical JSON reports and CSV exports."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from menzerath import (
    MODEL_ORDER,
    AltmannFit,
    Domain,
    Estimator,
    HyperbolicFit,
    MenzerathError,
    Space,
    boundary_copula_cells,
    build_table,
    cell_probabilities,
    cells_csv,
    compare,
    curves_csv,
    empirical_mal_curve,
    eval_model,
    fit_bivariate,
    fit_copula,
    fit_linear,
    hyperbolic_from_linear,
    predicted_mal,
    predicted_mal_from_cells,
    rss,
    to_boundaries,
    write_frequency_table,
    write_report,
)
from menzerath import _text

from util import probability_table, random_table


def sample_report():
    rng = np.random.default_rng(61)
    t = random_table(rng)
    return t, compare(t, ["altmann", "hyperbolic"])


def full_report():
    t = random_table(np.random.default_rng(66))
    comparison = compare(t, MODEL_ORDER[::-1])
    return t, comparison, json.loads(write_report(comparison, 10))


class TestComparisonReport:
    """The blocks of a report, for every model of MODEL_ORDER.

    ``compare`` is the only source of report blocks, so the name, order,
    flag and rss guarantees of a report are checked on what it returns.
    """

    def test_model_order(self):
        assert MODEL_ORDER == (
            "hyperbolic", "altmann", "altmann-direct", "gaussian", "lognormal",
            "copula", "copula-boundaries",
        )

    def test_blocks_reordered_canonically(self):
        _, comparison, payload = full_report()
        assert [b["model"] for b in comparison.blocks] == list(MODEL_ORDER)
        assert [b["model"] for b in payload["models"]] == list(MODEL_ORDER)

    def test_unknown_model_rejected(self):
        t, _, _ = full_report()
        with pytest.raises(ValueError, match="mystery"):
            compare(t, ["mystery"])

    def test_negative_rss_rejected(self):
        _, comparison, payload = full_report()
        for block, written in zip(comparison.blocks, payload["models"]):
            assert block["rss"] >= 0.0
            assert written["rss"] == block["rss"]

    def test_block_must_name_space_or_estimator(self):
        _, comparison, payload = full_report()
        for block in payload["models"]:
            copula = block["model"] in comparison.copulas
            assert ("estimator" in block) == copula
            assert ("space" in block) != copula


class TestWriteReport:
    def test_byte_identical_across_runs(self):
        t, comparison = sample_report()
        again = compare(t, ["altmann", "hyperbolic"])
        assert write_report(comparison, 100) == write_report(again, 100)

    def test_ends_with_newline_and_sorted_keys(self):
        _, comparison = sample_report()
        text = write_report(comparison, 100)
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload["schema_version"] == 1
        assert payload["sampling"] == {"seed": 0, "n": 100}
        assert list(payload) == sorted(payload)

    def test_model_block_order_survives_serialization(self):
        _, comparison = sample_report()
        payload = json.loads(write_report(comparison, 100))
        assert [b["model"] for b in payload["models"]] == ["hyperbolic", "altmann"]

    def test_empty_model_list(self):
        t, _ = sample_report()
        payload = json.loads(write_report(compare(t, []), 0))
        assert payload["models"] == []
        assert payload["dataset"]["total"] == t.total

    def test_floats_round_trip_exactly(self):
        _, comparison = sample_report()
        payload = json.loads(write_report(comparison, 100))
        assert payload["models"][0]["rss"] == comparison.blocks[0]["rss"]

    def test_rss_rederivable_from_report_plus_dataset(self):
        t, comparison = sample_report()
        payload = json.loads(write_report(comparison, 100))
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
        payload = json.loads(write_report(compare(t, ["copula"]), 100))
        # Re-derive: refit marginals from the dataset, reuse reported rho.
        refit = fit_copula(t)
        assert refit.rho == payload["models"][0]["params"]["rho"]
        again = rss(curve, predicted_mal_from_cells(cell_probabilities(refit)))
        assert again == pytest.approx(payload["models"][0]["rss"], abs=1e-9)


class TestDatasetSummary:
    def test_segment_table_carries_curve(self):
        rng = np.random.default_rng(63)
        t = random_table(rng)
        summary = compare(t, []).dataset
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

    def test_curves_csv_model_missing_an_empirical_x(self):
        t, _ = sample_report()
        curve = empirical_mal_curve(t)
        model = eval_model(AltmannFit(3.0, 0.4), np.delete(curve.xs, 1))
        with pytest.raises(MenzerathError,
                           match=f"^model 'altmann' curve missing x={curve.xs[1]}$"):
            curves_csv(curve, {"altmann": model})

    def test_curves_csv_names_the_smallest_missing_x_then_the_first_model(self):
        t, _ = sample_report()
        curve = empirical_mal_curve(t)
        alt = AltmannFit(3.0, 0.4)

        def without(*i):
            return eval_model(alt, np.delete(curve.xs, list(i)))

        # hyperbolic comes before altmann in MODEL_ORDER.
        for curves, name, i in [
            ({"altmann": without(1), "hyperbolic": without(2)}, "altmann", 1),
            ({"altmann": without(1), "hyperbolic": without(1)}, "hyperbolic", 1),
            ({"altmann": without(2), "hyperbolic": without(1, 2)}, "hyperbolic", 1),
            ({"altmann": without(0, 2), "hyperbolic": without(2)}, "altmann", 0),
        ]:
            with pytest.raises(MenzerathError,
                               match=f"^model '{name}' curve missing x={curve.xs[i]}$"):
                curves_csv(curve, curves)

    def test_curves_csv_writes_only_the_empirical_xs(self):
        t, _ = sample_report()
        curve = empirical_mal_curve(t)
        alt = AltmannFit(3.0, 0.4)
        wide = eval_model(alt, np.arange(1, curve.xs[-1] + 5))
        assert curves_csv(curve, {"altmann": wide}) == \
            curves_csv(curve, {"altmann": eval_model(alt, curve.xs)})

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

    @pytest.mark.parametrize("far", [9, 2**40, 2**62])
    def test_cells_csv_rows_ascend_whether_or_not_the_key_packs(self, far):
        # far = 9 keeps the packed (x, z) key range small, so the union is
        # found through a lookup array; far = 2**40 and 2**62 widen it
        # past that, and the union is ordered by lexsort.
        t = build_table([(1, 1, 2), (2, far, 1), (far, far + 3, 4)], Domain.SEGMENTS)
        cells = probability_table(
            Domain.SEGMENTS, {(1, 3): 0.25, (2, 2): 0.25, (far, far + 3): 0.5}
        )
        rows = cells_csv(t, {"copula": cells}).splitlines()[1:]
        want = sorted({(1, 1), (2, far), (far, far + 3), (1, 3), (2, 2)})
        assert [tuple(map(int, row.split(",")[:2])) for row in rows] == want

    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    @settings(max_examples=50, deadline=None)
    def test_row_chunks_move_no_byte(self, seed, chunk):
        t = random_table(np.random.default_rng(seed))
        cells = compare(t, ["copula", "copula-boundaries"]).cells

        def texts():
            return (cells_csv(t, cells), write_frequency_table(t),
                    write_frequency_table(to_boundaries(t)))

        want = texts()
        with mock.patch.object(_text, "_BLOCK", chunk):
            assert texts() == want

    @pytest.mark.parametrize("chunk", [1, 1 << 16])
    def test_counts_keep_every_digit(self, chunk):
        n = 2**60 + 1  # a float64 column would print it as 2**60
        t = build_table([(1, 2, n), (2, 5, 3)], Domain.SEGMENTS)
        cells = probability_table(Domain.SEGMENTS, {(1, 2): 0.25, (2, 4): 0.75})
        with mock.patch.object(_text, "_BLOCK", chunk):
            assert write_frequency_table(t) == f"x,z,count\n1,2,{n}\n2,5,3\n"
            assert cells_csv(t, {"copula": cells}) == (
                f"x,z,count,p_copula\n1,2,{n},0.25\n2,4,0,0.75\n2,5,3,0.0\n"
            )

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
