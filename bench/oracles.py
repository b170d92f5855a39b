"""Independent output checks for the benchmark artifacts.

Everything here is recomputed with plain numpy from the table the input
generator says it encoded; nothing calls into the package under test.
Each check returns a list of failure messages, empty when the artifacts
are right.
"""

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

REL = 1e-9


def _close(got, want, rel=REL, abs_tol=1e-12) -> bool:
    return got is not None and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def _columns(expected: dict):
    keys = sorted(expected)
    xs = np.array([k[0] for k in keys], dtype=np.int64)
    zs = np.array([k[1] for k in keys], dtype=np.int64)
    ns = np.array([expected[k] for k in keys], dtype=np.int64)
    return xs, zs, ns


def _line(a: np.ndarray, b: np.ndarray, w: np.ndarray):
    """(intercept, slope, correlation) of b on a under weights w."""
    total = w.sum()
    ma, mb = (w * a).sum() / total, (w * b).sum() / total
    va = (w * (a - ma) ** 2).sum() / total
    vb = (w * (b - mb) ** 2).sum() / total
    cov = (w * (a - ma) * (b - mb)).sum() / total
    slope = cov / va
    return float(mb - slope * ma), float(slope), float(cov / math.sqrt(va * vb))


def expected_fit(expected: dict) -> dict:
    """Closed-form parameters and the empirical curve of a segment table."""
    xs, zs, ns = _columns(expected)
    x, z, w = xs.astype(float), zs.astype(float), ns.astype(float)
    alpha, beta, rho = _line(x, z, w)
    log_alpha, log_beta, _ = _line(np.log(x), np.log(z), w)
    _, _, rho_boundaries = _line(x - 1.0, z - x, w)
    curve_x = np.unique(xs)
    z_sum = np.array([int((zs[xs == v] * ns[xs == v]).sum()) for v in curve_x])
    n_sum = np.array([int(ns[xs == v].sum()) for v in curve_x])
    return {
        "hyperbolic": {"a": alpha, "b": beta},
        "altmann": {"a": math.exp(log_alpha), "b": 1.0 - log_beta},
        "rho": rho,
        "rho_boundaries": rho_boundaries,
        "curve_x": curve_x,
        "curve_y": z_sum / (curve_x * n_sum),
        "curve_n": n_sum,
        "support_x": np.unique(xs),
        "support_z": np.unique(zs),
    }


def check_report(path: Path, expected: dict, fit: dict) -> list:
    errors = []
    report = json.loads(path.read_text(encoding="utf-8"))
    data = report["dataset"]
    if data["total"] != sum(expected.values()):
        errors.append(f"dataset.total {data['total']} != {sum(expected.values())}")
    if data["distinct_cells"] != len(expected):
        errors.append(f"distinct_cells {data['distinct_cells']} != {len(expected)}")
    for axis in ("x", "z"):
        support = fit[f"support_{axis}"]
        want = {"min": int(support[0]), "max": int(support[-1]), "size": len(support)}
        if data[f"support_{axis}"] != want:
            errors.append(f"support_{axis} {data[f'support_{axis}']} != {want}")
    curve = data["mal_curve"]
    if [p["x"] for p in curve] != fit["curve_x"].tolist():
        errors.append("mal_curve x values differ")
    elif not all(
        _close(p["y"], y, 1e-12) and p["n"] == n
        for p, y, n in zip(curve, fit["curve_y"], fit["curve_n"].tolist())
    ):
        errors.append("mal_curve y or n values differ")
    blocks = {b["model"]: b for b in report["models"]}
    for name in ("hyperbolic", "altmann"):
        for key in ("a", "b"):
            got, want = blocks[name]["params"][key], fit[name][key]
            if not _close(got, want):
                errors.append(f"{name}.{key} {got!r} != oracle {want!r}")
    if not _close(blocks["copula"]["params"]["rho"], fit["rho"]):
        errors.append(f"copula rho {blocks['copula']['params']['rho']!r} != {fit['rho']!r}")
    if "copula-boundaries" in blocks:
        b = blocks["copula-boundaries"]
        if not _close(b["params"]["rho"], fit["rho_boundaries"]):
            errors.append(f"copula-boundaries rho {b['params']['rho']!r} != {fit['rho_boundaries']!r}")
        if b["infeasible_mass"] != 0:
            errors.append(f"copula-boundaries infeasible_mass {b['infeasible_mass']!r} != 0")
    for b in blocks.values():
        if not b["rss"] >= 0:
            errors.append(f"{b['model']} rss {b['rss']!r} is negative")
    # Without curves.csv the RSS of the closed-form models is recomputed
    # from the oracle parameters; the curves differ from the library's
    # only by parameter rounding, hence the looser tolerance.
    cx = fit["curve_x"].astype(float)
    predicted = {
        "hyperbolic": fit["hyperbolic"]["a"] / cx + fit["hyperbolic"]["b"],
        "altmann": fit["altmann"]["a"] * cx ** (-fit["altmann"]["b"]),
    }
    for name, ys in predicted.items():
        want = float(((fit["curve_y"] - ys) ** 2).sum())
        if not _close(blocks[name]["rss"], want, 1e-6):
            errors.append(f"{name} rss {blocks[name]['rss']!r} != oracle {want!r}")
    return errors


def check_curves(path: Path, report_path: Path, fit: dict) -> list:
    errors = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if values[:, 0].astype(np.int64).tolist() != fit["curve_x"].tolist():
        return ["curves.csv x column differs from the empirical support"]
    if not np.allclose(values[:, 1], fit["curve_y"], rtol=1e-12, atol=0):
        errors.append("curves.csv y_empirical differs from the oracle curve")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for block in report["models"]:
        col = header.index(f"y_{block['model']}")
        want = float(((values[:, 1] - values[:, col]) ** 2).sum())
        if not _close(block["rss"], want):
            errors.append(f"{block['model']} rss {block['rss']!r} != {want!r} from curves.csv")
    return errors


def check_cells(path: Path, expected: dict) -> list:
    errors = []
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    x, z, count = (values[:, i].astype(np.int64) for i in range(3))
    xs, zs, ns = _columns(expected)
    hit = count > 0
    if not (
        np.array_equal(x[hit], xs) and np.array_equal(z[hit], zs)
        and np.array_equal(count[hit], ns)
    ):
        errors.append("cells.csv counts differ from the input table")
    for i, name in enumerate(header[3:], start=3):
        p = values[:, i]
        if np.any(p < 0):
            errors.append(f"cells.csv {name} has negative probabilities")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            errors.append(f"cells.csv {name} sums to {float(p.sum())!r}")
        if name == "p_copula-boundaries" and np.any(p[z < x] != 0):
            errors.append("p_copula-boundaries puts mass on cells with z < x")
    return errors


def check_svg(path: Path) -> list:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"figure.svg is not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"figure.svg root element is {root.tag!r}"]
    return []


def check_samples(path: Path, expected: dict, n: int, seed: int) -> list:
    """Header, row count, supports and marginal frequencies of samples.csv."""
    errors = []
    with path.open(encoding="utf-8") as fh:
        first, second = fh.readline().split(), fh.readline().strip()
    fields = dict(f.split("=", 1) for f in first[1:])
    fit = expected_fit(expected)
    if second != "x,z" or fields.get("n") != str(n) or fields.get("seed") != str(seed):
        errors.append(f"samples.csv header {first} {second!r} is wrong")
    if not _close(float(fields.get("rho", "nan")), fit["rho"]):
        errors.append(f"samples.csv rho {fields.get('rho')} != oracle {fit['rho']!r}")
    pairs = np.loadtxt(path, delimiter=",", skiprows=2, dtype=np.int64, ndmin=2)
    if pairs.shape != (n, 2):
        return errors + [f"samples.csv has shape {pairs.shape}, want ({n}, 2)"]
    xs, zs, ns = _columns(expected)
    total = ns.sum()
    for col, values in ((0, xs), (1, zs)):
        support, inverse = np.unique(values, return_inverse=True)
        pmf = np.bincount(inverse, weights=ns) / total
        drawn = pairs[:, col]
        if not np.all(np.isin(drawn, support)):
            errors.append(f"samples.csv column {col} leaves the marginal support")
            continue
        freq = np.bincount(np.searchsorted(support, drawn), minlength=len(support)) / n
        # Six standard errors per support value: a false alarm is far
        # rarer than one in a million runs.
        tol = 6.0 * np.sqrt(pmf * (1.0 - pmf) / n) + 1e-12
        if np.any(np.abs(freq - pmf) > tol):
            errors.append(f"samples.csv column {col} frequencies miss the marginal pmf")
    return errors


def check(workload, out: Path) -> list:
    """All checks that apply to the artifacts of one workload run."""
    for name in workload.artifacts:
        if not (out / name).is_file():
            return [f"{name} was not written"]
    if workload.sample_n:
        return check_samples(out / "samples.csv", workload.expected,
                             workload.sample_n, workload.seed)
    fit = expected_fit(workload.expected)
    errors = check_report(out / "report.json", workload.expected, fit)
    if "curves.csv" in workload.artifacts:
        errors += check_curves(out / "curves.csv", out / "report.json", fit)
        errors += check_cells(out / "cells.csv", workload.expected)
    if "figure.svg" in workload.artifacts:
        errors += check_svg(out / "figure.svg")
    return errors
