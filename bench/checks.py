"""Output checks, each against a reference computed here from the inputs.

A check returns a list of problems; an empty list means the output is
correct. Nothing in this module imports rocqe, so a defect in the program
cannot hide in its own reference.
"""

from __future__ import annotations

import json

import numpy as np

from gen import Inputs

AUC_TOLERANCE = 1e-9
GEOMETRY_TOLERANCE = 1e-12
BUDGET_TOLERANCE = 1e-9  # the slack rocqe itself allows in review-budget comparisons


class Reference:
    """Per-metric facts about the accepted rows: risks, tie groups, AUC."""

    def __init__(self, inputs: Inputs) -> None:
        keep = inputs.accepted
        positive = inputs.gold.is_positive[keep]
        self.segments = int(keep.sum())
        self.auc: dict[str, float] = {}
        self.tie_groups: dict[str, int] = {}
        for name, metric in inputs.metrics.items():
            risk = metric.risk(keep)
            self.auc[name] = pairwise_auc(risk[positive], risk[~positive])
            self.tie_groups[name] = int(np.unique(risk).size)


def pairwise_auc(pos: np.ndarray, neg: np.ndarray) -> float:
    """Mann-Whitney AUC: P(positive riskier than negative), ties count 1/2.

    Counts in integers (twice the win count) and divides once, so the
    result does not depend on summation order.
    """
    neg_sorted = np.sort(neg)
    below = np.searchsorted(neg_sorted, pos, side="left").astype(np.int64)
    at_or_below = np.searchsorted(neg_sorted, pos, side="right").astype(np.int64)
    twice_wins = int((below + at_or_below).sum())  # 2*below + ties
    return twice_wins / (2 * pos.size * neg.size)


def _load(path: str) -> tuple[dict | None, list[str]]:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle), []
    except (OSError, ValueError) as exc:
        return None, [f"{path}: unreadable report ({exc})"]


def _curve(name: str, entry: dict, ref: Reference) -> list[str]:
    problems = []
    auc = entry["auc"]
    if not abs(auc - ref.auc[name]) <= AUC_TOLERANCE:
        problems.append(f"{name}: auc {auc!r} differs from pairwise count {ref.auc[name]!r}")
    vertices = len(entry["vertices"])
    if vertices != ref.tie_groups[name] + 1:
        problems.append(f"{name}: {vertices} vertices, expected {ref.tie_groups[name]} tie groups + 1")
    return problems


def check_roc(path: str, ref: Reference, metrics: list[str], iterations: int | None) -> list[str]:
    report, problems = _load(path)
    if report is None:
        return problems
    for name in metrics:
        entry = report["results"]["metrics"][name]
        problems += _curve(name, entry, ref)
        if len(entry["pr_points"]) != len(entry["vertices"]) - 1:
            problems.append(f"{name}: pr_points should cover every vertex but the origin")
        band = entry["band"]
        if iterations is None:
            if band is not None:
                problems.append(f"{name}: band present without --bootstrap")
            continue
        if band is None or band["iterations"] != iterations:
            problems.append(f"{name}: band iterations differ from B={iterations}")
            continue
        lower, upper = np.array(band["lower_tpr"]), np.array(band["upper_tpr"])
        if lower.size != len(band["fpr_grid"]) or upper.size != lower.size:
            problems.append(f"{name}: band arrays differ in length from the grid")
        elif not np.all(lower <= upper):
            problems.append(f"{name}: band lower_tpr exceeds upper_tpr")
    return problems


def check_table(path: str, ref: Reference) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        return [f"{path}: unreadable table ({exc})"]
    rows = lines[2:-1]  # header and the two theoretical endpoint rows excluded
    if len(lines) < 4 or len(rows) != ref.segments:
        return [f"table has {max(len(lines) - 3, 0)} data rows, expected {ref.segments}"]
    if any(line.count("\t") != 8 for line in lines):
        return ["table rows do not all have 9 columns"]
    if rows[-1].split("\t")[-2:] != ["1.00", "1.00"]:
        return [f"last data row is not at tpr = fpr = 1: {rows[-1]!r}"]
    return []


def _decision(report: dict) -> dict:
    return report["results"]["decision"]


def _ordered_ci(decision: dict) -> list[str]:
    ci = decision["ci"]
    if ci is None or not ci[0] <= ci[1]:
        return [f"missing or inverted ci {ci!r}"]
    return []


def check_scenario1(path: str, x: float) -> list[str]:
    report, problems = _load(path)
    if report is None:
        return problems
    decision = _decision(report)
    if not decision["review_fraction"] <= x:
        problems.append(f"scenario 1 reviews {decision['review_fraction']!r} > x = {x}")
    if report["results"].get("optimal") is None:
        problems.append("scenario 1 report lacks the optimal threshold")
    return problems + _ordered_ci(decision)


def check_scenario2(path: str, y: float) -> list[str]:
    report, problems = _load(path)
    if report is None:
        return problems
    decision = _decision(report)
    if not decision["residual_fn_per_100"] <= y + BUDGET_TOLERANCE:
        problems.append(f"scenario 2 leaves {decision['residual_fn_per_100']!r} > y = {y}")
    return problems + _ordered_ci(decision)


def check_hull(path: str, ref: Reference, metrics: list[str]) -> list[str]:
    """Curves and AUCs as for roc, plus: the hull lies on or above every curve.

    The hull is concave and each curve is linear between its vertices, so
    it suffices that every curve vertex lies on or below the hull polyline.
    Each hull vertex must also be a vertex of the curve it names.
    """
    report, problems = _load(path)
    if report is None:
        return problems
    results = report["results"]
    hull = results["hull"]["vertices"]
    hx = np.array([v["fpr"] for v in hull])
    hy = np.array([v["tpr"] for v in hull])
    if (hx[0], hy[0], hx[-1], hy[-1]) != (0.0, 0.0, 1.0, 1.0):
        return problems + ["hull does not run from (0, 0) to (1, 1)"]
    if hx.size > 2 and hx[1] == 0.0:  # a vertical first edge: read fpr 0 at its top
        hx, hy = hx[1:], hy[1:]
    if np.any(np.diff(hx) <= 0):
        return problems + ["hull fpr does not increase from vertex to vertex"]
    points = {}
    for name in metrics:
        entry = results["metrics"][name]
        problems += _curve(name, entry, ref)
        fpr = np.array([v["fpr"] for v in entry["vertices"]])
        tpr = np.array([v["tpr"] for v in entry["vertices"]])
        if np.any(np.interp(fpr, hx, hy) < tpr - GEOMETRY_TOLERANCE):
            problems.append(f"{name}: a curve vertex lies above the hull")
        points[name] = set(zip(fpr.tolist(), tpr.tolist()))
    for v in hull:
        if (v["fpr"], v["tpr"]) not in points.get(v["source_system"], ()):
            problems.append(f"hull vertex {v!r} is not a vertex of its source curve")
            break
    return problems


def check_svg(path: str) -> list[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return [f"{path}: unreadable svg ({exc})"]
    if "<svg" not in text[:200] or not text.rstrip().endswith("</svg>"):
        return [f"{path}: not a complete svg document"]
    return []
