"""Seeded synthetic inputs for the rocqe benchmark (stdlib and numpy only).

Every generator takes the workload seed and writes plain files into a
directory, so the program under test only ever sees generated files. The
same seed gives byte-identical files: values are written with
``repr(float(v))`` (the repr of an ``np.float64`` would read
``np.float64(...)``, which the WMT reader rejects as malformed).

Ground truth follows MQM: a segment with at least one annotated error is a
positive (score < 0 under the ``strict`` cutoff), an error-free segment
scores 0. About 45% of segments carry errors; each error draws a WMT23
severity weight.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

POSITIVE_RATE = 0.45
# WMT23 penalty points: major/non-translation, major, minor/other,
# minor/fluency-punctuation; with the probability of each per error.
SEVERITY_NAMES = ("major/non-translation", "major", "minor/other", "minor/fluency-punctuation")
SEVERITY_POINTS = np.array([25.0, 5.0, 1.0, 0.1])
SEVERITY_PROBS = np.array([0.05, 0.35, 0.45, 0.15])
# Share of WMT gold entries left unannotated ("None"), as in the public
# releases; such rows are skipped by ingest, never failed.
WMT_GOLD_MISSING = 0.02


@dataclass
class Gold:
    """MQM gold scores: the value written, and the label it implies."""

    mqm: np.ndarray  # float64; NaN where the entry is written as "None"
    severity_counts: dict[str, int]

    @property
    def annotated(self) -> np.ndarray:
        return ~np.isnan(self.mqm)

    @property
    def is_positive(self) -> np.ndarray:
        return self.mqm < 0.0  # NaN compares False


@dataclass
class Metric:
    """One QE score column: raw values and whether higher means better."""

    name: str
    raw: np.ndarray
    higher_better: bool

    @property
    def orientation(self) -> str:
        return "higher-better" if self.higher_better else "higher-worse"

    def risk(self, mask: np.ndarray) -> np.ndarray:
        values = self.raw[mask]
        return -values if self.higher_better else values


@dataclass
class Inputs:
    """Paths of the generated files plus what the checks need to know."""

    files: dict[str, str] = field(default_factory=dict)
    gold: Gold | None = None
    metrics: dict[str, Metric] = field(default_factory=dict)
    accepted: np.ndarray | None = None  # rows of gold/metric arrays the program keeps
    system: str | None = None  # WMT system analysed
    properties: dict = field(default_factory=dict)


def make_gold(rng: np.random.Generator, n: int) -> Gold:
    positive = rng.random(n) < POSITIVE_RATE
    errors = np.where(positive, 1 + rng.poisson(0.8, n), 0)
    severity = rng.choice(SEVERITY_POINTS.size, size=int(errors.sum()), p=SEVERITY_PROBS)
    owner = np.repeat(np.arange(n), errors)
    mqm = 0.0 - np.bincount(owner, weights=SEVERITY_POINTS[severity], minlength=n)
    counts = np.bincount(severity, minlength=SEVERITY_POINTS.size)
    return Gold(mqm, {name: int(c) for name, c in zip(SEVERITY_NAMES, counts)})


def latent_quality(rng: np.random.Generator, gold: Gold, spread: float) -> np.ndarray:
    """A COMET-like quality score: lower for segments with more penalty."""
    penalty = np.nan_to_num(-gold.mqm, nan=0.0)
    n = gold.mqm.size
    return 0.80 - 0.06 * gold.is_positive - 0.004 * np.minimum(penalty, 25.0) + rng.normal(0.0, spread, n)


def distinct_continuous(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """Break the (astronomically rare) exact float collisions by nudging repeats."""
    while np.unique(values).size != values.size:
        _, first = np.unique(values, return_index=True)
        dup = np.setdiff1d(np.arange(values.size), first)
        values[dup] += rng.normal(0.0, 1e-9, dup.size)
    return values


def _fmt(value: float) -> str:
    return "None" if value != value else repr(float(value))


def write_two_column(path: str, header: tuple[str, str] | None, keys: list[str], values: np.ndarray) -> None:
    lines = [f"{header[0]}\t{header[1]}"] if header else []
    lines.extend(f"{k}\t{_fmt(v)}" for k, v in zip(keys, values.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def canonical_inputs(seed: int, directory: str, n: int, decimals: int | None) -> Inputs:
    """One gold TSV and one score TSV (metric ``qe``, higher is better).

    ``decimals`` None keeps scores continuous (every segment its own tie
    group); an integer rounds them, which creates tie groups.
    """
    rng = np.random.default_rng([seed, n, 1])
    gold = make_gold(rng, n)
    quality = latent_quality(rng, gold, 0.145)
    raw = distinct_continuous(rng, quality) if decimals is None else np.round(quality, decimals)
    metric = Metric("qe", raw, higher_better=True)
    ids = [f"seg{i:07d}" for i in range(n)]
    inputs = Inputs(gold=gold, metrics={"qe": metric}, accepted=np.ones(n, dtype=bool))
    inputs.files["gold"] = os.path.join(directory, "gold.tsv")
    inputs.files["qe"] = os.path.join(directory, "qe.tsv")
    write_two_column(inputs.files["gold"], ("segment_id", "mqm_score"), ids, gold.mqm)
    write_two_column(inputs.files["qe"], ("segment_id", "score"), ids, raw)
    inputs.properties = describe(inputs, lines_per_metric=2 * (n + 1))
    return inputs


WMT_TESTSET = "wmt23"
WMT_LANG_PAIR = "en-de"


def wmt_inputs(seed: int, directory: str, systems: int, n: int, target: int) -> Inputs:
    """A WMT-layout tree: ``systems`` systems with ``n`` segments each.

    Metrics ``cont`` (continuous, higher better), ``dec3`` (an error
    probability rounded to 3 decimals, higher worse) and ``int100``
    (integers 0-100, higher better). Only system ``target`` is analysed,
    so ingest keeps 1/systems of what it reads.
    """
    rng = np.random.default_rng([seed, systems, n, 2])
    names = [f"sys{chr(ord('A') + s)}" for s in range(systems)]
    golds, conts, dec3s, int100s = [], [], [], []
    for s in range(systems):
        gold = make_gold(rng, n)
        gold.mqm[rng.random(n) < WMT_GOLD_MISSING] = np.nan
        offset = 0.02 * (s - systems / 2)
        conts.append(distinct_continuous(rng, latent_quality(rng, gold, 0.10) + offset))
        dec3s.append(np.round(np.clip(1.0 - latent_quality(rng, gold, 0.20) - offset, 0.0, 1.0), 3))
        int100s.append(np.clip(np.round(100.0 * latent_quality(rng, gold, 0.20) + 100 * offset), 0, 100))
        golds.append(gold)

    base = os.path.join(directory, WMT_TESTSET)
    os.makedirs(os.path.join(base, "human-scores"))
    os.makedirs(os.path.join(base, "metric-scores", WMT_LANG_PAIR))
    keys = [name for name in names for _ in range(n)]
    inputs = Inputs()
    inputs.files["wmt_root"] = directory
    inputs.files["gold"] = os.path.join(base, "human-scores", f"{WMT_LANG_PAIR}.mqm.merged.seg.score")
    write_two_column(inputs.files["gold"], None, keys, np.concatenate([g.mqm for g in golds]))
    for name, per_system in (("cont", conts), ("dec3", dec3s), ("int100", int100s)):
        path = os.path.join(base, "metric-scores", WMT_LANG_PAIR, f"{name}.seg.score")
        write_two_column(path, None, keys, np.concatenate(per_system))
        inputs.files[name] = path

    inputs.system = names[target]
    inputs.gold = golds[target]
    inputs.metrics = {
        "cont": Metric("cont", conts[target], higher_better=True),
        "dec3": Metric("dec3", dec3s[target], higher_better=False),
        "int100": Metric("int100", int100s[target], higher_better=True),
    }
    inputs.accepted = golds[target].annotated
    severity = {k: sum(g.severity_counts[k] for g in golds) for k in SEVERITY_NAMES}
    # Loading a metric reads every system's lines of the gold file and its score file.
    inputs.properties = describe(inputs, lines_per_metric=2 * systems * n)
    inputs.properties.update(systems=systems, segments_per_system=n, severity_counts_all_systems=severity)
    return inputs


def describe(inputs: Inputs, lines_per_metric: int) -> dict:
    """Input properties that the workload choice depends on."""
    keep = inputs.accepted
    accepted = int(keep.sum())
    return {
        "segments": int(keep.size),
        "positive_rate": float(inputs.gold.is_positive[keep].mean()),
        "severity_counts": inputs.gold.severity_counts,
        "tie_groups": {m.name: int(np.unique(m.risk(keep)).size) for m in inputs.metrics.values()},
        "lines_read_per_metric": lines_per_metric,
        "rows_accepted_per_metric": accepted,
        "useful_ratio": accepted / lines_per_metric,
        "file_bytes": {k: os.path.getsize(p) for k, p in inputs.files.items() if os.path.isfile(p)},
    }
