"""Frozen SHA-256 digests of CLI reports.

Reports are byte-identical for fixed inputs and flags, and that is part of
the contract. Each case below runs one CLI command from inside its input
directory (so the relative paths echoed in the report's config block do not
depend on where the checkout lives) and compares the digest of what the
command writes to stdout against the value frozen here. A case that writes
an SVG also compares the digest of that file, under the case name plus
".svg".

A refactor or speed-up must leave every digest unchanged. A deliberate
numeric change refreshes them once, and says so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from rocqe.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

SYNTH_SIZE = 2000
SYNTH_SEED = 20260517


def _write_synthetic(directory: str) -> None:
    """A seeded 2k-segment canonical set with two metrics.

    ``qe`` is higher-better and rounded to 2 decimals, so ties are common and
    a handful of segments score exactly 0.0 or -0.0 (one tie group). ``rank``
    is higher-worse on integers 0..100, so ties are heavy.
    """
    rng = np.random.default_rng(SYNTH_SEED)
    penalties = np.array([0.0, 0.0, 0.0, -0.1, -1.0, -2.0, -5.0, -10.0, -25.0])
    gold = rng.choice(penalties, size=SYNTH_SIZE)
    positive = gold < 0
    qe = np.round(rng.normal(0.0, 1.0, size=SYNTH_SIZE) - 0.8 * positive, 2)
    zeros = rng.choice(SYNTH_SIZE, size=12, replace=False)
    qe[zeros[:6]] = 0.0
    qe[zeros[6:]] = -0.0
    rank = np.clip(np.round(rng.normal(50.0, 15.0, size=SYNTH_SIZE) + 12.0 * positive), 0, 100)
    files = {
        "gold.tsv": ("mqm_score", gold),
        "qe.tsv": ("score", qe),
        "rank.tsv": ("score", rank),
    }
    for name, (header, values) in files.items():
        lines = [f"segment_id\t{header}"]
        lines += [f"seg{i:05d}\t{float(v)!r}" for i, v in enumerate(values)]
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


TREE_SYSTEMS = ("sysA", "sysB", "sysC", "sysD")
TREE_SEGMENTS = 2000


def _write_wmt_tree(directory: str) -> None:
    """A seeded WMT-style tree under ``directory/wmt_tree``: 4 systems x 2k segments.

    The files span several reader blocks and interleave the systems line
    by line. About 2% of gold entries are ``None`` or ``NA``, a few keys
    and values are space-padded, and every line ends in ``\\r\\n``. ``qe``
    is higher-better and continuous; ``rank`` is higher-worse on integers
    0..100, so ties are heavy.
    """
    rng = np.random.default_rng(SYNTH_SEED + 1)
    shape = (TREE_SEGMENTS, len(TREE_SYSTEMS))  # line order: segment, then system
    penalties = np.array([0.0, 0.0, 0.0, -0.1, -1.0, -2.0, -5.0, -10.0, -25.0])
    gold = rng.choice(penalties, size=shape)
    positive = gold < 0
    texts = {
        "human-scores/zh-en.mqm.merged.seg.score": gold,
        "metric-scores/zh-en/qe.seg.score": rng.normal(0.0, 1.0, size=shape) - 0.8 * positive,
        "metric-scores/zh-en/rank.seg.score": np.clip(
            np.round(rng.normal(50.0, 15.0, size=shape) + 12.0 * positive), 0, 100
        ),
    }
    missing = rng.random(shape) < 0.02
    for name, values in texts.items():
        texts[name] = np.array([repr(v) for v in values.ravel().tolist()], dtype=object)
    gold_texts = texts["human-scores/zh-en.mqm.merged.seg.score"]
    gold_texts[missing.ravel()] = np.where(rng.random(int(missing.sum())) < 0.5, "None", "NA")
    keys = np.array(TREE_SYSTEMS * TREE_SEGMENTS, dtype=object)
    for name, values in texts.items():
        padded_keys = rng.random(keys.size) < 0.003
        padded_values = rng.random(keys.size) < 0.003
        lines = [
            f"{f' {key} ' if pad_key else key}\t{f' {value} ' if pad_value else value}"
            for key, value, pad_key, pad_value in zip(
                keys.tolist(), values.tolist(), padded_keys.tolist(), padded_values.tolist()
            )
        ]
        path = os.path.join(directory, "wmt_tree", "wmt23", name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\r\n".join(lines) + "\r\n")


UNICODE_SIZE = 600


def _unicode_id(i: int) -> str:
    """Segment id ``i`` in one of six forms, by ``i % 6``.

    ASCII, accented, short CJK (all of at most 15 UTF-8 bytes), a long
    ASCII and a long CJK id (more than 15 bytes), and one with a NUL inside.
    """
    forms = (
        f"seg{i:04d}",
        f"café-{i}",
        f"翻訳{i}",
        f"segment-with-a-long-name-{i:04d}",
        f"長い識別子の例{i}",
        f"nul\x00{i}",
    )
    return forms[i % len(forms)]


def _write_unicode(directory: str) -> None:
    """A seeded canonical set whose ids are not all short ASCII.

    Besides ``_unicode_id``'s forms, the gold file holds ``tail`` and
    ``tail\x00`` (ids that differ by a trailing NUL), an emoji and ``Z``,
    in shuffled order, with a few ``NA`` values. ``qe`` (higher-better,
    1 decimal, so ties are heavy) is shuffled against the gold file, lacks
    about 5% of its ids (never these four) and scores ids the gold file
    lacks. ``rank``
    (higher-worse integers) is keyed like the gold file, line for line.
    """
    rng = np.random.default_rng(SYNTH_SEED + 2)
    special = ["tail", "tail\x00", "\U0001F600", "Z"]
    ids = [_unicode_id(i) for i in range(UNICODE_SIZE)] + special
    ids = [ids[i] for i in rng.permutation(len(ids)).tolist()]
    penalties = np.array([0.0, 0.0, 0.0, -0.1, -1.0, -5.0, -25.0])
    gold = rng.choice(penalties, size=len(ids))
    positive = gold < 0
    gold_texts = [repr(v) for v in gold.tolist()]
    for i in rng.choice(len(ids), size=6, replace=False).tolist():
        gold_texts[i] = "NA"
    qe = np.round(rng.normal(0.0, 1.0, size=len(ids)) - 0.8 * positive, 1)
    rank = np.clip(np.round(rng.normal(50.0, 15.0, size=len(ids)) + 12.0 * positive), 0, 100)
    drawn = (rng.random(len(ids)) >= 0.05).tolist()
    kept = [keep or key in special for key, keep in zip(ids, drawn)]
    qe_rows = [(key, repr(v)) for key, v, keep in zip(ids, qe.tolist(), kept) if keep]
    qe_rows += [(f"extra-ü{i}", repr(float(i % 3))) for i in range(10)]
    qe_rows = [qe_rows[i] for i in rng.permutation(len(qe_rows)).tolist()]
    files = {
        "unicode.gold.tsv": ("mqm_score", list(zip(ids, gold_texts))),
        "unicode.qe.tsv": ("score", qe_rows),
        "unicode.rank.tsv": ("score", [(key, repr(v)) for key, v in zip(ids, rank.tolist())]),
    }
    for name, (header, rows) in files.items():
        lines = [f"segment_id\t{header}"] + [f"{key}\t{value}" for key, value in rows]
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def synthetic_dir(tmp_path_factory) -> str:
    directory = str(tmp_path_factory.mktemp("synth2k"))
    _write_synthetic(directory)
    _write_wmt_tree(directory)
    _write_unicode(directory)
    return directory


BOOT = ["--bootstrap", "200", "--seed", "7"]
# Stands for the SVG path in a case; each run writes to its own tmp_path.
SVG_OUT = "<svg>"

SAMPLE10 = [
    "--gold", "sample10.gold.tsv",
    "--scores", "metric=sample10.scores.tsv",
    "--orientation", "metric=higher-better",
]
SAMPLE10_HULL = SAMPLE10 + ["--scores", "riskb=sample10.riskb.tsv"]

WMT = [
    "--wmt-root", "wmt_mini", "--lang-pair", "zh-en", "--testset", "wmt23",
    "--system", "sysY", "--orientation", "metricA=higher-better",
]
WMT_ONE = WMT + ["--scores", "metricA"]
WMT_HULL = WMT + ["--scores", "metricA", "--scores", "metricB"]

SYNTH = [
    "--gold", "gold.tsv",
    "--scores", "qe=qe.tsv",
    "--orientation", "qe=higher-better",
]
SYNTH_HULL = SYNTH + ["--scores", "rank=rank.tsv"]

TREE = [
    "--wmt-root", "wmt_tree", "--lang-pair", "zh-en", "--testset", "wmt23",
    "--system", "sysB", "--orientation", "qe=higher-better",
]
TREE_ONE = TREE + ["--scores", "qe"]
TREE_HULL = TREE + ["--scores", "qe", "--scores", "rank"]
TREE_CASES = ("scenario1-replicate", "scenario2", "hull", "table")

UNICODE = [
    "--gold", "unicode.gold.tsv",
    "--scores", "qe=unicode.qe.tsv",
    "--orientation", "qe=higher-better",
]
UNICODE_HULL = UNICODE + ["--scores", "rank=unicode.rank.tsv"]
UNICODE_CASES = ("roc-b200-w1", "table", "hull")


def _cases(prefix: str, one: list[str], hull: list[str]) -> dict[str, list[str]]:
    return {
        f"{prefix}/roc-b200-w1": ["roc", *one, *BOOT, "--workers", "1"],
        f"{prefix}/roc-b200-w2": ["roc", *one, *BOOT, "--workers", "2"],
        f"{prefix}/scenario1-replicate": [
            "scenario", *one, "--scenario", "1", "--x", "0.3", *BOOT,
            "--ci-method", "replicate", "--trade-off", "1:10",
        ],
        f"{prefix}/scenario1-band": [
            "scenario", *one, "--scenario", "1", "--x", "0.3", *BOOT,
            "--ci-method", "band",
        ],
        f"{prefix}/scenario2": [
            "scenario", *one, "--scenario", "2", "--y", "10", *BOOT,
            "--review-efficacy", "0.9",
        ],
        f"{prefix}/table": ["table", *one],
        f"{prefix}/hull": ["hull", *hull],
        f"{prefix}/diagnose": ["diagnose", *hull, *BOOT],
        f"{prefix}/roc-svg-b200": ["roc", *one, *BOOT, "--svg", SVG_OUT],
        f"{prefix}/roc2-svg-b200": ["roc", *hull, *BOOT, "--svg", SVG_OUT],
        f"{prefix}/hull-svg": ["hull", *hull, "--svg", SVG_OUT],
    }


CASES = {
    **_cases("sample10", SAMPLE10, SAMPLE10_HULL),
    **_cases("wmt_mini", WMT_ONE, WMT_HULL),
    **_cases("synth2k", SYNTH, SYNTH_HULL),
    **{
        name: argv
        for name, argv in _cases("wmt_tree", TREE_ONE, TREE_HULL).items()
        if name.split("/")[1] in TREE_CASES
    },
    **{
        name: argv
        for name, argv in _cases("unicode", UNICODE, UNICODE_HULL).items()
        if name.split("/")[1] in UNICODE_CASES
    },
}

DIGESTS = {
    "sample10/diagnose": "950a24145a7b31d6509938d773b60726c4baf99cd0a2480368b8a2d7d49cf577",
    "sample10/hull": "d41e6d5dbd0515e428c02e5c052567275be6dd9dead9eb8f04393408311451ab",
    "sample10/hull-svg": "d41e6d5dbd0515e428c02e5c052567275be6dd9dead9eb8f04393408311451ab",
    "sample10/hull-svg.svg": "c625c3838fc87607fc19136a3f745da0eb3ea1db865e39d97c2940f46df02bc1",
    "sample10/roc-b200-w1": "6d67c114b98696f407f6a73e265c23ce03b6da2df484639e67c86b2006963bd1",
    "sample10/roc-b200-w2": "6d67c114b98696f407f6a73e265c23ce03b6da2df484639e67c86b2006963bd1",
    "sample10/roc-svg-b200": "6d67c114b98696f407f6a73e265c23ce03b6da2df484639e67c86b2006963bd1",
    "sample10/roc-svg-b200.svg": "c20d061e0376483426204de7be84469881788dfd5c03b782e8769f25e31312dc",
    "sample10/roc2-svg-b200": "5fb5cb9840247a8dece8bc0d1b31c61d763a6ecf5263028af819dca4a83dbb58",
    "sample10/roc2-svg-b200.svg": "f84d2a6d31a262025238db63d47217427acda17c08f572089f583e8118821846",
    "sample10/scenario1-band": "5e4a6b8d8acf61538ac855ba5cba393efd327f8dfc6421c1af332af419d376fd",
    "sample10/scenario1-replicate": "15d84fd13bbf20b36d493b8ee372b9b771b1a7003fc0ed37c3cb3d3a32ee340f",
    "sample10/scenario2": "b65af6bad0ae7d29c4981b63829e1640687ffa5ba215e0475b2919025a105e04",
    "sample10/table": "1d3280657f92b3f6649fb52e8fac53d40d539f5d48514d736100a59db40d37ab",
    "synth2k/diagnose": "88445124b1fe070fd8ffc6a5402cf88e2fde63d65fd5e02580d583ce3ea2a7c3",
    "synth2k/hull": "635a7eb8d42f3dac6d6d6529ad03fb3021cfbf2c9e1c1f53d11b1dea591635fe",
    "synth2k/hull-svg": "635a7eb8d42f3dac6d6d6529ad03fb3021cfbf2c9e1c1f53d11b1dea591635fe",
    "synth2k/hull-svg.svg": "516164084df9b724ed521081b5e995f9112c8195993a8758218f19e6308abb47",
    "synth2k/roc-b200-w1": "e028952268cf9eb0bdc039e900451b08e3014560d6d6fd137e07a60038bf74cf",
    "synth2k/roc-b200-w2": "e028952268cf9eb0bdc039e900451b08e3014560d6d6fd137e07a60038bf74cf",
    "synth2k/roc-svg-b200": "e028952268cf9eb0bdc039e900451b08e3014560d6d6fd137e07a60038bf74cf",
    "synth2k/roc-svg-b200.svg": "67f274657b4f5dab478f686c4b3ad5bbd5f4e10893e08e7b9d1e2aea6230de87",
    "synth2k/roc2-svg-b200": "72c6660a1e98596c7dd2a1dc68b12004e0c93ef9f4f1045a1309c1fb8fd6b71a",
    "synth2k/roc2-svg-b200.svg": "77495a37359473bae43f069a7355b21ff739ac482c64ce555c365dfd5f2046b6",
    "synth2k/scenario1-band": "c6a4e4fb018ddd1feaa084dc1415a75eb35f4abe3a8215ac837d83765e9b2682",
    "synth2k/scenario1-replicate": "44d0ecded3b21e90ca689a5e91c59d08c9e66f72519e40e3959c2233ef729c1d",
    "synth2k/scenario2": "71420bc14b1fb14f4653aeab3b01c5e420c29b8c1bceefcce4b736ff777f3b34",
    "synth2k/table": "2dad83885520445afe6d441cfe7845275dec2a6a1c7b14a1af19abfe6fa554ed",
    "unicode/hull": "721502f161720c0e3d726490b19e505f770f88929cd1f585702ab1a7860562e4",
    "unicode/roc-b200-w1": "dd359e1d4ff8eb6f85021db0573d6905aae36c96215abc85eaf59d9d41ca547f",
    "unicode/table": "a416713cdca0114d0dbac8251fceaf946e89cc78e9369f8cb456f0a392a786a4",
    "wmt_mini/diagnose": "778ba1a05224508fc6e8fb6aac8febd673fd84ab57ccf98473492432675a7c4a",
    "wmt_mini/hull": "793eabb512c52991de59c91431561605dfe89b8aac96aeeee33ec22380d70fa8",
    "wmt_mini/hull-svg": "793eabb512c52991de59c91431561605dfe89b8aac96aeeee33ec22380d70fa8",
    "wmt_mini/hull-svg.svg": "d5dc313ef2a191cc35f39a0c55842c360fe0f2dcc2158602440dcf3f9d4e5e4c",
    "wmt_mini/roc-b200-w1": "095a9b04e222324cc3569b915cfd0c6e4180ed63328f7f1f62b6f36b72e4ca17",
    "wmt_mini/roc-b200-w2": "095a9b04e222324cc3569b915cfd0c6e4180ed63328f7f1f62b6f36b72e4ca17",
    "wmt_mini/roc-svg-b200": "095a9b04e222324cc3569b915cfd0c6e4180ed63328f7f1f62b6f36b72e4ca17",
    "wmt_mini/roc-svg-b200.svg": "5f83192c90a2a134ac4e767ded9543dcec56bbaec4e4f4d6aba001ef61c80d39",
    "wmt_mini/roc2-svg-b200": "337fa0d99b951b1e450b0a0c289bbd2567b06573def26539d5e32be687c8fd70",
    "wmt_mini/roc2-svg-b200.svg": "7b4e1eef9afebd5dabd5e801c7aef4dfe956356ea81aada7328f979136bb1ff6",
    "wmt_mini/scenario1-band": "47056d159a150bb5dcb2b25118a925309d8cd63a2fcd91dffa2bf8b5ffb3c7f3",
    "wmt_mini/scenario1-replicate": "2a7253c85619d8e53a3c801a7f0ea225b9a58139a770da0d2497969a6bd531d3",
    "wmt_mini/scenario2": "be9dca6bc1d7f9a7d8979abd2c884c21bdac3ed3dd5383932184eb1af7342dbe",
    "wmt_mini/table": "8c6e82e8e208df5cecb5b509a9cceffc5320183a85dbc40b70b091de25c5cbcb",
    "wmt_tree/hull": "f804681a9ac187a594831df983ad400398d9f4574373fd802bb562994be29965",
    "wmt_tree/scenario1-replicate": "381309e5892eeef2d7971436aff47ef525546517213db745c3ed24dbd8cedc38",
    "wmt_tree/scenario2": "31f49836aa228655d82b831ea8d8cf82077cd97be0acfe2eb41d9fb2ac46a439",
    "wmt_tree/table": "836cf747a447b66ff210be027d32b89de33fc7b4b1a3b6ab675b1267fe152465",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_digest_is_frozen(name, synthetic_dir, tmp_path, monkeypatch, capsys):
    generated = name.startswith(("synth2k/", "wmt_tree/", "unicode/"))
    monkeypatch.chdir(synthetic_dir if generated else FIXTURES)
    monkeypatch.delenv("ROCQE_SEED", raising=False)
    svg = str(tmp_path / "plot.svg")
    code = main([svg if arg == SVG_OUT else arg for arg in CASES[name]])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DIGESTS[name]
    if SVG_OUT in CASES[name]:
        with open(svg, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == DIGESTS[name + ".svg"]


def test_every_case_has_a_digest():
    svg_cases = [name + ".svg" for name, argv in CASES.items() if SVG_OUT in argv]
    assert sorted(DIGESTS) == sorted([*CASES, *svg_cases])
