"""The CLI's one-pass report encoder against the stdlib-encoder oracle."""

from __future__ import annotations

import dataclasses
import math
import weakref

import numpy as np
import pytest

from rocqe import (
    BootstrapConfig,
    DecisionReport,
    Finding,
    HullVertex,
    IngestReport,
    Label,
    Orientation,
    Scenario,
    build_roc,
    confidence_band,
    convex_hull,
)
from rocqe import cli
from rocqe.cli import _json_chunks, _Rows
from rocqe.texts import run_texts
from helpers import reference_json, sample10_dataset

LEAVES = [
    0.0, -0.0, 1.0, 0.1, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 1e16, 123456789.0,
    math.nan, math.inf, -math.inf,
    0, -1, 7, 2**53 + 1, -(2**70),
    True, False, None,
    "", "plain", "quote \" backslash \\ slash /", "tab\tnewline\ncr\r",
    "\x00\x01\x1f\x7f", "café", "日本", "\U0001f600", "  ",
    np.float64(0.3), np.float64(math.nan), np.float64(-math.inf), np.float64(-0.0),
    np.float32(0.1), np.float32(math.inf), np.float16(1.5),
    np.int64(-5), np.int32(12), np.uint8(255), np.uint64(2**63),
    Orientation.HIGHER_IS_BETTER, Label.POSITIVE,
]


def _to_json(document) -> str:
    return "".join(_json_chunks(document))


def _same(document) -> None:
    assert _to_json(document) == reference_json(document)


class TestLeaves:
    @pytest.mark.parametrize("leaf", LEAVES, ids=repr)
    def test_leaf_alone_and_nested(self, leaf):
        _same(leaf)
        _same([leaf])
        _same({"k": leaf, "list": [leaf, [leaf]], "tuple": (leaf,)})


class TestContainers:
    @pytest.mark.parametrize(
        "document",
        [
            [], {}, (), [[]], [{}], {"a": []}, {"a": {}},
            np.array([]), np.array([], dtype=np.int64), {"a": np.zeros(0)},
            [(), ((),)], (1, (2, (3, "x"))),
            {3: "int key", 1: "one", "2": "two", -1.5: "float key"},
            {Orientation.HIGHER_IS_WORSE: 1},
            {1: "int key first", "1": "str key wins"},
            {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
            np.array([1.0, math.nan, -math.inf, math.inf, -0.0]),
            np.array([[1.0, math.nan], [math.inf, 2.5]]),
            np.array([1, -2, 3], dtype=np.int16),
            np.array([0.1, 0.2], dtype=np.float32),
            np.array([True, False]),
            {"nested": {"deeper": {"deepest": [1, {"x": np.array([0.5])}]}}},
        ],
        ids=repr,
    )
    def test_container(self, document):
        _same(document)

    def test_seeded_random_documents(self):
        rng = np.random.default_rng(2026)

        def make(depth):
            kind = int(rng.integers(0, 6 if depth < 4 else 1))
            if kind == 0:
                return LEAVES[int(rng.integers(0, len(LEAVES)))]
            if kind == 1:
                return [make(depth + 1) for _ in range(int(rng.integers(0, 4)))]
            if kind == 2:
                return tuple(make(depth + 1) for _ in range(int(rng.integers(0, 3))))
            if kind == 3:
                return np.round(rng.normal(size=int(rng.integers(0, 5))), 3)
            keys = ["a", "b", "c", 1, 2, "é"]
            return {
                keys[int(i)]: make(depth + 1)
                for i in rng.choice(len(keys), size=int(rng.integers(0, 4)), replace=False)
            }

        for _ in range(300):
            _same(make(0))

    def test_unsupported_object_raises_like_the_oracle(self):
        for document in (object(), {"a": [1, {2, 3}]}, np.bool_(True), HullVertex):
            with pytest.raises(TypeError):
                reference_json(document)
            with pytest.raises(TypeError):
                _to_json(document)


def _result_objects() -> list:
    """One of each library result type the reports carry."""
    dataset = sample10_dataset()
    curve = build_roc(dataset)
    band = confidence_band(dataset, BootstrapConfig(iterations=20, seed=4))
    hull = convex_hull([("a", curve)])
    return [
        DecisionReport(Scenario.REVIEW_BUDGET, -math.inf, math.inf, 0.0, 60.0),
        DecisionReport(
            Scenario.OPTIMAL_THRESHOLD, 95.0, -95.0, 0.5, 10.0,
            ci=(0.25, 0.75), notes=("one", "two"),
        ),
        band,
        *hull.vertices,
        IngestReport(5, 2, 1, 1, 1, warnings=("line 3: malformed", "line 4: \"quoted\"")),
        IngestReport(1, 1, 0, 0, 0),
        Finding("MIN_CLASS_BELOW_50", "positive class has 6 segments"),
        Finding("BAND_TOO_WIDE", "width 0.6", severity="info"),
    ]


class TestDataclasses:
    """Result objects encode as ``dataclasses.asdict`` of them would."""

    @pytest.mark.parametrize("result", _result_objects(), ids=lambda x: type(x).__name__)
    def test_alone_and_nested(self, result):
        fields = dataclasses.asdict(result)
        assert _to_json(result) == reference_json(fields)
        assert _to_json({"k": result, "list": [result, (result,)]}) == reference_json(
            {"k": fields, "list": [fields, [fields]]}
        )

    def test_all_together(self):
        results = _result_objects()
        assert _to_json({"results": results}) == reference_json(
            {"results": [dataclasses.asdict(x) for x in results]}
        )

    def test_fields_are_not_copied(self):
        band = confidence_band(sample10_dataset(), BootstrapConfig(iterations=20))
        assert cli._fields(band)["lower_tpr"] is band.lower_tpr


def _row_dicts(columns: dict) -> list[dict]:
    size = len(next(iter(columns.values())))
    return [{key: col[i] for key, col in columns.items()} for i in range(size)]


class TestRows:
    @pytest.mark.parametrize(
        "columns",
        [
            {"fpr": np.zeros(0), "tp": np.zeros(0, dtype=np.int64)},
            {
                "threshold": np.array([math.inf, 2.0, -0.0]),
                "threshold_raw": np.array([-math.inf, -2.0, 0.0]),
                "tp": np.array([0, 1, 2]),
            },
            {"x": np.array([math.nan, 1e-7, 1e22]), "%s": np.array([1, 2, 3])},
            {"b": np.array([0.1, 0.2], dtype=np.float32), "a": np.array([3, 4], dtype=np.uint8)},
            {"only": np.array([5])},
        ],
        ids=lambda c: ",".join(c),
    )
    def test_rows_match_list_of_dicts(self, columns):
        for level_wrap in (lambda x: x, lambda x: {"outer": {"inner": x}}, lambda x: [x, 1]):
            assert _to_json(level_wrap(_Rows(**columns))) == reference_json(
                level_wrap(_row_dicts(columns))
            )

    def test_seeded_random_columns(self):
        rng = np.random.default_rng(7)
        specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0])
        for _ in range(100):
            size = int(rng.integers(0, 30))
            values = rng.normal(size=size) * 10.0 ** rng.integers(-5, 6)
            hit = rng.random(size) < 0.2
            values[hit] = rng.choice(specials, size=int(hit.sum()))
            columns = {"v": values, "n": rng.integers(-(2**40), 2**40, size=size)}
            assert _to_json({"rows": _Rows(**columns)}) == reference_json(
                {"rows": _row_dicts(columns)}
            )

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_rows_split_across_blocks(self, block, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", block)
        columns = {
            "v": np.array([math.inf, 0.5, -0.0, math.nan, 2.0, 3.5, -math.inf]),
            "n": np.arange(7),
        }
        for size in (0, 1, 6, 7):
            part = {key: col[:size] for key, col in columns.items()}
            assert _to_json({"rows": _Rows(**part), "after": 1}) == reference_json(
                {"rows": _row_dicts(part), "after": 1}
            )

    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    def test_runs_are_bit_exact(self, block, monkeypatch):
        # Runs of equal neighbours are spelled once; 0.0 and -0.0 compare
        # equal as values but must keep their own texts.
        if block is not None:
            monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", block)
        values = [0.0, -0.0, -0.0, 0.0, 0.0, math.nan, math.nan, math.nan, 0.5, 0.5, 0.5,
                  -0.0, math.inf, math.inf, -math.inf, -0.0, 0.0]
        columns = {
            "f64": np.array(values),
            "f32": np.array(values, dtype=np.float32),
            "neg": -np.array(values),
            "n": np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 4, 4]),
        }
        for size in (1, 2, 3, 8, 17):
            part = {key: col[:size] for key, col in columns.items()}
            assert _to_json({"rows": _Rows(**part)}) == reference_json(
                {"rows": _row_dicts(part)}
            )
        assert _to_json(columns["f32"]) == reference_json(columns["f32"])

    @pytest.mark.parametrize("block", [None, 1, 2, 7])
    def test_ready_and_negated_text_columns(self, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", block)
        values = np.array([math.inf, 3.5, 1e-300, 5e-324, 0.0, -0.0, -0.0, -2.0, -1e22,
                           math.nan, -math.inf])
        for size in (0, 1, 6, 11):
            texts = cli._JsonTexts.spell(values[:size])
            # Written in the blocks the texts were spelled in, and in others.
            for rows_per_block in (cli._ROWS_PER_BLOCK, 3):
                monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", rows_per_block)
                for offset in range(min(size, 2) + 1):
                    # A text column first: the row count is read off its shape.
                    rows = _Rows(
                        neg_x=texts.view(offset, negated=True),
                        x=texts.view(offset),
                        twice=texts.view(negated=True).view(offset, negated=True),
                        n=np.arange(size - offset),
                    )
                    kept = values[offset:size]
                    part = {"neg_x": -kept, "x": kept, "twice": kept, "n": np.arange(size - offset)}
                    assert _to_json({"rows": rows}) == reference_json({"rows": _row_dicts(part)})

    def test_text_columns_are_spelled_once_in_joined_chunks(self, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", 4)
        spelled, original = [], cli._array_texts

        def spell(values):
            spelled.extend(values.tolist())
            return original(values)

        monkeypatch.setattr(cli, "_array_texts", spell)
        texts = cli._JsonTexts.spell(np.arange(10.0))
        assert spelled == list(np.arange(10.0))
        assert texts.chunks == ["0.0\n1.0\n2.0\n3.0", "4.0\n5.0\n6.0\n7.0", "8.0\n9.0"]
        assert texts.view(1)[slice(2, 6)].tolist() == ["3.0", "4.0", "5.0", "6.0"]
        assert texts.view(1, negated=True)[slice(8, 12)].tolist() == ["-9.0"]
        assert len(spelled) == 10

    def test_a_pass_splits_each_chunk_once(self, monkeypatch):
        monkeypatch.setattr(cli, "_ROWS_PER_BLOCK", 4)
        texts = cli._JsonTexts.spell(np.arange(10.0))
        reads = []

        class Chunks(list):
            def __getitem__(self, index):
                reads.append(index)
                return list.__getitem__(self, index)

        texts.chunks = Chunks(texts.chunks)
        # As in a roc entry: the vertex rows read the thresholds and their
        # negation, and the PR rows read them from row 1 on, so each of
        # their blocks straddles two chunks.
        vertices = _Rows(x=texts, neg_x=texts.view(negated=True))
        pr_points = _Rows(x=texts.view(1), n=np.arange(9))
        assert _to_json({"a": vertices, "b": pr_points}) == reference_json({
            "a": _row_dicts({"x": np.arange(10.0), "neg_x": -np.arange(10.0)}),
            "b": _row_dicts({"x": np.arange(1.0, 10.0), "n": np.arange(9)}),
        })
        assert reads == [0, 1, 2, 0, 1, 2]

    def test_columns_must_share_one_length(self):
        with pytest.raises(ValueError, match="one length"):
            _Rows(a=np.zeros(2), b=np.zeros(3))

    def test_non_numeric_column_rejected(self):
        # Only _JsonTexts pass as ready text; a bare object column is not trusted.
        for column in (
            np.array(["a", "b"]),
            np.array(["1", "2"], dtype=object),
            np.array([1.5, "x"], dtype=object),
        ):
            with pytest.raises(TypeError):
                _to_json(_Rows(name=column))


class _Entry(dict):
    """A dict that can be weakly referenced."""


class TestDeferred:
    @pytest.mark.parametrize("value", [{"b": [1, 2.5, None], "a": np.array([0.5, math.nan])}, [], 3])
    def test_encodes_like_its_value(self, value):
        for wrap in (lambda x: x, lambda x: {"outer": {"inner": x}}, lambda x: [x, 1]):
            assert _to_json(wrap(cli._Deferred(lambda: value))) == reference_json(wrap(value))

    def test_built_in_key_order_and_dropped_once_written(self):
        built = []

        def build(name):
            assert all(ref() is None for _, ref in built), "an earlier entry is alive"
            entry = _Entry(name=name, rows=_Rows(x=np.arange(3)))
            built.append((name, weakref.ref(entry)))
            return entry

        document = {name: cli._Deferred(build, name) for name in ("c", "a", "b")}
        assert not built
        rows = _row_dicts({"x": np.arange(3)})
        assert _to_json(document) == reference_json(
            {name: {"name": name, "rows": rows} for name in document}
        )
        assert [name for name, _ in built] == ["a", "b", "c"]
