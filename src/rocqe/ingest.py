"""File ingestion: canonical two-column TSVs and the WMT score layout.

The canonical format is deliberately minimal so any upstream system can emit
it: a gold file (`segment_id<TAB>mqm_score`) and one score file per metric
(`segment_id<TAB>score`), joined on segment id. A separate adapter walks the
directory layout used by the public WMT metrics releases, where scores are
keyed by (system, line position) instead of explicit segment ids.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial
from itertools import compress, repeat
from typing import Callable, Iterator, Optional, TextIO

import numpy as np

from .groundtruth import SeverityCutoff, label, label_positive
from .model import (
    ID_DTYPE, Dataset, Orientation, _check_columns, _frozen, _id_column, _read_only,
    _strictly_increasing,
)

# Values that mean "no score here" in either column, besides non-finite
# numerics. Conventions vary across metric dumps; these are the observed ones.
MISSING_MARKERS = frozenset({"", "None", "NA"})

# Characters read per block by the whole-column reader.
_BLOCK_CHARS = 1 << 16

# Malformed lines named one by one in an ingest report; the rest are only
# counted, in one closing warning. The skip counters stay exact.
MAX_WARNINGS = 20


class IngestError(ValueError):
    """Raised for unrecoverable input problems (structure, duplicates)."""


class CanonicalRecords:
    """Joined records for one metric, held as columns.

    ``ids`` (an ``_id_column``), ``mqm_scores`` and ``scores`` are
    read-only arrays, one entry per record, every value present and finite.
    """

    def __init__(self, metric: str, ids, mqm_scores, scores) -> None:
        ids = _id_column(ids)
        mqm_scores = _read_only(mqm_scores, np.float64)
        scores = _read_only(scores, np.float64)
        _check_columns(ids=ids, mqm_scores=mqm_scores, scores=scores)
        if not (np.isfinite(mqm_scores).all() and np.isfinite(scores).all()):
            raise ValueError("canonical records hold finite values only")
        self.__dict__.update(metric=metric, ids=ids, mqm_scores=mqm_scores, scores=scores)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"CanonicalRecords is immutable; cannot set {name!r}")


@dataclass(frozen=True)
class IngestReport:
    """Accounting for one ingestion run.

    ``total_lines`` counts logical rows: every distinct segment id seen on
    either side of the join, plus every malformed physical line. The
    counters partition it exactly, so no row is ever dropped silently.
    """

    total_lines: int
    accepted: int
    skipped_missing_gold: int
    skipped_missing_score: int
    skipped_malformed: int
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        parts = (
            self.accepted
            + self.skipped_missing_gold
            + self.skipped_missing_score
            + self.skipped_malformed
        )
        if parts != self.total_lines:
            raise ValueError(
                f"accounting broken: {parts} classified rows vs "
                f"{self.total_lines} total"
            )


def _number(text: str) -> Optional[float]:
    """The value a stripped field spells: NaN for a missing marker, None for none."""
    try:
        return float("nan" if text in MISSING_MARKERS else text)
    except ValueError:
        return None


def _floats(texts: list[str], marked: bool) -> np.ndarray:
    """The values that texts spell; with ``marked``, NaN for missing markers.

    Raises ValueError for a text that is neither.
    """
    if marked:
        texts = ["nan" if t in MISSING_MARKERS else t for t in texts]
    # numpy reads a str element with Python's float parser.
    return np.array(texts, dtype=np.float64)


def _text_blocks(handle: TextIO) -> Iterator[tuple[int, str]]:
    """An open text file, about ``_BLOCK_CHARS`` characters at a time, in whole lines.

    Yields (first, text): the number of the block's first line, and the
    block, which ends in ``"\\n"``; one is added to a last line without it.
    """
    first = 1
    try:
        for text in iter(partial(handle.read, _BLOCK_CHARS), ""):
            if text[-1] != "\n":
                text += handle.readline()
            text = text if text[-1] == "\n" else text + "\n"
            yield first, text
            first += text.count("\n")
    except UnicodeDecodeError as exc:
        raise IngestError(
            f"{handle.name} is not UTF-8 text: cannot decode byte "
            f"0x{exc.object[exc.start]:02x} ({exc.reason})"
        ) from None


# Deletes every ASCII character but tab and newline: a block of lines that
# are ASCII and hold one tab each translates to "\t\n" per line.
_SEPARATORS = dict.fromkeys(c for c in range(128) if c not in (ord("\t"), ord("\n")))


def _block_fields(text: str) -> Optional[list[str]]:
    """A block's fields in line order, then ""; None unless each line is ASCII with one tab."""
    if text.translate(_SEPARATORS) != "\t\n" * text.count("\n"):
        return None
    return text.replace("\n", "\t").split("\t")


def _scan(
    path: str, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[tuple[int, str, str]], int]:
    """Read a `key<TAB>value` file once, a block of lines at a time.

    Returns (keys, values, skipped, problems, malformed): the key and value
    of every row in line order; the numbers of the lines that are not rows,
    ascending, from which ``_row_line`` finds a row's line; (line number,
    line text, message) for the first ``MAX_WARNINGS`` malformed lines in
    line order; and the count of all malformed lines. ``\\n``, ``\\r\\n``
    and ``\\r`` all end a line, a leading UTF-8 byte order mark is dropped
    and whitespace-only lines are ignored. A row is one tab between a non-empty
    key and a number or missing marker; its value is NaN when missing or not
    finite. Any other line is malformed, except that line 1 is skipped as a
    header when its value is neither.

    ``keys`` is a read-only ``_id_column``; each block's keys become a
    column block as soon as the block is split. While the file's keys
    equal the leading keys of the column ``known``, they are only
    compared, not kept, and ``keys`` is ``known`` itself (or the prefix of
    it they equal): a file keyed like ``known`` costs no second key column.
    """
    keys: list[np.ndarray] = [np.zeros(0, dtype=ID_DTYPE)]
    # Keys read so far that equal known's; only counted while ``shared``.
    shared, matched = known is not None, 0
    values: list[np.ndarray] = [np.zeros(0)]  # an empty file has empty columns
    skipped: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
    problems: list[tuple[int, str, str]] = []
    malformed = 0
    with open(path, encoding="utf-8-sig") as handle:
        for first, text in _text_blocks(handle):
            block_keys, parsed, block_skipped, found = _block_rows(text, first, header=True)
            block = _id_column(block_keys)
            if shared and np.array_equal(block, known[matched : matched + block.size]):
                matched += block.size
            else:
                if shared:
                    keys, shared = [known[:matched]], False
                keys.append(block)
            values.append(np.array(parsed, dtype=np.float64))
            skipped.append(block_skipped)
            malformed += len(found)
            problems += found[: MAX_WARNINGS - len(problems)]
    # Each list of blocks is dropped as soon as it is concatenated.
    if shared and matched == known.size:
        ids = known
    else:
        ids = _frozen(np.concatenate([known[:matched]] if shared else keys))
    del keys
    column = np.concatenate(values)
    del values
    column[~np.isfinite(column)] = math.nan
    return ids, column, np.concatenate(skipped), problems, malformed


def _row_line(skipped: np.ndarray, rows):
    """The line number of each row index in ``rows``; ``skipped`` is ``_scan``'s.

    Row r follows every skipped line j (0-based) that has at most r rows before it.
    """
    return rows + 1 + np.searchsorted(skipped - np.arange(skipped.size), rows + 1, side="right")


def _block_rows(
    text: str, first: int, header: bool
) -> tuple[list[str], list, np.ndarray, list[tuple[int, str, str]]]:
    """Classify a block of lines from ``_text_blocks``, numbered from ``first``.

    Returns (keys, values, skipped, found): the stripped key and value of
    every row in the block, the value NaN when missing (but not yet when
    not finite); the numbers of the block's lines that are not rows; and
    (line number, line text, message) of every malformed line, in line
    order. The grammar is ``_scan``'s; with ``header``, line 1 may be a
    header. A block that ``_block_fields`` splits whole is not split line
    by line.
    """
    numbers = at = np.arange(first, first + text.count("\n"))
    found = []
    fields = _block_fields(text)
    if fields is None:
        lines = text.split("\n")[:-1]
        tabs = list(map(str.count, lines, repeat("\t")))
        found += [
            (number, line, f"expected 2 tab-separated fields, got {tab + 1}")
            for number, line, tab in zip(at.tolist(), lines, tabs)
            if tab != 1 and line.strip()
        ]
        rows = np.array(tabs) == 1
        fields, at = "\t".join(compress(lines, rows)).split("\t"), at[rows]
    if header and at.size and at[0] == 1 and _number(fields[1].strip()) is None:
        fields, at = fields[2:], at[1:]  # header row
    keys = list(map(str.strip, fields[0 : 2 * at.size : 2]))
    texts = list(map(str.strip, fields[1 : 2 * at.size : 2]))
    try:
        parsed = _floats(texts, not MISSING_MARKERS.isdisjoint(texts))
    except ValueError:
        parsed = None
    if parsed is None or "" in keys:
        parsed = list(map(_number, texts))
        notes = [
            None if key and value is not None
            else "" if not (key or text)  # a whitespace-only line
            else "empty segment id" if not key
            else f"unparsable value {text!r}"
            for key, text, value in zip(keys, texts, parsed)
        ]
        found += [
            (number, f"{key}\t{text}", note)
            for number, key, text, note in zip(at.tolist(), fields[0::2], fields[1::2], notes)
            if note
        ]
        rows = np.array([note is None for note in notes], dtype=bool)
        keys, parsed = list(compress(keys, rows)), list(compress(parsed, rows))
        at = at[rows]
    # The field-count problems were found before the others.
    return keys, parsed, np.delete(numbers, at - first), sorted(found)


def _merge(columns: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """(ids, slots): the distinct ids of id columns, sorted and read-only, and per
    column the index in ``ids`` of each item; from one stable sort of the columns joined."""
    joined = np.concatenate(columns)
    order = np.argsort(joined, kind="stable")
    ranked = joined[order]
    new = np.concatenate(([True], ranked[1:] != ranked[:-1]))
    slots = np.empty_like(order)
    slots[order] = np.cumsum(new) - 1
    return _frozen(ranked[new]), np.split(slots, np.cumsum([c.size for c in columns[:-1]]))


def _read_two_column(
    path: str, strict: bool, known: Optional[np.ndarray] = None
) -> tuple[np.ndarray, np.ndarray, Optional[tuple[np.ndarray, list]], int, list[str]]:
    """Read a `key<TAB>value` file: (keys, values, order, malformed_count, warnings).

    Line 1 is a header when its value is neither numeric nor a missing
    marker. Duplicate keys are always a hard error; malformed lines are
    skipped, or raised in strict mode, where the first of the two in line
    order raises. Only the first ``MAX_WARNINGS`` malformed lines get a
    warning; ``malformed_count`` counts them all. Keys come in line order,
    as an ``_id_column``; a missing value is NaN. ``known`` is the key
    column of a file read before, free of repeats; when this file has the
    same keys, ``keys`` is that column. ``order`` is ``_merge([known, keys])``
    (``[keys]`` without ``known``): one sort checks for repeats and joins.
    It is None when keys are ``known``, or strictly increasing with no ``known``.
    """
    keys, values, skipped, problems, malformed = _scan(path, known=known)
    notes = [f"{path} line {n}: {message}" for n, _, message in problems]
    order = repeat_at = None
    if keys is not known and (known is not None or not _strictly_increasing(keys)):
        order = _merge([keys] if known is None else [known, keys])
        if np.bincount(order[1][-1]).max(initial=0) > 1:  # a repeat: find its first line
            firsts = np.unique(order[1][-1], return_index=True)[1]
            repeat_at = int(np.setdiff1d(np.arange(keys.size), firsts)[0])
    if repeat_at is not None:
        line = int(_row_line(skipped, repeat_at))
        if not (strict and problems and problems[0][0] < line):
            raise IngestError(f"{path} line {line}: duplicate segment id {keys[repeat_at]!r}")
    if strict and problems:
        raise IngestError(notes[0])
    return keys, values, order, malformed, notes


def _read_once(gold_reads: Optional[dict], read: Callable, *args):
    """``read(*args)``, kept in ``gold_reads`` by its arguments and taken from there again."""
    if gold_reads is None:
        return read(*args)
    key = (read, *args)
    if key not in gold_reads:
        gold_reads[key] = read(*args)
    return gold_reads[key]


def parse_canonical_tsv(
    gold_path: str,
    scores_path: str,
    metric: str,
    *,
    strict: bool = False,
    gold_reads: Optional[dict] = None,
) -> tuple[CanonicalRecords, IngestReport]:
    """Join a gold TSV with a score TSV into complete records.

    The join is inner: a record is accepted only when both sides carry a
    usable value. Missing gold takes precedence over missing score in the
    accounting when both are absent. Records come in strictly increasing
    id order, so the result does not depend on input line order.

    ``gold_reads``, a dict (empty at first) passed to every parse of one
    run, lets them share one read of the gold file, its id order, and the
    id column of parses that accept the same ids. Results, reports and
    errors are those of separate parses.
    """
    gold_keys, gold, gold_order, gold_bad, gold_notes = _read_once(
        gold_reads, _read_two_column, gold_path, strict
    )
    # A score file keyed like the gold file shares its key column and order.
    _, score, score_order, score_bad, score_notes = _read_two_column(
        scores_path, strict, known=gold_keys
    )
    ids, slots = score_order or gold_order or (gold_keys, [None])
    records, missing_gold, missing_score = _join(metric, ids, gold, score, slots, gold_reads)

    warnings = (gold_notes + score_notes)[:MAX_WARNINGS]
    if gold_bad + score_bad > len(warnings):
        warnings.append(f"... and {gold_bad + score_bad - len(warnings)} more malformed lines")
    report = IngestReport(
        total_lines=len(ids) + gold_bad + score_bad,
        accepted=records.ids.size,
        skipped_missing_gold=missing_gold,
        skipped_missing_score=missing_score,
        skipped_malformed=gold_bad + score_bad,
        warnings=tuple(warnings),
    )
    return records, report


def _join(
    metric: str, ids: np.ndarray, gold: np.ndarray, score: np.ndarray, slots: list,
    gold_reads: Optional[dict],
) -> tuple[CanonicalRecords, int, int]:
    """(records, missing gold, missing score) of gold and score values; NaN is missing.

    ``slots`` place the gold and the score values (the last slots) in a NaN
    column per id; [None] leaves them, aligned with ``ids``. The records hold
    ``ids`` itself if nothing is missing, or the run's first accepted ids if equal."""
    if slots[0] is not None:
        placed = np.full(ids.size, math.nan), np.full(ids.size, math.nan)
        placed[0][slots[0]], placed[1][slots[-1]] = gold, score
        gold, score = placed
    missing_gold = np.isnan(gold)
    missing_score = np.isnan(score) & ~missing_gold
    columns = (ids, gold, score)
    if missing_gold.any() or missing_score.any():
        kept = ~(missing_gold | missing_score)
        columns = tuple(column[kept] for column in columns)
    # The columns are the records' own from here: frozen, not copied again.
    ids, gold, score = map(_frozen, columns)
    shared = ids if gold_reads is None else gold_reads.setdefault("accepted ids", ids)
    if shared is not ids and np.array_equal(shared, ids):
        ids = shared
    records = CanonicalRecords(metric, ids, gold, score)
    return records, int(missing_gold.sum()), int(missing_score.sum())


def _read_system(path: str, system: str) -> tuple[np.ndarray, set[str]]:
    """Read a `system<TAB>score` file for one system: (values, systems).

    ``values`` are ``system``'s in line order, NaN where missing or not
    finite; ``systems`` holds every system name in the file. Line order
    within a system is the segment order; the first malformed line anywhere
    is a hard error because positional alignment cannot survive dropped
    lines. There is no header line.

    Every line is checked, but only ``system``'s values are kept. A block
    that fails ``_checked_values``'s cheap checks is classified line by
    line, as ``_scan`` does, and its first malformed line raises.
    """
    values: list[np.ndarray] = [np.zeros(0)]
    systems: set[str] = set()
    with open(path, encoding="utf-8-sig") as handle:
        for first, text in _text_blocks(handle):
            checked = _checked_values(system, text)
            if checked is None:
                keys, parsed, _, found = _block_rows(text, first, header=False)
                if found:
                    number, line, message = found[0]
                    if line.count("\t") == 1:
                        message = f"unparsable row {line!r}"
                    raise IngestError(f"{path} line {number}: {message}")
                checked = np.array(_of(system, keys, parsed), dtype=np.float64), set(keys)
            values.append(checked[0])
            systems |= checked[1]
    column = np.concatenate(values)
    column[~np.isfinite(column)] = math.nan
    return column, systems


def _checked_values(system: str, text: str) -> Optional[tuple[np.ndarray, set[str]]]:
    """``system``'s values in a block of lines, and the block's system names.

    None unless the block is ASCII, every line holds one tab, every
    distinct key is non-empty and unpadded, and every distinct value text
    is a missing marker or a number. Texts that are mostly distinct are
    converted in line order, all of them; otherwise each distinct text is
    converted once to check it, and ``system``'s texts are converted again.
    A missing value is NaN.
    """
    fields = _block_fields(text)
    if fields is None:
        return None
    keys, texts = fields[0:-1:2], fields[1::2]
    names, distinct = set(keys), set(texts)
    if not all(name and name == name.strip() for name in names):
        return None
    marked = not MISSING_MARKERS.isdisjoint(distinct)
    in_order = 2 * len(distinct) > len(texts)
    try:
        parsed = _floats(texts if in_order else list(distinct), marked)
    except ValueError:
        return None
    if system not in names:
        return np.zeros(0), names
    if in_order:
        return parsed if len(names) == 1 else parsed[[key == system for key in keys]], names
    return _floats(texts if len(names) == 1 else _of(system, keys, texts), marked), names


def _of(system: str, keys: list[str], items: list) -> list:
    """The items whose key is ``system``, in order."""
    return [item for key, item in zip(keys, items) if key == system]


def wmt_files(root_dir: str, language_pair: str, testset: str, metric: str) -> tuple[str, str]:
    """The gold and score files that ``parse_wmt_layout`` reads for ``metric``."""
    base = os.path.join(root_dir, testset, "human-scores")
    candidates = [
        os.path.join(base, f"{language_pair}.mqm.merged.seg.score"),
        os.path.join(base, f"{language_pair}.mqm.seg.score"),
    ]
    for path in candidates:
        if os.path.exists(path):
            return path, os.path.join(
                root_dir, testset, "metric-scores", language_pair, f"{metric}.seg.score"
            )
    raise IngestError(
        f"no MQM gold file for {language_pair} under {base}; looked for "
        + " and ".join(os.path.basename(c) for c in candidates)
    )


def parse_wmt_layout(
    root_dir: str,
    language_pair: str,
    testset: str,
    system: str,
    metric: str,
    *,
    gold_reads: Optional[dict] = None,
) -> tuple[CanonicalRecords, IngestReport]:
    """Extract one (system, metric) slice from a WMT-style score tree.

    Expected layout relative to ``root_dir``:
      {testset}/human-scores/{language_pair}.mqm[.merged].seg.score
      {testset}/metric-scores/{language_pair}/{metric}.seg.score
    Both files hold `system<TAB>score` lines, segment order within a system.
    Segments get synthetic ids `{testset}:{system}:{i}` with i counting from
    0 in file order; gold and metric sequences must have equal length.
    Records come in id order; ``gold_reads`` shares reads between the
    parses of one run, as in ``parse_canonical_tsv``.
    """
    gold_path, metric_path = wmt_files(root_dir, language_pair, testset, metric)
    metric_dir = os.path.dirname(metric_path)
    if not os.path.exists(metric_path):
        available = sorted(
            name[: -len(".seg.score")]
            for name in (os.listdir(metric_dir) if os.path.isdir(metric_dir) else [])
            if name.endswith(".seg.score")
        )
        raise IngestError(
            f"no score file for metric {metric!r} at {metric_path}; "
            f"available metrics: {available}"
        )

    gold, gold_systems = _read_once(gold_reads, _read_system, gold_path, system)
    score, metric_systems = _read_system(metric_path, system)
    if system not in metric_systems:
        raise IngestError(
            f"system {system!r} not in {metric_path}; available systems: "
            f"{sorted(metric_systems)}"
        )
    if system not in gold_systems:
        raise IngestError(
            f"system {system!r} has no gold scores in {gold_path}; systems "
            f"with gold: {sorted(gold_systems)}"
        )
    if gold.size != score.size:
        raise IngestError(
            f"length mismatch for system {system!r}: {gold.size} gold "
            f"scores vs {score.size} {metric} scores"
        )

    ids, slots = _read_once(gold_reads, _wmt_ids, testset, system, gold.size)
    records, missing_gold, missing_score = _join(metric, ids, gold, score, slots, gold_reads)
    report = IngestReport(
        total_lines=gold.size,
        accepted=records.ids.size,
        skipped_missing_gold=missing_gold,
        skipped_missing_score=missing_score,
        skipped_malformed=0,
    )
    return records, report


def _wmt_ids(testset: str, system: str, size: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``_merge`` of the synthetic ids ``{testset}:{system}:{i}``, ``i`` from 0 to ``size - 1``."""
    return _merge([_id_column([f"{testset}:{system}:{i}" for i in range(size)])])


def to_dataset(
    records: CanonicalRecords,
    cutoff: SeverityCutoff,
    orientation: Orientation,
    metric: str,
) -> Dataset:
    """Label records and assemble the Dataset for one metric.

    ``records`` are a parser's ``CanonicalRecords``, which hold finite
    values only; records for another metric are not usable. Records are
    sorted by segment id first, so datasets are identical no matter how the
    input files were ordered. A single-class outcome is not an error here;
    downstream analyses decide whether they can proceed. Records are checked
    in id order: the first repeated id raises, and every positive MQM score
    before it warns.
    """
    if records.metric != metric or not records.ids.size:
        raise IngestError(
            f"no usable records for metric {metric!r} after skips"
        )
    ids, mqm, scores = records.ids, records.mqm_scores, records.scores
    if not _strictly_increasing(ids):
        order = np.argsort(ids, kind="stable")
        ids, mqm, scores = _frozen(ids[order]), mqm[order], scores[order]
    repeats = np.flatnonzero(ids[1:] == ids[:-1])
    # The record at a repeated id is rejected before it is labelled.
    repeated = int(repeats[0]) + 1 if repeats.size else ids.size
    for i in np.flatnonzero(mqm[:repeated] > 0).tolist():
        label(mqm.item(i), cutoff)  # warns about the positive MQM score
    if repeats.size:
        raise IngestError(f"duplicate segment id {ids[repeated]!r}")
    return Dataset(ids, scores, label_positive(mqm, cutoff), orientation)
