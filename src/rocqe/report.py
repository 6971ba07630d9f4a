"""The report writer: every byte a command writes, as JSON, TSV or SVG text.

A report spells every operating point, and most of its columns repeat a
value over neighbouring rows: counts that only one class moves, rates read
off those counts, one score over a tie group. ``run_texts`` spells each run
of equal neighbours once, and ``join_rows`` assembles many rows of text in
one join. Neighbours count as equal when their bit patterns are, so 0.0
and -0.0 keep their own texts and a NaN run is still one run. Reusing a
text is exact because every spelling used here (``repr``, ``%.2f``) is a
pure function of the number.

Long lists, the JSON report's rows and number lists and the table's lines,
go out ``_ROWS_PER_BLOCK`` at a time, so only one block's texts are alive.
"""

from __future__ import annotations

import errno
import functools
import math
import os
import sys
from dataclasses import fields, is_dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .model import Label

_INDENT = "  "
_ROWS_PER_BLOCK = 1024


def run_texts(values: np.ndarray, spell: Callable[[np.ndarray], list[str]]) -> np.ndarray:
    """``spell(values)`` as an object array, calling ``spell`` once per run.

    ``values`` is a 1-d numeric array and ``spell`` maps such an array to a
    list of texts, one per element. A run is a maximal stretch of
    neighbours with one bit pattern.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise TypeError(f"cannot spell a {values.dtype} column")
    size = values.size
    bits = values.view(f"u{values.itemsize}")
    first = np.ones(size, dtype=bool)
    first[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(first)
    texts = np.empty(starts.size, dtype=object)
    texts[:] = spell(values[starts])
    if starts.size == size:
        return texts
    return np.repeat(texts, np.diff(starts, append=size))


def repr_texts(values: np.ndarray) -> list[str]:
    """``repr`` of every element, as a Python int or float."""
    spelling = int.__repr__ if values.dtype.kind in "iu" else float.__repr__
    return list(map(spelling, values.tolist()))


def fixed2_texts(values: np.ndarray) -> list[str]:
    """``%.2f`` of every element."""
    return list(map("%.2f".__mod__, values.tolist()))


def join_rows(pieces: Sequence[Union[str, np.ndarray]], between: str = "") -> str:
    """Rows of text, each the concatenation of ``pieces``, joined by ``between``.

    A piece is a text shared by every row or an object array of texts, one
    per row; every array has the same length, the row count, and there is
    at least one.
    """
    rows = next(piece.size for piece in pieces if isinstance(piece, np.ndarray))
    matrix = np.empty((rows, len(pieces) + 1), dtype=object)
    for column, piece in enumerate(pieces):
        matrix[:, column] = piece
    matrix[:, -1] = between
    matrix[-1:, -1] = ""
    return "".join(matrix.ravel().tolist())


class Rows:
    """A list of same-keyed dicts handed to the encoder as columns.

    Encodes exactly like ``[{key: column[i] for key in columns} for i ...]``
    but spells each run of equal neighbours in a column once instead of
    visiting every cell. A column is numeric or ``JsonTexts``.
    """

    def __init__(self, **columns: np.ndarray) -> None:
        self.columns = {
            key: col if isinstance(col, JsonTexts) else np.asarray(col)
            for key, col in columns.items()
        }
        shapes = {col.shape for col in self.columns.values()}
        if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
            raise ValueError("row columns must be 1-d arrays of one length")


class Deferred(functools.partial):
    """A report value the encoder builds when it reaches it: ``Deferred(f, *args)``.

    Encodes as ``f(*args)`` would, but the built value is dropped once it
    is written, so a report holds only one such value's texts at a time.
    """


# The JSON strings for non-finite floats, and those of their negations.
_NEGATED_WORDS = {'"inf"': '"-inf"', '"-inf"': '"inf"', '"nan"': '"nan"'}


class JsonTexts:
    """A ``Rows`` column of JSON texts spelled beforehand, handed out by block.

    ``JsonTexts.spell(x)`` spells the texts of a 1-d numeric array x once,
    ``_ROWS_PER_BLOCK`` at a time, and keeps each such chunk as one
    ``"\\n"``-joined str; a block of rows is split out of the one or two
    chunks it covers. The last chunk split is kept, shared by every view,
    so a pass over the rows splits each chunk once. ``view`` gives the same
    texts from a row ``offset`` on, and with ``negated`` the column -x:
    ``repr(-x)`` is ``repr(x)`` with the leading minus toggled, so negated
    texts need no spelling.
    """

    def __init__(self, chunks: list[str], chunk_rows: int, size: int,
                 offset: int = 0, negated: bool = False, last: Optional[list] = None) -> None:
        self.chunks = chunks
        self.chunk_rows = chunk_rows
        self.size = size  # texts in the chunks
        self.offset = offset
        self.negated = negated
        self.shape = (size - offset,)
        self.last = [-1, []] if last is None else last  # [index, texts] of the last split

    @classmethod
    def spell(cls, values: np.ndarray) -> "JsonTexts":
        rows = _ROWS_PER_BLOCK
        chunks = [
            "\n".join(run_texts(values[start:start + rows], _array_texts).tolist())
            for start in range(0, values.size, rows)
        ]
        return cls(chunks, rows, values.size)

    def view(self, offset: int = 0, negated: bool = False) -> "JsonTexts":
        return JsonTexts(self.chunks, self.chunk_rows, self.size, self.offset + offset,
                         self.negated != negated, self.last)

    def _split(self, index: int) -> list[str]:
        """The texts of chunk ``index``."""
        if self.last[0] != index:
            self.last[:] = index, self.chunks[index].split("\n")
        return self.last[1]

    def __getitem__(self, block: slice) -> np.ndarray:
        start, stop, _ = block.indices(self.shape[0])
        start, stop = start + self.offset, max(start, stop) + self.offset
        rows, texts = self.chunk_rows, []
        for index in range(start // rows, -(-stop // rows)):
            texts += self._split(index)[max(start - index * rows, 0):stop - index * rows]
        if self.negated:
            texts = [
                t[1:] if t[0] == "-" else _NEGATED_WORDS[t] if t[0] == '"' else "-" + t
                for t in texts
            ]
        return np.array(texts, dtype=object)


def _float_text(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return f'"{value!r}"'  # "nan", "inf" or "-inf"


def _array_texts(values: np.ndarray) -> list[str]:
    """JSON text of every element of a 1-d numeric array."""
    texts = repr_texts(values)
    if values.dtype.kind == "f":
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = _float_text(float(values[i]))
    return texts


def _json_column(column, block: slice) -> np.ndarray:
    """JSON texts of one block of a numeric or ``JsonTexts`` column, as an object array."""
    if isinstance(column, JsonTexts):
        return column[block]
    return run_texts(column[block], _array_texts)


def _encode(obj, level: int) -> Iterator[str]:
    """JSON text of ``obj`` in pieces, nested ``level`` deep in the report.

    The text matches ``json.dumps(..., sort_keys=True, indent=2)`` with
    enums given by value, dataclass instances as the dict of their fields,
    numpy scalars and arrays as Python numbers and lists, tuples as lists,
    dict keys through ``str``, and NaN/+-inf written as the strings "nan",
    "inf" and "-inf".
    """
    if isinstance(obj, Enum):
        obj = obj.value
    elif is_dataclass(obj) and not isinstance(obj, type):
        obj = fields_of(obj)
    if isinstance(obj, dict):
        items = {str(key): value for key, value in obj.items()}
        separator = "{"
        for key in sorted(items):
            yield separator + _newline(level + 1) + encode_basestring_ascii(key) + ": "
            yield from _encode(items[key], level + 1)
            separator = ","
        yield "{}" if not items else _newline(level) + "}"
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "iuf":
        yield from _list_blocks([obj], obj.size, level)
    elif isinstance(obj, np.ndarray):
        yield from _encode(obj.tolist(), level)
    elif isinstance(obj, (list, tuple)):
        separator = "["
        for value in obj:
            yield separator + _newline(level + 1)
            yield from _encode(value, level + 1)
            separator = ","
        yield "[]" if not obj else _newline(level) + "]"
    elif isinstance(obj, Deferred):
        yield from _encode(obj(), level)
    elif isinstance(obj, Rows):
        # A row is the dict text with every value left open; the texts
        # before each value are shared by all rows.
        keys = sorted(obj.columns)
        heads = ["{" + _newline(level + 2)] + ["," + _newline(level + 2)] * (len(keys) - 1)
        heads = [head + encode_basestring_ascii(key) + ": " for head, key in zip(heads, keys)]
        pieces = [piece for head, key in zip(heads, keys) for piece in (head, obj.columns[key])]
        size = next((col.shape[0] for col in obj.columns.values()), 0)
        yield from _list_blocks(pieces + [_newline(level + 1) + "}"], size, level)
    else:
        yield _leaf_text(obj)


def _list_blocks(pieces: list, size: int, level: int) -> Iterator[str]:
    """A JSON list of ``size`` items, written ``_ROWS_PER_BLOCK`` items at a time.

    Each item is the concatenation of ``pieces``: texts shared by every
    item, and numeric or ``JsonTexts`` columns of one entry per item.
    """
    separator = "["
    for start in range(0, size, _ROWS_PER_BLOCK):
        block = slice(start, start + _ROWS_PER_BLOCK)
        texts = [p if isinstance(p, str) else _json_column(p, block) for p in pieces]
        yield separator + _newline(level + 1)
        yield join_rows(texts, between="," + _newline(level + 1))
        separator = ","
    yield "[]" if not size else _newline(level) + "]"


def fields_of(obj) -> dict:
    """A dataclass instance's fields by name, values as they are (not copied)."""
    return {field.name: getattr(obj, field.name) for field in fields(obj)}


def _leaf_text(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float_text(float(obj))
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _newline(level: int) -> str:
    return "\n" + _INDENT * level


def json_chunks(document) -> Iterator[str]:
    """The report text of ``document`` in pieces, newline-terminated."""
    yield from _encode(document, 0)
    yield "\n"


def table_chunks(table) -> Iterator[str]:
    """The TSV text of a ``QeRocTable`` in pieces, endpoint rows included."""
    p, n = table.p_count, table.n_count
    top, bottom = table.endpoints
    truths = np.array([Label.NEGATIVE.value, Label.POSITIVE.value], dtype=object)
    yield "segment_id\tground_truth\tscore\ttp\tfn\tfp\ttn\ttpr\tfpr\n"
    yield _table_lines(p, n, "-", "-", [top], [0], [0])
    for start in range(0, table.tp.size, _ROWS_PER_BLOCK):
        block = slice(start, start + _ROWS_PER_BLOCK)
        yield _table_lines(
            p, n,
            table.segment_ids[block],
            truths[table.is_positive[block].astype(np.intp)],
            table.raw_scores[block],
            table.tp[block],
            table.fp[block],
        )
    yield _table_lines(p, n, "-", "-", [bottom], [p], [n])


def _table_lines(p: int, n: int, ids, labels, scores, tp, fp) -> str:
    """Table lines of row columns; ``ids`` and ``labels`` may be one shared text.

    Rows of one tie group share their counts and rates, so each run of
    equal neighbours in a column is spelled once.
    """
    scores, tp, fp = np.asarray(scores), np.asarray(tp), np.asarray(fp)
    return join_rows([
        ids, "\t",
        labels, "\t",
        run_texts(scores, repr_texts), "\t",
        run_texts(tp, repr_texts), "\t",
        run_texts(p - tp, repr_texts), "\t",
        run_texts(fp, repr_texts), "\t",
        run_texts(n - fp, repr_texts), "\t",
        run_texts(tp / p, fixed2_texts), "\t",
        run_texts(fp / n, fixed2_texts), "\n",
    ])


class OutputError(Exception):
    """An output file, or stdout, could not be opened or written."""


def check_outputs(*paths: Optional[str]) -> None:
    """Refuse an output path that is a directory, or whose directory does not exist.

    A command that writes more than one file calls this before it opens
    the first, so a path that cannot be opened leaves no file behind.
    """
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise OutputError(f"{path}: {os.strerror(errno.EISDIR)}")
        try:
            # With a trailing separator, stat fails unless it names a directory.
            os.stat(os.path.join(os.path.dirname(path) or os.curdir, ""))
        except OSError as exc:
            raise OutputError(f"{path}: {exc.strerror}") from None


def emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    """Write ``chunks`` to ``out_path``, or to stdout when there is none."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not out_path and sys.stdout is sys.__stdout__:
            # The interpreter flushes stdout again at exit; with stdout on the
            # null device, the text still buffered there cannot fail a second time.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise OutputError(f"{out_path or 'stdout'}: {exc.strerror or exc}") from None
