"""Text columns for the report writers: the JSON rows, the table and the SVG.

A report spells every operating point, and most of its columns repeat a
value over neighbouring rows: counts that only one class moves, rates read
off those counts, one score over a tie group. ``run_texts`` spells each run
of equal neighbours once, and ``join_rows`` assembles many rows of text in
one join. Neighbours count as equal when their bit patterns are, so 0.0
and -0.0 keep their own texts and a NaN run is still one run. Reusing a
text is exact because every spelling used here (``repr``, ``%.2f``) is a
pure function of the number.
"""

from __future__ import annotations

from typing import Callable, Sequence, Union

import numpy as np


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
