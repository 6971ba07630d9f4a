"""Core domain types: labels, score orientation, datasets, confusion counts.

Everything in this module is immutable after construction and safe to share
across threads. Score comparisons are exact (no epsilon): two segments tie
if and only if their canonical scores are value-equal, so 0.0 and -0.0 tie.
``Ranking`` is the one place that tie rule is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, NamedTuple, Optional

import numpy as np


class DegenerateClassError(ValueError):
    """Raised when an operation needs both classes but one is empty."""


class NonFiniteScoreError(ValueError):
    """Raised when a NaN or infinite score would enter the analysis."""


class Label(Enum):
    """Binary ground truth: a segment either contains errors or it does not."""

    POSITIVE = "error"
    NEGATIVE = "no error"


class Orientation(Enum):
    """Direction of a QE score column.

    HIGHER_IS_WORSE: larger score means worse translation (more likely positive).
    HIGHER_IS_BETTER: larger score means better translation; such scores are
    negated (by ``flip``, the one owner of that rule) to obtain the risk score.
    """

    HIGHER_IS_WORSE = "higher-worse"
    HIGHER_IS_BETTER = "higher-better"

    @classmethod
    def parse(cls, text: str) -> "Orientation":
        for member in cls:
            if member.value == text:
                return member
        raise ValueError(
            f"unknown orientation {text!r}; expected "
            f"{' or '.join(m.value for m in cls)}"
        )

    @property
    def negates(self) -> bool:
        return self is Orientation.HIGHER_IS_BETTER

    def flip(self, value):
        """``value`` (a float or an array) from raw to canonical scale, or back: one map."""
        return -value if self.negates else value


def canonicalize(
    raw_score: float, orientation: Orientation, segment_id: Optional[str] = None
) -> float:
    """Map a raw QE score to the canonical risk scale (higher = riskier).

    Scores from systems where higher means better are negated, which is an
    order-reversing bijection; scores where higher already means worse pass
    through unchanged.
    """
    if not math.isfinite(raw_score):
        where = f" for segment {segment_id!r}" if segment_id is not None else ""
        raise NonFiniteScoreError(f"non-finite score {raw_score!r}{where}")
    return orientation.flip(raw_score)


@dataclass(frozen=True)
class ScoredSegment:
    """One translation segment: gold label plus raw and canonical QE scores."""

    segment_id: str
    label: Label
    raw_score: float
    risk_score: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.raw_score) or not math.isfinite(self.risk_score):
            raise NonFiniteScoreError(
                f"non-finite score for segment {self.segment_id!r}"
            )

    @classmethod
    def from_raw(
        cls,
        segment_id: str,
        label: Label,
        raw_score: float,
        orientation: Orientation,
    ) -> "ScoredSegment":
        risk = canonicalize(raw_score, orientation, segment_id)
        return cls(segment_id, label, float(raw_score), risk)


def require_both_classes(p_count: int, n_count: int, what: str) -> None:
    """Raise ``DegenerateClassError`` unless both classes are present.

    The message reads "no positive segments: <what>" (or negative), so
    every caller keeps its own wording.
    """
    if p_count == 0 or n_count == 0:
        empty = "positive" if p_count == 0 else "negative"
        raise DegenerateClassError(f"no {empty} segments: {what}")


# (id, label) pairs per block fed to ``Dataset.fingerprint``'s hash.
_PAIRS_PER_HASH_BLOCK = 4096

# Segment ids are held as one column of this dtype: an id of up to 15
# UTF-8 bytes is stored inline in its 16-byte slot, a longer one in the
# array's own arena, and no Python ``str`` exists until an item is read.
# ``coerce=False`` refuses anything that is not already a string.
# Sort it only with ``kind="stable"`` or ``np.lexsort``: numpy 2.4.6's default
# sort crashes on a few hundred repeated ids. ``np.isin``, ``intersect1d`` and
# ``union1d`` are out too; ``hasobject`` makes ``isin`` compare every pair.
ID_DTYPE = np.dtypes.StringDType(coerce=False)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array (of ``dtype`` when given).

    A read-only array that owns its data is taken as it is; anything else
    is copied into a fresh array, which is then frozen.
    """
    if (
        isinstance(values, np.ndarray) and values.base is None and not values.flags.writeable
        and (dtype is None or values.dtype == dtype)
    ):
        return values
    return _frozen(np.array(values, dtype=dtype))


def _check_columns(**columns) -> None:
    """Raise ValueError, naming ``columns``, unless their shapes are 1-d and equal."""
    shapes = {column.shape for column in columns.values()}
    if len(shapes) > 1 or any(len(shape) != 1 for shape in shapes):
        *rest, last = columns
        raise ValueError(f"{', '.join(rest)} and {last} must be 1-d arrays of one length")


def _id_column(ids) -> np.ndarray:
    """``ids`` as a read-only id column; ValueError for an id that is not a ``str``.

    Ids are read as Python strings and stored as ``ID_DTYPE``, unless one
    holds a NUL: numpy compares ``StringDType`` items only up to the first
    NUL both hold at one place, so such ids are kept as an object column
    of ``str``, which compare whole. Every id column therefore sorts and
    compares as its Python strings do. A read-only ``ID_DTYPE`` array that
    owns its data is taken as it is, unread: it is a column this function
    returned, or a copy or selection of one, so it holds no NUL.
    """
    if isinstance(ids, np.ndarray):
        if ids.dtype == ID_DTYPE and ids.base is None and not ids.flags.writeable:
            return ids
        if ids.dtype.kind not in "OTU":
            raise ValueError(f"segment ids must be strings, not {ids.dtype}")
        ids = ids.tolist()
    else:
        ids = list(ids)
    try:
        nul = "\x00" in "".join(ids)
    except TypeError:
        raise ValueError("segment ids must be strings") from None
    return _frozen(np.array(ids, dtype=object if nul else ID_DTYPE))


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether the id column ``keys`` is sorted and free of repeats."""
    return bool((keys[1:] > keys[:-1]).all())


class Dataset:
    """Scored segments for one QE score column, held as columns.

    ``Dataset(ids, raw_scores, is_positive, orientation)`` takes the columns
    nothing else gives: read-only arrays with one entry per segment, in
    dataset order; ``ids`` is an ``_id_column``, whose items read back as
    ``str``. ``p_count``/``n_count`` are derived from them, and
    ``risk_scores`` (``orientation.flip(raw_scores)``) on each access.
    Segment ids are opaque; uniqueness is an ingestion concern, and
    resampled datasets may legitimately repeat ids. ``from_segments``
    takes the columns from ``ScoredSegment`` objects.
    """

    def __init__(self, ids, raw_scores, is_positive,
                 orientation: Orientation = Orientation.HIGHER_IS_WORSE) -> None:
        """Store the columns read-only after checking them, as one vectorised pass."""
        ids = _id_column(ids)
        raw = _read_only(raw_scores, np.float64)
        positive = _read_only(is_positive, bool)
        _check_columns(ids=ids, raw_scores=raw, is_positive=positive)
        finite = np.isfinite(raw)
        if not finite.all():
            first = int(np.argmin(finite))
            raise NonFiniteScoreError(f"non-finite score for segment {ids[first]!r}")
        p = int(np.count_nonzero(positive))
        self.__dict__.update(
            ids=ids,
            raw_scores=raw,
            is_positive=positive,
            p_count=p,
            n_count=positive.size - p,
            orientation=orientation,
        )

    @classmethod
    def from_segments(
        cls,
        segments: Iterable[ScoredSegment],
        orientation: Orientation = Orientation.HIGHER_IS_WORSE,
    ) -> "Dataset":
        """A dataset from segments; each ``risk_score`` must be ``orientation.flip(raw_score)``."""
        segs = tuple(segments)
        for s in segs:
            if orientation.flip(s.raw_score) != s.risk_score:
                raise ValueError(
                    f"segment {s.segment_id!r}: risk score {s.risk_score!r} is not the "
                    f"canonical form of raw score {s.raw_score!r} under {orientation.value}"
                )
        return cls(
            [s.segment_id for s in segs],
            [s.raw_score for s in segs],
            [s.label is Label.POSITIVE for s in segs],
            orientation,
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"Dataset is immutable; cannot set {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.orientation is other.orientation
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.raw_scores, other.raw_scores)
            and np.array_equal(self.is_positive, other.is_positive)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Dataset(total={self.total}, p_count={self.p_count}, "
            f"n_count={self.n_count}, orientation={self.orientation})"
        )

    @property
    def total(self) -> int:
        return self.p_count + self.n_count

    @property
    def risk_scores(self) -> np.ndarray:
        return _frozen(self.orientation.flip(self.raw_scores))

    @cached_property
    def positive_risks(self) -> np.ndarray:
        return _frozen(self.risk_scores[self.is_positive])

    @cached_property
    def negative_risks(self) -> np.ndarray:
        return _frozen(self.risk_scores[~self.is_positive])

    @cached_property
    def ranking(self) -> "Ranking":
        """The dataset's sweep, ranked once and shared by every consumer."""
        return Ranking(self)

    @cached_property
    def fingerprint(self) -> str:
        """Digest of the sorted (segment_id, label) pairs.

        Two datasets with equal fingerprints share the same ground-truth
        labeling, which is what multi-system comparisons require. Each pair
        is hashed as id, 0x1F, label value, 0x1E, in UTF-8.
        """
        import hashlib  # loads OpenSSL, which most CLI runs never use

        # The text after each id, by its label.
        tails = (f"\x1f{Label.NEGATIVE.value}\x1e", f"\x1f{Label.POSITIVE.value}\x1e")
        ids, positive = self.ids, self.is_positive
        if not _strictly_increasing(ids):
            # By id, then by tail: a positive's tail sorts first.
            order = np.lexsort((~positive, ids))
            ids, positive = ids[order], positive[order]
        digest = hashlib.sha256()
        # Hashed a block of pairs at a time, so no whole-dataset text is built.
        for start in range(0, ids.size, _PAIRS_PER_HASH_BLOCK):
            block = slice(start, start + _PAIRS_PER_HASH_BLOCK)
            labels = map(tails.__getitem__, positive[block].tolist())
            digest.update("".join(map(str.__add__, ids[block].tolist(), labels)).encode("utf-8"))
        return digest.hexdigest()


def _same_ground_truth(a: Dataset, b: Dataset) -> bool:
    """Whether two datasets hold one multiset of (segment_id, label) pairs: equal
    in dataset order (ids shared, as the CLI's are, or equal), or sorted."""
    if a.total != b.total:
        return False
    same_ids = a.ids is b.ids or np.array_equal(a.ids, b.ids)
    if same_ids and np.array_equal(a.is_positive, b.is_positive):
        return True
    a_order, b_order = (np.lexsort((~ds.is_positive, ds.ids)) for ds in (a, b))
    return np.array_equal(a.ids[a_order], b.ids[b_order]) and np.array_equal(
        a.is_positive[a_order], b.is_positive[b_order]
    )


def _tie_groups(risk_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Ranking``'s read-only ``thresholds`` and ``group``, from one sort of ``risk_scores``."""
    # Nothing below depends on the order the sort leaves ties in, so it
    # need not be stable (a stable sort is about five times slower). The
    # sort is ascending, so no negated copy of the risks is made: runs of
    # equal risks are counted from the best and the groups numbered back
    # from the worst. Each temporary is dropped as soon as it is dead.
    order = np.argsort(risk_scores)
    ranked = risk_scores[order]
    first = np.ones(ranked.size, dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    del ranked
    starts = np.flatnonzero(first)
    run = np.cumsum(first)  # 1 for the best risks, G for the worst
    del first
    np.subtract(starts.size + 1, run, out=run)  # now the group: 1 for the worst
    group = np.empty_like(order)
    group[order] = run
    del run
    # A group's last member in dataset order; a view that puts the worst first.
    last = np.maximum.reduceat(order, starts)[::-1]
    del order, starts
    return _frozen(np.concatenate(([math.inf], risk_scores[last]))), _frozen(group)


class Ranking:
    """One dataset's sweep: tie groups from one sort of its risks, and its curve counts.

    Group 0 is the origin, which flags nothing; groups 1, 2, ... hold the
    distinct risks from the worst down. Value-equal risks share a group, so
    0.0 and -0.0 do, and a group is named by the risk of its last member in
    dataset order. ``thresholds[g]`` is that name (+inf for the origin);
    ``group`` gives every segment's group in dataset order; ``tp`` and
    ``fp`` are the dataset's own ``counts``. All are read-only, and
    ``Ranking(dataset)`` keeps no reference to the dataset.
    """

    def __init__(self, dataset: Dataset) -> None:
        # Counted once the sort's temporaries and the risk column it read are freed.
        self.thresholds, self.group = _tie_groups(dataset.risk_scores)
        tp, fp = self.counts(self.group[dataset.is_positive], self.group[~dataset.is_positive])
        self.tp, self.fp = _frozen(tp), _frozen(fp)

    def counts(self, positives: np.ndarray, negatives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative (tp, fp) at the origin and at every group.

        ``positives`` and ``negatives`` are the groups of any multiset of
        positives and negatives: the dataset's own give its ROC curve
        counts (``tp``, ``fp``), since every group holds one of its
        members; a bootstrap resample's give the replicate's. Counts are
        int64, one per group, origin first, worst group next; a group
        holding no member of the multiset repeats the counts before it.
        """
        size = self.thresholds.size
        tp = np.bincount(positives, minlength=size)
        fp = np.bincount(negatives, minlength=size)
        return tp.cumsum(out=tp), fp.cumsum(out=fp)


@dataclass(frozen=True)
class ConfusionCounts:
    """Two-by-two confusion counts at one operating point."""

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self) -> None:
        for name in ("tp", "fn", "fp", "tn"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")

    @property
    def p(self) -> int:
        return self.tp + self.fn

    @property
    def n(self) -> int:
        return self.fp + self.tn


class Rates(NamedTuple):
    """Rates derived from a confusion matrix.

    ``precision`` is None when no segment was flagged (tp + fp = 0); callers
    must skip such points rather than substitute a number.
    """

    tpr: float
    fpr: float
    fnr: float
    precision: Optional[float]
    recall: float


def rates(c: ConfusionCounts) -> Rates:
    """TPR, FPR, FNR, precision and recall from confusion counts.

    Requires at least one positive and one negative in the ground truth;
    rates against an empty class are undefined.
    """
    require_both_classes(c.p, c.n, "rates against an empty class are undefined")
    tpr = c.tp / c.p
    fpr = c.fp / c.n
    fnr = 1.0 - tpr
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    return Rates(tpr, fpr, fnr, precision, tpr)

