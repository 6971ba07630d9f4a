"""Minimal deterministic SVG rendering of ROC curves, bands and hulls.

Hand-rolled on purpose: the output is a static figure with fixed [0,1] axes,
and identical inputs must produce byte-identical files. All coordinates are
formatted with a fixed precision; nothing depends on locale or dict order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .bootstrap import ConfidenceBand
from .roc import RocCurve, RocHull
from .report import fixed2_texts, join_rows, rate, run_texts

WIDTH = 640
HEIGHT = 640
MARGIN = 60
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
HULL_COLOR = "#000000"
_POINTS_PER_BLOCK = 4096


@dataclass(frozen=True)
class SvgSeries:
    """One plottable curve with an optional band."""

    name: str
    curve: RocCurve
    band: Optional[ConfidenceBand] = None


def _x(fpr: float) -> float:
    return MARGIN + fpr * (WIDTH - 2 * MARGIN)


def _y(tpr: float) -> float:
    return HEIGHT - MARGIN - tpr * (HEIGHT - 2 * MARGIN)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _point_pieces(fprs, tprs) -> Iterator[str]:
    """The texts of a ``points`` attribute: "x,y" per point, space-separated.

    The same arithmetic as _x/_y and the same formatting as _fmt, per array.
    Points are spelled and joined a block at a time, one piece per block
    (and one per space between blocks), so only one block's texts are alive
    beside the finished pieces. The rates are float64 arrays, or
    DerivedColumns computed a block at a time.
    """
    for start in range(0, fprs.size, _POINTS_PER_BLOCK):
        xs = MARGIN + fprs[start:start + _POINTS_PER_BLOCK] * (WIDTH - 2 * MARGIN)
        ys = HEIGHT - MARGIN - tprs[start:start + _POINTS_PER_BLOCK] * (HEIGHT - 2 * MARGIN)
        if start:
            yield " "
        yield join_rows([run_texts(xs, fixed2_texts), ",", run_texts(ys, fixed2_texts)], between=" ")


def _polyline(fprs, tprs) -> str:
    return "".join(_point_pieces(fprs, tprs))


def _band_polygon(band: ConfidenceBand) -> Iterator[str]:
    xs = np.concatenate((band.fpr_grid, band.fpr_grid[::-1]))
    ys = np.concatenate((band.upper_tpr, band.lower_tpr[::-1]))
    return _point_pieces(xs, ys)


def _axes() -> list[str]:
    parts = [
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333333" '
        'stroke-width="1"/>',
        f'<line x1="{_fmt(_x(0))}" y1="{_fmt(_y(0))}" x2="{_fmt(_x(1))}" '
        f'y2="{_fmt(_y(1))}" stroke="#999999" stroke-width="1" '
        'stroke-dasharray="6,4"/>',
    ]
    for tick in np.linspace(0.0, 1.0, 6):
        x = _fmt(_x(float(tick)))
        y = _fmt(_y(float(tick)))
        label = f"{tick:.1f}"
        parts.append(
            f'<text x="{x}" y="{HEIGHT - MARGIN + 20}" font-size="12" '
            f'text-anchor="middle" fill="#333333">{label}</text>'
        )
        parts.append(
            f'<text x="{MARGIN - 10}" y="{y}" font-size="12" '
            f'text-anchor="end" dominant-baseline="middle" '
            f'fill="#333333">{label}</text>'
        )
    parts.append(
        f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" font-size="14" '
        'text-anchor="middle" fill="#333333">false positive rate</text>'
    )
    parts.append(
        f'<text x="18" y="{HEIGHT // 2}" font-size="14" text-anchor="middle" '
        f'fill="#333333" transform="rotate(-90 18 {HEIGHT // 2})">'
        "true positive rate</text>"
    )
    return parts


def render_roc_svg(
    series: Sequence[SvgSeries],
    hull: Optional[RocHull] = None,
) -> str:
    """Render curves (plus optional bands and hull) as an SVG document.

    The document is one join of its pieces, each line's followed by a
    newline: the point texts go in as the blocks they were spelled in, so
    no whole polyline is built and copied into its element.
    """
    pieces: list[str] = []

    def line(*texts: str) -> None:
        pieces.extend(texts)
        pieces.append("\n")

    for text in (
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        *_axes(),
    ):
        line(text)

    for index, item in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        if item.band is not None:
            line('<polygon points="', *_band_polygon(item.band),
                 f'" fill="{color}" fill-opacity="0.15" stroke="none"/>')
        curve = item.curve
        fpr, tpr = rate(curve.fp, curve.n_count), rate(curve.tp, curve.p_count)
        line('<polyline points="', *_point_pieces(fpr, tpr),
             f'" fill="none" stroke="{color}" stroke-width="2"/>')

    if hull is not None:
        line('<polyline points="', *_point_pieces(hull.fpr, hull.tpr),
             f'" fill="none" stroke="{HULL_COLOR}" stroke-width="2" stroke-dasharray="2,3"/>')

    legend_y = MARGIN + 16
    for index, item in enumerate(series):
        color = PALETTE[index % len(PALETTE)]
        y = legend_y + 18 * index
        line(
            f'<line x1="{WIDTH - MARGIN - 150}" y1="{y}" '
            f'x2="{WIDTH - MARGIN - 120}" y2="{y}" stroke="{color}" '
            'stroke-width="2"/>'
        )
        line(
            f'<text x="{WIDTH - MARGIN - 112}" y="{y + 4}" font-size="12" '
            f'fill="#333333">{_escape(item.name)}</text>'
        )
    if hull is not None:
        y = legend_y + 18 * len(series)
        line(
            f'<line x1="{WIDTH - MARGIN - 150}" y1="{y}" '
            f'x2="{WIDTH - MARGIN - 120}" y2="{y}" stroke="{HULL_COLOR}" '
            'stroke-width="2" stroke-dasharray="2,3"/>'
        )
        line(
            f'<text x="{WIDTH - MARGIN - 112}" y="{y + 4}" font-size="12" '
            'fill="#333333">convex hull</text>'
        )
    line("</svg>")
    return "".join(pieces)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
