"""Tabulation and plotting of admissible k offsets and x values.

The k table lists, per prime, the sorted distinct offsets
k = x - ceil(p/4) over all witnesses of one type; the figure maps
each prime to every x admitting a witness of either type. Both are
projections of exhaustive scan records, built by the x-major witness
walk that iter_witnesses and compare also use, so there is no second
computation path to drift.
"""

from __future__ import annotations

import json

from .errors import DomainError
from .scan import ScanRecord, scan_primes
from .witness import SolutionType, _x_bounds

__all__ = [
    "k_table",
    "k_table_csv",
    "k_table_json",
    "figure_points",
    "points_csv",
    "render_scatter",
]


def _records_upto(hi: int) -> tuple[ScanRecord, ...]:
    """The exhaustive scan records of the primes <= hi."""
    if hi < 2:
        raise DomainError(f"need hi >= 2, got hi={hi}")
    return scan_primes(2, hi, mode="exhaustive").records


def k_table(hi: int, type: SolutionType) -> list[tuple[int, tuple[int, ...]]]:
    """One (p, ks) row per prime p <= hi: that type's k offsets, ascending, distinct."""
    return [
        (r.p, r.type1_k_set if type is SolutionType.TYPE_I else r.type2_k_set)
        for r in _records_upto(hi)
    ]


def k_table_csv(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    """Ragged CSV, one line per prime: p,k1,k2,... (no header)."""
    lines = [",".join([str(p), *map(str, ks)]) for p, ks in rows]
    return "\n".join(lines) + "\n"


def k_table_json(rows: list[tuple[int, tuple[int, ...]]]) -> str:
    """Compact JSON object {"p": [k, ...], ...}, primes ascending."""
    # not scan._compact: sorted keys would put "11" before "2"
    return json.dumps({str(p): list(ks) for p, ks in rows}, separators=(",", ":"))


def figure_points(hi: int) -> list[tuple[int, int]]:
    """Every (p, x) with p <= hi prime and x admitting any witness."""
    points = []
    for r in _records_upto(hi):
        lo = _x_bounds(r.p)[0]
        points.extend((r.p, lo + k) for k in sorted({*r.type1_k_set, *r.type2_k_set}))
    return points


def points_csv(points: list[tuple[int, int]]) -> str:
    """CSV with a p,x header row."""
    return "p,x\n" + "".join(f"{p},{x}\n" for p, x in points)


def _ticks(lo: int, hi: int) -> list[int]:
    """About eight evenly spaced axis ticks in [lo, hi]."""
    span = max(hi - lo, 1)
    step = max(1, round(span / 8))
    first = ((lo + step - 1) // step) * step
    ticks = list(range(first, hi + 1, step))
    return ticks or [lo]


def render_scatter(points: list[tuple[int, int]]) -> str:
    """Standalone SVG scatter plot of (p, x) points.

    Deterministic bytes for a fixed point list: no timestamps, fixed
    palette and geometry, coordinates formatted to two decimals.
    Each marker carries data-p / data-x attributes.
    """
    if not points:
        raise DomainError("render_scatter needs at least one point")
    width, height = 640, 480
    m_left, m_right, m_top, m_bottom = 60, 20, 20, 50
    plot_w = width - m_left - m_right
    plot_h = height - m_top - m_bottom
    ps = [p for p, _ in points]
    xs = [x for _, x in points]
    p_lo, p_hi = min(ps), max(ps)
    x_lo, x_hi = min(xs), max(xs)
    if p_lo == p_hi:
        p_lo, p_hi = p_lo - 1, p_hi + 1
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1

    def sx(p: float) -> float:
        return m_left + (p - p_lo) / (p_hi - p_lo) * plot_w

    def sy(x: float) -> float:
        return m_top + plot_h - (x - x_lo) / (x_hi - x_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{m_left}" y1="{m_top + plot_h}" x2="{m_left + plot_w}" '
        f'y2="{m_top + plot_h}" stroke="black"/>',
        f'<line x1="{m_left}" y1="{m_top}" x2="{m_left}" y2="{m_top + plot_h}" '
        f'stroke="black"/>',
    ]
    for t in _ticks(p_lo, p_hi):
        cx = sx(t)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{m_top + plot_h}" x2="{cx:.2f}" '
            f'y2="{m_top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{m_top + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{t}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        cy = sy(t)
        parts.append(
            f'<line x1="{m_left - 5}" y1="{cy:.2f}" x2="{m_left}" y2="{cy:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{m_left - 8}" y="{cy + 4:.2f}" font-size="11" '
            f'text-anchor="end">{t}</text>'
        )
    parts.append(
        f'<text x="{m_left + plot_w / 2:.2f}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">p</text>'
    )
    parts.append(
        f'<text x="16" y="{m_top + plot_h / 2:.2f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {m_top + plot_h / 2:.2f})">x</text>'
    )
    for p, x in points:
        parts.append(
            f'<circle cx="{sx(p):.2f}" cy="{sy(x):.2f}" r="3" fill="#336699" '
            f'fill-opacity="0.75" data-p="{p}" data-x="{x}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
