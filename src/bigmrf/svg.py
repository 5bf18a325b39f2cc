"""Minimal hand-rolled SVG emission: scatter plots and log-log line charts."""

from __future__ import annotations

import numpy as np

from .core import _open_out

__all__ = ["scatter_svg", "line_chart_svg"]

_W, _H = 640, 480
_MARGIN = 56


def _mapper(lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0.0:
        span = 1.0
        lo -= 0.5
    scale = (out_hi - out_lo) / span
    return lambda v: out_lo + (v - lo) * scale


def _frame(parts, xlo, xhi, ylo, yhi, xlabel, ylabel, title, mx, my):
    parts.append(f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_W - 2 * _MARGIN}" '
                 f'height="{_H - 2 * _MARGIN}" fill="none" stroke="black"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        parts.append(f'<text x="{mx(xv):.1f}" y="{_H - _MARGIN + 16}" '
                     f'font-size="10" text-anchor="middle">{xv:.4g}</text>')
        parts.append(f'<text x="{_MARGIN - 6}" y="{my(yv):.1f}" font-size="10" '
                     f'text-anchor="end" dominant-baseline="middle">{yv:.4g}</text>')
    parts.append(f'<text x="{_W / 2}" y="{_H - 12}" font-size="12" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{_H / 2}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')
    parts.append(f'<text x="{_W / 2}" y="20" font-size="13" '
                 f'text-anchor="middle">{title}</text>')


def _bounds(groups):
    xs = np.concatenate([np.asarray(g[0], dtype=float) for g in groups if len(g[0])])
    ys = np.concatenate([np.asarray(g[1], dtype=float) for g in groups if len(g[0])])
    pad_x = 0.05 * (xs.max() - xs.min() or 1.0)
    pad_y = 0.05 * (ys.max() - ys.min() or 1.0)
    return xs.min() - pad_x, xs.max() + pad_x, ys.min() - pad_y, ys.max() + pad_y


def scatter_svg(groups, xlabel: str, ylabel: str, title: str, f) -> None:
    """``groups``: iterable of (xs, ys, color, label); later groups draw on top."""
    groups = [g for g in groups if len(g[0])]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">']
    if groups:
        xlo, xhi, ylo, yhi = _bounds(groups)
        mx = _mapper(xlo, xhi, _MARGIN, _W - _MARGIN)
        my = _mapper(ylo, yhi, _H - _MARGIN, _MARGIN)
        _frame(parts, xlo, xhi, ylo, yhi, xlabel, ylabel, title, mx, my)
        for g_idx, (xs, ys, color, label) in enumerate(groups):
            for x, y in zip(xs, ys):
                parts.append(f'<circle cx="{mx(x):.1f}" cy="{my(y):.1f}" r="1.6" '
                             f'fill="{color}"/>')
            parts.append(f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 14 + 14 * g_idx}" '
                         f'font-size="11" text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>\n")
    with _open_out(f) as out:
        out.write("\n".join(parts))


def line_chart_svg(series, xlabel: str, ylabel: str, title: str, f,
                   log_x: bool = True, log_y: bool = True) -> None:
    """``series``: iterable of (xs, ys, color, label) polylines."""
    prepared = []
    for xs, ys, color, label in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if log_x:
            keep &= xs > 0
        if log_y:
            keep &= ys > 0
        xs, ys = xs[keep], ys[keep]
        if xs.size:
            prepared.append((np.log10(xs) if log_x else xs,
                             np.log10(ys) if log_y else ys, color, label))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}">']
    if prepared:
        xlo, xhi, ylo, yhi = _bounds(prepared)
        mx = _mapper(xlo, xhi, _MARGIN, _W - _MARGIN)
        my = _mapper(ylo, yhi, _H - _MARGIN, _MARGIN)
        xl = f"log10({xlabel})" if log_x else xlabel
        yl = f"log10({ylabel})" if log_y else ylabel
        _frame(parts, xlo, xhi, ylo, yhi, xl, yl, title, mx, my)
        for s_idx, (xs, ys, color, label) in enumerate(prepared):
            pts = " ".join(f"{mx(x):.1f},{my(y):.1f}" for x, y in zip(xs, ys))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.2"/>')
            parts.append(f'<text x="{_W - _MARGIN - 4}" y="{_MARGIN + 14 + 14 * s_idx}" '
                         f'font-size="11" text-anchor="end" fill="{color}">{label}</text>')
    parts.append("</svg>\n")
    with _open_out(f) as out:
        out.write("\n".join(parts))

