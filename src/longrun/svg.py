"""Tiny dependency-free SVG line plots.

One public function, :func:`line_plot`, good enough for sweep output: a
framed plot area, linear ticks, one polyline per series, inline legend.
CSV stays the primary artifact; this is a convenience rendering.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 30, 44


def _ticks(lo: float, hi: float):
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo == hi:
        pad = 1.0 if lo == 0 else abs(lo) * 0.5
        lo, hi = lo - pad, hi + pad
    return np.linspace(lo, hi, 5), lo, hi


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def line_plot(x, series, labels, title, xlabel, ylabel) -> str:
    """Render one or more y-series against a common x-axis as a 720 x 480 SVG.

    ``series`` is a sequence of arrays the same length as ``x``, with one
    legend entry in ``labels`` each; non-finite points break the polyline
    rather than being interpolated over.
    """
    x = np.asarray(x, dtype=float)
    ys = [np.asarray(s, dtype=float) for s in series]
    if not ys:
        raise ValueError("need at least one series")
    for s in ys:
        if s.shape != x.shape:
            raise ValueError(f"series shape {s.shape} does not match x shape {x.shape}")

    finite_y = np.concatenate([s[np.isfinite(s)] for s in ys])
    ylo = float(finite_y.min()) if finite_y.size else 0.0
    yhi = float(finite_y.max()) if finite_y.size else 1.0
    xt, xlo, xhi = _ticks(float(x.min()), float(x.max()))
    yt, ylo, yhi = _ticks(ylo, yhi)

    width, height = 720, 480
    iw = width - _MARGIN_L - _MARGIN_R
    ih = height - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - xlo) / (xhi - xlo) * iw

    def py(v):
        return _MARGIN_T + (yhi - v) / (yhi - ylo) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    parts.append(
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>'
    )
    for v in xt:
        X = px(v)
        parts.append(f'<line x1="{X:.1f}" y1="{_MARGIN_T + ih}" x2="{X:.1f}" '
                     f'y2="{_MARGIN_T + ih + 4}" stroke="#333"/>')
        parts.append(f'<text x="{X:.1f}" y="{_MARGIN_T + ih + 16}" '
                     f'text-anchor="middle">{_fmt(v)}</text>')
    for v in yt:
        Y = py(v)
        parts.append(f'<line x1="{_MARGIN_L - 4}" y1="{Y:.1f}" x2="{_MARGIN_L}" '
                     f'y2="{Y:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_L - 7}" y="{Y + 3.5:.1f}" '
                     f'text-anchor="end">{_fmt(v)}</text>')
        if ylo < 0.0 < yhi and abs(v) < 1e-12 * max(abs(ylo), abs(yhi)):
            parts.append(f'<line x1="{_MARGIN_L}" y1="{Y:.1f}" x2="{_MARGIN_L + iw}" '
                         f'y2="{Y:.1f}" stroke="#bbb" stroke-dasharray="4,3"/>')
    parts.append(f'<text x="{_MARGIN_L + iw / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{_MARGIN_T + ih / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {_MARGIN_T + ih / 2:.1f})">{ylabel}</text>')

    for k, s in enumerate(ys):
        color = _COLORS[k % len(_COLORS)]
        pts = []
        segments = []
        for xv, yv in zip(x, s):
            if math.isfinite(yv):
                pts.append(f"{px(xv):.2f},{py(yv):.2f}")
            elif pts:
                segments.append(pts)
                pts = []
        if pts:
            segments.append(pts)
        for seg in segments:
            if len(seg) == 1:
                cx, cy = seg[0].split(",")
                parts.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{color}"/>')
            else:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 14 + 14 * k
        lx = _MARGIN_L + iw - 110
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 23}" y="{ly}">{labels[k]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
