"""Minimal self-contained SVG line plots (no plotting dependency)."""

from __future__ import annotations

import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(x):
    if x == 0:
        return "0"
    if abs(x) >= 1e4 or abs(x) < 1e-3:
        return f"{x:.2e}"
    return f"{x:.6g}"


def line_plot(xs, series, labels=None, title="", xlabel="", ylabel=""):
    """SVG text of a polyline plot; series is a list of y-arrays over xs."""
    xs = [float(x) for x in xs]
    series = [[float(v) for v in ys] for ys in series]
    labels = labels or ["" for _ in series]
    all_y = [v for ys in series for v in ys if math.isfinite(v)]
    if not all_y or not xs:
        all_y = [0.0, 1.0]
    xlo, xhi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    ylo, yhi = min(all_y), max(all_y)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="white"/>',
             f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
             f'font-size="15" font-family="sans-serif">{title}</text>']
    # axes
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" '
                 f'y2="{_H - _MB}" stroke="black"/>')
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
                 f'stroke="black"/>')
    for t in _ticks(xlo, xhi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" '
                     f'y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" '
                     f'text-anchor="middle" font-size="11" '
                     f'font-family="sans-serif">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        y = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" '
                     f'y2="{y:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 14}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" '
                 f'text-anchor="middle" font-size="13" '
                 f'font-family="sans-serif" transform="rotate(-90 18 '
                 f'{(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>')
    for i, ys in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" '
                             f'r="3" fill="{color}"/>')
        if labels[i]:
            parts.append(f'<text x="{_W - _MR - 6}" y="{_MT + 16 * (i + 1)}" '
                         f'text-anchor="end" font-size="12" fill="{color}" '
                         f'font-family="sans-serif">{labels[i]}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
