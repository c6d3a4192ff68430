"""Self-contained SVG writer for log-log survival charts.

Charts are assembled as plain text: a framed plot area, decade ticks with
10^k labels on both axes, one polyline through the data points, binomial
error bars, and an optional dashed reference line for a fitted slope.  No
rendering library is involved, so the artifact opens anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import provenance

_SUP = str.maketrans("0123456789-", "⁰¹²³⁴⁵"
                                     "⁶⁷⁸⁹⁻")


def _pow10(k: int) -> str:
    return "10" + str(k).translate(_SUP)


@dataclass
class _Frame:
    """Pixel geometry and log10 data ranges of one chart."""

    width: int = 640
    height: int = 440
    left: int = 72
    right: int = 24
    top: int = 40
    bottom: int = 56
    lx0: float = 0.0
    lx1: float = 1.0
    ly0: float = -1.0
    ly1: float = 0.0

    def px(self, logx: float) -> float:
        span = self.width - self.left - self.right
        return self.left + (logx - self.lx0) / (self.lx1 - self.lx0) * span

    def py(self, logy: float) -> float:
        span = self.height - self.top - self.bottom
        return self.height - self.bottom - \
            (logy - self.ly0) / (self.ly1 - self.ly0) * span


def _pad(lo: float, hi: float, frac: float = 0.04) -> tuple[float, float]:
    if hi <= lo:
        hi = lo + 1.0
    margin = (hi - lo) * frac
    return lo - margin, hi + margin


def _decade_ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo), math.floor(hi) + 1))


def survival_chart(curve, out_path, *, fit=None, title: str = "") -> None:
    """Write a log-log chart of a :class:`~persistwalk.montecarlo.SurvivalCurve`.

    Each point carries its Clopper–Pearson error bar; points with a zero
    estimate have no place on a log axis and are dropped.  When a fit is
    given, its power law is drawn dashed through the weighted center of the
    fit window and the slope is printed in the legend.  The curve's
    provenance lines become XML comments at the top of the file.
    """
    h = np.asarray(curve.horizons, dtype=np.float64)
    p = curve.p_hat
    lo, hi = curve.ci
    keep = (h > 0) & (p > 0)
    if not keep.any():
        raise ValueError("no positive data points to draw")
    lx, ly = np.log10(h[keep]), np.log10(p[keep])
    ylo, yhi = np.maximum(lo[keep], 1e-300), hi[keep]

    f = _Frame()
    f.lx0, f.lx1 = _pad(float(lx.min()), float(lx.max()))
    f.ly0, f.ly1 = _pad(float(np.log10(ylo).min()), float(np.log10(yhi).max()))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{f.width}" height="{f.height}" '
             f'viewBox="0 0 {f.width} {f.height}">']
    for line in provenance(curve.config):
        parts.append("<!-- " + line.replace("--", "- -") + " -->")
    parts.append(f'<rect width="{f.width}" height="{f.height}" fill="white"/>')

    x0, x1 = f.left, f.width - f.right
    y0, y1 = f.top, f.height - f.bottom
    # decade grid + tick labels
    for k in _decade_ticks(f.lx0, f.lx1):
        gx = f.px(k)
        parts.append(f'<line x1="{gx:.1f}" y1="{y0}" x2="{gx:.1f}" y2="{y1}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{gx:.1f}" y="{y1 + 18}" font-size="12" '
                     f'text-anchor="middle" font-family="sans-serif">'
                     f'{_pow10(k)}</text>')
    for k in _decade_ticks(f.ly0, f.ly1):
        gy = f.py(k)
        parts.append(f'<line x1="{x0}" y1="{gy:.1f}" x2="{x1}" y2="{gy:.1f}" '
                     'stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x0 - 6}" y="{gy + 4:.1f}" font-size="12" '
                     f'text-anchor="end" font-family="sans-serif">'
                     f'{_pow10(k)}</text>')
    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" '
                 f'height="{y1 - y0}" fill="none" stroke="black" '
                 'stroke-width="1"/>')

    for i in range(len(lx)):
        bx = f.px(lx[i])
        top = f.py(math.log10(yhi[i]))
        bot = f.py(math.log10(ylo[i]))
        parts.append(f'<line x1="{bx:.1f}" y1="{top:.1f}" x2="{bx:.1f}" '
                     f'y2="{bot:.1f}" stroke="#888888" stroke-width="1"/>')
        for yy in (top, bot):
            parts.append(f'<line x1="{bx - 3:.1f}" y1="{yy:.1f}" '
                         f'x2="{bx + 3:.1f}" y2="{yy:.1f}" '
                         'stroke="#888888" stroke-width="1"/>')

    if len(lx) >= 2:
        pts = " ".join(f"{f.px(a):.1f},{f.py(b):.1f}" for a, b in zip(lx, ly))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     'stroke="#1f77b4" stroke-width="1.5"/>')
    for a, b in zip(lx, ly):
        parts.append(f'<circle cx="{f.px(a):.1f}" cy="{f.py(b):.1f}" r="2.5" '
                     'fill="#1f77b4"/>')

    if fit is not None:
        inw = (h >= fit.fit_range[0]) & (h <= fit.fit_range[1]) & (p > 0)
        # anchor the drawn line at the plain mean of the in-window points
        intercept = float(np.mean(np.log10(p[inw]) -
                                  fit.slope * np.log10(h[inw])))
        ya = fit.slope * lx[0] + intercept
        yb = fit.slope * lx[-1] + intercept
        parts.append(f'<line x1="{f.px(lx[0]):.1f}" y1="{f.py(ya):.1f}" '
                     f'x2="{f.px(lx[-1]):.1f}" y2="{f.py(yb):.1f}" '
                     'stroke="#d62728" stroke-width="1.5" '
                     'stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{x1 - 8}" y="{y0 + 16}" font-size="12" '
                     'text-anchor="end" font-family="sans-serif" '
                     f'fill="#d62728">slope {fit.slope:.4f} ± {fit.stderr:.4f}'
                     '</text>')

    if title:
        parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{y0 - 12}" '
                     'font-size="14" text-anchor="middle" '
                     f'font-family="sans-serif">{title}</text>')
    xlabel = ("excursion pairs k" if curve.kind == "excursion"
              else "time horizon t")
    parts.append(f'<text x="{(x0 + x1) / 2:.1f}" y="{f.height - 12}" '
                 'font-size="13" text-anchor="middle" '
                 f'font-family="sans-serif">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-size="13" '
                 'text-anchor="middle" font-family="sans-serif" '
                 f'transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">'
                 'survival probability</text>')
    parts.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
