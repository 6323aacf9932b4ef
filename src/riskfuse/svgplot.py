"""Self-contained SVG charts: no external resources, deterministic output.

Each ``render_*`` returns its figure as an SVG document string, assembled
from primitive shapes with a fixed margin layout; the caller writes it.
Kaplan-Meier curves use right-continuous steps (horizontal then vertical);
copula surfaces render as a pair of colored lattices or as marching-squares
contour lines over the pseudo-observation scatter. Marching squares finds
every cell's crossed edges and crossing points in whole-grid array
operations, then emits the segments cell by cell.
"""

from __future__ import annotations

import numpy as np

from .gof import empirical_copula
from .copulas import copula_cdf

_FONT = 'font-family="Helvetica, Arial, sans-serif"'
SERIES_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd")
HIST_BINS = 30  # per score panel, over [0, 1]
HEAT_GRID = 50  # lattice cells per axis of each copula heat panel
CONTOUR_GRID = 60  # interior grid points per axis under the copula contours
CONTOUR_LEVELS = np.arange(0.1, 1.0, 0.1)


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


class Axes:
    """Affine map from a data rectangle onto a pixel rectangle (y flipped)."""

    def __init__(self, x_range, y_range, left, top, width, height):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        self.left, self.top = left, top
        self.width, self.height = width, height

    def px(self, x: float) -> float:
        span = self.x1 - self.x0 or 1.0
        return self.left + (x - self.x0) / span * self.width

    def py(self, y: float) -> float:
        span = self.y1 - self.y0 or 1.0
        return self.top + self.height - (y - self.y0) / span * self.height

    def points(self, xs, ys) -> str:
        return " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))

    def frame(self, title, x_label, y_label, n_ticks=6):
        parts = [
            f'<rect x="{self.left}" y="{self.top}" width="{self.width}" height="{self.height}" '
            'fill="none" stroke="#444444" stroke-width="1"/>'
        ]
        for t in np.linspace(self.x0, self.x1, n_ticks):
            x = self.px(t)
            y = self.top + self.height
            parts.append(f'<line x1="{x:.2f}" y1="{y}" x2="{x:.2f}" y2="{y + 5}" stroke="#444444"/>')
            parts.append(
                f'<text x="{x:.2f}" y="{y + 18}" text-anchor="middle" font-size="11" {_FONT}>{_fmt(t)}</text>'
            )
        for t in np.linspace(self.y0, self.y1, n_ticks):
            y = self.py(t)
            parts.append(f'<line x1="{self.left - 5}" y1="{y:.2f}" x2="{self.left}" y2="{y:.2f}" stroke="#444444"/>')
            parts.append(
                f'<text x="{self.left - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="11" {_FONT}>{_fmt(t)}</text>'
            )
        cx = self.left + self.width / 2
        parts.append(
            f'<text x="{cx}" y="{self.top - 8}" text-anchor="middle" font-size="14" {_FONT}>{_esc(title)}</text>'
        )
        parts.append(
            f'<text x="{cx}" y="{self.top + self.height + 34}" text-anchor="middle" font-size="12" {_FONT}>{_esc(x_label)}</text>'
        )
        parts.append(
            f'<text x="{self.left - 40}" y="{self.top + self.height / 2}" text-anchor="middle" font-size="12" '
            f'{_FONT} transform="rotate(-90 {self.left - 40} {self.top + self.height / 2})">{_esc(y_label)}</text>'
        )
        return parts


def _document(width, height, body) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        '<rect x="0" y="0" width="100%" height="100%" fill="#ffffff"/>\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def _legend(entries, x, y):
    parts = []
    for i, (label, color) in enumerate(entries):
        yy = y + i * 18
        parts.append(f'<line x1="{x}" y1="{yy}" x2="{x + 22}" y2="{yy}" stroke="{color}" stroke-width="2.5"/>')
        parts.append(f'<text x="{x + 28}" y="{yy + 4}" font-size="12" {_FONT}>{_esc(label)}</text>')
    return parts


def render_roc(curves) -> str:
    """curves: ordered {label: (fpr, tpr, auc)}. Diagonal drawn dashed."""
    axes = Axes((0, 1), (0, 1), 70, 40, 420, 420)
    body = axes.frame("ROC for 5-year outcome", "false positive rate", "true positive rate")
    body.append(
        f'<line x1="{axes.px(0):.2f}" y1="{axes.py(0):.2f}" x2="{axes.px(1):.2f}" y2="{axes.py(1):.2f}" '
        'stroke="#999999" stroke-dasharray="5,4"/>'
    )
    legend = []
    for i, (label, (fpr, tpr, auc_val)) in enumerate(curves.items()):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{axes.points(fpr, tpr)}"/>'
        )
        legend.append((f"{label} (AUC {auc_val:.3f})", color))
    body += _legend(legend, axes.left + 230, axes.top + 360)
    return _document(540, 520, body)


def render_score_hist(p_clin, p_gen) -> str:
    panels = [("clinical risk score", np.asarray(p_clin)), ("genomic risk score", np.asarray(p_gen))]
    body = []
    for i, (label, scores) in enumerate(panels):
        counts, edges = np.histogram(scores, bins=HIST_BINS, range=(0.0, 1.0))
        top = float(counts.max() or 1)
        axes = Axes((0, 1), (0, top), 70 + i * 460, 40, 380, 380)
        body += axes.frame(label, "score", "patients", n_ticks=5)
        color = SERIES_COLORS[i]
        for c, lo, hi in zip(counts, edges[:-1], edges[1:]):
            if c == 0:
                continue
            x = axes.px(lo)
            w = axes.px(hi) - x
            y = axes.py(float(c))
            h = axes.py(0) - y
            body.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" fill="{color}" '
                'fill-opacity="0.75" stroke="#ffffff" stroke-width="0.5"/>'
            )
    return _document(980, 500, body)


def render_scatter(p_clin, p_gen, y) -> str:
    axes = Axes((0, 1), (0, 1), 70, 40, 420, 420)
    body = axes.frame("clinical vs genomic risk", "clinical score", "genomic score")
    y = np.asarray(y)
    for label, mask, color in (("survived 5y", y == 0, "#1f77b4"), ("event by 5y", y == 1, "#d62728")):
        for xc, yc in zip(np.asarray(p_clin)[mask], np.asarray(p_gen)[mask]):
            body.append(
                f'<circle cx="{axes.px(xc):.2f}" cy="{axes.py(yc):.2f}" r="2.4" fill="{color}" fill-opacity="0.55"/>'
            )
    body += _legend([("survived 5y", "#1f77b4"), ("event by 5y", "#d62728")], axes.left + 270, axes.top + 20)
    return _document(540, 520, body)


def copula_lattice(u, v, model):
    """Empirical and fitted copula on the lattice (i/G, j/G), i,j = 1..G, G = HEAT_GRID."""
    g = np.arange(1, HEAT_GRID + 1) / HEAT_GRID
    gu, gv = np.meshgrid(g, g, indexing="ij")
    emp = empirical_copula(u, v, gu.ravel(), gv.ravel()).reshape(gu.shape)
    fit = copula_cdf(model, gu.ravel(), gv.ravel()).reshape(gu.shape)
    return g, emp, fit


def _ramp(t: float) -> str:
    # dark blue to yellow
    lo = (18, 38, 77)
    hi = (250, 220, 60)
    r, g, b = (int(round(a + (b_ - a) * t)) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def render_copula_heat(u, v, model) -> str:
    g, emp, fit = copula_lattice(u, v, model)
    panels = [("empirical copula", emp), (f"fitted {model.family} copula", fit)]
    body = []
    for i, (label, z) in enumerate(panels):
        axes = Axes((0, 1), (0, 1), 70 + i * 460, 40, 380, 380)
        cell_w = axes.width / HEAT_GRID
        cell_h = axes.height / HEAT_GRID
        for a in range(HEAT_GRID):
            for b in range(HEAT_GRID):
                x = axes.px(a / HEAT_GRID)
                y = axes.py((b + 1) / HEAT_GRID)
                body.append(
                    f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
                    f'fill="{_ramp(float(z[a, b]))}"/>'
                )
        body += axes.frame(label, "u (clinical rank)", "v (genomic rank)", n_ticks=5)
    return _document(980, 500, body)


def _marching_squares(g, z, level):
    """Line segments of the iso-contour z = level on grid coords g.

    Cell (a, b) has corners 0-3 at grid points (a, b), (a + 1, b),
    (a + 1, b + 1) and (a, b + 1), and edge i joins corner i to corner
    i + 1 (mod 4). Every cell's crossed edges and crossing points are found
    at once; the segments then come in cell order, each cell's in edge order.
    A cell with two crossed edges gives one segment, and a saddle (four) is
    split by its center value."""
    lo, hi = g[:-1], g[1:]
    shape = (len(lo), len(lo))
    zc = np.stack([z[:-1, :-1], z[1:, :-1], z[1:, 1:], z[:-1, 1:]]).reshape(4, -1)
    xc = np.stack([np.broadcast_to(x[:, None], shape) for x in (lo, hi, hi, lo)]).reshape(4, -1)
    yc = np.stack([np.broadcast_to(y[None, :], shape) for y in (lo, lo, hi, hi)]).reshape(4, -1)
    above = zc >= level
    crossed = above != np.roll(above, -1, axis=0)
    cell, edge = np.nonzero(crossed.T)
    end = (edge + 1) % 4
    zp = zc[edge, cell]
    t = (level - zp) / (zc[end, cell] - zp)
    xp, yp = xc[edge, cell], yc[edge, cell]
    points = list(zip((xp + t * (xc[end, cell] - xp)).tolist(), (yp + t * (yc[end, cell] - yp)).tolist()))
    n_crossed = crossed.sum(axis=0)
    segs = []
    i = 0
    for c in np.flatnonzero(n_crossed).tolist():
        e = points[i : i + n_crossed[c]]
        i += len(e)
        if len(e) == 2:
            segs.append((e[0], e[1]))
        elif (np.mean(zc[:, c]) >= level) == above[0, c]:
            segs += [(e[0], e[3]), (e[1], e[2])]
        else:
            segs += [(e[0], e[1]), (e[2], e[3])]
    return segs


def render_copula_contours(u, v, model) -> str:
    axes = Axes((0, 1), (0, 1), 70, 40, 420, 420)
    body = axes.frame(f"{model.family} copula contours", "u (clinical rank)", "v (genomic rank)")
    for xc, yc in zip(np.asarray(u), np.asarray(v)):
        body.append(f'<circle cx="{axes.px(xc):.2f}" cy="{axes.py(yc):.2f}" r="1.8" fill="#888888" fill-opacity="0.5"/>')
    g = np.arange(1, CONTOUR_GRID + 1) / (CONTOUR_GRID + 1)
    gu, gv = np.meshgrid(g, g, indexing="ij")
    z = copula_cdf(model, gu.ravel(), gv.ravel()).reshape(gu.shape)
    for level in CONTOUR_LEVELS:
        path_cmds = []
        for (x1, y1), (x2, y2) in _marching_squares(g, z, level):
            path_cmds.append(
                f"M {axes.px(x1):.2f} {axes.py(y1):.2f} L {axes.px(x2):.2f} {axes.py(y2):.2f}"
            )
        if path_cmds:
            body.append(f'<path d="{" ".join(path_cmds)}" stroke="#1f3f8f" stroke-width="1.3" fill="none"/>')
    return _document(540, 520, body)


def km_step_points(axes, curve):
    """Pixel vertices of a right-continuous step curve starting at (0, 1)."""
    xs = [0.0]
    ys = [1.0]
    for t, s in zip(curve.times, curve.survival):
        xs.append(t)
        ys.append(ys[-1])  # horizontal run into the event time
        xs.append(t)
        ys.append(s)  # vertical drop at the event time
    xs.append(axes.x1)
    ys.append(ys[-1])
    return axes.points(xs, ys)


def render_km(curves, omitted=None) -> str:
    """curves: ordered {stratum label: KMCurve}; omitted strata listed below."""
    t_max = max((float(c.times[-1]) if len(c.times) else 0.0) for c in curves.values())
    t_max = max(t_max * 1.05, 1.0)
    axes = Axes((0, t_max), (0, 1), 80, 40, 520, 420)
    body = axes.frame("survival by joint risk stratum", "months", "survival probability")
    legend = []
    for i, (label, curve) in enumerate(curves.items()):
        color = SERIES_COLORS[i % len(SERIES_COLORS)]
        body.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{km_step_points(axes, curve)}"/>'
        )
        legend.append((f"{label} (n={curve.n_start})", color))
    body += _legend(legend, axes.left + 330, axes.top + 20)
    if omitted:
        note = ", ".join(f"{lab} (n={sz})" for lab, sz in omitted.items())
        body.append(
            f'<text x="{axes.left}" y="{axes.top + axes.height + 50}" font-size="11" {_FONT}>'
            f"omitted (below size threshold): {_esc(note)}</text>"
        )
    return _document(680, 530, body)
