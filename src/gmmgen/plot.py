"""Static SVG rendering of trajectories and the scene cross-section.

Three panels: the x-z path projection with slab outlines, positions over
time, and rotation-vector components over time.  Output is plain SVG text
with one polyline per plotted series.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .scene import Scene

PANEL_W = 300.0
PANEL_H = 260.0
MARGIN = 45.0
GAP = 30.0
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class _Panel:
    def __init__(self, origin_x: float, title: str, x_range, y_range):
        self.x0 = origin_x
        self.title = title
        span_x = x_range[1] - x_range[0] or 1.0
        span_y = y_range[1] - y_range[0] or 1.0
        self.xmap = lambda v: self.x0 + (v - x_range[0]) / span_x * PANEL_W
        self.ymap = lambda v: MARGIN + PANEL_H - (v - y_range[0]) / span_y * PANEL_H

    def frame(self) -> list:
        return [
            f'<rect x="{self.x0:.2f}" y="{MARGIN:.2f}" width="{PANEL_W:.2f}" '
            f'height="{PANEL_H:.2f}" fill="none" stroke="#999" stroke-width="1"/>',
            f'<text x="{self.x0 + PANEL_W / 2:.2f}" y="{MARGIN - 12:.2f}" '
            f'text-anchor="middle" font-size="13">{self.title}</text>',
        ]

    def polyline(self, xs, ys, color: str) -> str:
        pts = " ".join(f"{self.xmap(x):.2f},{self.ymap(y):.2f}" for x, y in zip(xs, ys))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                f'points="{pts}"/>')

    def rect(self, x_lo, x_hi, y_lo, y_hi) -> str:
        px, py = self.xmap(x_lo), self.ymap(y_hi)
        w = self.xmap(x_hi) - px
        h = self.ymap(y_lo) - py
        return (f'<rect x="{px:.2f}" y="{py:.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="#d8c8a8" stroke="#8a7a5a" stroke-width="0.8"/>')


def _padded(lo: float, hi: float, frac: float = 0.06):
    span = hi - lo
    pad = span * frac if span > 0 else max(abs(hi), 1.0) * frac
    return lo - pad, hi + pad


def render_svg(trajectories, scene: Scene | None = None) -> str:
    """Compose the three-panel figure; returns the SVG document text."""
    if not trajectories:
        raise ValueError("need at least one trajectory to plot")
    positions = [t.positions() for t in trajectories]
    rotvecs = [t.orientations() for t in trajectories]

    xs = np.concatenate([p[:, 0] for p in positions])
    zs = np.concatenate([p[:, 2] for p in positions])
    if scene is not None:
        xs = np.concatenate([xs] + [[s.min_corner[0], s.max_corner[0]] for s in scene.slabs])
        zs = np.concatenate([zs] + [[s.min_corner[2], s.max_corner[2]] for s in scene.slabs])
    times = np.concatenate([t.times for t in trajectories])
    pos = np.concatenate([p.ravel() for p in positions])
    rot = np.concatenate([r.ravel() for r in rotvecs])

    spatial = _Panel(MARGIN, "path (x-z)", _padded(xs.min(), xs.max()),
                     _padded(zs.min(), zs.max()))
    pos_panel = _Panel(MARGIN + PANEL_W + GAP, "position vs t",
                       (0.0, float(times.max())), _padded(pos.min(), pos.max()))
    rot_panel = _Panel(MARGIN + 2 * (PANEL_W + GAP), "rotation vs t",
                       (0.0, float(times.max())), _padded(rot.min(), rot.max()))

    total_w = 2 * MARGIN + 3 * PANEL_W + 2 * GAP
    total_h = 2 * MARGIN + PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w:.0f}" '
        f'height="{total_h:.0f}" viewBox="0 0 {total_w:.0f} {total_h:.0f}">',
        f'<rect width="{total_w:.0f}" height="{total_h:.0f}" fill="white"/>',
    ]
    if scene is not None:
        for slab in scene.slabs:
            parts.append(spatial.rect(slab.min_corner[0], slab.max_corner[0],
                                      slab.min_corner[2], slab.max_corner[2]))
    for panel in (spatial, pos_panel, rot_panel):
        parts.extend(panel.frame())
    for k, (traj, p, r) in enumerate(zip(trajectories, positions, rotvecs)):
        color = COLORS[k % len(COLORS)]
        parts.append(spatial.polyline(p[:, 0], p[:, 2], color))
        for d, axis_color in zip(range(3), COLORS):
            parts.append(pos_panel.polyline(traj.times, p[:, d], axis_color))
            parts.append(rot_panel.polyline(traj.times, r[:, d], axis_color))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_svg(trajectories, path, scene: Scene | None = None) -> None:
    Path(path).write_text(render_svg(trajectories, scene), encoding="utf-8")
