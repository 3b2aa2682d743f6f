"""Dependency-free SVG rendering of region energies on the source sphere."""

import numpy as np

from .metrics import region_energy

SIZE = 480   # px, the map's width and height


def _color(t):
    """Gray (zero) through blue to red (max)."""
    t = float(np.clip(t, 0.0, 1.0))
    r = int(round(128 + t * 127))
    g = int(round(128 * (1.0 - t)))
    b = int(round(128 + (1.0 - t) * 64 - t * 128))
    return f"rgb({r},{g},{max(b, 0)})"


def topography_svg(space, s_hat):
    """Top-down disc map: one circle per region centroid, colored by energy."""
    e = region_energy(s_hat)
    peak = e.max()
    coords = space.centroids
    span = float(np.abs(coords[:, :2]).max()) or 1.0
    margin = 24.0
    half = SIZE / 2.0 - margin
    cx = cy = SIZE / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" '
        f'height="{SIZE}" viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{half + 12:.1f}" fill="none" '
        'stroke="#888" stroke-width="1"/>',
    ]
    # draw back hemisphere first so front-of-head discs sit on top
    order = np.argsort(coords[:, 2])
    for j in order:
        x = cx + coords[j, 0] / span * half
        y = cy - coords[j, 1] / span * half
        frac = e[j] / peak if peak > 0 else 0.0
        fill = _color(frac) if peak > 0 else "rgb(160,160,160)"
        radius = 4.0 + 4.0 * frac
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius:.2f}" '
            f'fill="{fill}" fill-opacity="0.85"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
