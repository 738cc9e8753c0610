"""Self-contained SVG emission for opinion-space scatters and error curves."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

DEFAULT_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# election-style classes keep their conventional colors
CLASS_COLORS = {"clinton": "#1f77b4", "trump": "#d62728"}


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _color_for(name: str, palette: dict[str, str]) -> str:
    if name not in palette:
        fixed = CLASS_COLORS.get(name)
        palette[name] = fixed or DEFAULT_COLORS[len(palette) % len(DEFAULT_COLORS)]
    return palette[name]


def _frame(width: int, height: int, margin: float, title: str) -> list[str]:
    """Opening lines of a plot: SVG root, white background, plot border, title."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_fmt(margin)}" y="{_fmt(margin)}" width="{_fmt(width - 2 * margin)}" '
        f'height="{_fmt(height - 2 * margin)}" fill="none" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(width / 2)}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{title}</text>'
        )
    return parts


def plot_scatter(
    points_2d: Sequence[Sequence[float]],
    annotations: Sequence[Mapping],
    title: str = "",
    width: int = 720,
    height: int = 560,
    min_radius: float = 4.0,
    max_radius: float = 18.0,
) -> str:
    """Scatter of 2-D points with class colors and an optional size channel.

    ``annotations[i]`` carries ``id``, ``class`` and optionally ``size``.
    Axes stay unlabeled: the two MDS directions carry no intrinsic meaning,
    only relative distances do. Output is a deterministic standalone SVG.
    """
    if len(points_2d) != len(annotations):
        raise ValueError("points and annotations must align")
    margin = 56.0
    xs = [float(p[0]) for p in points_2d]
    ys = [float(p[1]) for p in points_2d]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    sizes = [a.get("size") for a in annotations]
    has_sizes = any(s is not None for s in sizes)
    if has_sizes:
        present = [float(s) for s in sizes if s is not None]
        s_lo, s_hi = min(present), max(present)
        s_span = (s_hi - s_lo) or 1.0

    def radius(size: Optional[float]) -> float:
        if not has_sizes or size is None:
            return min_radius
        return min_radius + (max_radius - min_radius) * (float(size) - s_lo) / s_span

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette: dict[str, str] = {}
    parts = _frame(width, height, margin, title)
    for point, ann in zip(points_2d, annotations):
        color = _color_for(str(ann.get("class", "")), palette)
        cx, cy = sx(float(point[0])), sy(float(point[1]))
        r = radius(ann.get("size"))
        parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
            f'fill="{color}" fill-opacity="0.55" stroke="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx + r + 2)}" y="{_fmt(cy + 4)}" '
            f'font-family="sans-serif" font-size="11">{ann.get("id", "")}</text>'
        )
    for pos, (name, color) in enumerate(sorted(palette.items())):
        ly = margin + 16 + 18 * pos
        parts.append(
            f'<circle cx="{_fmt(width - margin - 92)}" cy="{_fmt(ly - 4)}" r="5" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(width - margin - 82)}" y="{_fmt(ly)}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_error_curves(
    series: Mapping[str, Sequence[tuple[int, float, float, float]]],
    title: str = "",
    x_label: str = "k",
    y_label: str = "prediction errors",
    width: int = 720,
    height: int = 480,
) -> str:
    """Median lines with shaded 2.5/97.5-percentile bands, one per series.

    ``series`` maps a name to (k, median, low, high) tuples.
    """
    margin = 60.0
    all_x = [int(p[0]) for pts in series.values() for p in pts]
    all_y = [float(v) for pts in series.values() for p in pts for v in p[1:]]
    if not all_x:
        raise ValueError("no data to plot")
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y + [0.0]), max(all_y)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    palette: dict[str, str] = {}
    parts = _frame(width, height, margin, title)
    for tick in range(x_lo, x_hi + 1, max(1, (x_hi - x_lo) // 12 or 1)):
        parts.append(
            f'<text x="{_fmt(sx(tick))}" y="{_fmt(height - margin + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{tick}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y_val = y_lo + frac * y_span
        parts.append(
            f'<text x="{_fmt(margin - 8)}" y="{_fmt(sy(y_val) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{y_val:.1f}</text>'
        )
    parts.append(
        f'<text x="{_fmt(width / 2)}" y="{_fmt(height - 14)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt(height / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_fmt(height / 2)})">{y_label}</text>'
    )
    for name in sorted(series):
        rows = sorted(series[name], key=lambda r: r[0])
        color = _color_for(name, palette)
        band = " ".join(f"{_fmt(sx(r[0]))},{_fmt(sy(r[3]))}" for r in rows)
        band += " " + " ".join(
            f"{_fmt(sx(r[0]))},{_fmt(sy(r[2]))}" for r in reversed(rows)
        )
        parts.append(f'<polygon points="{band}" fill="{color}" fill-opacity="0.18"/>')
        line = " ".join(f"{_fmt(sx(r[0]))},{_fmt(sy(r[1]))}" for r in rows)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    for pos, (name, color) in enumerate(sorted(palette.items())):
        ly = margin + 16 + 18 * pos
        parts.append(
            f'<rect x="{_fmt(width - margin - 120)}" y="{_fmt(ly - 9)}" width="14" '
            f'height="4" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(width - margin - 100)}" y="{_fmt(ly)}" '
            f'font-family="sans-serif" font-size="12">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
