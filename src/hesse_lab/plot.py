"""Deterministic SVG rendering of the pencil in the affine chart z = 1.

Real loci of members are traced by marching squares on a fixed grid.
The inflection-line configuration is famously not realizable over the
reals: only four of the twelve lines have real coefficients and one of
those is the line at infinity.  Each line is therefore drawn as the
segment joining the chart images of two of its base points, where a
complex point contributes its real part and a point at infinity is
clamped to the window border along its direction; real lines render
exactly, the others schematically.  All coordinates are written with
six decimals so identical input yields identical bytes.
"""

from fractions import Fraction

from .field import tower_eps
from .hesse import PencilParameter, hesse_data

_FMT = "%.6f"
_RESOLUTION = 160  # grid cells per side for marching squares
_MAX_BOUND = 1e100  # past it a window bound cubed or a member's grid value overflows


def _real_part(c) -> float:
    """Real part a - b/2 of a + b*eps in Q(eps), eps = exp(2*pi*i/3)."""
    a, b = tower_eps().coerce(c).coords
    real = a - b / 2
    if abs(real) > _MAX_BOUND:
        raise ValueError(f"a value past {_MAX_BOUND:g} in magnitude cannot be drawn")
    return float(real)


def _chart_image(coords, window):
    """Affine (u, v) of a projective point, clamped to the window border
    for points on or near the line at infinity."""
    x, y, z = map(_real_part, coords)
    if abs(z) > 1e-9:
        return x / z, y / z
    xmin, xmax, ymin, ymax = window
    scale = max(
        abs(x) / max(abs(xmin), xmax, 1e-9), abs(y) / max(abs(ymin), ymax, 1e-9)
    )
    if scale == 0:
        return 0.0, 0.0
    return x / scale, y / scale


def _clip(p, window):
    xmin, xmax, ymin, ymax = window
    return (min(max(p[0], xmin), xmax), min(max(p[1], ymin), ymax))


def _marching_segments(values, xs, ys):
    """Line segments of the zero contour on a sign grid via the standard
    sixteen-case cell lookup with linear interpolation."""

    def lerp(a, b, fa, fb):
        t = fa / (fa - fb)
        return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))

    segments = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            corners = (
                ((xs[i], ys[j]), values[i][j]),
                ((xs[i + 1], ys[j]), values[i + 1][j]),
                ((xs[i + 1], ys[j + 1]), values[i + 1][j + 1]),
                ((xs[i], ys[j + 1]), values[i][j + 1]),
            )
            mask = 0
            for bit, (_, val) in enumerate(corners):
                if val < 0:
                    mask |= 1 << bit
            if mask in (0, 15):
                continue
            crossings = []
            for a in range(4):
                b = (a + 1) % 4
                (pa, fa), (pb, fb) = corners[a], corners[b]
                if (fa < 0) != (fb < 0):
                    crossings.append(lerp(pa, pb, fa, fb))
            if len(crossings) == 2:
                segments.append((crossings[0], crossings[1]))
            elif len(crossings) == 4:
                # ambiguous saddle: connect crossings pairwise in edge order
                segments.append((crossings[0], crossings[1]))
                segments.append((crossings[2], crossings[3]))
    return segments


def _member_segments(parameter: PencilParameter, window):
    t0, t1 = map(_real_part, parameter.pair())
    xmin, xmax, ymin, ymax = window
    xs = [xmin + (xmax - xmin) * k / _RESOLUTION for k in range(_RESOLUTION + 1)]
    ys = [ymin + (ymax - ymin) * k / _RESOLUTION for k in range(_RESOLUTION + 1)]
    values = [
        [t0 * (u**3 + v**3 + 1.0) + t1 * u * v for v in ys] for u in xs
    ]
    return _marching_segments(values, xs, ys)


def _triangle_segments(window):
    """The member at infinity is the coordinate triangle: the two affine
    edges plus the window frame standing in for the line at infinity."""
    xmin, xmax, ymin, ymax = window
    return [
        ((0.0, ymin), (0.0, ymax)),
        ((xmin, 0.0), (xmax, 0.0)),
        ((xmin, ymin), (xmin, ymax)),
    ]


def _line_endpoints(window):
    """One endpoint pair per inflection line, via base points on it."""
    data = hesse_data()
    endpoints = []
    for line_index, line in enumerate(data.inflection_lines):
        on_line = [
            i
            for i, p in enumerate(data.base_points)
            if line.contains(p)
        ]
        a = _clip(_chart_image(data.base_points[on_line[0]].coords, window), window)
        b = _clip(_chart_image(data.base_points[on_line[1]].coords, window), window)
        endpoints.append((line_index, a, b))
    return endpoints


def _real_base_points(window):
    """Chart markers for the base points with real coordinates."""
    data = hesse_data()
    out = []
    for i, p in enumerate(data.base_points):
        if all(c.is_rational() for c in p.coords):
            out.append((i, _clip(_chart_image(p.coords, window), window)))
    return out


def _coerce_parameter(value) -> PencilParameter:
    """A member of the figure: "inf" or a rational affine parameter."""
    if value == "inf":
        return PencilParameter.infinity()
    return PencilParameter.from_affine(Fraction(value))


def pencil_svg(lambdas, window=(-2.5, 2.5, -2.5, 2.5)) -> str:
    """SVG document (text) with one group per member, the twelve
    inflection lines, and the real base points."""
    xmin, xmax, ymin, ymax = (float(w) for w in window)
    if not all(abs(w) <= _MAX_BOUND for w in (xmin, xmax, ymin, ymax)):  # nan fails too
        raise ValueError(f"window bounds must be finite and at most {_MAX_BOUND:g} in magnitude")
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window must be (xmin, xmax, ymin, ymax) with nonempty sides")
    window = (xmin, xmax, ymin, ymax)
    width, height = 640, 640

    def to_px(p):
        u = (p[0] - xmin) / (xmax - xmin) * width
        v = height - (p[1] - ymin) / (ymax - ymin) * height
        return u, v

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    palette = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")
    for k, raw in enumerate(lambdas):
        parameter = _coerce_parameter(raw)
        color = palette[k % len(palette)]
        if parameter.is_infinite:
            segments = _triangle_segments(window)
            label = "inf"
        else:
            segments = _member_segments(parameter, window)
            label = str(parameter.affine())
        parts.append(f'<g class="member" data-lambda="{label}" stroke="{color}" fill="none">')
        for a, b in segments:
            (x1, y1), (x2, y2) = to_px(a), to_px(b)
            parts.append(
                '<line x1="%s" y1="%s" x2="%s" y2="%s"/>'
                % (_FMT % x1, _FMT % y1, _FMT % x2, _FMT % y2)
            )
        parts.append("</g>")
    parts.append('<g class="configuration" stroke="#888888" stroke-dasharray="4 3">')
    for line_index, a, b in _line_endpoints(window):
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        parts.append(
            '<line class="inflection" data-index="%d" x1="%s" y1="%s" x2="%s" y2="%s"/>'
            % (line_index, _FMT % x1, _FMT % y1, _FMT % x2, _FMT % y2)
        )
    parts.append("</g>")
    parts.append('<g class="points" fill="black">')
    for i, p in _real_base_points(window):
        x, y = to_px(p)
        parts.append(
            '<circle class="base-point" data-index="%d" cx="%s" cy="%s" r="4"/>'
            % (i, _FMT % x, _FMT % y)
        )
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def plot_pencil(lambdas, out_path, window=(-2.5, 2.5, -2.5, 2.5)) -> str:
    """Render and write the figure; returns the output path."""
    text = pencil_svg(lambdas, window)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return out_path
