"""Projective plane geometry over an exact field.

Points and lines are canonicalized by scaling the first nonzero coordinate
to 1, so equality and incidence reduce to exact coordinate comparisons, and
raw coordinates are matched to the labelled point they are a multiple of
(`_known_point`) with no inverse.
A curve is its homogeneous form in x, y, z: `tangent_line`,
`classify_point` and `restrict_to_line` take the `MultiPoly` itself, and a
point lies on the curve where the form evaluates to zero.  Singularities
are classified from the local expansion in the affine chart of the point's
first nonzero coordinate; the class is a projective notion, so any chart
gives the same answer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .multipoly import MultiPoly, QQ, divide_exact, field_linsolve


class SingularityClass(enum.Enum):
    SMOOTH = "smooth"
    NODE = "node"
    CUSP = "cusp"
    HIGHER = "higher"


def normalize_projective(values) -> tuple:
    """The scalar multiple of a projective tuple whose first nonzero entry is one.

    Zero entries are left as they are and a tuple whose lead is already one
    comes back unchanged; raises ValueError when every entry is zero.
    """
    values = tuple(values)
    lead = next((v for v in values if v), None)
    if lead is None:
        raise ValueError("every entry is zero")
    if lead == 1:
        return values
    inv = lead.inverse()
    return tuple(v * inv if v else v for v in values)


def _canonicalize(coords, domain):
    vals = tuple(domain.coerce(c) for c in coords)
    if len(vals) != 3:
        raise ValueError("projective coordinates must have length 3")
    return normalize_projective(vals)


class ProjPoint:
    """Point of P^2, unique canonical representative."""

    __slots__ = ("coords", "domain", "_hash")

    def __init__(self, coords, domain=QQ):
        self.coords = _canonicalize(coords, domain)
        self.domain = domain
        self._hash = None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("pt", self.coords))
        return self._hash

    def __repr__(self):
        return "(" + " : ".join(repr(c) for c in self.coords) + ")"


class ProjLine:
    """Line a*x + b*y + c*z = 0, coefficients canonicalized like a point."""

    __slots__ = ("coeffs", "domain", "_hash")

    def __init__(self, coeffs, domain=QQ):
        self.coeffs = _canonicalize(coeffs, domain)
        self.domain = domain
        self._hash = None

    def contains(self, p: ProjPoint) -> bool:
        return not self.domain.dot(self.coeffs, p.coords)

    def basis_points(self):
        """Two distinct points spanning the line, chosen deterministically."""
        a, b, c = self.coeffs
        if a:
            p0, p1 = (b, -a, self.domain.zero()), (c, self.domain.zero(), -a)
        elif b:
            one = self.domain.one()
            p0, p1 = (one, self.domain.zero(), self.domain.zero()), (
                self.domain.zero(),
                c,
                -b,
            )
        else:
            one, zero = self.domain.one(), self.domain.zero()
            p0, p1 = (one, zero, zero), (zero, one, zero)
        return ProjPoint(p0, self.domain), ProjPoint(p1, self.domain)

    def equation(self) -> MultiPoly:
        x, y, z = MultiPoly.variables(3, self.domain)
        a, b, c = self.coeffs
        return a * x + b * y + c * z

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjLine):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("ln", self.coeffs))
        return self._hash

    def __repr__(self):
        return "[" + " : ".join(repr(c) for c in self.coeffs) + "]"


@lru_cache(maxsize=None)
def _by_zero_pattern(points: tuple) -> dict:
    """The indices into `points` grouped by which coordinates of the point
    vanish, once per tuple of points."""
    groups = {}
    for i, p in enumerate(points):
        groups.setdefault(tuple(not c for c in p.coords), []).append(i)
    return groups


def _known_point(points: tuple, coords):
    """The point of `points` of which `coords` is a nonzero multiple, or None.

    Decided exactly and with no inverse: the zero coordinates of coords must
    be those of p, and then coords[i] == coords[lead]*p[i] for each further
    nonzero coordinate of p, where lead is p's first nonzero coordinate,
    which normalisation made 1.  Only the points with the zero pattern of
    coords are tried.  The point returned is the very object of `points`."""
    zeros = tuple(not c for c in coords)
    for k in _by_zero_pattern(points).get(zeros, ()):
        p = points[k]
        pc = p.coords
        lead = zeros.index(False)
        if all(coords[i] == coords[lead] * pc[i] for i in range(lead + 1, 3) if pc[i]):
            return p
    return None


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def line_through(p: ProjPoint, q: ProjPoint) -> ProjLine:
    """The unique line through two distinct points (cross product)."""
    coeffs = _cross(p.coords, q.coords)
    if not any(coeffs):
        raise ValueError("points coincide; the line is not unique")
    return ProjLine(coeffs, p.domain)


def lines_meet(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    coords = _cross(l1.coeffs, l2.coeffs)
    if not any(coords):
        raise ValueError("lines coincide; the intersection is not a point")
    return ProjPoint(coords, l1.domain)


def tangent_line(form: MultiPoly, p: ProjPoint) -> ProjLine:
    """Tangent at a smooth point of the curve form = 0: coefficients are
    the gradient at p."""
    if form.evaluate(p.coords):
        raise ValueError(f"{p!r} is not on the curve")
    grad = tuple(d.evaluate(p.coords) for d in form.gradient((0, 1, 2)))
    if not any(grad):
        raise ValueError(f"{p!r} is a singular point; no unique tangent")
    return ProjLine(grad, form.domain)


def classify_point(form: MultiPoly, p: ProjPoint) -> SingularityClass:
    """Local type of a point of the curve form = 0: smooth, node, cusp or
    worse.

    A singular point is expanded in the affine chart of its first nonzero
    coordinate with p at the origin.  The quadratic jet decides: two distinct
    tangent directions give a node; a repeated direction gives a cusp exactly
    when the cubic jet is not divisible by the repeated factor.
    """
    if form.evaluate(p.coords):
        raise ValueError(f"{p!r} is not on the curve")
    if any(d.evaluate(p.coords) for d in form.gradient((0, 1, 2))):
        return SingularityClass.SMOOTH
    domain = form.domain
    chart = next(i for i, c in enumerate(p.coords) if c)
    u, v = MultiPoly.variables(2, domain)
    images = []
    locals_ = [u, v]
    for i, c in enumerate(p.coords):
        if i == chart:
            images.append(MultiPoly.constant(2, domain.one(), domain))
        else:
            images.append(locals_.pop(0) + MultiPoly.constant(2, c, domain))
    local = form.substitute(images)
    jets: dict = {}
    for exps, coef in local.terms.items():
        jets.setdefault(sum(exps), {})[exps] = coef
    quad = MultiPoly(2, jets.get(2, {}), domain)
    if not quad:
        return SingularityClass.HIGHER
    a = quad.coefficient((2, 0))
    b = quad.coefficient((1, 1))
    c = quad.coefficient((0, 2))
    disc = b * b - 4 * a * c
    if disc:
        return SingularityClass.NODE
    # quad = (repeated linear factor)^2 up to scale
    if a:
        factor = 2 * a * u + b * v
    else:
        factor = b * u + 2 * c * v  # here b = 0, so this is v up to scale
    cubic = MultiPoly(2, jets.get(3, {}), domain)
    if not cubic:
        return SingularityClass.HIGHER
    try:
        divide_exact(cubic, factor)
    except ValueError:
        return SingularityClass.CUSP
    return SingularityClass.HIGHER


@dataclass
class IncidenceTable:
    matrix: list  # matrix[i][j] = point i on line j
    point_counts: list  # lines through each point
    line_counts: list  # points on each line

    def counts_multiset(self):
        return sorted(self.point_counts), sorted(self.line_counts)


def incidence_table(points: Sequence[ProjPoint], lines: Sequence[ProjLine]) -> IncidenceTable:
    matrix = [[line.contains(p) for line in lines] for p in points]
    point_counts = [sum(row) for row in matrix]
    line_counts = [sum(matrix[i][j] for i in range(len(points))) for j in range(len(lines))]
    return IncidenceTable(matrix, point_counts, line_counts)


def restrict_to_line(form: MultiPoly, line: ProjLine) -> MultiPoly:
    """The ternary form along the line's canonical parametrization.

    The parameter (s, t) maps to s*P0 + t*P1 with (P0, P1) = basis_points.
    """
    p0, p1 = line.basis_points()
    domain = form.domain
    s, t = MultiPoly.variables(2, domain)
    images = [
        s * MultiPoly.constant(2, a, domain) + t * MultiPoly.constant(2, b, domain)
        for a, b in zip(p0.coords, p1.coords)
    ]
    restricted = form.substitute(images)
    if not restricted:
        raise ValueError("line is a component of the curve")
    return restricted


def line_parameter(line: ProjLine, p: ProjPoint):
    """(s, t) with p = s*P0 + t*P1 in the line's canonical parametrization."""
    if not line.contains(p):
        raise ValueError(f"{p!r} is not on {line!r}")
    p0, p1 = line.basis_points()
    return tuple(field_linsolve(list(zip(p0.coords, p1.coords)), p.coords, line.domain))


def root_multiplicity(form: MultiPoly, s0, t0) -> int:
    """Multiplicity of the root (s0 : t0) in a binary form."""
    if form.nvars != 2:
        raise ValueError("binary form expected")
    domain = form.domain
    s, t = MultiPoly.variables(2, domain)
    linear = t0 * s - s0 * t
    if not linear:
        raise ValueError("(0, 0) is not a projective parameter")
    mult = 0
    while form:
        try:
            form = divide_exact(form, linear)
        except ValueError:
            break
        mult += 1
    return mult
