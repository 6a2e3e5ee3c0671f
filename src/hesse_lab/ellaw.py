"""Chord-tangent group law on smooth pencil members.

The exact layer never solves a polynomial of degree above one.  Along the
chord through two member points u and v, the member
F = t0*(x^3+y^3+z^3) + t1*xyz restricts by polarisation to the binary cubic

    F(s*u + t*v) = F(u) s^3 + (grad F(u).v) s^2 t + (grad F(v).u) s t^2 + F(v) t^3,

whose coefficients come from the closed-form gradient of F.  Each point's
gradient and value F(p) = grad F(p).p / 3 are made once per context (the
member a call works on), however many chords pass through the point.  One
exact division by s*t, the known roots (1 : 0) and (0 : 1), certifies on
every chord that u and v lie on the member, and the linear quotient gives
the third point.  A tangent at u takes for v the signed swap
grad F(u) x e_j, left unnormalised, and divides by t^2 instead.  The
3-torsion table and the translation check add base points whose sums share
chords (a + b and b + a, and each sum's second chord through the origin),
so each makes every distinct chord once per call; a translation is read
off the image of the origin.  Proposition 6.2 takes no root either: the
quadratic cutting its two points divides the sextic on the line.

Loci that genuinely require root extraction (the 2-torsion on a harmonic
polar, order-nine contact points) go through a numeric mpmath backend at a
chosen working precision, whose residuals are compared with one fixed
tolerance rule.  The order-nine points take one small eigen-solve: the
resultant in y, a polynomial in x^3, deflates, and each y comes from the
exact first subresultant, linear in y.  With a flex as origin,
A + B + C = 0 exactly when A, B and C are collinear, so 3P is the third
point of the line through -2P and -P: one chord per point.  The backend
takes the one complex embedding of the program, that of Q(eps) with
eps = exp(2*pi*i/3), in closed form (`_to_mpc`), and this is the one module
that imports mpmath.  The module ends with the registered torsion checks
that sweep sample parameters; the two numeric ones sample lambda = 1, 2 and
1/2 (and 0 for the 2-torsion) at 128 bits and give each residual as a
17-digit string.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from .field import FieldElement, TowerError, tower_eps
from .hesse import (
    PencilParameter,
    PropertyResult,
    _expect,
    hesse_data,
    hessian_map,
    member_is_singular,
    pencil_member,
)
from .multipoly import (
    MultiPoly,
    binary_form_gcd,
    divide_exact,
    proportionality,
    resultant_in_var,
)
from .plane import (
    ProjPoint,
    _cross,
    line_parameter,
    restrict_to_line,
    tangent_line,
)

_THIRD = Fraction(1, 3)


# ---------------------------------------------------------------------------
# exact layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CurveContext:
    """A smooth pencil member with a marked base point as group origin."""

    parameter: PencilParameter
    origin_index: int
    member: MultiPoly  # the cubic form of the member
    domain: object
    polars: dict = field(default_factory=dict, repr=False)  # see _polar

    @property
    def origin(self) -> ProjPoint:
        return hesse_data().base_points[self.origin_index]


def curve_context(parameter, origin_index: int = 0) -> CurveContext:
    """Group-law context on the member at `parameter` with origin p_i.

    The parameter may be a PencilParameter or an affine value; it is
    coerced into the cube-root tower where the base points live.
    """
    K = tower_eps()
    if not isinstance(parameter, PencilParameter):
        parameter = PencilParameter.from_affine(K.coerce(parameter), K)
    elif parameter.domain is not K:
        parameter = parameter.to_domain(K)
    if not 0 <= origin_index < 9:
        raise ValueError("origin must be one of the nine base points")
    if member_is_singular(parameter):
        raise ValueError("singular member has no group law")
    return CurveContext(parameter, origin_index, pencil_member(parameter), K)


def _gradient(ctx: CurveContext, coords) -> tuple:
    """grad F at coords for F = t0*(x^3+y^3+z^3) + t1*xyz, each entry one dot."""
    K = ctx.domain
    t0_3, t1 = 3 * ctx.parameter.t0, ctx.parameter.t1
    x, y, z = coords
    return (
        K.dot((t0_3, t1), (x * x, y * z)),
        K.dot((t0_3, t1), (y * y, x * z)),
        K.dot((t0_3, t1), (z * z, x * y)),
    )


def _polar(ctx: CurveContext, p: ProjPoint) -> tuple:
    """(grad F(p), F(p)), made once per point p of ctx and kept in
    ctx.polars; F(p) = grad F(p).p / 3.  Only chord endpoints come here."""
    polar = ctx.polars.get(p)
    if polar is None:
        grad = _gradient(ctx, p.coords)
        polar = ctx.polars[p] = (grad, ctx.domain.dot(grad, p.coords) * _THIRD)
    return polar


def third_intersection(ctx: CurveContext, a: ProjPoint, b: ProjPoint) -> ProjPoint:
    """The remaining intersection of the member with the chord a b (the
    tangent at a when a = b).

    With u = a and v = b the member restricts to the binary cubic
    F(s*u + t*v) = F(u) s^3 + (grad F(u).v) s^2 t + (grad F(v).u) s t^2
    + F(v) t^3, where F(w) = grad F(w).w / 3; grad F and F at a and b come
    from _polar, which makes them once per point of ctx.  One exact
    division by s*t removes the known roots (1 : 0) and (0 : 1), and it is
    exact only when F(u) = F(v) = 0.  For a tangent, v = grad F(a) x e_j,
    for a_j the first nonzero coordinate of a, is a signed swap of two
    gradient entries, with no field product: v lies on x_j = 0, which does
    not hold a, and on the tangent, so grad F(u).v = 0 identically.  v stays
    raw coordinates, normalised by no inverse and kept out of ctx.polars;
    its gradient is made here, once per tangent, since the chord stores make
    each tangent once.  The division is then by t^2, exact only when
    F(u) = 0.  The quotient c_s*s + c_t*t vanishes at the third point
    c_t*u - c_s*v.  Raises ValueError when a or b is off the member, because
    its root then does not divide."""
    K = ctx.domain
    u = a.coords
    grad_a, f_a = _polar(ctx, a)
    if a == b:
        j = next(i for i, c in enumerate(u) if c)
        k, m = (j + 1) % 3, (j + 2) % 3
        v = [K.zero()] * 3
        v[k], v[m] = grad_a[m], -grad_a[k]
        grad_b = _gradient(ctx, v)
        f_b = K.dot(grad_b, v) * _THIRD
        s2t, root = K.zero(), (0, 2)  # grad F(u).v = 0 identically
    else:
        v = b.coords
        grad_b, f_b = _polar(ctx, b)
        s2t, root = K.dot(grad_a, v), (1, 1)
    terms = {(3, 0): f_a, (2, 1): s2t, (1, 2): K.dot(grad_b, u), (0, 3): f_b}
    form = MultiPoly(2, {e: c for e, c in terms.items() if c}, K, _clean=True)
    form = divide_exact(form, MultiPoly(2, {root: K.one()}, K, _clean=True))
    c_s = form.coefficient((1, 0))
    c_t = form.coefficient((0, 1))
    return ProjPoint(tuple(K.dot((c_t, -c_s), uv) for uv in zip(u, v)), K)


def _add_each_chord_once(ctx: CurveContext):
    """Addition on ctx, p + q = third(origin, third(p, q)), that makes
    each distinct chord once while it lives.

    The chord through a and b is the chord through b and a, so each chord
    is kept under the unordered pair {a, b} ({a} for the tangent at a).
    Every chord is still made on the member by third_intersection, with
    its membership certificate; the store goes with the returned function.
    """
    chords = {}

    def third(a, b):
        key = frozenset((a, b))
        if key not in chords:
            chords[key] = third_intersection(ctx, a, b)
        return chords[key]

    return lambda p, q: third(ctx.origin, third(p, q))


# ---------------------------------------------------------------------------
# three-torsion structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorsionTable:
    parameter: PencilParameter
    table: tuple  # table[i][j] = k with p_i + p_j = p_k, origin p_0
    holds: bool  # sums match the (Z/3)^2 labels of the base points


def three_torsion_table(parameter) -> TorsionTable:
    """Addition table of the nine base points, checked against labels.

    The 81 sums make 45 distinct chords, each made once."""
    ctx = curve_context(parameter, origin_index=0)
    plus = _add_each_chord_once(ctx)
    data = hesse_data()
    pts = data.base_points
    index = {p: i for i, p in enumerate(pts)}
    rows = []
    holds = True
    for i in range(9):
        row = []
        for j in range(9):
            total = plus(pts[i], pts[j])
            k = index.get(total)
            if k is None:
                raise ValueError("base points are not closed under addition")
            row.append(k)
            li, lj, lk = data.labels[i], data.labels[j], data.labels[k]
            if ((li[0] + lj[0]) % 3, (li[1] + lj[1]) % 3) != lk:
                holds = False
        rows.append(tuple(row))
    return TorsionTable(ctx.parameter, tuple(rows), holds)


def translation_compatibility_check(parameter) -> PropertyResult:
    """The two order-3 generators fixing every member act on the base
    points as translations by 3-torsion points of the group law.

    A translation by p_k carries the origin p_0 to p_k, so each generator
    g can only be the translation by k = g(p_0): its nine sums are checked
    once, and each distinct chord among them is made once."""
    from .groups import hessian_group_generators

    ctx = curve_context(parameter, origin_index=0)
    plus = _add_each_chord_once(ctx)
    data = hesse_data()
    pts = data.base_points
    index = {p: i for i, p in enumerate(pts)}
    gens = hessian_group_generators()
    assignments = {}
    for name in ("cycle", "scale"):
        g = gens[name]
        perm = tuple(index[g.apply(p)] for p in pts)
        k = perm[0]
        if any(index[plus(pts[i], pts[k])] != perm[i] for i in range(9)):
            return PropertyResult(False, witness=f"{name} is not a translation")
        assignments[name] = k
    la, lb = data.labels[assignments["cycle"]], data.labels[assignments["scale"]]
    if (la[0] * lb[1] - la[1] * lb[0]) % 3 == 0:
        return PropertyResult(False, witness=f"labels {la} and {lb} are dependent")
    return PropertyResult(True, {"assignments": assignments})


def contact_pair_vertices_check() -> PropertyResult:
    """The first and fifth contact cubics meet exactly in the nine
    vertices of the non-coordinate triangles.

    Completeness is mechanical: eliminating either variable yields the
    cube of a Fermat-type binary cubic, so every common zero satisfies
    x^3 = z^3 and y^3 = z^3, and all nine such points are checked to lie
    on both cubics.
    """
    data = hesse_data()
    K = data.domain
    b1, b5 = data.halphen_cubics[0], data.halphen_cubics[4]
    x, y, z = MultiPoly.variables(3, K)
    elim_y = resultant_in_var(b1, b5, 1)
    elim_x = resultant_in_var(b1, b5, 0)
    c1, _ = proportionality(elim_y, (x**3 - z**3) ** 3)
    c2, _ = proportionality(elim_x, (y**3 - z**3) ** 3)
    if c1 is None or c2 is None:
        return PropertyResult(False, witness="elimination has extra factors")
    common = [
        v
        for v in data.vertices
        if b1.evaluate(v.coords) == 0 and b5.evaluate(v.coords) == 0
    ]
    if len(common) != 9 or set(common) != set(data.vertices[3:12]):
        witness = "common vertices differ from the nine non-coordinate ones"
        return PropertyResult(False, witness=witness)
    return PropertyResult(
        True, {"count": len(common), "coordinate_vertices_excluded": 3}
    )


# ---------------------------------------------------------------------------
# numeric backend
# ---------------------------------------------------------------------------


def _to_mpc(value: FieldElement, precision_bits: int):
    """Complex value of an element of Q or Q(eps), with eps = exp(2*pi*i/3).

    a + b*eps is (a - b/2) + i*b*sqrt(3)/2, computed with 48 guard bits above
    precision_bits.  No other tower has a complex embedding."""
    if precision_bits < 64:
        raise ValueError("precision_bits must be >= 64")
    tower = value.tower
    if tower.levels and tower != tower_eps():
        raise TowerError(f"no complex embedding of {tower!r}")
    a, b = (value.coords + (Fraction(0),))[:2]
    with mpmath.workprec(precision_bits + 48):
        re, im = (mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator) for q in (a, b))
        return mpmath.mpc(re - im / 2, im * mpmath.sqrt(3) / 2)


@dataclass(frozen=True)
class NumericPoint:
    coords: tuple  # mpc triple, scaled to max modulus 1
    precision_bits: int
    residual: object  # bound on the member equation at the point


def _embed_poly(poly: MultiPoly, precision_bits) -> dict:
    return {e: _to_mpc(c, precision_bits) for e, c in poly.terms.items()}


def _eval_embedded(terms: dict, coords) -> object:
    acc = mpmath.mpc(0)
    for exps, c in terms.items():
        term = c
        for v, e in zip(coords, exps):
            term *= v**e
        acc += term
    return acc


def _scale(coords):
    m = max(abs(c) for c in coords)
    return tuple(c / m for c in coords)


def _embed_point(p: ProjPoint, precision_bits):
    return _scale(tuple(_to_mpc(c, precision_bits) for c in p.coords))


def _norm2(w):
    """Squared Euclidean norm, without the square root each |c| takes."""
    return sum(c.real**2 + c.imag**2 for c in w)


def _proj_distance(u, v):
    """Chordal distance |u x v| / (|u| |v|); zero iff proportional."""
    return mpmath.sqrt(_norm2(_cross(u, v)) / (_norm2(u) * _norm2(v)))


def _tolerance(precision_bits):
    """Pass bound of a normalised residual: 1e-25 from 128 bits on, below
    that half the working bits.  Call it inside the working precision."""
    if precision_bits >= 128:
        return mpmath.mpf(10) ** -25
    return mpmath.mpf(2) ** -(precision_bits // 2)


class _NumericLaw:
    """Chord-tangent arithmetic on one member with embedded coefficients."""

    def __init__(self, parameter: PencilParameter, origin_index, precision_bits):
        self.precision_bits = precision_bits
        self.t0 = _to_mpc(parameter.t0, precision_bits)
        self.t1 = _to_mpc(parameter.t1, precision_bits)
        self.tol = mpmath.mpf(2) ** -(precision_bits // 2)
        self.origin = _embed_point(hesse_data().base_points[origin_index], precision_bits)

    def member_value(self, p):
        x, y, z = p
        return self.t0 * (x**3 + y**3 + z**3) + self.t1 * x * y * z

    def gradient(self, p):
        x, y, z = p
        return (
            3 * self.t0 * x**2 + self.t1 * y * z,
            3 * self.t0 * y**2 + self.t1 * x * z,
            3 * self.t0 * z**2 + self.t1 * x * y,
        )

    def polar(self, p, q):
        """grad F(p) . q, the s^2 t coefficient of F(s*p + t*q)."""
        return sum(g * c for g, c in zip(self.gradient(p), q))

    def tangent_third(self, p):
        """Remaining intersection of the tangent line at p."""
        grad = self.gradient(p)
        candidates = [_cross(grad, basis) for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        r = _scale(max(candidates, key=lambda c: _norm2(_cross(p, c))))
        # F(s*p + t*r) = t^2 (s grad F(r).p + t F(r)) up to noise
        c, d = self.polar(r, p), self.member_value(r)
        return _scale(tuple(d * a - c * b for a, b in zip(p, r)))

    def third(self, p, q):
        if _proj_distance(p, q) < self.tol:
            return self.tangent_third(p)
        # F(s*p + t*q) = s t (s grad F(p).q + t grad F(q).p) up to noise
        a, b = self.polar(p, q), self.polar(q, p)
        return _scale(tuple(b * u - a * v for u, v in zip(p, q)))


def _poly_roots(coeffs, precision_bits):
    """Roots of a univariate polynomial P given by descending mpc
    coefficients, refined by Newton on P.

    With k the gcd of the exponents of the nonzero terms, P(x) = S(x^k).
    The eigenvalues u of the companion matrix of S, k times smaller than
    that of P, give the roots of P as the k k-th roots of each u (a zero
    u gives a k-fold zero)."""
    lead = coeffs[0]
    monic = [c / lead for c in coeffs[1:]]
    deg = len(monic)
    if deg == 0:
        return []
    k = math.gcd(*(deg - i for i, c in enumerate(coeffs) if c != 0))
    reduced = monic[k - 1 :: k]
    n = len(reduced)
    if n == 1:
        u_roots = [-reduced[0]]
    else:
        comp = mpmath.matrix(n)
        for i in range(1, n):
            comp[i, i - 1] = 1
        for i in range(n):
            comp[i, n - 1] = -reduced[n - 1 - i]
        u_roots = mpmath.eig(comp, left=False, right=False)
    unit = mpmath.unitroots(k)
    approx = [mpmath.root(u, k) * w for u in u_roots for w in unit]

    def horner(x):
        val, der = mpmath.mpc(1), mpmath.mpc(0)
        for c in monic:
            der = der * x + val
            val = val * x + c
        return val, der

    roots = []
    for x in approx:
        x = mpmath.mpc(x)
        for _ in range(max(8, precision_bits // 8)):
            val, der = horner(x)
            if abs(der) == 0:
                break
            step = val / der
            x -= step
            if abs(step) < mpmath.mpf(2) ** -(precision_bits + 16):
                break
        roots.append(x)
    return roots


def _binary_form_roots(form: MultiPoly, precision_bits):
    """Projective roots (s : t) of an exact binary form, embedded."""
    deg = form.degree()
    coeffs = [
        _to_mpc(form.coefficient((deg - k, k)), precision_bits)
        for k in range(deg + 1)
    ]
    # exact leading-coefficient test: (1 : 0) is a root iff the s-degree drops
    roots = []
    if form.coefficient((deg, 0)) == 0:
        roots.append((mpmath.mpc(1), mpmath.mpc(0)))
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
    for u in _poly_roots(coeffs, precision_bits):
        roots.append((u, mpmath.mpc(1)))
    return roots


# ---------------------------------------------------------------------------
# numeric reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoTorsionReport:
    holds: bool
    parameter: PencilParameter
    precision_bits: int
    tolerance: object
    points: tuple  # the three residual intersections with the harmonic polar
    tangent_residuals: tuple  # incidence of the marked point with each tangent
    doubling_residuals: tuple  # distance from each tangential point to the origin


def two_torsion_polar_check(parameter, line_index, precision_bits=128) -> TwoTorsionReport:
    """On the member, the harmonic polar of p_i cuts the three points whose
    doubling (with origin p_i) is the origin; equivalently the tangent
    there passes through p_i.  Both facts are measured independently."""
    ctx = curve_context(parameter, origin_index=line_index)
    data = hesse_data()
    polar = data.harmonic_polars[line_index]
    form = restrict_to_line(ctx.member, polar)
    with mpmath.workprec(precision_bits + 48):
        tol = _tolerance(precision_bits)
        law = _NumericLaw(ctx.parameter, line_index, precision_bits)
        p0, p1 = polar.basis_points()
        b0, b1 = _embed_point(p0, precision_bits), _embed_point(p1, precision_bits)
        marked = law.origin
        points, tangent_res, doubling_res = [], [], []
        for s, t in _binary_form_roots(form, precision_bits):
            q = _scale(tuple(s * a + t * b for a, b in zip(b0, b1)))
            residual = abs(law.member_value(q))
            points.append(NumericPoint(q, precision_bits, residual))
            grad = law.gradient(q)
            norm = mpmath.sqrt(_norm2(grad))
            incidence = abs(sum(g * m for g, m in zip(grad, marked))) / norm
            tangent_res.append(incidence)
            doubling_res.append(_proj_distance(law.tangent_third(q), marked))
        holds = (
            len(points) == 3
            and all(p.residual < tol for p in points)
            and all(r < tol for r in tangent_res)
            and all(r < tol for r in doubling_res)
        )
        return TwoTorsionReport(
            holds,
            ctx.parameter,
            precision_bits,
            tol,
            tuple(points),
            tuple(tangent_res),
            tuple(doubling_res),
        )


@dataclass(frozen=True)
class NineTorsionReport:
    """Numeric witness that a contact cubic cuts nine points P of exact
    order nine: 3P is a base point p_k other than the origin p_0, and
    3 p_k = 0.  Residuals are normalised, so they compare with `tolerance`
    whatever the scale of the coordinates."""

    holds: bool
    parameter: PencilParameter
    precision_bits: int
    tolerance: object
    points: tuple  # nine NumericPoint cut out by the contact cubic
    triple_indices: tuple  # k with 3P = p_k, never the origin
    triple_residuals: tuple  # chordal distance of 3P from p_k
    nine_residuals: tuple  # the tangent at p_k closing on p_k, so 9P = 3 p_k = 0
    chain_residual: object  # closure of three successive tangent steps


def nine_torsion_check(parameter, cubic_index, precision_bits=128) -> NineTorsionReport:
    """The chosen contact cubic meets the member in nine points of exact
    order nine for the group law with origin p_0.

    p_0 is a flex, so A + B + C = 0 exactly when A, B and C are collinear.
    So 3P is the third point of the line through -2P (third point of the
    tangent at P) and -P (third point of the chord from p_0): one chord
    per point, and k is the base point nearest 3P.  The base points lie at
    chordal distance at least sqrt(3)/2 from each other, so a distance
    below tol picks out one of them, also near the singular member, where
    the line itself runs close to a side of the limiting triangle and so
    to three base points.  Given 3P = p_k, 9P = 0 is 3 p_k = 0, measured
    once per distinct k as the tangent at p_k closing on p_k.  Three
    tangent steps from the first point, P -> -2P -> 4P -> -8P, closing on
    P measure 9P = 0 independently of k."""
    if not 1 <= cubic_index <= 8:
        raise ValueError("contact cubic index must be in 1..8")
    ctx = curve_context(parameter, origin_index=0)
    data = hesse_data()
    contact = data.halphen_cubics[cubic_index - 1]
    with mpmath.workprec(precision_bits + 48):
        tol = _tolerance(precision_bits)
        law = _NumericLaw(ctx.parameter, 0, precision_bits)
        points = _transverse_intersection(ctx.member, contact, precision_bits, tol)
        base_embed = [_embed_point(p, precision_bits) for p in data.base_points]
        base_norm2 = [_norm2(b) for b in base_embed]
        contact_terms = _embed_poly(contact, precision_bits)
        flex_closure = {}  # k -> the tangent at p_k against p_k
        numeric_points, triple_idx, triple_res, nine_res = [], [], [], []
        for p in points:
            residual = max(abs(law.member_value(p)), abs(_eval_embedded(contact_terms, p)))
            numeric_points.append(NumericPoint(p, precision_bits, residual))
            # 3P is the third point of the line through -2P and -P
            q = law.third(law.tangent_third(p), law.third(law.origin, p))
            # |3P x p_j|^2 / |p_j|^2 is |3P|^2 times the squared chordal distance
            k = min(
                range(9), key=lambda i: _norm2(_cross(q, base_embed[i])) / base_norm2[i]
            )
            triple_idx.append(k)
            triple_res.append(_proj_distance(q, base_embed[k]))
            if k not in flex_closure:
                flex = base_embed[k]
                flex_closure[k] = _proj_distance(law.tangent_third(flex), flex)
            nine_res.append(flex_closure[k])
        chain = points[0]
        for _ in range(3):
            chain = law.tangent_third(chain)
        chain_residual = _proj_distance(chain, points[0])
        holds = (
            len(points) == 9
            and all(pt.residual < tol for pt in numeric_points)
            and all(k != 0 for k in triple_idx)
            and all(r < tol for r in triple_res)
            and all(r < tol for r in nine_res)
            and chain_residual < tol
        )
        return NineTorsionReport(
            holds,
            ctx.parameter,
            precision_bits,
            tol,
            tuple(numeric_points),
            tuple(triple_idx),
            tuple(triple_res),
            tuple(nine_res),
            chain_residual,
        )


def _transverse_intersection(f: MultiPoly, g: MultiPoly, precision_bits, tol):
    """All common zeros of two plane cubics meeting transversely in the
    chart z = 1, followed by a bivariate Newton polish.  Polished zeros are
    told apart by their chart coordinates; raises when the count of
    distinct ones differs from nine.

    The x are the roots of R(x) = Res_y(f, g), found by `_poly_roots`
    (R is a polynomial in x^3 for the contact cubics, so it deflates).
    The y over each x comes from the first subresultant, computed exactly:
    S_1 = A(x)*y + B(x) lies in the ideal (f, g), so y = -B(x)/A(x) at a
    common zero where A(x) does not vanish.  Where it does (two zeros over
    one x, as on the Fermat member), the steps rerun on x = u - c*y, c = 1, 2."""
    K = f.domain
    if g.domain is not K:
        raise ValueError("curves live over different domains")
    x2, y2 = MultiPoly.variables(2, K)
    one2 = MultiPoly.constant(2, K.one(), K)
    for c in range(3):
        chart = [x2 - c * y2, y2, one2]
        fa, ga = f.substitute(chart), g.substitute(chart)
        res = resultant_in_var(fa, ga, 1)
        if res.degree() != 9:  # a common zero on z = 0, which no shear moves
            raise ValueError("intersection is degenerate at infinity")
        sub = resultant_in_var(fa, ga, 1, index=1).collect(1)
        a_terms = _embed_poly(sub.get(1, MultiPoly.zero(2, K)), precision_bits)
        b_terms = _embed_poly(sub.get(0, MultiPoly.zero(2, K)), precision_bits)
        if not a_terms:
            continue
        rc = [_to_mpc(res.coefficient((9 - k, 0)), precision_bits) for k in range(10)]
        starts = []
        for u0 in _poly_roots(rc, precision_bits):
            a0 = _eval_embedded(a_terms, (u0, 0))
            scale = max(1, abs(u0))
            if abs(a0) <= tol * sum(abs(t) * scale**i for (i, _), t in a_terms.items()):
                break
            starts.append((u0, -_eval_embedded(b_terms, (u0, 0)) / a0))
        if len(starts) == 9:
            break
    else:
        raise ValueError("first subresultant vanishes: two common zeros share x")
    f_terms = _embed_poly(fa, precision_bits)
    g_terms = _embed_poly(ga, precision_bits)

    def partials(terms, x, y):
        dx = dy = mpmath.mpc(0)
        for (i, j), t in terms.items():
            if i:
                dx += t * i * x ** (i - 1) * y**j
            if j:
                dy += t * j * x**i * y ** (j - 1)
        return dx, dy

    found = []  # (x, y) in the chart, and the point they give
    for x, y in starts:
        for _ in range(max(8, precision_bits // 8)):
            fv, gv = _eval_embedded(f_terms, (x, y)), _eval_embedded(g_terms, (x, y))
            fx, fy = partials(f_terms, x, y)
            gx, gy = partials(g_terms, x, y)
            det = fx * gy - fy * gx
            if abs(det) == 0:
                raise ValueError("intersection is not transverse")
            dx = (fv * gy - gv * fy) / det
            dy = (gv * fx - fv * gx) / det
            x, y = x - dx, y - dy
            if abs(dx) + abs(dy) < mpmath.mpf(2) ** -(precision_bits + 16):
                break
        # zeros apart by more than sqrt(tol) in the chart are distinct
        if all(_norm2((x - u, y - v)) > tol for (u, v), _ in found):
            point = _scale((x - c * y, y, mpmath.mpc(1)))  # undo the shear
            found.append(((x, y), point))
    if len(found) != 9:
        raise ValueError(f"expected nine transverse intersections, found {len(found)}")
    return [point for _, point in found]


def prop62_check(parameter) -> PropertyResult:
    """The tangent T at p_0 to the Hessian of the member meets the member
    again in two points, and both lie on the cuspidal sextic.

    T cuts the member in p_0 and the two zeros of the binary quadratic Q
    left when p_0 is divided out.  Both lie on the sextic exactly when Q
    divides the sextic restricted to T, so the count of points on the
    sextic is the degree of their gcd over Q(eps): no root is taken."""
    ctx = curve_context(parameter, origin_index=0)
    data = hesse_data()
    p0 = data.base_points[0]
    tangent = tangent_line(pencil_member(hessian_map().apply(ctx.parameter)), p0)
    s, t = MultiPoly.variables(2, ctx.domain)
    s0, t0 = line_parameter(tangent, p0)
    quadratic = divide_exact(restrict_to_line(ctx.member, tangent), t0 * s - s0 * t)
    sextic = restrict_to_line(data.invariants["cuspidal_sextic"], tangent)
    count = binary_form_gcd(quadratic, sextic).degree()
    if count != 2:
        reason = f"{count} of 2 tangent-line points on the sextic, expected 2 of 2"
        return PropertyResult(False, witness=reason)
    off_base = not any(
        tangent.contains(p) and not quadratic.evaluate(line_parameter(tangent, p))
        for p in data.base_points
    )
    return PropertyResult(True, {"count": count, "off_base_points": off_base})


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------


def torsion_table_sweep() -> PropertyResult:
    """The base-point addition table realizes (Z/3)^2 at lambda = 1 and 2."""
    tables = {
        str(lam): three_torsion_table(lam).holds for lam in (Fraction(1), Fraction(2))
    }
    return _expect(tables, {"1": True, "2": True})


def two_torsion_sweep() -> PropertyResult:
    """two_torsion_polar_check on the first harmonic polar at lambda = 1, 2,
    1/2 and 0, at its default 128 bits; a pass reports the worst residual
    of each, to 17 digits."""
    out = {"precision_bits": 128}
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(0)):
        rep = two_torsion_polar_check(lam, 0)
        worst = max(
            *(p.residual for p in rep.points),
            *rep.tangent_residuals,
            *rep.doubling_residuals,
        )
        key = f"lambda={lam},line=0"
        if not rep.holds:
            return PropertyResult(
                False,
                witness=f"{key}: {len(rep.points)} points on the polar, worst "
                f"residual {mpmath.nstr(worst, 5)}, expected 3 points within "
                f"{mpmath.nstr(rep.tolerance, 5)}",
            )
        out[key] = mpmath.nstr(worst, 17)
        out.setdefault("tolerance", mpmath.nstr(rep.tolerance, 17))
    return PropertyResult(True, out)


def nine_torsion_sweep() -> PropertyResult:
    """nine_torsion_check on the first contact cubic at lambda = 1, 2 and
    1/2, at its default 128 bits; a pass reports the worst residual of
    each, to 17 digits."""
    out = {"precision_bits": 128}
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
        rep = nine_torsion_check(lam, 1)
        worst = max(
            max(rep.triple_residuals), max(rep.nine_residuals), rep.chain_residual
        )
        if not rep.holds:
            return PropertyResult(
                False,
                witness=f"lambda={lam}: triples hit base points {rep.triple_indices}, "
                f"worst residual {mpmath.nstr(worst, 5)}, expected no origin and "
                f"residuals within {mpmath.nstr(rep.tolerance, 5)}",
            )
        out[f"lambda={lam}"] = mpmath.nstr(worst, 17)
        out.setdefault("tolerance", mpmath.nstr(rep.tolerance, 17))
    return PropertyResult(True, out)


def prop62_sweep() -> PropertyResult:
    """prop62_check at lambda = 0 and 1."""
    out = {}
    for lam in (Fraction(0), Fraction(1)):
        res = prop62_check(lam)
        if not res.holds:
            return PropertyResult(False, witness=f"lambda={lam}: {res.witness}")
        out[f"lambda={lam}"] = res.details
    return PropertyResult(True, out)
