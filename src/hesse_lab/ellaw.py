"""Chord-tangent group law on smooth pencil members.

The exact layer never solves a polynomial of degree above one.  Along the
chord through two member points u and v, the member
F = t0*(x^3+y^3+z^3) + t1*xyz restricts by polarisation to the binary cubic

    F(s*u + t*v) = F(u) s^3 + (grad F(u).v) s^2 t + (grad F(v).u) s t^2 + F(v) t^3,

whose coefficients come from the closed-form gradient of F, with (t0 : t1)
scaled once into Z[eps], so on the base points every chord is integral.
Each point's gradient and 3F(p) = grad F(p).p are made once per context
(the member a call works on), however many chords pass through the point.
One exact division by s*t, the known roots (1 : 0) and (0 : 1), certifies
on every chord that u and v lie on the member, and the linear quotient
gives the third point, returned as u itself on a flex tangent.  A tangent
at u takes for v the signed swap grad F(u) x e_j, left unnormalised, and
divides by t^2 instead.  Any two base points span a Hesse line that holds
a third, so a chord among them meets the member again in a base point: its
raw third point is matched to that very base point by an exact
proportionality test (`_known_point`), with no normalising inverse, and
only a chord through other points makes a new `ProjPoint`.  The 3-torsion
table and the translation check add base points whose sums share chords
(a + b and b + a, and each sum's second chord through the origin), so each
makes every distinct chord once per call; a translation is read off the
image of the origin, and each generator's raw image of a base point is
matched the same way.  Proposition 6.2 takes no root either: the quadratic
cutting its two points divides the sextic on the line.

The 2-torsion takes no root for its decision either.  With the flex p_i as
origin, 2q = 0 exactly when q lies on the polar conic of p_i, which splits
as the harmonic polar L_i times the flex tangent at p_i; that tangent
meets the member only at p_i, and the member restricted to L_i has a
discriminant dividing pencil_discriminant().  `polar_two_torsion_proof`
checks these identities for the generic member over Q(eps)[x, y, z, t0, t1],
so L_i cuts the three nonzero 2-torsion points of every smooth member.

The order-nine contact points take no root for their decision at a given
member either.  The resultant R(x) = Res_y(F, G) with a contact cubic G,
and the first subresultant A(x)*y + B(x), linear in y, make the nine points
one point P = (x*A : -B : A) over the algebra Q(eps)[x]/(R) (in a sheared
chart if A is a zero divisor).  With a flex as origin, three points sum to
zero exactly when they are collinear, so 3P is the third point of the line
through -P and -2P: `nine_torsion_proof` makes them by divide-free chord
and tangent formulas in that algebra, with R made monic over Z[eps] so that
it computes in integers (`_Residue`), and it certifies each coprimality it
needs by a gcd of 1 modulo a prime.

The numeric views of both go through an mpmath backend at a chosen working
precision, whose residuals are compared with one fixed tolerance rule.  They
take the proof's divide-free chord and tangent on embedded coordinates, with
each point's gradient made once and, for a tangent at u, the partner
grad F(u) x e_j at the coordinate u_j of largest modulus; the order-nine
sample makes its chords and tangents with 16 more guard bits than its
points.  As the sample shares these formulas with the proof, a fault in
them is caught by the binary-cubic oracle of the tests, not by the
sample.  The order-nine points take one small eigen-solve: R, a
polynomial in x^3, deflates, and each y = -B(x)/A(x) comes from the same
subresultant, with no polish; the proof and the sample of one member and
cubic share R and S_1 (`_sheared_chart`).  The backend takes the one
complex embedding of the program, that of Q(eps) with eps = exp(2*pi*i/3),
in closed form (`_to_mpc`), and this is the one module that imports
mpmath.  The module ends with the registered torsion checks.
`torsion.nine` is the exact proof at lambda = 1, 2 and 1/2 with one
numeric cross-check at lambda = 1, and `torsion.two` the exact proof for
every member with one at lambda = 1 on L_0, both at 128 bits.  Each residual is given as a 17-digit string.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

import mpmath

from .field import FieldElement, TowerError, tower_eps
from .hesse import (
    PencilParameter,
    PropertyResult,
    _expect,
    hesse_data,
    hessian_map,
    member_gradient,
    member_is_singular,
    pencil_discriminant,
    pencil_member,
    polar_conic_split,
)
from .multipoly import (
    MultiPoly,
    binary_form_gcd,
    convert_domain,
    divide_exact,
    poly_remainder,
    proportionality,
    resultant_in_var,
)
from .plane import (
    ProjPoint,
    _cross,
    _known_point,
    line_parameter,
    restrict_to_line,
    tangent_line,
)

# ---------------------------------------------------------------------------
# exact layer
# ---------------------------------------------------------------------------


class CurveContext:
    """A smooth pencil member with a marked base point as group origin.

    grad_coeffs is (3*t0, t1) for (t0 : t1) times the lcm of its
    denominators, in Z[eps]; the cubic form `member` is made when read."""

    __slots__ = ("parameter", "origin_index", "grad_coeffs", "domain", "polars")

    def __init__(self, parameter: PencilParameter, origin_index: int, grad_coeffs: tuple, domain):
        self.parameter = parameter
        self.origin_index = origin_index
        self.grad_coeffs = grad_coeffs
        self.domain = domain
        self.polars = {}  # see _polar

    @property
    def origin(self) -> ProjPoint:
        return hesse_data().base_points[self.origin_index]

    @property
    def member(self) -> MultiPoly:
        return pencil_member(self.parameter)


def curve_context(parameter, origin_index: int = 0) -> CurveContext:
    """Group-law context on the member at `parameter` with origin p_i.

    The parameter may be a PencilParameter or an affine value; it is
    coerced into the cube-root tower where the base points live, and
    scaled into Z[eps] once for the chord law, the same member projectively.
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
    t0, t1 = parameter.pair()
    scale = math.lcm(t0.den, t1.den)
    return CurveContext(parameter, origin_index, (t0 * (3 * scale), t1 * scale), K)


def _gradient(ctx: CurveContext, coords) -> tuple:
    """grad F at coords for F = t0*(x^3+y^3+z^3) + t1*xyz, each entry one dot."""
    K = ctx.domain
    coeffs = ctx.grad_coeffs
    x, y, z = coords
    return (
        K.dot(coeffs, (x * x, y * z)),
        K.dot(coeffs, (y * y, x * z)),
        K.dot(coeffs, (z * z, x * y)),
    )


def _polar(ctx: CurveContext, p: ProjPoint) -> tuple:
    """(grad F(p), 3F(p)), made once per point p of ctx and kept in
    ctx.polars; 3F(p) = grad F(p).p (Euler).  Only chord endpoints come here."""
    polar = ctx.polars.get(p)
    if polar is None:
        grad = _gradient(ctx, p.coords)
        polar = ctx.polars[p] = (grad, ctx.domain.dot(grad, p.coords))
    return polar


def third_intersection(ctx: CurveContext, a: ProjPoint, b: ProjPoint) -> ProjPoint:
    """The remaining intersection of the member with the chord a b (the
    tangent at a when a = b).

    With u = a and v = b the member restricts to the binary cubic
    3F(s*u + t*v) = 3F(u) s^3 + 3(grad F(u).v) s^2 t + 3(grad F(v).u) s t^2
    + 3F(v) t^3, where 3F(w) = grad F(w).w; grad F and 3F at a and b come
    from _polar, once per point of ctx, in integers on the base points.
    A chord divides 3F(u) s^3 + (grad F(u).v) s^2 t + (grad F(v).u) s t^2
    + 3F(v) t^3, its middle coefficients unscaled, by s*t: the division is
    exact only when F(u) = F(v) = 0, and the form is then F(s*u + t*v), so
    the quotient has the same root.  For a tangent,
    v = grad F(a) x e_j, for a_j the first nonzero coordinate of a, is a
    signed swap of two gradient entries, with no field product: v lies on
    x_j = 0, which does not hold a, and on the tangent, so grad F(u).v = 0
    identically.  v stays raw coordinates, normalised by no inverse and
    kept out of ctx.polars; its gradient is made here, once per tangent,
    since the chord stores make each tangent once.  Only the tangent
    restricts 3F(s*u + t*v) itself, its s t^2 coefficient scaled by 3 to
    match 3F(v), and it divides by t^2, exact only when F(u) = 0.  The
    quotient c_s*s + c_t*t vanishes at the third point c_t*u - c_s*v.  That
    is a itself when c_s = 0 (on a flex tangent, say), returned with no new
    point; a base point it is a multiple of is returned itself, found by
    _known_point with no inverse; any other third point is normalised into
    a new ProjPoint.
    Raises ValueError when a or b is off the member, because its root then
    does not divide."""
    K = ctx.domain
    u = a.coords
    grad_a, f_a = _polar(ctx, a)
    if a == b:
        j = next(i for i, c in enumerate(u) if c)
        k, m = (j + 1) % 3, (j + 2) % 3
        v = [K.zero()] * 3
        v[k], v[m] = grad_a[m], -grad_a[k]
        grad_b = _gradient(ctx, v)
        f_b = K.dot(grad_b, v)
        # grad F(u).v = 0 identically
        s2t, st2, root = K.zero(), 3 * K.dot(grad_b, u), (0, 2)
    else:
        v = b.coords
        grad_b, f_b = _polar(ctx, b)
        s2t, st2, root = K.dot(grad_a, v), K.dot(grad_b, u), (1, 1)
    terms = {(3, 0): f_a, (2, 1): s2t, (1, 2): st2, (0, 3): f_b}
    form = MultiPoly(2, {e: c for e, c in terms.items() if c}, K, _clean=True)
    form = divide_exact(form, MultiPoly(2, {root: K.one()}, K, _clean=True))
    c_s = form.coefficient((1, 0))
    c_t = form.coefficient((0, 1))
    if not c_s and c_t:
        return a
    w = tuple(K.dot((c_t, -c_s), uv) for uv in zip(u, v))
    known = _known_point(hesse_data().base_points, w)
    return ProjPoint(w, K) if known is None else known


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


class TorsionTable(NamedTuple):
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
    once, and each distinct chord among them is made once.  Each raw image
    g(p_i) is matched to the base point it is a multiple of, with no
    normalising inverse."""
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
        images = [_known_point(pts, g.image(p.coords)) for p in pts]
        if any(q is None for q in images):
            witness = f"{name} does not permute the base points"
            return PropertyResult(False, witness=witness)
        perm = tuple(index[q] for q in images)
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
# two-torsion on the harmonic polars, for every member
# ---------------------------------------------------------------------------


def _dot(g, w):
    """g.w for triples of field elements or polynomials."""
    return g[0] * w[0] + g[1] * w[1] + g[2] * w[2]


def _binary_cubic(u, v, t0, t1) -> tuple:
    """(a, b, c, d) with F(s*u + w*v) = a s^3 + b s^2 w + c s w^2 + d w^3 for
    the generic member and points u, v with coordinates in its domain.

    By polarisation a = F(u), b = grad F(u).v, c = grad F(v).u and d = F(v),
    where F(u) = t0*sum u_k^3 + t1*u_0 u_1 u_2 and grad F(u).v =
    3*t0*sum u_k^2 v_k + t1*(u_1 u_2 v_0 + u_0 u_2 v_1 + u_0 u_1 v_2): each
    coefficient of t0 and of t1 is one dot of field elements."""
    K = t0.domain

    def squares_and_products(p):
        x, y, z = p
        return (x * x, y * y, z * z), (y * z, x * z, x * y)

    (su, pu), (sv, pv) = squares_and_products(u), squares_and_products(v)
    return (
        K.dot(su, u) * t0 + pu[0] * u[0] * t1,
        3 * K.dot(su, v) * t0 + K.dot(pu, v) * t1,
        3 * K.dot(sv, u) * t0 + K.dot(pv, u) * t1,
        K.dot(sv, v) * t0 + pv[0] * v[0] * t1,
    )


def _cubic_discriminant(a, b, c, d):
    """Discriminant of the binary cubic a s^3 + b s^2 w + c s w^2 + d w^3."""
    bc, ad = b * c, a * d
    return bc * bc + 18 * ad * bc - 27 * ad * ad - 4 * a * c**3 - 4 * b**3 * d


# the discriminant of the generic member on each harmonic polar
_POLAR_DISCRIMINANT = "-4*t0*(27*t0^3 + t1^3)"


def polar_two_torsion_proof() -> Optional[str]:
    """Why a harmonic polar fails to cut the 2-torsion of some smooth member,
    or None when each L_i does on every smooth member, with p_i as origin.

    p_i is a flex, so -q is the third point of the line through p_i and q,
    and 2q = 0 exactly when the tangent at q passes through p_i, that is
    when q lies on the polar conic grad F(x).p_i = 0.  For the generic
    member F = t0*(x^3+y^3+z^3) + t1*xyz, each pair (p_i, L_i) is checked:
    (a) the conic is L_i times the flex tangent T_i = grad F(p_i).x, over
    Q(eps)[x, y, z, t0, t1] (hesse.polar_conic_split);
    (b) F(s*p_i + w*v) = w^3 F(v) for v = grad F(p_i) x e_j, the signed swap
    third_intersection takes, so T_i meets a smooth member only at p_i (were
    F(v) = 0, T_i would be a component);
    (c) p_i is not on L_i;
    (d) F restricted to L_i, through its basis points, has discriminant
    -4*t0*(27*t0^3 + t1^3), which divides pencil_discriminant(), so L_i
    cuts three distinct points on every smooth member.
    By (a) and (b), every q != p_i with 2q = 0 is on L_i; by (a) and (c),
    every member point of L_i is such a q; by (d) there are three: L_i cuts
    exactly the three nonzero 2-torsion points.  The forms of (b) and (d)
    involve t0 and t1 alone, so they are made by polarisation over
    Q(eps)[t0, t1], with no root taken."""
    data = hesse_data()
    reason = polar_conic_split(data.base_points, data.harmonic_polars)
    if reason is not None:
        return reason
    K = data.domain
    t0, t1 = MultiPoly.variables(2, K)
    expected = -4 * t0 * (27 * t0**3 + t1**3)
    for idx, (p, line) in enumerate(zip(data.base_points, data.harmonic_polars)):
        grad = member_gradient(p.coords, t0, t1)
        j = next(i for i, c in enumerate(p.coords) if c)
        v = [MultiPoly.zero(2, K)] * 3
        v[(j + 1) % 3], v[(j + 2) % 3] = grad[(j + 2) % 3], -grad[(j + 1) % 3]
        # the s^3, s^2 w and s w^2 coefficients of F(s*p + w*v), by
        # polarisation: 3F(p) = grad F(p).p, grad F(p).v and grad F(v).p
        polars = ((grad, p.coords), (grad, v), (member_gradient(v, t0, t1), p.coords))
        if any(_dot(g, q) for g, q in polars):
            return f"the flex tangent at p{idx} meets the member off p{idx}"
        if line.contains(p):
            return f"polar {idx} passes through p{idx}"
        u, w = (q.coords for q in line.basis_points())
        if _cubic_discriminant(*_binary_cubic(u, w, t0, t1)) != expected:
            return f"discriminant on polar {idx} is not {_POLAR_DISCRIMINANT}"
    try:
        divide_exact(convert_domain(pencil_discriminant(), K), expected)
    except ValueError:
        return f"{_POLAR_DISCRIMINANT} does not divide the pencil discriminant"
    return None


# ---------------------------------------------------------------------------
# nine-torsion on the contact cubics, in Q(eps)[x]/(R)
# ---------------------------------------------------------------------------

# primes p = 1 (mod 3), each with a root w of w^2 + w + 1 mod p, so that
# eps -> w maps Z[eps] onto F_p
_PRIMES = ((2147483647, 634005911), (2147483587, 1950290007), (2147483563, 1135448757))


class _Residue:
    """The class of sum (u_i + v_i*eps) x^i in Z[eps][x]/(R), for R monic of
    degree n over Z[eps]: u and v hold the n coordinates, and `modulus` the
    low coefficients of R as the lists (u, v, u - v).  A product reduces by
    R with no division, because R is monic, so the arithmetic stays in
    integers; a scalar is an int or an element of Z[eps]."""

    __slots__ = ("modulus", "u", "v")

    def __init__(self, modulus, u, v):
        self.modulus, self.u, self.v = modulus, u, v

    def __bool__(self):
        return any(self.u) or any(self.v)

    def __add__(self, other):
        return _Residue(
            self.modulus,
            [a + b for a, b in zip(self.u, other.u)],
            [a + b for a, b in zip(self.v, other.v)],
        )

    def __neg__(self):
        return _Residue(self.modulus, [-a for a in self.u], [-b for b in self.v])

    def __sub__(self, other):
        return _Residue(
            self.modulus,
            [a - b for a, b in zip(self.u, other.u)],
            [a - b for a, b in zip(self.v, other.v)],
        )

    def __mul__(self, other):
        # (a + b*eps)(c + d*eps) = (ac - bd) + (ad + bc - bd)*eps
        if isinstance(other, _Residue):
            n = len(self.u)
            u, v = [0] * (2 * n - 1), [0] * (2 * n - 1)
            terms = list(enumerate(zip(other.u, other.v)))
            for i, (a, b) in enumerate(zip(self.u, self.v)):
                if a or b:
                    for j, (c, d) in terms:
                        bd = b * d
                        u[i + j] += a * c - bd
                        v[i + j] += a * d + b * c - bd
            return _reduced(self.modulus, u, v)
        if isinstance(other, int):
            c, d = other, 0
        else:
            if other.den != 1:
                raise ValueError(f"scalar {other} is not in Z[eps]")
            c, d = other.num
        e = c - d
        pairs = list(zip(self.u, self.v))
        return _Residue(
            self.modulus, [a * c - b * d for a, b in pairs], [a * d + b * e for a, b in pairs]
        )

    __rmul__ = __mul__


def _reduced(modulus, u, v) -> _Residue:
    """The class of sum (u_i + v_i*eps) x^i for coefficient lists of any
    length, reduced by the monic R of `modulus` from the top term down."""
    ru, rv, rd = modulus
    n = len(ru)
    u, v = u + [0] * (n - len(u)), v + [0] * (n - len(v))
    for m in range(len(u) - 1, n - 1, -1):
        a, b = u[m], v[m]
        if a or b:  # subtract (a + b*eps) x^(m-n) R
            s = m - n
            for i in range(n):
                u[s + i] -= a * ru[i] - b * rv[i]
                v[s + i] -= a * rv[i] + b * rd[i]
    return _Residue(modulus, u[:n], v[:n])


def _certified_unit(a: _Residue) -> bool:
    """Whether some prime of _PRIMES certifies gcd(a, R) = 1 over Q(eps).

    R is monic over Z[eps], so its reduction mod the prime (p, eps - w) keeps
    its degree, and the resultant Res(a, R) reduces to the resultant of the
    reductions (times a power of lc(R) = 1 when a's degree drops).  A gcd of
    1 mod p makes that residue nonzero, so Res(a, R) != 0 and a is prime to
    R.  No gcd over Q(eps) is taken; a pair that no prime certifies is left
    undecided, never assumed coprime."""
    ru, rv, _ = a.modulus
    for p, w in _PRIMES:
        f = [(x + y * w) % p for x, y in zip(ru, rv)] + [1]
        g = [(x + y * w) % p for x, y in zip(a.u, a.v)]
        while True:  # Euclid over F_p, f of degree >= 1
            while g and not g[-1]:
                g.pop()
            if len(g) <= 1:
                break
            inv, n = pow(g[-1], -1, p), len(g) - 1
            for m in range(len(f) - 1, n - 1, -1):
                c = f[m] * inv % p
                if c:
                    for i in range(n):
                        f[m - n + i] = (f[m - n + i] - c * g[i]) % p
            f, g = g, f[:n]
        if g:
            return True
    return False


def _gcd_degree(*elements: _Residue) -> int:
    """deg gcd(R, a, ...) over Q(eps), by Euclid on R and each a lifted to
    Q(eps)[x].  Only the reasons of a failed proof take it, never the
    decision."""
    K = tower_eps()

    def lift(u, v):
        terms = {(i,): FieldElement(K, pair, 1) for i, pair in enumerate(zip(u, v))}
        return MultiPoly(1, terms, K)

    ru, rv, _ = elements[0].modulus
    f = lift(ru + [1], rv + [0])
    for a in elements:
        g = lift(a.u, a.v)
        while g:
            f, g = g, poly_remainder(f, g)
    return f.degree()


def _primitive(point) -> tuple:
    """The point with its residue coordinates divided by the gcd of all
    their integer coefficients: the same point over every root, with
    smaller integers to carry."""
    point = tuple(point)
    g = math.gcd(*(c for q in point for c in q.u + q.v))
    if g <= 1:
        return point
    return tuple(_Residue(q.modulus, [c // g for c in q.u], [c // g for c in q.v]) for q in point)


def _chord_third(u, v, grad_u, grad_v) -> tuple:
    """The third point (grad F(v).u) u - (grad F(u).v) v of the member on
    the chord through its points u and v, with no division: by
    polarisation F(s*u + t*v) = s t ((grad F(u).v) s + (grad F(v).u) t).
    The coordinates are residues of the proof or embedded numbers."""
    a, b = _dot(grad_v, u), _dot(grad_u, v)
    return tuple(a * p - b * q for p, q in zip(u, v))


def _tangent_third(u, grad_u, t0, t1, j=2) -> tuple:
    """The third point 3F(r) u - 3(grad F(r).u) r of the member on its
    tangent at u, for r = grad F(u) x e_j on that tangent, with no division:
    F(s*u + t*r) = t^2 ((grad F(r).u) s + F(r) t), as grad F(u).r = 0.
    The proof takes e_z; r is the signed swap of two entries of grad F(u)."""
    r = [0 * grad_u[j]] * 3
    r[(j + 1) % 3], r[(j + 2) % 3] = grad_u[(j + 2) % 3], -grad_u[(j + 1) % 3]
    grad_r = member_gradient(r, t0, t1)
    a, b = _dot(grad_r, r), 3 * _dot(grad_r, u)
    return tuple(a * p - b * q for p, q in zip(u, r))


def _evaluate_at(form: MultiPoly, coords):
    """form at coords whose entries are ring elements, term by term."""
    total = None
    for exps, c in form.terms.items():
        term = c
        for value, k in zip(coords, exps):
            for _ in range(k):
                term = term * value
        total = term if total is None else total + term
    return total


def _undecided(what: str) -> str:
    primes = ", ".join(str(p) for p, _ in _PRIMES)
    return f"no prime of ({primes}) certifies that {what}"


def nine_torsion_proof(parameter, cubic_index) -> PropertyResult:
    """Every point P where the contact cubic G = `cubic_index` meets the
    smooth member F at `parameter` has exact order nine, with 3P = p_k for
    one k != 0 and origin p_0, decided exactly in Q(eps)[x]/(R).

    In the chart z = 1 sheared by x -> x - c*y (c = 0, 1, 2), R(x) =
    Res_y(F, G) and the first subresultant A(x)*y + B(x) (Collins, JACM
    1967) give P = (x*A + c*B : -B : A) over the generic root x of R, whose
    chart abscissa is x.  F is scaled into Z[eps] and x into x/lc(R), which
    makes R monic over Z[eps], so `_Residue` computes in integers.  The
    proof needs, in turn:
    (a) deg R = 9, so no common zero is at infinity;
    (b) gcd(A, R) = 1, so P is a point over each root; else the next shear;
    (c) gcd(R, R') = 1, so the roots, and the nine points, are distinct;
    (d) F(P) = G(P) = 0 mod R, so each is a common zero, and with (a)-(c)
    they are all nine, since R != 0 and F is irreducible;
    (e) 3P x p_k = 0 mod R for a k != 0, where -P is the third point of the
    chord from p_0, -2P that of the tangent at P, and 3P that of the line
    through -P and -2P (`_chord_third`, `_tangent_third`), each made
    primitive (`_primitive`);
    (f) gcd(3P_j, R) = 1 for the first nonzero coordinate j of p_k, so 3P
    is a point over each root, and then p_k itself.
    A degenerate chord or tangent on the way gives the zero vector, which
    (f) rules out.  Then 3P = p_k != 0 and 9P = 3 p_k = 0 at all nine
    points.  The coprimality of (b), (c) and (f) is certified modulo a
    prime (`_certified_unit`); the reasons of (c) and (f) tell a common
    factor, by the exact gcd, from a pair that no prime decided.
    A pass reports k, the shear c and deg R."""
    if not 1 <= cubic_index <= 8:
        raise ValueError("contact cubic index must be in 1..8")
    ctx = curve_context(parameter, origin_index=0)
    t0, t1, member, contact = _integral_forms(ctx, cubic_index)
    for shear in range(3):
        degree, point = _chart_point(member, contact, shear)
        if degree != 9:
            return PropertyResult(False, witness=f"R has degree {degree}, not 9")
        if point is not None and _certified_unit(point[2]):
            break
    else:
        return PropertyResult(
            False, witness="no shear x -> x - c*y with c = 0, 1, 2 makes A prime to R"
        )

    def fail(reason):
        return PropertyResult(False, witness=f"{reason} (shear {shear})")

    modulus = point[2].modulus
    ru, rv, _ = modulus
    # R' = 9 x^8 + sum i R_i x^(i - 1)
    derivative = _Residue(
        modulus, [i * c for i, c in enumerate(ru)][1:] + [9], [i * c for i, c in enumerate(rv)][1:] + [0]
    )
    if not _certified_unit(derivative):
        common = _gcd_degree(derivative)
        if common:
            return fail(f"R is not squarefree: gcd(R, R') has degree {common}")
        return fail(_undecided("R is squarefree"))
    grad = member_gradient(point, t0, t1)
    if _dot(grad, point):
        return fail("F(P) is not 0 mod R")
    if _evaluate_at(contact, point):
        return fail("G(P) is not 0 mod R")
    points = hesse_data().base_points
    p0 = points[0].coords
    neg = _primitive(_chord_third(p0, point, member_gradient(p0, t0, t1), grad))
    neg2 = _primitive(_tangent_third(point, grad, t0, t1))
    triple = _primitive(
        _chord_third(neg, neg2, member_gradient(neg, t0, t1), member_gradient(neg2, t0, t1))
    )
    k = next((k for k, p in enumerate(points) if not any(_cross(triple, p.coords))), None)
    if k:
        scalar = triple[next(i for i, c in enumerate(points[k].coords) if c)]
        if _certified_unit(scalar):
            return PropertyResult(True, {"k": k, "shear": shear, "degree": degree})
        if not _gcd_degree(scalar):
            return fail(_undecided("3P is nonzero at all nine points"))
    return fail(_triple_census(triple, points))


def _integral_forms(ctx: CurveContext, cubic_index) -> tuple:
    """(t0, t1, F, G): the member of ctx and contact cubic `cubic_index`,
    each scaled into Z[eps], the forms that both the proof and the numeric
    sample of torsion.nine make their charts from (`_sheared_chart`)."""
    t0, t1 = ctx.parameter.pair()
    scale = math.lcm(t0.den, t1.den)
    contact = hesse_data().halphen_cubics[cubic_index - 1]
    contact = contact * math.lcm(*(c.den for c in contact.terms.values()))
    return t0 * scale, t1 * scale, pencil_member(ctx.parameter) * scale, contact


@lru_cache(maxsize=16)
def _sheared_chart(f: MultiPoly, g: MultiPoly, shear: int) -> tuple:
    """(R, A, B) in the chart z = 1 sheared by x -> x - shear*y, where
    R(x) = Res_y(f, g) and A(x)*y + B(x) is the first subresultant S_1
    (Collins, JACM 1967); A = B = None when deg R is not 9, or when a form
    has y-degree below two in the chart, where S_1 is not defined.  Kept
    for the last few forms, so the proof and the numeric sample of one
    member and cubic make R and S_1 once."""
    K = f.domain
    x, y = MultiPoly.variables(2, K)
    chart = [x - shear * y, y, MultiPoly.constant(2, K.one(), K)]
    f, g = f.substitute(chart), g.substitute(chart)
    res = resultant_in_var(f, g, 1)
    if res.degree() != 9 or min(max(h.collect(1)) for h in (f, g)) < 2:
        return res, None, None
    sub = resultant_in_var(f, g, 1, index=1).collect(1)
    zero = MultiPoly.zero(2, K)
    return res, sub.get(1, zero), sub.get(0, zero)


def _chart_point(member: MultiPoly, contact: MultiPoly, shear: int) -> tuple:
    """(deg R, P) in the chart z = 1 sheared by x -> x - shear*y, where
    P = (x*A + shear*B : -B : A) over Z[eps][x]/(R) for R, A and B of
    `_sheared_chart`; P is None where A and B are.

    Both forms are over Z[eps], so R, A and B are; x -> x/r with r = lc(R)
    makes R monic, and P is scaled by r^d, d bounding its degrees, to stay
    integral: the same point, since r is a nonzero constant."""
    res, a, b = _sheared_chart(member, contact, shear)
    if a is None:
        return res.degree(), None
    K = member.domain
    top = max(a.degree(), b.degree()) + 1
    powers = [K.one()]
    for _ in range(max(top, 8)):
        powers.append(powers[-1] * res.coefficient((9, 0)))

    def scaled(coeffs, d):
        # r^d * p(x / r) for p = sum coeffs[i] x^i of degree at most d
        cs = [c * powers[d - i] for i, c in enumerate(coeffs)]
        return [c.num[0] for c in cs], [c.num[1] for c in cs]

    ru, rv = scaled([res.coefficient((i, 0)) for i in range(9)], 8)
    modulus = (ru, rv, [p - q for p, q in zip(ru, rv)])
    ca, cb = ([h.coefficient((i, 0)) for i in range(top + 1)] for h in (a, b))
    xa = [K.zero()] + ca[:top]
    coords = ([p + shear * q for p, q in zip(xa, cb)], [-c for c in cb], ca)
    return 9, _primitive(_reduced(modulus, *scaled(c, top)) for c in coords)


def _triple_census(triple, points) -> str:
    """Where 3P falls among the nine points, by exact gcds with R: at how
    many it is each base point, and at how many its coordinates all vanish."""
    zero = _gcd_degree(*triple)
    parts = []
    for k, p in enumerate(points):
        count = _gcd_degree(*_cross(triple, p.coords)) - zero
        if count:
            parts.append(f"p{k} at {count}")
    if zero:
        parts.append(f"zero at {zero}")
    found = ", ".join(parts) if parts else "no base point at any"
    return f"3P is {found} of the nine points, expected one p_k with k != 0 at all nine"


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


class NumericPoint(NamedTuple):
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


def _numeric_tangent(u, grad_u, t0, t1) -> tuple:
    """`_tangent_third` on embedded coordinates, with e_j for the coordinate
    u_j of largest modulus.  r is where the tangent meets x_j = 0, so it
    stays far from u; with the proof's e_z it nears u as u_z nears zero,
    and the third point loses digits."""
    j = max(range(3), key=lambda i: abs(u[i]))
    return _tangent_third(u, grad_u, t0, t1, j)


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


class TwoTorsionReport(NamedTuple):
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
        t0, t1 = (_to_mpc(t, precision_bits) for t in ctx.parameter.pair())
        p0, p1 = polar.basis_points()
        b0, b1 = _embed_point(p0, precision_bits), _embed_point(p1, precision_bits)
        marked = _embed_point(data.base_points[line_index], precision_bits)
        points, tangent_res, doubling_res = [], [], []
        for s, t in _binary_form_roots(form, precision_bits):
            q = _scale(tuple(s * a + t * b for a, b in zip(b0, b1)))
            grad = member_gradient(q, t0, t1)
            # 3F(q) = grad F(q).q
            points.append(NumericPoint(q, precision_bits, abs(_dot(grad, q)) / 3))
            tangent_res.append(abs(_dot(grad, marked)) / mpmath.sqrt(_norm2(grad)))
            doubling_res.append(_proj_distance(_numeric_tangent(q, grad, t0, t1), marked))
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


class NineTorsionReport(NamedTuple):
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
    tangent at P) and -P (third point of the chord from p_0), made by the
    proof's divide-free chord and tangent (`_numeric_tangent`), and k is
    the base point nearest 3P: the largest |<3P, p_j>| / |p_j|.  The base
    points lie at chordal distance at least sqrt(3)/2 from each other, so
    a distance below tol picks out one of them, also near the singular
    member, where the line itself runs close to a side of the limiting
    triangle and so to three base points.  The chords and tangents take
    16 more guard bits than the points.  Given 3P = p_k, 9P = 0 is
    3 p_k = 0, measured once per distinct k as the tangent at p_k closing
    on p_k.  Three tangent steps from the first point, P -> -2P -> 4P ->
    -8P, closing on P measure 9P = 0 independently of k."""
    if not 1 <= cubic_index <= 8:
        raise ValueError("contact cubic index must be in 1..8")
    ctx = curve_context(parameter, origin_index=0)
    _, _, member, contact = _integral_forms(ctx, cubic_index)
    with mpmath.workprec(precision_bits + 48):
        tol = _tolerance(precision_bits)
        points = _transverse_intersection(member, contact, precision_bits, tol)
    # near the singular member each chord and tangent nearly lies in the
    # member, which amplifies its rounding by about 1/(lambda + 3)
    with mpmath.workprec(precision_bits + 64):
        t0, t1 = (_to_mpc(t, precision_bits) for t in ctx.parameter.pair())

        def tangent(u):
            return _numeric_tangent(u, member_gradient(u, t0, t1), t0, t1)

        base = [_embed_point(p, precision_bits) for p in hesse_data().base_points]
        # conj(p_j) / |p_j|, so that |<q, p_j>| / |p_j| is a dot product
        units = [[c.conjugate() / mpmath.sqrt(_norm2(b)) for c in b] for b in base]
        contact_terms = _embed_poly(contact, precision_bits)
        origin, grad_origin = base[0], member_gradient(base[0], t0, t1)
        flex_closure = {}  # k -> the tangent at p_k against p_k
        numeric_points, triple_idx, triple_res, nine_res = [], [], [], []
        for p in points:
            grad = member_gradient(p, t0, t1)
            # 3F(p) = grad F(p).p
            residual = max(abs(_dot(grad, p)) / 3, abs(_eval_embedded(contact_terms, p)))
            numeric_points.append(NumericPoint(p, precision_bits, residual))
            # 3P is the third point of the line through -P and -2P
            neg = _chord_third(origin, p, grad_origin, grad)
            neg2 = _numeric_tangent(p, grad, t0, t1)
            q = _chord_third(
                neg, neg2, member_gradient(neg, t0, t1), member_gradient(neg2, t0, t1)
            )
            k = max(range(9), key=lambda i: abs(_dot(q, units[i])))
            triple_idx.append(k)
            triple_res.append(_proj_distance(q, base[k]))
            if k not in flex_closure:
                flex_closure[k] = _proj_distance(tangent(base[k]), base[k])
            nine_res.append(flex_closure[k])
        chain = points[0]
        for _ in range(3):
            chain = tangent(chain)
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
    chart z = 1, told apart by their chart coordinates; raises when the
    count of distinct ones differs from nine.

    The x are the roots of R(x) = Res_y(f, g), found by `_poly_roots`
    (R is a polynomial in x^3 for the contact cubics, so it deflates).
    The y over each x comes from the first subresultant, computed exactly
    (`_sheared_chart`): S_1 = A(x)*y + B(x) lies in the ideal (f, g), so
    y = -B(x)/A(x) at a common zero where A(x) does not vanish.  Both reach
    the working precision, so no polish follows.  Where A vanishes (two
    zeros over one x, as on the Fermat member), the steps rerun on
    x = u - c*y, c = 1, 2."""
    K = f.domain
    if g.domain is not K:
        raise ValueError("curves live over different domains")
    for c in range(3):
        res, a, b = _sheared_chart(f, g, c)
        if res.degree() != 9:  # a common zero on z = 0, which no shear moves
            raise ValueError("intersection is degenerate at infinity")
        if not a:
            continue
        a_terms, b_terms = _embed_poly(a, precision_bits), _embed_poly(b, precision_bits)
        rc = [_to_mpc(res.coefficient((9 - k, 0)), precision_bits) for k in range(10)]
        zeros = []
        for x in _poly_roots(rc, precision_bits):
            a0 = _eval_embedded(a_terms, (x, 0))
            scale = max(1, abs(x))
            if abs(a0) <= tol * sum(abs(t) * scale**i for (i, _), t in a_terms.items()):
                break
            zeros.append((x, -_eval_embedded(b_terms, (x, 0)) / a0))
        if len(zeros) == 9:
            break
    else:
        raise ValueError("first subresultant vanishes: two common zeros share x")
    found = []  # (x, y) in the chart
    for x, y in zeros:
        # zeros apart by more than sqrt(tol) in the chart are distinct
        if all(_norm2((x - u, y - v)) > tol for u, v in found):
            found.append((x, y))
    if len(found) != 9:
        raise ValueError(f"expected nine transverse intersections, found {len(found)}")
    return [_scale((x - c * y, y, mpmath.mpc(1))) for x, y in found]  # undo the shear


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
    """polar_two_torsion_proof for all nine harmonic polars and every smooth
    member, then one numeric cross-check: two_torsion_polar_check on the
    first polar at lambda = 1, at its default 128 bits.  A pass needs both,
    and reports the worst residual of the sample, to 17 digits."""
    reason = polar_two_torsion_proof()
    if reason is not None:
        return PropertyResult(False, witness=reason)
    rep = two_torsion_polar_check(Fraction(1), 0)
    worst = max(
        *(p.residual for p in rep.points),
        *rep.tangent_residuals,
        *rep.doubling_residuals,
    )
    key = "lambda=1,line=0"
    if not rep.holds:
        return PropertyResult(
            False,
            witness=f"{key}: {len(rep.points)} points on the polar, worst "
            f"residual {mpmath.nstr(worst, 5)}, expected 3 points within "
            f"{mpmath.nstr(rep.tolerance, 5)}",
        )
    return PropertyResult(
        True,
        {
            "polars": len(hesse_data().harmonic_polars),
            "polar_discriminant": _POLAR_DISCRIMINANT,
            "precision_bits": 128,
            key: mpmath.nstr(worst, 17),
            "tolerance": mpmath.nstr(rep.tolerance, 17),
        },
    )


def nine_torsion_sweep() -> PropertyResult:
    """nine_torsion_proof for the first contact cubic at lambda = 1, 2 and
    1/2, then one numeric cross-check: nine_torsion_check(1, 1) at its
    default 128 bits, whose 3P must all be the proof's p_k.  A pass needs
    all four; it reports each proof's k, shear and deg R, and the worst
    residual of the sample, to 17 digits.  The sample runs the proof's own
    `_chord_third` and `_tangent_third` (and at lambda = 1 the proof's R
    and S_1), so a fault in those formulas fails both alike; the binary
    cubic oracle of the tests checks them independently."""
    proofs = {}
    for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
        res = nine_torsion_proof(lam, 1)
        if not res.holds:
            return PropertyResult(False, witness=f"lambda={lam}: {res.witness}")
        proofs[f"lambda={lam}"] = res.details
    rep = nine_torsion_check(Fraction(1), 1)
    worst = max(max(rep.triple_residuals), max(rep.nine_residuals), rep.chain_residual)
    key, k = "lambda=1,cubic=1", proofs["lambda=1"]["k"]
    if not rep.holds or set(rep.triple_indices) != {k}:
        return PropertyResult(
            False,
            witness=f"{key}: triples hit base points {rep.triple_indices}, worst "
            f"residual {mpmath.nstr(worst, 5)}, expected p{k} at all nine within "
            f"{mpmath.nstr(rep.tolerance, 5)}",
        )
    return PropertyResult(
        True,
        {
            "proofs": proofs,
            "precision_bits": 128,
            key: mpmath.nstr(worst, 17),
            "tolerance": mpmath.nstr(rep.tolerance, 17),
        },
    )


def prop62_sweep() -> PropertyResult:
    """prop62_check at lambda = 0 and 1."""
    out = {}
    for lam in (Fraction(0), Fraction(1)):
        res = prop62_check(lam)
        if not res.holds:
            return PropertyResult(False, witness=f"lambda={lam}: {res.witness}")
        out[f"lambda={lam}"] = res.details
    return PropertyResult(True, out)
