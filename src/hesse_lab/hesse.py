"""Domain layer for the pencil of plane cubics spanned by x^3+y^3+z^3 and xyz.

Holds the exact configuration data (base points, the twelve inflection
lines grouped into four triangles, vertices, harmonic polars, the eight
Halphen cubics, the classical invariants) together with the rational
self-maps of the parameter line and a suite of symbolic identity checks
tying everything together, `IDENTITIES`.  `PropertyResult` is the result
every registered check returns.  All arithmetic is exact: rationals or
explicit number-field towers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .field import FieldElement, tower_eps, tower_eps_i, tower_eps_i_cbrt2
from .multipoly import (
    MultiPoly,
    QQ,
    binary_form_gcd,
    convert_domain,
    det_generic,
    divide_exact,
    field_linsolve,
    field_nullspace,
    hessian_determinant,
    poly_remainder,
    poly_sqrt,
    poly_to_str,
    proportionality,
    rational_content,
    reduce_mod,
    resultant_in_var,
    strip_monomial_content,
)
from .plane import (
    ProjLine,
    ProjPoint,
    SingularityClass,
    classify_point,
    incidence_table,
    line_through,
    lines_meet,
    normalize_projective,
    root_multiplicity,
)


# ---------------------------------------------------------------------------
# points of the parameter line
# ---------------------------------------------------------------------------


class PencilParameter:
    """A point (t0 : t1) on the parameter line of the pencil.

    The member attached to (t0 : t1) is t0*(x^3+y^3+z^3) + t1*xyz; the
    affine coordinate is t1/t0 with (0 : 1) the point at infinity.  The
    stored pair is canonical: the first nonzero coordinate equals one.
    """

    __slots__ = ("t0", "t1", "domain")

    def __init__(self, t0, t1, domain=QQ):
        t0, t1 = normalize_projective((domain.coerce(t0), domain.coerce(t1)))
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("PencilParameter is immutable")

    @classmethod
    def from_affine(cls, value, domain=QQ) -> "PencilParameter":
        return cls(domain.one(), value, domain)

    @classmethod
    def infinity(cls, domain=QQ) -> "PencilParameter":
        return cls(domain.zero(), domain.one(), domain)

    @property
    def is_infinite(self) -> bool:
        return self.t0 == 0

    def affine(self):
        """The affine coordinate t1/t0, None at infinity."""
        if self.is_infinite:
            return None
        return self.t1

    def pair(self) -> tuple:
        return (self.t0, self.t1)

    def to_domain(self, domain) -> "PencilParameter":
        return PencilParameter(domain.coerce(self.t0), domain.coerce(self.t1), domain)

    def __eq__(self, other):
        if not isinstance(other, PencilParameter):
            return NotImplemented
        return self.domain == other.domain and self.pair() == other.pair()

    def __hash__(self):
        return hash((PencilParameter, self.t0, self.t1))

    def __repr__(self):
        if self.is_infinite:
            return "PencilParameter(inf)"
        return f"PencilParameter({self.t1!r})"


# ---------------------------------------------------------------------------
# rational self-maps of the parameter line
# ---------------------------------------------------------------------------


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    from math import gcd, lcm

    return Fraction(
        gcd(a.numerator, b.numerator), lcm(a.denominator, b.denominator)
    )


class RationalSelfMap:
    """A map of the projective parameter line given by a pair of coprime
    homogeneous binary forms of equal degree over Q: (t0 : t1) -> (den : num),
    so the affine coordinate maps to num/den."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly):
        num._check_compatible(den)
        if num.domain != QQ:
            raise ValueError("self-map forms must be over Q")
        if num.nvars != 2:
            raise ValueError("self-map forms must be binary")
        if not num or not den:
            raise ValueError("zero form in self-map")
        if not (num.is_homogeneous() and den.is_homogeneous()):
            raise ValueError("self-map forms must be homogeneous")
        if num.degree() != den.degree():
            raise ValueError("self-map forms must have equal degree")
        g = binary_form_gcd(num, den)
        if g.degree() > 0:
            num = divide_exact(num, g)
            den = divide_exact(den, g)
        if num.degree() == 0:
            raise ValueError("constant self-map")
        c = _fraction_gcd(abs(rational_content(num)), abs(rational_content(den)))
        if rational_content(den) < 0:
            c = -c
        object.__setattr__(self, "num", num / c)
        object.__setattr__(self, "den", den / c)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSelfMap is immutable")

    def apply(self, t: PencilParameter) -> PencilParameter:
        num, den = convert_domain(self.num, t.domain), convert_domain(self.den, t.domain)
        point = t.pair()
        return PencilParameter(den.evaluate(point), num.evaluate(point), t.domain)

    def compose(self, other: "RationalSelfMap") -> "RationalSelfMap":
        """self after other; both maps are over one domain."""
        images = [other.den, other.num]
        return RationalSelfMap(self.num.substitute(images), self.den.substitute(images))

    def wronskian(self) -> MultiPoly:
        ns, nt = self.num.derivative(0), self.num.derivative(1)
        ds, dt = self.den.derivative(0), self.den.derivative(1)
        return ns * dt - nt * ds

    def same_map(self, other: "RationalSelfMap"):
        """(True, scalar) when both maps, over one domain, agree pointwise."""
        c, _ = proportionality(self.num * other.den, other.num * self.den)
        return (c is not None), c

    def __eq__(self, other):
        if not isinstance(other, RationalSelfMap):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((RationalSelfMap, self.num, self.den))

    def __repr__(self):
        return f"RationalSelfMap({poly_to_str(self.num)} / {poly_to_str(self.den)})"


# ---------------------------------------------------------------------------
# the pencil and its classical parameter maps
# ---------------------------------------------------------------------------


def pencil_forms(domain=QQ) -> tuple:
    """The two generators: (x^3+y^3+z^3, xyz)."""
    x, y, z = MultiPoly.variables(3, domain)
    return x**3 + y**3 + z**3, x * y * z


def pencil_member(t: PencilParameter) -> MultiPoly:
    """The cubic form t0*(x^3+y^3+z^3) + t1*xyz of the member at t."""
    s, prod = pencil_forms(t.domain)
    return t.t0 * s + t.t1 * prod


def hessian_map() -> RationalSelfMap:
    """Parameter action of taking the Hessian curve of a member."""
    t0, t1 = MultiPoly.variables(2, QQ)
    return RationalSelfMap(-(108 * t0**3 + t1**3), 3 * t0 * t1**2)


def cayleyan_map() -> RationalSelfMap:
    """Parameter action of taking the Cayleyan curve of a member."""
    t0, t1 = MultiPoly.variables(2, QQ)
    return RationalSelfMap(54 * t0**3 - t1**3, 9 * t0**2 * t1)


def parameter_flip() -> RationalSelfMap:
    """The involution lambda -> -18/lambda linking the two maps above."""
    t0, t1 = MultiPoly.variables(2, QQ)
    return RationalSelfMap(-18 * t0, t1)


def _quartic_sextic_forms() -> tuple:
    """The degree-4 and degree-6 coefficient forms of the short Weierstrass
    model of a member, in the pencil coordinates (t0, t1)."""
    t0, t1 = MultiPoly.variables(2, QQ)
    u1 = t1 / 6
    a = 12 * u1 * (t0**3 - u1**3)
    b = 2 * (t0**6 - 20 * t0**3 * u1**3 - 8 * u1**6)
    return a, b


@lru_cache(maxsize=None)
def pencil_discriminant() -> MultiPoly:
    """The discriminant form 4A^3 + 27B^2 of the short Weierstrass model,
    in the pencil coordinates (t0, t1); it vanishes exactly at the four
    triangle parameters."""
    a, b = _quartic_sextic_forms()
    return 4 * a**3 + 27 * b**2


def member_is_singular(t: PencilParameter) -> bool:
    """Whether the member at t is singular: the discriminant form vanishes
    at t."""
    return not convert_domain(pencil_discriminant(), t.domain).evaluate(t.pair())


# ---------------------------------------------------------------------------
# the configuration data
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HesseData:
    """Exact configuration attached to the pencil, over Q(eps)."""

    domain: object
    eps: FieldElement
    fermat_cubic: MultiPoly  # x^3 + y^3 + z^3
    coordinate_product: MultiPoly  # xyz
    base_points: tuple  # p0..p8
    labels: tuple  # label of p_i in (Z/3)^2; collinear iff labels sum to 0
    inflection_lines: tuple  # 12 lines, in triangle order
    triangles: tuple  # 4 triples of lines
    triangle_parameters: tuple  # (inf, -3, -3e, -3e^2)
    vertices: tuple  # v0..v11
    harmonic_polars: tuple  # L0..L8, L_i paired with p_i
    halphen_cubics: tuple  # the eight contact cubics cutting the order-nine locus
    equianharmonic_parameters: tuple  # (0, 6, 6e, 6e^2)
    six_line_products: tuple  # four products of six inflection-line factors
    invariants: dict  # named invariant forms, see hesse_data()


def _line(domain, a, b, c) -> ProjLine:
    return ProjLine((a, b, c), domain)


@lru_cache(maxsize=None)
def hesse_data() -> HesseData:
    K = tower_eps()
    e = K.symbol_element("eps")
    e2 = e * e
    one = K.one()
    x, y, z = MultiPoly.variables(3, K)
    s_form = x**3 + y**3 + z**3
    t_form = x * y * z

    base_points = tuple(
        ProjPoint(c, K)
        for c in [
            (0, 1, -1),
            (0, 1, -e),
            (0, 1, -e2),
            (1, 0, -1),
            (1, 0, -e2),
            (1, 0, -e),
            (1, -1, 0),
            (1, -e, 0),
            (1, -e2, 0),
        ]
    )
    labels = tuple((i % 3, i // 3) for i in range(9))

    triangle_coeffs = [
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [(1, 1, 1), (1, e, e2), (1, e2, e)],
        [(1, e, 1), (1, e2, e2), (1, 1, e)],
        [(1, e2, 1), (1, e, e), (1, 1, e2)],
    ]
    triangles = tuple(
        tuple(_line(K, *c) for c in coeffs) for coeffs in triangle_coeffs
    )
    inflection_lines = tuple(l for tri in triangles for l in tri)
    triangle_parameters = (
        PencilParameter.infinity(K),
        PencilParameter.from_affine(-3 * one, K),
        PencilParameter.from_affine(-3 * e, K),
        PencilParameter.from_affine(-3 * e2, K),
    )

    vertices = tuple(
        ProjPoint(c, K)
        for c in [
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
            (1, 1, 1),
            (1, e, e2),
            (1, e2, e),
            (e, 1, 1),
            (1, e, 1),
            (1, 1, e),
            (e2, 1, 1),
            (1, e2, 1),
            (1, 1, e2),
        ]
    )

    # the line component of the polar conic of p_i has coefficient vector
    # equal to the complex-conjugate base point (swap the cube roots)
    conj = (0, 2, 1, 3, 5, 4, 6, 8, 7)
    harmonic_polars = tuple(
        ProjLine(base_points[conj[i]].coords, K) for i in range(9)
    )

    halphen_cubics = (
        x**3 + e * y**3 + e2 * z**3,
        x**2 * y + y**2 * z + z**2 * x,
        x**2 * y + e2 * y**2 * z + e * z**2 * x,
        x**2 * y + e * y**2 * z + e2 * z**2 * x,
        x**3 + e2 * y**3 + e * z**3,
        x**2 * z + y**2 * x + z**2 * y,
        x**2 * z + e * y**2 * x + e2 * z**2 * y,
        x**2 * z + e2 * y**2 * x + e * z**2 * y,
    )

    equianharmonic_parameters = (
        PencilParameter.from_affine(K.zero(), K),
        PencilParameter.from_affine(6 * one, K),
        PencilParameter.from_affine(6 * e, K),
        PencilParameter.from_affine(6 * e2, K),
    )

    def leq(tri, k):
        return triangles[tri][k].equation()

    # products of six inflection lines entering the cuspidal-sextic fit;
    # the last one collects the six lines avoiding the base point p0
    a1 = y * z * leq(2, 0) * leq(2, 2) * leq(3, 0) * leq(3, 2)
    a2 = y * z * leq(1, 1) * leq(1, 2) * leq(2, 2) * leq(2, 0)
    a3 = y * z * leq(3, 0) * leq(3, 2) * leq(1, 1) * leq(1, 2)
    a4 = leq(1, 1) * leq(1, 2) * leq(2, 2) * leq(2, 0) * leq(3, 0) * leq(3, 2)
    six_line_products = (a1, a2, a3, a4)

    sextic = (
        x**6
        + y**6
        + z**6
        - 10 * (x**3 * y**3 + x**3 * z**3 + y**3 * z**3)
    )
    polar_product = (x**3 - y**3) * (x**3 - z**3) * (y**3 - z**3)
    equianharmonic_product = s_form * (s_form**3 + 216 * t_form**3)
    inflection_line_product = MultiPoly.constant(3, one, K)
    for line in inflection_lines:
        inflection_line_product = inflection_line_product * line.equation()
    harmonic_product = s_form**6 - 540 * t_form**3 * s_form**3 - 5832 * t_form**6
    cuspidal_sextic = (
        s_form**2
        - 36 * y**3 * z**3
        + 24 * (z**4 * y**2 + z**2 * y**4)
        - 12 * (z**5 * y + z * y**5)
        - 12 * x**3 * (z**2 * y + z * y**2)
    )
    # the printed source of this nonic drops a homogenizing power; the
    # form below is the homogeneous correction, revalidated by the
    # relation-fit identity and by the nine-line factorization
    cuspidal_nonic = (
        y
        * z
        * (y - z)
        * (
            x**6
            + x**3 * (2 * y**3 - 3 * y**2 * z - 3 * y * z**2 + 2 * z**3)
            + (y**2 - y * z + z**2) ** 3
        )
    )

    invariants = {
        "sextic": sextic,
        "polar_product": polar_product,
        "equianharmonic_product": equianharmonic_product,
        "inflection_line_product": inflection_line_product,
        "harmonic_product": harmonic_product,
        "cuspidal_sextic": cuspidal_sextic,
        "cuspidal_nonic": cuspidal_nonic,
    }

    return HesseData(
        domain=K,
        eps=e,
        fermat_cubic=s_form,
        coordinate_product=t_form,
        base_points=base_points,
        labels=labels,
        inflection_lines=inflection_lines,
        triangles=triangles,
        triangle_parameters=triangle_parameters,
        vertices=vertices,
        harmonic_polars=harmonic_polars,
        halphen_cubics=halphen_cubics,
        equianharmonic_parameters=equianharmonic_parameters,
        six_line_products=six_line_products,
        invariants=invariants,
    )


def collinear_base_triples() -> tuple:
    """The 12 index triples of collinear base points: rows, columns and
    permutation transversals of the 3x3 arrangement p_{3r+c}."""
    rows = [tuple(3 * r + c for c in range(3)) for r in range(3)]
    cols = [tuple(3 * r + c for r in range(3)) for c in range(3)]
    import itertools

    perms = [
        tuple(3 * r + sigma[r] for r in range(3))
        for sigma in itertools.permutations(range(3))
    ]
    return tuple(rows + cols + perms)


# ---------------------------------------------------------------------------
# check results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of a check: on a pass, `details` holds the scalars worth
    reporting; on a fail, `witness` says why, and must be given."""

    holds: bool
    details: dict = field(default_factory=dict)
    witness: Optional[str] = None

    def __post_init__(self):
        if not self.holds and self.witness is None:
            raise ValueError("a failed check must give a reason")


def _expect(got: dict, want: dict) -> PropertyResult:
    """Pass with `got` as details when it agrees with `want` on every key
    of `want`; otherwise fail naming the first key that differs."""
    for key, value in want.items():
        if got.get(key) != value:
            return PropertyResult(
                False, witness=f"{key} is {got.get(key)}, expected {value}"
            )
    return PropertyResult(True, got)


def _measure(measures: dict, want: dict, derive=None) -> PropertyResult:
    """_expect on {key: measure()}, passed through derive when given.  Each
    measure maps forms through the map named by its key and raises
    ValueError when that map lies outside the Hessian group; the first to
    raise fails with a reason naming it."""
    got = {}
    for key, measure in measures.items():
        try:
            got[key] = measure()
        except ValueError as exc:
            return PropertyResult(False, witness=f"{key}: {exc}")
    return _expect(derive(got) if derive else got, want)


def _zero_result(diff: MultiPoly, details: dict = None) -> PropertyResult:
    if not diff:
        return PropertyResult(True, details or {})
    lead = diff.leading()[0]
    return PropertyResult(False, details or {}, witness=f"monomial {lead}")


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _identity_a() -> PropertyResult:
    x, y, z, t0, t1 = MultiPoly.variables(5, QQ)
    member = t0 * (x**3 + y**3 + z**3) + t1 * (x * y * z)
    he = hessian_determinant(member)
    hm = hessian_map()
    den5 = hm.den.substitute([t0, t1])
    num5 = hm.num.substitute([t0, t1])
    target = den5 * (x**3 + y**3 + z**3) + num5 * (x * y * z)
    c, witness = proportionality(he, target)
    if c is None:
        return PropertyResult(False, witness=f"monomial {witness}")
    return PropertyResult(True, {"ratio": c})


def _identity_b() -> PropertyResult:
    u0, u1 = MultiPoly.variables(2, QQ)
    a, b = (f.substitute([u0, 6 * u1]) for f in _quartic_sextic_forms())
    diff = 4 * a**3 + 27 * b**2 - 108 * u0**3 * (u0**3 + 8 * u1**3) ** 3
    return _zero_result(diff)


def _identity_c() -> PropertyResult:
    data = hesse_data()
    s = data.fermat_cubic
    b1, b5 = data.halphen_cubics[0], data.halphen_cubics[4]
    diff = data.invariants["sextic"] - (-3 * s**2 + 4 * b1 * b5)
    return _zero_result(diff)


def _identity_d() -> PropertyResult:
    data = hesse_data()
    s, t = data.fermat_cubic, data.coordinate_product
    K, e = data.domain, data.eps
    diff1 = data.invariants["equianharmonic_product"] - s * (s**3 + 216 * t**3)
    prod = MultiPoly.constant(3, K.one(), K)
    for ek in (K.one(), e, e * e):
        prod = prod * (s + 6 * ek * t)
    diff2 = (s**3 + 216 * t**3) - prod
    members = MultiPoly.constant(3, K.one(), K)
    for par in data.equianharmonic_parameters:
        members = members * (par.t0 * s + par.t1 * t)
    diff3 = data.invariants["equianharmonic_product"] - members
    if diff1 or diff2 or diff3:
        bad = diff1 if diff1 else (diff2 if diff2 else diff3)
        return _zero_result(bad)
    return PropertyResult(True)


def _identity_e() -> PropertyResult:
    u0, u1, x, y, z = MultiPoly.variables(5, QQ)
    s = x**3 + y**3 + z**3
    t = x * y * z
    b = _quartic_sextic_forms()[1].substitute([u0, 6 * u1])
    member = u0 * s + 6 * u1 * t
    res = resultant_in_var(b, member, 0)
    exps, core = strip_monomial_content(res)
    harmonic = s**6 - 540 * t**3 * s**3 - 5832 * t**6
    c, witness = proportionality(core, harmonic)
    if c is None or exps[0] != 0:
        return PropertyResult(False, witness=f"monomial {witness or exps}")
    return PropertyResult(True, {"ratio": c, "stripped": exps})


def _identity_f() -> PropertyResult:
    K = tower_eps()
    e = K.symbol_element("eps")
    x0, y0, z0, t = MultiPoly.variables(4, K)
    # tangent line of the member with coefficient 3t on xyz, at (x0,y0,z0)
    cx = x0**2 + t * y0 * z0
    cy = y0**2 + t * x0 * z0
    cz = z0**2 + t * x0 * y0
    value_at_twist = cx * x0 + cy * (e * y0) + cz * (e * e * z0)
    diff = value_at_twist - (x0**3 + e * y0**3 + e * e * z0**3)
    return _zero_result(diff)


def _identity_g() -> PropertyResult:
    (mu,) = MultiPoly.variables(1, QQ)
    y = mu / 6
    left = -(1 + 2 * y**3) * (3 * mu**2)
    right = -(108 + mu**3) * y**2
    return _zero_result(left - right)


def _identity_h() -> PropertyResult:
    x, y, z = MultiPoly.variables(3, QQ)
    quadric = (
        x**2 + y**2 + z**2 - 10 * (x * y + y * z + x * z)
    )
    composed = quadric.substitute([x**3, y**3, z**3])
    sextic = (
        x**6 + y**6 + z**6 - 10 * (x**3 * y**3 + x**3 * z**3 + y**3 * z**3)
    )
    det = det_generic(
        [
            [Fraction(1), Fraction(-5), Fraction(-5)],
            [Fraction(-5), Fraction(1), Fraction(-5)],
            [Fraction(-5), Fraction(-5), Fraction(1)],
        ]
    )
    result = _zero_result(composed - sextic, {"conic_determinant": det})
    if result.holds and det == 0:
        return PropertyResult(False, witness="degenerate conic")
    return result


def _fibration_form(domain, e, sqrt3):
    """u^2*(first contact cubic) + v^2*(its partner) + sqrt(3)*uv*(sum of
    cubes), in variables (x, y, z, u, v)."""
    x, y, z, u, v = MultiPoly.variables(5, domain)
    b1 = x**3 + e * y**3 + e * e * z**3
    b5 = x**3 + e * e * y**3 + e * z**3
    s = x**3 + y**3 + z**3
    return u**2 * b1 + v**2 * b5 + sqrt3 * u * v * s


def _identity_i() -> PropertyResult:
    K = tower_eps_i()
    e = K.symbol_element("eps")
    i = K.symbol_element("i")
    sqrt3 = -i * (e - e * e)
    x, y, z, u, v = MultiPoly.variables(5, K)
    lhs = _fibration_form(K, e, sqrt3)
    rhs = (
        (u**2 + v**2 + sqrt3 * u * v) * x**3
        + (e * u**2 + e * e * v**2 + sqrt3 * u * v) * y**3
        + (e * e * u**2 + e * v**2 + sqrt3 * u * v) * z**3
    )
    return _zero_result(lhs - rhs)


def _identity_j() -> PropertyResult:
    K = tower_eps_i()
    e = K.symbol_element("eps")
    i = K.symbol_element("i")
    sqrt3 = -i * (e - e * e)
    u, v = MultiPoly.variables(2, K)
    prod = (
        (u**2 + v**2 + sqrt3 * u * v)
        * (e * u**2 + e * e * v**2 + sqrt3 * u * v)
        * (e * e * u**2 + e * v**2 + sqrt3 * u * v)
    )
    return _zero_result(prod - (u**6 + v**6))


def elkies_section_coefficients() -> tuple:
    """The three linear-form coefficients (d0, d1, d2) of a section of
    the square fibration, over Q(eps, i, cbrt2).

    The triple is i * M * (eps*cbrt4, -cbrt2, -(eps+1)) for the symmetric
    character matrix M with rows (1,1,1), (1,eps,eps^2), (1,eps^2,eps);
    it was solved for directly from the vanishing conditions, since the
    printed source vector fails them under every sign, permutation and
    normalization variant.
    """
    K = tower_eps_i_cbrt2()
    e = K.symbol_element("eps")
    i = K.symbol_element("i")
    c = K.symbol_element("cbrt2")
    w = (e * c * c, -c, -(e + 1))
    rows = ((1, 1, 1), (K.one(), e, e * e), (K.one(), e * e, e))
    return tuple(
        i * (row[0] * w[0] + row[1] * w[1] + row[2] * w[2]) for row in rows
    )


def _identity_k() -> PropertyResult:
    K = tower_eps_i_cbrt2()
    e = K.symbol_element("eps")
    i = K.symbol_element("i")
    sqrt3 = -i * (e - e * e)
    d0, d1, d2 = elkies_section_coefficients()
    x, y, z, u, v = MultiPoly.variables(5, K)
    form = _fibration_form(K, e, sqrt3)
    one_me = K.one() - e
    images = [
        one_me * u - d0 * v,
        one_me * u - d1 * v,
        one_me * u - d2 * v,
        u,
        v,
    ]
    return _zero_result(form.substitute(images))


def _identity_l() -> PropertyResult:
    x, y, z = MultiPoly.variables(3, QQ)
    big_x = x**2 * y + y**2 * z + z**2 * x
    big_y = x * y**2 + y * z**2 + z * x**2
    big_z = x**3 + y**3 + z**3
    big_w = x * y * z
    diff = big_x**3 + big_y**3 + big_z**2 * big_w - big_x * big_y * big_z
    return _zero_result(reduce_mod(diff, 3))


def _relation_columns(sextic: MultiPoly, nonic_square: MultiPoly, flip_sign: bool):
    """Column forms of the Weierstrass-relation ansatz; unknowns are the
    monomials (c4^2, c3^3, c1^3c2c3, c2^4c3, c1^6, c1^3c2^3, c2^6)."""
    x, y, z = MultiPoly.variables(3, QQ)
    s = x**3 + y**3 + z**3
    t = x * y * z
    sg = -1 if flip_sign else 1
    cols = [
        -nonic_square,
        sextic**3,
        sg * 12 * s * t**3 * sextic,
        -12 * s**4 * sextic,
        2 * t**6,
        sg * (-40) * s**3 * t**3,
        -16 * s**6,
    ]
    return cols


def _nullspace_of_columns(cols):
    support = sorted({m for f in cols for m in f.terms}, reverse=True)
    matrix = [[f.terms.get(m, QQ.zero()) for f in cols] for m in support]
    return field_nullspace(matrix, QQ)


def _identity_m() -> PropertyResult:
    data = hesse_data()
    sextic = convert_domain(data.invariants["sextic"], QQ)
    nonic = convert_domain(data.invariants["polar_product"], QQ)
    cols = _relation_columns(sextic, nonic**2, flip_sign=False)
    null = _nullspace_of_columns(cols)
    if len(null) != 1:
        return PropertyResult(False, witness=f"nullspace dimension {len(null)}")
    n = null[0]
    scale = 1 / n[1] if n[1] else None
    if scale is None:
        return PropertyResult(False, witness="degenerate fit (no sextic cube)")
    n = tuple(v * scale for v in n)
    consistent = (
        n[5] ** 2 == n[4] * n[6]
        and n[2] ** 2 * n[6] == n[3] ** 2 * n[4]
        and n[2] ** 3 == n[1] * n[4] * n[5]
    )
    return PropertyResult(
        consistent,
        {"coefficient_vector": n},
        witness=None if consistent else "monomial structure of the fit broke",
    )


def _identity_n() -> PropertyResult:
    data = hesse_data()
    K, e = data.domain, data.eps
    a1, a2, a3, a4 = data.six_line_products
    combo = a1 + e * e * a2 + e * a3
    target = data.invariants["cuspidal_sextic"]
    support = sorted(set(combo.terms) | set(a4.terms) | set(target.terms), reverse=True)
    matrix = [
        [combo.terms.get(m, K.zero()), a4.terms.get(m, K.zero())] for m in support
    ]
    rhs = [target.terms.get(m, K.zero()) for m in support]
    sol = field_linsolve(matrix, rhs, K)
    if sol is None:
        return PropertyResult(False, witness="no linear combination exists")
    lam, mu = sol
    diff = lam * combo + mu * a4 - target
    return _zero_result(diff, {"combo_coefficient": lam, "last_coefficient": mu})


# the identities of the verification suite, by name, in run order
IDENTITIES = {
    "a": _identity_a,
    "b": _identity_b,
    "c": _identity_c,
    "d": _identity_d,
    "e": _identity_e,
    "f": _identity_f,
    "g": _identity_g,
    "h": _identity_h,
    "i": _identity_i,
    "j": _identity_j,
    "k": _identity_k,
    "l": _identity_l,
    "m": _identity_m,
    "n": _identity_n,
}


# ---------------------------------------------------------------------------
# derivation of the cuspidal nonic from the primed relation
# ---------------------------------------------------------------------------


def derive_cuspidal_nonic() -> PropertyResult:
    """Solve the primed Weierstrass relation for the nonic companion of
    the cuspidal sextic and reconcile it with the stored form and with
    the product of nine explicit lines.

    Both quadruples satisfy the relation with the same normalization
    constants, so the coefficient vector of the unprimed fit transfers;
    the nonic is then pinned down as a square root.  Its linear factor
    (the first harmonic polar times yz) is divided off first since the
    square root routine needs the full square.  `square_scalar` is the
    rational content of the squared quotient; the two proportionality
    scalars compare the derived, stored and line-product nonics.
    """
    data = hesse_data()
    x, y, z = MultiPoly.variables(3, QQ)
    w = y * z * (y - z)
    w2 = w * w
    sextic = convert_domain(data.invariants["cuspidal_sextic"], QQ)
    # first column (the nonic square) is the unknown here, hence zeroed;
    # the sign flips encode replacing the coordinate product by its negative
    cols = _relation_columns(sextic, MultiPoly.zero(3, QQ), flip_sign=True)[1:]
    # the nonic factors through w, so the remaining combination must be
    # divisible by w^2; that divisibility is linear in the coefficients
    rems = [poly_remainder(f, w2) for f in cols]
    null = _nullspace_of_columns(rems)
    if len(null) != 1:
        return PropertyResult(False, witness=f"nullspace dimension {len(null)}")
    n = null[0]
    scale = 1 / n[0] if n[0] else None
    if scale is None:
        return PropertyResult(False, witness="degenerate fit")
    n = tuple(v * scale for v in n)
    combo = MultiPoly.zero(3, QQ)
    for coeff, col in zip(n, cols):
        combo = combo + coeff * col
    try:
        quotient = divide_exact(combo, w2)
    except ValueError as err:
        return PropertyResult(False, witness=str(err))
    # the quotient is (squared constant) * (squared primitive form); the
    # constant need not be a rational square, so peel the content first
    content = rational_content(quotient)
    try:
        core = poly_sqrt(quotient / content)
    except ValueError as err:
        return PropertyResult(False, witness=str(err))
    derived = w * core
    stored = convert_domain(data.invariants["cuspidal_nonic"], QQ)
    c1, wit1 = proportionality(derived, stored)
    a4 = convert_domain(data.six_line_products[3], QQ)
    line_product = w * a4
    c2, wit2 = proportionality(stored, line_product)
    if c1 is None or c2 is None:
        return PropertyResult(False, witness=f"monomial {wit1 if c1 is None else wit2}")
    return PropertyResult(
        True,
        {
            "coefficient_vector": n,
            "square_scalar": content,
            "derived_matches_stored": c1,
            "stored_matches_line_product": c2,
        },
    )


# ---------------------------------------------------------------------------
# dual curves by elimination
# ---------------------------------------------------------------------------


def dual_sextic_candidate(m0, m1) -> MultiPoly:
    """The closed-form dual sextic of the member with parameter pair
    (m0, 6*m1), in dual coordinates.

    The 6 here is forced: eliminating the tangency point for members
    m0*S + tau*T shows the formula reproduces the dual exactly when
    tau = 6*m1 (and the Fermat member m1 = 0 gives the classical
    two-term sextic), so a printed claim of 3*m1 does not survive.
    """
    m0 = QQ.coerce(m0)
    m1 = QQ.coerce(m1)
    x0, x1, x2 = MultiPoly.variables(3, QQ)
    p6 = x0**6 + x1**6 + x2**6
    p33 = x0**3 * x1**3 + x0**3 * x2**3 + x1**3 * x2**3
    p3 = x0**3 + x1**3 + x2**3
    sq = (x0 * x1 * x2) ** 2
    return (
        m0**4 * p6
        - m0 * (2 * m0**3 + 32 * m1**3) * p33
        - 24 * m0**2 * m1**2 * (x0 * x1 * x2) * p3
        - (24 * m0**3 * m1 + 48 * m1**4) * sq
    )


def dual_curve_check(m: PencilParameter) -> PropertyResult:
    """Eliminate the tangency point of the member with parameter pair
    (m0, 6*m1) and compare the resulting tangent-line locus with the
    closed-form dual sextic; `scalar` is the coefficient of the monomial
    quotient of the eliminant by the sextic."""
    if m.domain != QQ:
        raise ValueError("dual-curve elimination runs over the rationals")
    m0, m1 = m.t0, m.t1
    if member_is_singular(PencilParameter(m0, 6 * m1)):
        raise ValueError("singular member: the dual is not a sextic")

    s, t, x0, x1, x2 = MultiPoly.variables(5, QQ)
    zero = MultiPoly.zero(5, QQ)
    charts = [
        ((x1, -x0, zero), (x2, zero, -x0)),
        ((zero, x2, -x1), (x1, -x0, zero)),
        ((x2, zero, -x0), (zero, x2, -x1)),
    ]
    candidate = dual_sextic_candidate(m0, m1).substitute([x0, x1, x2])
    witness = None
    for p_first, p_second in charts:
        images = [
            s * p_first[k] + t * p_second[k] for k in range(3)
        ]
        cubic = (
            m0 * (images[0] ** 3 + images[1] ** 3 + images[2] ** 3)
            + 6 * m1 * images[0] * images[1] * images[2]
        )
        res = resultant_in_var(cubic.derivative(0), cubic.derivative(1), 0)
        if not res:
            continue
        _, core = strip_monomial_content(res)
        if any(e[0] or e[1] for e in core.terms):
            witness = "elimination left parameter variables"
            continue
        try:
            quotient = divide_exact(core, candidate)
        except ValueError as err:
            return PropertyResult(False, witness=str(err))
        if not quotient.is_term():
            return PropertyResult(False, witness="quotient is not a monomial")
        ((_, qcoef),) = quotient.terms.items()
        return PropertyResult(True, {"scalar": qcoef})
    return PropertyResult(False, witness=witness or "all charts degenerate")


# ---------------------------------------------------------------------------
# dynamics of parameter self-maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynamicsReport:
    multiplicities: tuple
    critical_values: tuple
    complete: bool
    wronskian_degree: int


def dynamics_report(rmap: RationalSelfMap, candidates=()) -> DynamicsReport:
    """Check a claimed critical set against the Wronskian of the map.

    The report is complete when the candidates are distinct roots whose
    multiplicities exhaust the Wronskian degree, so no critical point
    exists outside the claimed set.
    """
    w = rmap.wronskian()
    candidates = tuple(candidates)
    if w.degree() == 0:
        return DynamicsReport((), (), not candidates, 0)
    wd = convert_domain(w, candidates[0].domain) if candidates else w
    mults = tuple(root_multiplicity(wd, c.t0, c.t1) for c in candidates)
    complete = (
        sum(mults) == w.degree()
        and all(m >= 1 for m in mults)
        and len(set(candidates)) == len(candidates)
    )
    values = tuple(rmap.apply(c) for c in candidates)
    return DynamicsReport(mults, values, complete, w.degree())


def dynamics_check() -> PropertyResult:
    """The Hessian map's critical values lie among the triangle parameters,
    and the Cayleyan map's critical values are exactly those parameters."""
    data = hesse_data()
    triangle = set(data.triangle_parameters)
    rep_h = dynamics_report(hessian_map(), data.equianharmonic_parameters)
    rep_c = dynamics_report(cayleyan_map(), data.triangle_parameters)
    if rep_h.wronskian_degree != 4:
        reason = f"Hessian map Wronskian degree {rep_h.wronskian_degree}, expected 4"
    elif not (rep_h.complete and rep_c.complete):
        reason = "a critical-point count is incomplete"
    elif not set(rep_h.critical_values) <= triangle:
        reason = "a Hessian map critical value is not a triangle parameter"
    elif set(rep_c.critical_values) != triangle:
        reason = "Cayleyan map critical values differ from the triangle parameters"
    else:
        witness = {
            "hessian_multiplicities": rep_h.multiplicities,
            "cayleyan_multiplicities": rep_c.multiplicities,
        }
        return PropertyResult(True, witness)
    return PropertyResult(False, witness=reason)


# ---------------------------------------------------------------------------
# the degree-nine self-map built from the contact cubics
# ---------------------------------------------------------------------------


def halphen_map_check() -> PropertyResult:
    """Verify that the plane map with coordinates (product of the second
    quartet of contact cubics, product of the first quartet, xyz times
    the two diagonal cubics) multiplies both pencil generators by one
    common degree-24 cofactor: the product of all eight contact cubics.

    Pulling back along the map therefore rescales every member equation
    by the same polynomial, so the induced parameter map is the identity
    and each member (in particular each triangle) is carried into itself.
    The pullbacks do not lie in the subring generated by the two pencil
    forms; the shared cofactor is the precise statement."""
    data = hesse_data()
    b = data.halphen_cubics
    phi0 = convert_domain(b[5] * b[6] * b[7], QQ)
    phi1 = convert_domain(b[1] * b[2] * b[3], QQ)
    phi2 = convert_domain(
        data.coordinate_product * b[0] * b[4], QQ
    )
    s_pull = phi0**3 + phi1**3 + phi2**3
    t_pull = phi0 * phi1 * phi2
    s, t = pencil_forms(QQ)
    product = b[0]
    for cubic in b[1:]:
        product = product * cubic
    cofactor = convert_domain(product, QQ)
    try:
        quot_s = divide_exact(s_pull, s)
        quot_t = divide_exact(t_pull, t)
    except ValueError as exc:
        return PropertyResult(False, witness=str(exc))
    c_s, _ = proportionality(quot_s, cofactor)
    c_t, _ = proportionality(quot_t, cofactor)
    if c_s is None or c_t is None or c_s != c_t:
        return PropertyResult(
            False, witness="pullback cofactors disagree with the eight-cubic product"
        )
    return PropertyResult(
        True,
        {
            "cofactor_degree": cofactor.degree(),
            "pullback_scalars": {"sum_cubes": c_s, "product": c_t},
        },
    )


# ---------------------------------------------------------------------------
# configuration properties
# ---------------------------------------------------------------------------


def incidence_check() -> PropertyResult:
    """The nine base points and twelve inflection lines form a (9_4, 12_3)
    configuration: four lines through each point, three points on each line."""
    data = hesse_data()
    table = incidence_table(data.base_points, data.inflection_lines)
    lines_per_point, points_per_line = table.counts_multiset()
    if lines_per_point != [4] * 9 or points_per_line != [3] * 12:
        return PropertyResult(
            False,
            witness=f"lines per point {lines_per_point} and points per line "
            f"{points_per_line}, expected nine 4s and twelve 3s",
        )
    got = {
        "lines_per_point": sorted(set(lines_per_point)),
        "points_per_line": sorted(set(points_per_line)),
    }
    return PropertyResult(True, got)


def base_point_membership_check() -> PropertyResult:
    """Every base point kills both pencil generators, hence lies on every
    member."""
    data = hesse_data()
    for idx, p in enumerate(data.base_points):
        if data.fermat_cubic.evaluate(p.coords) != 0:
            return PropertyResult(False, witness=f"p{idx} misses the cubic generator")
        if data.coordinate_product.evaluate(p.coords) != 0:
            return PropertyResult(False, witness=f"p{idx} misses the product generator")
    return PropertyResult(True, {"points": len(data.base_points)})


def collinearity_check() -> PropertyResult:
    """The 12 collinear triples of base points are the rows, columns and
    permutation transversals of the 3x3 arrangement, their lines are the
    stored inflection lines, and the incidences are (3 points per line,
    4 lines per point)."""
    data = hesse_data()
    lines = set()
    for triple in collinear_base_triples():
        pts = [data.base_points[i] for i in triple]
        line = line_through(pts[0], pts[1])
        if not line.contains(pts[2]):
            return PropertyResult(False, witness=f"triple {triple} is not collinear")
        labels = [data.labels[i] for i in triple]
        if any(sum(col) % 3 for col in zip(*labels)):
            return PropertyResult(False, witness=f"labels of {triple} do not sum to 0")
        lines.add(line)
    if lines != set(data.inflection_lines):
        return PropertyResult(False, witness="line set differs from the stored 12")
    table = incidence_table(data.base_points, data.inflection_lines)
    if set(table.line_counts) != {3} or set(table.point_counts) != {4}:
        return PropertyResult(False, witness="incidence counts are off")
    return PropertyResult(
        True, {"triples": len(collinear_base_triples()), "lines": len(lines)}
    )


def triangle_member_check() -> PropertyResult:
    """Each triangle, as a product of its three lines, is the pencil
    member at the matching triangle parameter (scalar recorded)."""
    data = hesse_data()
    scalars = []
    for tri, par in zip(data.triangles, data.triangle_parameters):
        prod = tri[0].equation() * tri[1].equation() * tri[2].equation()
        member = par.t0 * data.fermat_cubic + par.t1 * data.coordinate_product
        c, witness = proportionality(prod, member)
        if c is None:
            return PropertyResult(False, witness=f"monomial {witness}")
        scalars.append(c)
    return PropertyResult(True, {"scalars": tuple(scalars)})


def vertex_singularity_check() -> PropertyResult:
    """The 12 stored vertices are exactly the pairwise intersections of
    the triangle lines, and each is a node of its triangle."""
    data = hesse_data()
    found = []
    for tri in data.triangles:
        cubic = tri[0].equation() * tri[1].equation() * tri[2].equation()
        for a in range(3):
            pt = lines_meet(tri[a], tri[(a + 1) % 3])
            if classify_point(cubic, pt) is not SingularityClass.NODE:
                return PropertyResult(False, witness=f"vertex {pt} is not a node")
            found.append(pt)
    if set(found) != set(data.vertices) or len(found) != 12:
        return PropertyResult(False, witness="vertex set mismatch")
    return PropertyResult(True, {"vertices": len(found)})


def polar_avoidance_check() -> PropertyResult:
    """The harmonic polar paired with a base point never contains it, and
    the first one is the line y = z."""
    data = hesse_data()
    K = data.domain
    for idx, (p, line) in enumerate(zip(data.base_points, data.harmonic_polars)):
        if line.contains(p):
            return PropertyResult(False, witness=f"polar {idx} passes through p{idx}")
    expected = ProjLine((K.zero(), K.one(), -K.one()), K)
    if data.harmonic_polars[0] != expected:
        return PropertyResult(False, witness="first polar is not y - z")
    return PropertyResult(True, {"polars": len(data.harmonic_polars)})


def polar_factorization_check() -> PropertyResult:
    """The polar conic of each base point with respect to the generic
    member splits off that point's harmonic polar."""
    data = hesse_data()
    K = data.domain
    x, y, z, t0, t1 = MultiPoly.variables(5, K)
    s = x**3 + y**3 + z**3
    t = x * y * z
    member = t0 * s + t1 * t
    grad = member.gradient((0, 1, 2))
    for idx, (p, line) in enumerate(zip(data.base_points, data.harmonic_polars)):
        conic = (
            p.coords[0] * grad[0] + p.coords[1] * grad[1] + p.coords[2] * grad[2]
        )
        a, bb, c = line.coeffs
        line5 = a * x + bb * y + c * z
        try:
            quotient = divide_exact(conic, line5)
        except ValueError:
            return PropertyResult(False, witness=f"polar of p{idx} has no line factor")
        degs = {sum(e[:3]) for e in quotient.terms}
        if degs != {1}:
            return PropertyResult(False, witness=f"cofactor of p{idx} is not a line")
    return PropertyResult(True, {"points": len(data.base_points)})


# the 13 points of P^2(F_3), each as its canonical integer triple
_F3_POINTS = (
    [(1, a, b) for a in range(3) for b in range(3)]
    + [(0, 1, a) for a in range(3)]
    + [(0, 0, 1)]
)


def _residues_mod3(f: MultiPoly) -> list:
    """The residue mod 3 of f at each point of _F3_POINTS, in integers."""
    terms = [(int(c.rational_value()), e) for e, c in reduce_mod(f, 3).terms.items()]
    return [
        sum(c * x**a * y**b * z**d for c, (a, b, d) in terms) % 3
        for x, y, z in _F3_POINTS
    ]


def char3_check() -> PropertyResult:
    """In characteristic three the pencil degenerates: the cubic-sum
    generator becomes a triple line, only two members are singular, and
    the base locus is three points of multiplicity three.  Each fact is
    checked on integer polynomials reduced mod 3."""
    x, y, z = MultiPoly.variables(3, QQ)
    s = x**3 + y**3 + z**3
    t = x * y * z
    if reduce_mod(s - (x + y + z) ** 3, 3):
        return PropertyResult(False, witness="cubic sum is not a triple line")

    # value and gradient of s and of t mod 3 at each point; a member a*s + b*t
    # is singular at p when all four entries of a*jet_s + b*jet_t vanish
    jet_s = list(zip(*map(_residues_mod3, (s, *s.gradient((0, 1, 2))))))
    jet_t = list(zip(*map(_residues_mod3, (t, *t.gradient((0, 1, 2))))))
    # lambda: (a, b, whether the member is singular somewhere)
    members = {0: (1, 0, True), 1: (1, 1, False), 2: (1, 2, False), "inf": (0, 1, True)}
    for lam, (a, b, want) in members.items():
        singular = any(
            all((a * u + b * v) % 3 == 0 for u, v in zip(js, jt))
            for js, jt in zip(jet_s, jet_t)
        )
        if singular != want:
            return PropertyResult(False, witness=f"member {lam} singularity is off")

    base = [p for p, js, jt in zip(_F3_POINTS, jet_s, jet_t) if js[0] == jt[0] == 0]
    if set(base) != {(1, 2, 0), (0, 1, 2), (1, 0, 2)}:
        points = ", ".join("(%d : %d : %d)" % p for p in base)
        return PropertyResult(False, witness=f"base locus [{points}]")

    # Res_z(s, t) over Z reduces to the resultant over F_3, since the
    # z-degrees 3 and 1 of s and t survive the reduction
    res = resultant_in_var(s, t, 2)
    expected = (x * y * (x + y)) ** 3
    for c in (1, 2):
        if not reduce_mod(res - c * expected, 3):
            return PropertyResult(
                True, {"base_points": 3, "projection_scalar": QQ.coerce(c)}
            )
    lead = reduce_mod(res - expected, 3).leading()[0]
    return PropertyResult(False, witness=f"monomial {lead}")


def cuspidal_sextic_check() -> PropertyResult:
    """The cuspidal sextic has a cusp at each of the eight base points
    away from p0, and p0 itself lies off the curve."""
    data = hesse_data()
    curve = data.invariants["cuspidal_sextic"]
    if not curve.evaluate(data.base_points[0].coords):
        return PropertyResult(False, witness="p0 lies on the cuspidal sextic")
    for idx in range(1, 9):
        kind = classify_point(curve, data.base_points[idx])
        if kind is not SingularityClass.CUSP:
            return PropertyResult(False, witness=f"p{idx} is {kind.name}, not a cusp")
    return PropertyResult(True, {"cusps": 8})


def hessian_duality_check() -> PropertyResult:
    """Composing the Hessian parameter map with lambda -> -18/lambda gives
    the Cayleyan parameter map."""
    composed = hessian_map().compose(parameter_flip())
    same, scalar = composed.same_map(cayleyan_map())
    if not same:
        return PropertyResult(False, witness="maps differ")
    literal = composed == cayleyan_map()
    return PropertyResult(True, {"cross_scalar": scalar, "literal": literal})


# ---------------------------------------------------------------------------
# the j-invariant and the discriminant
# ---------------------------------------------------------------------------


def j_values_check() -> PropertyResult:
    """j vanishes at the four equianharmonic members, and j - 1728 is a
    square multiple of the sextic coefficient form."""
    a, b = _quartic_sextic_forms()
    # j = 6912 A^3 / discriminant, so j = 0 where A vanishes on a smooth member
    for t in hesse_data().equianharmonic_parameters:
        if member_is_singular(t) or convert_domain(a, t.domain).evaluate(t.pair()):
            return PropertyResult(False, witness=f"j({t!r}) is not 0")
    # j - 1728 is a square multiple of the sextic coefficient form, so
    # the harmonic members are exactly the zeros of that form
    lhs = 6912 * a**3 - 1728 * (4 * a**3 + 27 * b**2)
    diff = lhs + 46656 * b**2
    if diff:
        return PropertyResult(False, witness="square-multiple identity failed")
    return PropertyResult(True, {"equianharmonic_j": 0, "square_multiple": -46656})


def singular_parameters_check() -> PropertyResult:
    """The discriminant vanishes at the four triangle parameters and at no
    sampled smooth member."""
    data = hesse_data()
    for t in data.triangle_parameters:
        if not member_is_singular(t):
            return PropertyResult(
                False, witness="discriminant nonzero at a triangle parameter"
            )
    for lam in (Fraction(0), Fraction(1), Fraction(-6)):
        if member_is_singular(PencilParameter.from_affine(lam)):
            return PropertyResult(False, witness=f"unexpected singular member at {lam}")
    return PropertyResult(True, {"singular_parameters": 4})
