"""Plane projective transformations and the finite groups they generate.

Transformations are 3x3 matrices over a field tower, compared up to
scalar via a canonical representative (first nonzero entry scaled to
one) while keeping the exact linear lift that was supplied; products
take the domain's fused ``dot``, one reduction per entry.  A projective
group is closed as the permutations its generators induce on an
invariant point set holding a frame (four points, no three collinear):
a projective map fixing a frame is the identity, so the permutations are
faithful.  A linear group is closed as the matrices of the lifts.  Both,
and the 2x2 Moebius maps of the pencil parameter, go through Dimino's
coset closure (G. Butler, *Fundamental Algorithms for Permutation
Groups*, LNCS 559, 1991, ch. 7), at about one product per element.  The
module also records how the groups act on polynomial forms, on the
pencil parameter, and on the holomorphic 2-form of the double cover
w^2 + (degree-six invariant) = 0, and ends with the registered group
checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from typing import Callable, Sequence

from .field import tower_eps, tower_zeta9
from .hesse import PropertyResult, _expect, _measure, hesse_data, pencil_forms
from .multipoly import MultiPoly, convert_domain, field_linsolve, proportionality
from .plane import ProjPoint, normalize_projective


# ---------------------------------------------------------------------------
# bare matrix arithmetic over a scalar domain
# ---------------------------------------------------------------------------


def _mat_coerce(rows, domain) -> tuple:
    out = tuple(tuple(domain.coerce(v) for v in row) for row in rows)
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise ValueError("expected a 3x3 matrix")
    return out


def _mat_mul(a: tuple, b: tuple, domain) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(domain.dot(row, col) for col in cols) for row in a)


def _cofactor(m: tuple, i: int, j: int, domain):
    """The (i, j) cofactor of a 3x3 matrix."""
    r, s = m[(i + 1) % 3], m[(i + 2) % 3]
    return domain.dot(
        (r[(j + 1) % 3], -r[(j + 2) % 3]), (s[(j + 2) % 3], s[(j + 1) % 3])
    )


def _mat_det(m: tuple, domain):
    return domain.dot(m[0], [_cofactor(m, 0, j, domain) for j in range(3)])


def _mat_inv(m: tuple, domain) -> tuple:
    cof = [[_cofactor(m, i, j, domain) for j in range(3)] for i in range(3)]
    det = domain.dot(m[0], cof[0])
    if det == 0:
        raise ValueError("singular matrix")
    inv = det.inverse()
    return tuple(tuple(cof[j][i] * inv for j in range(3)) for i in range(3))


def _mat_canonical(m: tuple) -> tuple:
    """The scalar multiple of m whose first nonzero entry is one."""
    n = len(m[0])
    flat = normalize_projective(v for row in m for v in row)
    return tuple(flat[i : i + n] for i in range(0, len(flat), n))


# every closure here is finite and far smaller; a generator of infinite
# order raises instead of running on
_CAP = 2000


def _closure(gens: Sequence, mul: Callable, cap: int) -> set:
    """The group the generators generate under mul, by Dimino's coset
    closure (G. Butler, *Fundamental Algorithms for Permutation Groups*,
    LNCS 559, 1991, ch. 7).

    Elements are hashable canonical forms that mul returns (matrices of
    any size, or permutations).  The cyclic group of the first generator
    comes first; its identity is the power x with mul(x, g0) == g0.  Each
    further generator not yet present extends the group H built so far
    to a union of right cosets H r: the closure tests r s for every coset
    representative r and every generator s used so far, and adds the
    coset H (r s) when r s is new.  That costs about one product per
    element plus one per representative and generator.  The cap is
    checked while the cyclic group grows and after every coset, so a
    generator of infinite order raises ValueError.
    """
    g0 = gens[0]
    powers = [g0]
    while True:
        x = mul(powers[-1], g0)
        if x == g0:
            break
        powers.append(x)
        if len(powers) > cap:
            raise ValueError(f"group closure exceeded cap {cap}")
    # the last power is the identity; listing it first makes each coset
    # begin with its representative
    elements = [powers[-1]] + powers[:-1]
    members = set(elements)
    used = [g0]

    def add_coset(sub: list, r) -> None:
        coset = [r] + [mul(h, r) for h in sub[1:]]
        elements.extend(coset)
        members.update(coset)
        if len(elements) > cap:
            raise ValueError(f"group closure exceeded cap {cap}")

    for g in gens[1:]:
        if g in members:
            continue
        used.append(g)
        sub = list(elements)
        add_coset(sub, g)
        start = len(sub)
        while start < len(elements):
            rep = elements[start]
            for s in used:
                x = mul(rep, s)
                if x not in members:
                    add_coset(sub, x)
            start += len(sub)
    return members


# ---------------------------------------------------------------------------
# projective transformations
# ---------------------------------------------------------------------------


class ProjTransform:
    """An invertible map of the projective plane.

    ``rows`` is the canonical scalar representative used for equality
    and hashing; ``lift`` is the matrix exactly as supplied, so scaled
    copies of one projective map carry distinct linear data.
    """

    __slots__ = ("rows", "lift", "domain")

    def __init__(self, rows, domain):
        lift = _mat_coerce(rows, domain)
        if _mat_det(lift, domain) == 0:
            raise ValueError("transformation must be invertible")
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "rows", _mat_canonical(lift))
        object.__setattr__(self, "domain", domain)

    def __setattr__(self, name, value):
        raise AttributeError("ProjTransform is immutable")

    def scaled(self, c) -> "ProjTransform":
        """Same projective map with the lift multiplied by c."""
        c = self.domain.coerce(c)
        return ProjTransform(
            tuple(tuple(c * v for v in row) for row in self.lift), self.domain
        )

    def compose(self, other: "ProjTransform") -> "ProjTransform":
        """self after other, composing the lifts."""
        return ProjTransform(_mat_mul(self.lift, other.lift, self.domain), self.domain)

    def inverse(self) -> "ProjTransform":
        return ProjTransform(_mat_inv(self.lift, self.domain), self.domain)

    def det(self):
        return _mat_det(self.lift, self.domain)

    def apply(self, p: ProjPoint) -> ProjPoint:
        K = self.domain
        coords = tuple(map(K.coerce, p.coords))
        return ProjPoint(tuple(K.dot(row, coords) for row in self.rows), K)

    def pullback(self, f: MultiPoly, use_lift: bool = False) -> MultiPoly:
        """f composed with the map, i.e. substitute the linear images."""
        f = convert_domain(f, self.domain)
        m = self.lift if use_lift else self.rows
        x, y, z = MultiPoly.variables(3, self.domain)
        images = [m[i][0] * x + m[i][1] * y + m[i][2] * z for i in range(3)]
        return f.substitute(images)

    def __eq__(self, other):
        if not isinstance(other, ProjTransform):
            return NotImplemented
        return self.domain == other.domain and self.rows == other.rows

    def __hash__(self):
        return hash((ProjTransform, self.rows))

    def __repr__(self):
        return f"ProjTransform({self.rows!r})"


def _classical_generators(K, e) -> dict:
    """The five classical transformations over K, for e a primitive cube
    root of unity in K."""
    e2 = e * e
    one, zero = K.one(), K.zero()
    rows = {
        "swap": ((one, zero, zero), (zero, zero, one), (zero, one, zero)),
        "cycle": ((zero, one, zero), (zero, zero, one), (one, zero, zero)),
        "scale": ((one, zero, zero), (zero, e, zero), (zero, zero, e2)),
        "fourier": ((one, one, one), (one, e, e2), (one, e2, e)),
        "dilate": ((one, zero, zero), (zero, e, zero), (zero, zero, e)),
    }
    return {name: ProjTransform(m, K) for name, m in rows.items()}


def hessian_group_generators() -> dict:
    """The five classical plane transformations preserving the pencil, over
    Q(eps).

    swap:    (x, y, z) -> (x, z, y)
    cycle:   (x, y, z) -> (y, z, x)
    scale:   diag(1, e, e^2)        for e a primitive cube root of unity
    fourier: the symmetric matrix of cube roots (rows 1,1,1 / 1,e,e^2 /
             1,e^2,e); its square is swap
    dilate:  diag(1, e, e)
    """
    K = tower_eps()
    return _classical_generators(K, K.symbol_element("eps"))


def normalized_fourier() -> ProjTransform:
    """The fourier generator scaled to determinant one by 1/(e - e^2)."""
    e = tower_eps().symbol_element("eps")
    g = hessian_group_generators()["fourier"]
    return g.scaled((e - e * e).inverse())


def unit_determinant_generators() -> dict:
    """Lifts of the four group generators inside the determinant-one
    matrices over Q(zeta9): cycle and scale as they stand, fourier scaled
    by 1/(e-e^2) and dilate scaled by zeta9."""
    K = tower_zeta9()
    z9 = K.symbol_element("zeta9")
    e = z9**3
    gens = _classical_generators(K, e)
    return {
        "cycle": gens["cycle"],
        "scale": gens["scale"],
        "fourier": gens["fourier"].scaled((e - e * e).inverse()),
        "dilate": gens["dilate"].scaled(z9),
    }


# ---------------------------------------------------------------------------
# group closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixGroup:
    """A linear group: the closure of the generators' matrix lifts."""

    elements: frozenset  # matrices as row tuples
    gens: tuple
    domain: object

    @property
    def order(self) -> int:
        return len(self.elements)

    def mul(self, a: tuple, b: tuple) -> tuple:
        return _mat_mul(a, b, self.domain)


def generate_closure(gens: Sequence[ProjTransform]) -> MatrixGroup:
    """The linear group the generators' lifts generate under matrix
    multiplication, by the coset closure of `_closure`."""
    if not gens:
        raise ValueError("need at least one generator")
    domain = gens[0].domain
    lifts = tuple(g.lift for g in gens)
    els = _closure(lifts, lambda a, b: _mat_mul(a, b, domain), _CAP)
    return MatrixGroup(frozenset(els), lifts, domain)


def _element_order(G, m: tuple) -> int:
    """The least k with m^(k+1) = m, which is the order of m in G."""
    power = G.mul(m, m)
    k = 1
    while power != m:
        power = G.mul(power, m)
        k += 1
    return k


def group_facts(G) -> dict:
    """Exact combinatorial facts of a MatrixGroup or a PermImage, through
    the group's own product: order, center, element orders, abelian."""
    abelian = all(G.mul(a, b) == G.mul(b, a) for a in G.gens for b in G.gens)
    center = [
        m for m in G.elements if all(G.mul(m, g) == G.mul(g, m) for g in G.gens)
    ]
    histogram = Counter(_element_order(G, m) for m in G.elements)
    return {
        "order": G.order,
        "center_order": len(center),
        "order_histogram": dict(sorted(histogram.items())),
        "abelian": abelian,
    }


# ---------------------------------------------------------------------------
# actions on points, forms and the pencil parameter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermImage:
    """A projective group as the permutations it induces on a point list.

    A permutation is the tuple of images of 0..n-1; a after b is a[b[i]].
    """

    gens: tuple  # the generators' permutations
    elements: tuple  # sorted permutation tuples
    faithful: bool  # the points hold a frame
    orbits: tuple  # orbits of point indices, each sorted
    two_transitive: bool

    @property
    def order(self) -> int:
        return len(self.elements)

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        return tuple(a[i] for i in b)


def _orbits_under(perms: Sequence[tuple], n: int) -> tuple:
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            i = frontier.pop()
            for p in perms:
                j = p[i]
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        for i in orbit:
            seen[i] = True
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _pair_transitive(perms: Sequence[tuple], n: int) -> bool:
    if n < 2:
        return False
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {p: k for k, p in enumerate(pairs)}
    pair_perms = [
        tuple(index[(p[i], p[j])] for (i, j) in pairs) for p in perms
    ]
    return len(_orbits_under(pair_perms, len(pairs))) == 1


def _frame(pts: Sequence[ProjPoint]):
    """Indices of four of the points no three of which are collinear (by
    exact 3x3 determinants), or None when the points hold no such frame."""

    def collinear(triple) -> bool:
        return _mat_det(tuple(pts[i].coords for i in triple), pts[0].domain) == 0

    quads = combinations(range(len(pts)), 4)
    return next((q for q in quads if not any(map(collinear, combinations(q, 3)))), None)


def action_on_points(
    gens: Sequence[ProjTransform], pts: Sequence[ProjPoint]
) -> PermImage:
    """The permutation group the transformations induce on a labeled
    point list, closed from the generators' permutations alone.

    The image is faithful, a copy of the projective group, when the
    points hold a frame: an element acting trivially fixes the frame and
    so is the identity.  Orbits and two-transitivity are read from the
    generators.  Raises ValueError when a generator does not permute the
    points.
    """
    lookup = {p: i for i, p in enumerate(pts)}
    perms = []
    for g in gens:
        images = tuple(lookup.get(g.apply(p)) for p in pts)
        if None in images:
            raise ValueError("group element does not permute the points")
        perms.append(images)
    return PermImage(
        tuple(perms),
        tuple(sorted(_closure(perms, PermImage.mul, _CAP))),
        faithful=_frame(pts) is not None,
        orbits=_orbits_under(perms, len(pts)),
        two_transitive=_pair_transitive(perms, len(pts)),
    )


def form_permutation(
    g: ProjTransform, forms: Sequence[MultiPoly]
) -> tuple:
    """How the map permutes a list of forms by pushforward.

    Returns (perm, scalars) where form[i] composed with the inverse map
    is scalars[i] times form[perm[i]]; raises if some image is missing.
    """
    h = g.inverse()
    perm = []
    scalars = []
    for f in forms:
        image = h.pullback(f)
        hit = None
        for j, candidate in enumerate(forms):
            c, _ = proportionality(image, candidate)
            if c is not None:
                hit = (j, c)
                break
        if hit is None:
            raise ValueError("map does not permute the forms")
        perm.append(hit[0])
        scalars.append(hit[1])
    return tuple(perm), tuple(scalars)


def _pencil_coordinates(f: MultiPoly, s: MultiPoly, t: MultiPoly, domain):
    monomials = sorted(set(s.terms) | set(t.terms) | set(f.terms))
    matrix = [
        [s.terms.get(m, domain.zero()), t.terms.get(m, domain.zero())]
        for m in monomials
    ]
    rhs = [f.terms.get(m, domain.zero()) for m in monomials]
    return field_linsolve(matrix, rhs, domain)


def parameter_action(g: ProjTransform) -> tuple:
    """The Moebius map induced on the pencil parameter by pushing members
    forward through the transformation, as the canonical 2x2 matrix
    ((a, c), (b, d)) sending (t0 : t1) to (a*t0 + c*t1 : b*t0 + d*t1).
    Raises ValueError when g does not preserve the pencil."""
    domain = g.domain
    s, t = pencil_forms(domain)
    h = g.inverse()
    fit_s = _pencil_coordinates(h.pullback(s), s, t, domain)
    fit_t = _pencil_coordinates(h.pullback(t), s, t, domain)
    if fit_s is None or fit_t is None:
        raise ValueError("not pencil-preserving")
    a, b = fit_s
    c, d = fit_t
    return _mat_canonical(((a, c), (b, d)))


def parameter_image_order(transforms: Sequence[ProjTransform]) -> int:
    """Order of the subgroup of parameter Moebius maps the transformations
    generate."""
    domain = transforms[0].domain
    gens = [parameter_action(g) for g in transforms]
    return len(
        _closure(gens, lambda a, b: _mat_canonical(_mat_mul(a, b, domain)), _CAP)
    )


def invariance_factor(f: MultiPoly, g: ProjTransform, use_lift: bool = False):
    """Scalar c with (f composed with g) = c*f; raises when f is not a
    relative invariant of g."""
    pull = g.pullback(f, use_lift=use_lift)
    c, witness = proportionality(pull, f)
    if c is None:
        raise ValueError(f"not a relative invariant; first mismatch at {witness}")
    return c


# ---------------------------------------------------------------------------
# symplectic ratio on the double cover w^2 + (sextic invariant) = 0
# ---------------------------------------------------------------------------


def cover_automorphisms() -> dict:
    """Named lifts of plane transformations to the double cover, as
    (transform, w scalar) pairs.

    The translation generators, the determinant-one fourier lift and its
    dilate-conjugate leave the sextic invariant and lift with w fixed;
    they have determinant one, so their exact 2-form ratio det(A)/1 is 1
    and they generate the subgroup acting trivially on the 2-form.  The
    two dilate lifts also fix the sextic exactly (the cube roots cancel),
    so the cover constraint forces their w scalar to 1; their ratios are
    their determinants eps^2 = -1 - eps and eps, the two primitive cube
    roots of unity.  `symplectic_ratio` checks each scalar against the
    sextic and returns the ratio as an element of Q(eps).
    """
    one = tower_eps().one()
    gens = hessian_group_generators()
    nf = normalized_fourier()
    twisted = gens["dilate"].compose(nf).compose(gens["dilate"].inverse())
    dilate_square = gens["dilate"].compose(gens["dilate"])
    return {
        "cycle": (gens["cycle"], one),
        "scale": (gens["scale"], one),
        "fourier": (nf, one),
        "twisted_fourier": (twisted, one),
        "dilate": (gens["dilate"], one),
        "dilate_square": (dilate_square, one),
    }


def symplectic_ratio(g: ProjTransform, w_scalar):
    """Pullback ratio of the 2-form dx^dy/w on the double cover, exactly.

    The cover is w^2 + (sextic invariant) = 0 with w of weight three; the
    map acts by the matrix lift A on (x, y, z) and multiplies w by
    ``w_scalar`` = c.  It preserves the cover exactly when the sextic
    pulls back to c^2 times itself, and raises ValueError otherwise.  On
    the chart z = 1 the Jacobian of the induced affine map is
    det(A)/z'^3, where z' is the image's third coordinate, and w pulls
    back to c w/z'^3, so the ratio is det(A)/c, an element of the domain.
    """
    c = g.domain.coerce(w_scalar)
    factor = invariance_factor(hesse_data().invariants["sextic"], g, use_lift=True)
    if factor != c * c:
        raise ValueError(
            f"w scalar {c} does not preserve the cover: the sextic pulls back "
            f"to {factor} times itself, not {c * c}"
        )
    return g.det() / c


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------


# generator names of the projective groups that the group checks close
_PROJECTIVE_GROUPS = {
    "translations": ("cycle", "scale"),
    "kernel": ("swap", "cycle", "scale"),
    "full": ("cycle", "scale", "fourier", "dilate"),
    "stabilizer": ("fourier", "dilate"),
}


def _projective_image(name, pts):
    """The permutations that the named projective group induces on pts."""
    gens = hessian_group_generators()
    return action_on_points([gens[g] for g in _PROJECTIVE_GROUPS[name]], pts)


def orders_check() -> PropertyResult:
    """Orders of the translation, kernel, full and stabilizer groups, and
    the one involution of the stabilizer."""
    base_points = hesse_data().base_points
    images = {name: _projective_image(name, base_points) for name in _PROJECTIVE_GROUPS}
    if not all(image.faithful for image in images.values()):
        return PropertyResult(False, witness="the base points hold no frame")
    got = {name: image.order for name, image in images.items()}
    stab_facts = group_facts(images["stabilizer"])
    got["stabilizer_involutions"] = stab_facts["order_histogram"].get(2, 0)
    return _expect(
        got,
        {
            "translations": 9,
            "kernel": 18,
            "full": 216,
            "stabilizer": 24,
            "stabilizer_involutions": 1,
        },
    )


def heisenberg_check() -> PropertyResult:
    """The linear closure of the translations is nonabelian of order 27
    with a center of order 3."""
    gens = hessian_group_generators()
    facts = group_facts(generate_closure([gens["cycle"], gens["scale"]]))
    got = {
        "order": facts["order"],
        "abelian": facts["abelian"],
        "center": facts["center_order"],
    }
    return _expect(got, {"order": 27, "abelian": False, "center": 3})


def unit_determinant_check() -> PropertyResult:
    """The determinant-one lifts generate a linear group of order 648."""
    lifts = unit_determinant_generators()
    dets_one = all(t.det() == t.domain.one() for t in lifts.values())
    closure = generate_closure(list(lifts.values()))
    got = {"order": closure.order, "determinants_one": dets_one}
    return _expect(got, {"order": 648, "determinants_one": True})


def permutation_check() -> PropertyResult:
    """The full group acts on the base points faithfully and 2-transitively,
    with order 216, and contains two named permutations."""
    image = _projective_image("full", hesse_data().base_points)
    got = {
        "size": image.order,
        "faithful": image.faithful,
        "two_transitive": image.two_transitive,
        "has_triple_cycle": (3, 0, 6, 1, 7, 4, 8, 5, 2) in image.elements,
        "has_double_cycle": (0, 4, 8, 3, 7, 2, 6, 1, 5) in image.elements,
    }
    return _expect(
        got,
        {
            "size": 216,
            "faithful": True,
            "two_transitive": True,
            "has_triple_cycle": True,
            "has_double_cycle": True,
        },
    )


def vertex_orbits_check() -> PropertyResult:
    """The translations split the twelve vertices into four orbits of three."""
    image = _projective_image("translations", hesse_data().vertices)
    sizes = sorted(len(o) for o in image.orbits)
    return _expect({"orbit_sizes": sizes}, {"orbit_sizes": [3, 3, 3, 3]})


def parameter_image_check() -> PropertyResult:
    """The full group acts on the parameter line through a group of order 12."""
    gens = hessian_group_generators()
    order = parameter_image_order(
        [gens["cycle"], gens["scale"], gens["fourier"], gens["dilate"]]
    )
    return _expect({"order": order}, {"order": 12})


def contact_permutations_check() -> PropertyResult:
    """How the two stabilizer generators permute the eight contact cubics."""
    gens = hessian_group_generators()
    cubics = hesse_data().halphen_cubics
    return _measure(
        {
            name: partial(form_permutation, gens[name], cubics)
            for name in ("fourier", "dilate")
        },
        {"fourier": (1, 4, 7, 2, 5, 0, 3, 6), "dilate": (0, 3, 1, 2, 4, 7, 5, 6)},
        lambda got: {name: perm for name, (perm, _) in got.items()},
    )


def sextic_invariance_check() -> PropertyResult:
    """The fundamental sextic is an absolute invariant of the lifted group."""
    gens = hessian_group_generators()
    data = hesse_data()
    factor = partial(invariance_factor, data.invariants["sextic"])
    measures = {
        name: partial(factor, gens[name]) for name in ("cycle", "scale", "dilate")
    }
    measures["fourier_normalized"] = partial(
        factor, normalized_fourier(), use_lift=True
    )
    return _measure(measures, dict.fromkeys(measures, data.domain.one()))


def nonic_invariance_check() -> PropertyResult:
    """The polar-product nonic changes sign under the swap, multiplicatively."""
    gens = hessian_group_generators()
    data = hesse_data()
    factor = partial(invariance_factor, data.invariants["polar_product"])
    swap, cycle = gens["swap"], gens["cycle"]
    return _measure(
        {
            "swap": partial(factor, swap),
            "cycle": partial(factor, cycle),
            "swap*cycle": partial(factor, swap.compose(cycle)),
        },
        {"swap": -data.domain.one(), "multiplicative": True},
        lambda f: {
            "swap": f["swap"],
            "multiplicative": f["swap*cycle"] == f["swap"] * f["cycle"],
        },
    )


def twelve_lines_invariance_check() -> PropertyResult:
    """The product of the twelve inflection lines is a strictly relative
    invariant under the diagonal generator."""
    gens = hessian_group_generators()
    data = hesse_data()
    factor = partial(invariance_factor, data.invariants["inflection_line_product"])
    return _measure(
        {name: partial(factor, gens[name]) for name in ("dilate", "scale")},
        {"dilate": data.eps * data.eps, "scale": data.domain.one()},
    )


def symplectic_check() -> PropertyResult:
    """The 2-form ratios of the cover lifts are 1 and the primitive cube
    roots of unity."""
    data = hesse_data()
    e = data.eps
    one = data.domain.one()
    want = dict.fromkeys(("cycle", "scale", "fourier", "twisted_fourier"), one)
    return _measure(
        {
            name: partial(symplectic_ratio, transform, w_scalar)
            for name, (transform, w_scalar) in cover_automorphisms().items()
        },
        {**want, "dilate": e * e, "dilate_square": e},
    )
