"""Plane projective transformations and the finite groups they generate.

A transformation is its linear lift, a 3x3 matrix over a field tower
exactly as supplied; it acts on points, forms and other transformations
through that matrix, and products take the domain's fused ``dot``, one
reduction per entry.  The image of a vector goes through the nonzero
entries of each row, kept from construction: a lone entry one costs no
product, a lone entry one product and a longer row one ``dot``.  Every
finite group here is the permutation group its generators induce on a
finite set, grown as an orbit and faithful for a reason that each caller
gives: a projective group permutes an invariant point set holding a frame
(four points, no three collinear), and a projective map fixing a frame is
the identity, so each generator's raw image of a point is matched to the
labelled point it is a multiple of; a linear group permutes the orbit of
the seed vectors its caller gives, and is faithful when that orbit spans,
since a linear map fixing a spanning set is the identity (the
determinant-one group is seeded at the flex p_0, an orbit of 81 vectors
against 216 for the basis, and the Heisenberg group at the standard
basis, 9 against 27); the Moebius maps of the pencil parameter permute
the four triangle parameters, and a Moebius map fixing three points is
the identity.  The permutations are closed by Dimino's coset closure (G.
Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559, 1991,
ch. 7), at about one product per element.  The module also records
how the groups act on polynomial forms, on the pencil parameter, and on
the holomorphic 2-form of the double cover w^2 + (degree-six invariant)
= 0, and ends with the registered group checks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Sequence

from .field import tower_eps, tower_zeta9
from .hesse import (
    PencilParameter,
    PropertyResult,
    _expect,
    _measure,
    hesse_data,
    pencil_forms,
)
from .multipoly import (
    MultiPoly,
    convert_domain,
    det_generic,
    field_linsolve,
    field_rref,
    proportionality,
)
from .plane import ProjPoint, _cross, _known_point


# ---------------------------------------------------------------------------
# bare matrix arithmetic over a scalar domain; determinants and inverses
# are multipoly's det_generic and field_rref
# ---------------------------------------------------------------------------


def _mat_coerce(rows, domain) -> tuple:
    out = tuple(tuple(domain.coerce(v) for v in row) for row in rows)
    if len(out) != 3 or any(len(r) != 3 for r in out):
        raise ValueError("expected a 3x3 matrix")
    return out


def _mat_mul(a: tuple, b: tuple, domain) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(domain.dot(row, col) for col in cols) for row in a)


# ---------------------------------------------------------------------------
# permutation groups
# ---------------------------------------------------------------------------


# every group and orbit here is finite and far smaller; a generator of
# infinite order raises instead of running on
_CAP = 2000


@dataclass(frozen=True)
class PermImage:
    """A finite group as the permutations its generators induce on a
    finite set, numbered 0..n-1.

    A permutation is the tuple of images of 0..n-1; a after b is a[b[i]].
    """

    gens: tuple  # the generators' permutations
    elements: tuple  # sorted permutation tuples

    @property
    def order(self) -> int:
        return len(self.elements)

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        return tuple(map(a.__getitem__, b))


def _induced_permutations(act: Callable, gens: Sequence, seeds: Sequence) -> tuple:
    """The orbit of the seeds under the generators and the permutation
    each generator induces on it, as (orbit, permutations).

    act(g, x) is the image of x under g, and x must be hashable.  The
    orbit lists the distinct seeds in order and then each new image in
    the order it is found.  Raises ValueError once the orbit passes _CAP
    elements, so an orbit that never closes, as that of a basis under a
    linear map of infinite order, ends.
    """
    orbit = list(dict.fromkeys(seeds))
    index = {x: i for i, x in enumerate(orbit)}
    images = [[] for _ in gens]
    for x in orbit:  # the orbit grows while it is read
        for g, perm in zip(gens, images):
            y = act(g, x)
            i = index.get(y)
            if i is None:
                if len(orbit) == _CAP:
                    raise ValueError(f"group closure exceeded cap {_CAP}")
                i = index[y] = len(orbit)
                orbit.append(y)
            perm.append(i)
    return orbit, [tuple(perm) for perm in images]


def _closure(gens: Sequence[tuple]) -> set:
    """The group the permutations generate, by Dimino's coset closure
    (G. Butler, *Fundamental Algorithms for Permutation Groups*, LNCS 559,
    1991, ch. 7).

    From the trivial group {tuple(range(n))}, each generator not yet
    present extends the group H built so far to a union of right cosets
    H r: the closure tests r s for every coset representative r and every
    generator s used so far, and adds the coset H (r s) when r s is new.
    That costs about one product per element plus one per representative
    and generator.  The size is checked against _CAP after every coset.
    """
    mul = PermImage.mul
    elements = [tuple(range(len(gens[0])))]
    members = set(elements)
    used = []

    def add_coset(sub: list, r) -> None:
        coset = [r] + [mul(h, r) for h in sub[1:]]
        elements.extend(coset)
        members.update(coset)
        if len(elements) > _CAP:
            raise ValueError(f"group closure exceeded cap {_CAP}")

    for g in gens:
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


def _sparse_rows(lift: tuple) -> tuple:
    """Each row of the lift as (indices, entries) of its nonzero entries,
    with entries None for a lone entry one."""
    rows = []
    for row in lift:
        js, cs = zip(*((j, c) for j, c in enumerate(row) if c))
        rows.append((js, None if len(js) == 1 and cs[0] == 1 else cs))
    return tuple(rows)


class ProjTransform:
    """An invertible map of the projective plane, given by its linear lift.

    ``lift`` is the matrix exactly as supplied, and every action goes
    through it, so scaled copies of one projective map carry distinct
    linear data.  The nonzero entries of its rows are kept from
    construction for `image`.
    """

    __slots__ = ("lift", "domain", "_rows")

    def __init__(self, rows, domain):
        lift = _mat_coerce(rows, domain)
        if not det_generic(lift):
            raise ValueError("transformation must be invertible")
        object.__setattr__(self, "lift", lift)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_rows", _sparse_rows(lift))

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
        K = self.domain
        unit = [[K.one() if i == j else K.zero() for j in range(3)] for i in range(3)]
        rows, _ = field_rref([list(row) + e for row, e in zip(self.lift, unit)])
        return ProjTransform([row[3:] for row in rows], K)

    def det(self):
        return det_generic(self.lift)

    def image(self, coords) -> tuple:
        """The lift times coords: raw coordinates of the image, unnormalised.

        Each coordinate is made from the nonzero entries of its row: a lone
        entry one takes no product, a lone entry one product, and a longer
        row one ``dot`` over its entries, so a monomial lift costs at most
        one product per coordinate."""
        return self._image(tuple(map(self.domain.coerce, coords)))

    def _image(self, v: tuple) -> tuple:
        """`image` of a vector whose entries are in the domain already."""
        dot = self.domain.dot
        return tuple(
            dot(cs, [v[j] for j in js]) if len(js) > 1
            else v[js[0]] if cs is None
            else cs[0] * v[js[0]]
            for js, cs in self._rows
        )

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.image(p.coords), self.domain)

    def pullback(self, f: MultiPoly) -> MultiPoly:
        """f composed with the lift, i.e. substitute the linear images."""
        f = convert_domain(f, self.domain)
        x, y, z = MultiPoly.variables(3, self.domain)
        images = [row[0] * x + row[1] * y + row[2] * z for row in self.lift]
        return f.substitute(images)

    def __repr__(self):
        return f"ProjTransform({self.lift!r})"


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


@lru_cache(maxsize=None)
def hessian_group_generators() -> MappingProxyType:
    """The five classical plane transformations preserving the pencil, over
    Q(eps), built once and handed out as a read-only mapping.

    swap:    (x, y, z) -> (x, z, y)
    cycle:   (x, y, z) -> (y, z, x)
    scale:   diag(1, e, e^2)        for e a primitive cube root of unity
    fourier: the symmetric matrix of cube roots (rows 1,1,1 / 1,e,e^2 /
             1,e^2,e); its square is swap
    dilate:  diag(1, e, e)
    """
    K = tower_eps()
    return MappingProxyType(_classical_generators(K, K.symbol_element("eps")))


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


# the seeds of the Heisenberg closure, whose orbit of 9 vectors is
# smaller than the 27 of p_0
_STANDARD_BASIS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _spans(vectors) -> bool:
    """Whether the vectors span the space of triples: a first nonzero u,
    a first v with u x v nonzero, then some w with det(u, v, w) nonzero.
    Every vector read before v is a multiple of u, so one pass decides."""
    rest = iter(vectors)
    u = next((x for x in rest if any(x)), None)
    v = None if u is None else next((x for x in rest if any(_cross(u, x))), None)
    return v is not None and any(det_generic((u, v, w)) for w in rest)


def generate_closure(gens: Sequence[ProjTransform], seeds: Sequence) -> PermImage:
    """The linear group the generators' lifts generate, as the
    permutations they induce on the orbit of the seed vectors, coordinate
    triples coerced into the generators' domain.

    A linear map that fixes a spanning set is the identity, so the image
    is faithful once the orbit spans (`_spans`), and the orbit is finite
    exactly when the group is.  The caller picks seeds with a small
    spanning orbit.  Raises ValueError when the orbit does not span, and
    when it passes _CAP vectors."""
    if not gens:
        raise ValueError("need at least one generator")
    K = gens[0].domain
    seeds = [tuple(map(K.coerce, v)) for v in seeds]
    orbit, perms = _induced_permutations(ProjTransform._image, gens, seeds)
    if not _spans(orbit):
        raise ValueError(
            "the orbit of the seeds does not span, so the action may not be faithful"
        )
    return PermImage(tuple(perms), tuple(sorted(_closure(perms))))


def _element_order(G, m: tuple) -> int:
    """The least k with m^(k+1) = m, which is the order of m in G."""
    power = G.mul(m, m)
    k = 1
    while power != m:
        power = G.mul(power, m)
        k += 1
    return k


def group_facts(G: PermImage) -> dict:
    """Exact combinatorial facts of a permutation group: order, center,
    element orders, abelian."""
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


def _orbits(gens: Sequence[ProjTransform], pts: Sequence[ProjPoint]) -> list:
    """The orbits of the points under the transformations, each listed
    from its first point in pts."""
    orbits = []
    for p in pts:
        if not any(p in orbit for orbit in orbits):
            orbits.append(_induced_permutations(ProjTransform.apply, gens, [p])[0])
    return orbits


def _two_transitive(image: PermImage) -> bool:
    """Whether the group moves the ordered pair (0, 1) to every ordered
    pair of distinct points."""
    n = len(image.gens[0])
    pairs, _ = _induced_permutations(
        lambda g, pair: (g[pair[0]], g[pair[1]]), image.gens, [(0, 1)]
    )
    return len(pairs) == n * (n - 1)


def _frame(pts: Sequence[ProjPoint]):
    """Indices of four of the points no three of which are collinear (by
    exact 3x3 determinants), or None when the points hold no such frame."""

    def collinear(triple) -> bool:
        return not det_generic([pts[i].coords for i in triple])

    quads = combinations(range(len(pts)), 4)
    return next((q for q in quads if not any(map(collinear, combinations(q, 3)))), None)


def action_on_points(
    gens: Sequence[ProjTransform], pts: Sequence[ProjPoint]
) -> PermImage:
    """The permutation group the transformations induce on a labeled
    point list, closed from the generators' permutations alone.

    The image is a copy of the projective group when the points hold a
    frame (`_frame`): an element acting trivially fixes the frame and so
    is the identity.  Each raw image g.image(p) is matched to the point of
    the list it is a multiple of (`_known_point`), with no normalising
    inverse.  Raises ValueError when an image is none of the points, that
    is when a generator does not permute them.
    """
    pts = tuple(pts)
    index = {p: i for i, p in enumerate(pts)}
    perms = []
    for g in gens:
        images = [_known_point(pts, g.image(p.coords)) for p in pts]
        if any(q is None for q in images):
            raise ValueError("group element does not permute the points")
        perms.append(tuple(index[q] for q in images))
    return PermImage(tuple(perms), tuple(sorted(_closure(perms))))


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
    forward through the lift, as the 2x2 matrix ((a, c), (b, d)) sending
    (t0 : t1) to (a*t0 + c*t1 : b*t0 + d*t1).  A scaled lift scales the
    matrix.  Raises ValueError when g does not preserve the pencil."""
    domain = g.domain
    s, t = pencil_forms(domain)
    h = g.inverse()
    fit_s = _pencil_coordinates(h.pullback(s), s, t, domain)
    fit_t = _pencil_coordinates(h.pullback(t), s, t, domain)
    if fit_s is None or fit_t is None:
        raise ValueError("not pencil-preserving")
    a, b = fit_s
    c, d = fit_t
    return ((a, c), (b, d))


def _moebius_image(m: tuple, p: PencilParameter) -> PencilParameter:
    (a, c), (b, d) = m
    return PencilParameter(a * p.t0 + c * p.t1, b * p.t0 + d * p.t1, p.domain)


def parameter_image_order(transforms: Sequence[ProjTransform]) -> int:
    """Order of the group of Moebius maps the transformations induce on the
    parameter line, as the permutations of the orbit of the four triangle
    parameters; a Moebius map fixing three points is the identity."""
    gens = [parameter_action(g) for g in transforms]
    seeds = hesse_data().triangle_parameters
    return len(_closure(_induced_permutations(_moebius_image, gens, seeds)[1]))


def invariance_factor(f: MultiPoly, g: ProjTransform):
    """Scalar c with (f composed with the lift of g) = c*f; raises when f
    is not a relative invariant of g."""
    pull = g.pullback(f)
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
    factor = invariance_factor(hesse_data().invariants["sextic"], g)
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
    if _frame(base_points) is None:
        return PropertyResult(False, witness="the base points hold no frame")
    images = {name: _projective_image(name, base_points) for name in _PROJECTIVE_GROUPS}
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
    facts = group_facts(
        generate_closure([gens["cycle"], gens["scale"]], _STANDARD_BASIS)
    )
    got = {
        "order": facts["order"],
        "abelian": facts["abelian"],
        "center": facts["center_order"],
    }
    return _expect(got, {"order": 27, "abelian": False, "center": 3})


def unit_determinant_check() -> PropertyResult:
    """The determinant-one lifts generate a linear group of order 648,
    closed on the orbit of the flex p_0 (81 vectors)."""
    lifts = unit_determinant_generators()
    dets_one = all(t.det() == t.domain.one() for t in lifts.values())
    # p_0 = (0 : 1 : -1) is rational, so it moves into Q(zeta9) by value
    p0 = [c.rational_value() for c in hesse_data().base_points[0].coords]
    closure = generate_closure(list(lifts.values()), [p0])
    got = {"order": closure.order, "determinants_one": dets_one}
    return _expect(got, {"order": 648, "determinants_one": True})


def permutation_check() -> PropertyResult:
    """The full group acts on the base points faithfully and 2-transitively,
    with order 216, and contains two named permutations."""
    base_points = hesse_data().base_points
    image = _projective_image("full", base_points)
    got = {
        "size": image.order,
        "faithful": _frame(base_points) is not None,
        "two_transitive": _two_transitive(image),
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
    gens = hessian_group_generators()
    translations = [gens[g] for g in _PROJECTIVE_GROUPS["translations"]]
    sizes = sorted(len(o) for o in _orbits(translations, hesse_data().vertices))
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
    measures["fourier_normalized"] = partial(factor, normalized_fourier())
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
