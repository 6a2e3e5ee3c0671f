"""Group closures, actions, invariance factors, cover ratios.

Every group is the permutation group its generators induce on a finite
set: projective groups on the nine base points, linear groups on the orbit
of the seed vectors (the standard basis, or the flex p_0 for the
determinant-one lifts), parameter maps on the four triangle parameters.
Test-local breadth-first closures of matrices are the reference.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesse_lab.field import tower_eps
from hesse_lab.hesse import hesse_data
from hesse_lab.multipoly import QQ, det_generic
from hesse_lab.plane import ProjPoint, line_through, normalize_projective
from hesse_lab.groups import (
    PermImage,
    ProjTransform,
    _CAP,
    _STANDARD_BASIS as BASIS,
    _closure,
    _frame,
    _mat_mul,
    _moebius_image,
    _orbits,
    _two_transitive,
    action_on_points,
    cover_automorphisms,
    form_permutation,
    generate_closure,
    group_facts,
    hessian_group_generators,
    invariance_factor,
    normalized_fourier,
    parameter_action,
    parameter_image_order,
    symplectic_ratio,
    unit_determinant_generators,
)

K = tower_eps()
EPS = K.symbol_element("eps")
GENS = hessian_group_generators()
DATA = hesse_data()

TRANSLATION_GENS = [GENS["cycle"], GENS["scale"]]
HESSIAN_GENS = [GENS["cycle"], GENS["scale"], GENS["fourier"], GENS["dilate"]]
TRANSLATIONS = action_on_points(TRANSLATION_GENS, DATA.base_points)
KERNEL = action_on_points([GENS["swap"], *TRANSLATION_GENS], DATA.base_points)
HESSIAN_GROUP = action_on_points(HESSIAN_GENS, DATA.base_points)
STABILIZER = action_on_points([GENS["fourier"], GENS["dilate"]], DATA.base_points)


def test_scaled_transform_keeps_its_own_lift():
    nf = normalized_fourier()
    assert nf.lift != GENS["fourier"].lift
    with pytest.raises(AttributeError):
        nf.lift = ()


def test_transform_apply_matches_pullback():
    g = GENS["fourier"]
    f = DATA.invariants["sextic"]
    p = DATA.vertices[4]
    image = g.apply(p)
    pulled = g.pullback(f)
    lhs = pulled.evaluate(p.coords)
    rhs = f.evaluate(image.coords)
    # pullback evaluates f at the image point, up to the scalar lost by
    # point canonicalization; both sides vanish or not together
    assert (lhs == 0) == (rhs == 0)


def test_inverse_lift_is_the_inverse_matrix():
    for g in GENS.values():
        assert g.inverse().compose(g).lift == IDENTITY_3X3
        assert g.compose(g.inverse()).lift == IDENTITY_3X3


def test_singular_matrix_rejected():
    one, zero = K.one(), K.zero()
    with pytest.raises(ValueError):
        ProjTransform(((one, one, zero), (one, one, zero), (zero, zero, one)), K)


def test_projective_group_orders():
    assert _frame(DATA.base_points) is not None
    assert TRANSLATIONS.order == 9
    assert KERNEL.order == 18
    assert HESSIAN_GROUP.order == 216
    assert STABILIZER.order == 24


def test_translation_group_facts():
    facts = group_facts(TRANSLATIONS)
    assert facts["order"] == 9
    assert facts["abelian"]
    assert facts["order_histogram"] == {1: 1, 3: 8}


def test_stabilizer_is_binary_tetrahedral():
    facts = group_facts(STABILIZER)
    assert facts["order"] == 24
    assert not facts["abelian"]
    assert facts["order_histogram"] == {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def _perm_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def _is_normal_subgroup(G, H) -> bool:
    """H lies in G, and each generator of G conjugates H into itself."""
    members = set(H.elements)
    return members <= set(G.elements) and all(
        G.mul(G.mul(g, h), _perm_inverse(g)) in members
        for g in G.gens
        for h in H.elements
    )


def test_translations_normal_in_hessian_group():
    assert _is_normal_subgroup(HESSIAN_GROUP, TRANSLATIONS)
    assert _is_normal_subgroup(HESSIAN_GROUP, KERNEL)
    # the order-24 stabilizer of a point is not normal, nor in the translations
    assert not _is_normal_subgroup(HESSIAN_GROUP, STABILIZER)
    assert not _is_normal_subgroup(TRANSLATIONS, STABILIZER)


def _canonical(m):
    """The scalar multiple of a matrix whose first nonzero entry is one."""
    n = len(m[0])
    flat = normalize_projective(v for row in m for v in row)
    return tuple(flat[i : i + n] for i in range(0, len(flat), n))


def _canonical_mul(a, b):
    """The projective product of canonical matrices over Q(eps)."""
    return _canonical(_mat_mul(a, b, K))


def test_closure_cap():
    # the linear lift of fourier has infinite order (its square is 3 swap),
    # as the first generator and as a later one
    for gens in ([GENS["fourier"]], [GENS["cycle"], GENS["fourier"]]):
        with pytest.raises(ValueError, match="exceeded cap 2000"):
            generate_closure(gens, BASIS)


def test_closure_over_the_rationals():
    one, zero = Fraction(1), Fraction(0)
    swap = ProjTransform(((zero, one, zero), (one, zero, zero), (zero, zero, one)), QQ)
    cycle = ProjTransform(((zero, one, zero), (zero, zero, one), (one, zero, zero)), QQ)
    sign = ProjTransform(((-one, zero, zero), (zero, one, zero), (zero, zero, one)), QQ)
    # the coordinate points and (1 : +-1 : +-1), a frame among them
    pts = [
        ProjPoint(coords, QQ)
        for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        + tuple((1, s, t) for s in (1, -1) for t in (1, -1))
    ]
    assert action_on_points([swap, cycle], pts).order == 6
    # signed permutation matrices: 48 linear maps, 24 projective ones
    assert generate_closure([swap, cycle, sign], BASIS).order == 48
    _assert_linear_matches_oracle([swap, cycle, sign])
    image = action_on_points([swap, cycle, sign], pts)
    assert _frame(pts) is not None
    assert image.order == 24
    assert sign.det() == -1
    assert sign.inverse().compose(sign).det() == 1


def _bfs_closure(gens, mul, cap):
    """Reference closure: multiply every element by every generator until
    nothing new appears."""
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in els:
                    els.add(b)
                    new.append(b)
                    if len(els) > cap:
                        raise ValueError(f"group closure exceeded cap {cap}")
        frontier = new
    return els


def _closure_outcome(closure, *args):
    try:
        return closure(*args)
    except ValueError as err:
        return str(err)


def _assert_matches_oracle(perms):
    expected = _closure_outcome(_bfs_closure, perms, PermImage.mul, _CAP)
    assert _closure_outcome(_closure, perms) == expected


def _matrix_facts(transforms):
    """Order, center, element orders and commutativity of the linear group
    the lifts generate, from the breadth-first closure of the matrices."""
    domain = transforms[0].domain
    lifts = [g.lift for g in transforms]

    def mul(a, b):
        return _mat_mul(a, b, domain)

    elements = _bfs_closure(lifts, mul, _CAP)
    identity = tuple(
        tuple(domain.one() if i == j else domain.zero() for j in range(3))
        for i in range(3)
    )
    # m^k has order n / gcd(n, k) when m has order n
    orders = {}
    for m in elements:
        if m not in orders:
            powers = [m]
            while powers[-1] != identity:
                powers.append(mul(powers[-1], m))
            n = len(powers)
            for k, power in enumerate(powers, 1):
                orders.setdefault(power, n // gcd(n, k))
    return {
        "order": len(elements),
        "center_order": sum(
            all(mul(m, g) == mul(g, m) for g in lifts) for m in elements
        ),
        "order_histogram": dict(sorted(Counter(orders.values()).items())),
        "abelian": all(mul(a, b) == mul(b, a) for a in lifts for b in lifts),
    }


def _assert_linear_matches_oracle(transforms):
    expected = _closure_outcome(_matrix_facts, transforms)
    got = _closure_outcome(
        lambda gens: group_facts(generate_closure(gens, BASIS)), transforms
    )
    assert got == expected
    return got


IDENTITY_3X3 = tuple(
    tuple(K.one() if i == j else K.zero() for j in range(3)) for i in range(3)
)


# projectively each generator is its permutation of the base points; the
# linear lift of fourier has infinite order, so linear draws leave it out
# and test_fourier_lift_exceeds_the_cap_in_both_closures covers it
@settings(max_examples=20, deadline=None)
@given(projective=st.booleans(), data=st.data())
def test_closure_matches_breadth_first_oracle(projective, data):
    pool = sorted(GENS) if projective else sorted(set(GENS) - {"fourier"})
    names = data.draw(
        st.lists(st.sampled_from(pool + ["identity"]), min_size=1, max_size=6)
    )
    if projective:
        elements = {
            name: action_on_points([g], DATA.base_points).gens[0]
            for name, g in GENS.items()
        }
        elements["identity"] = tuple(range(9))
        _assert_matches_oracle([elements[name] for name in names])
    else:
        elements = {**GENS, "identity": ProjTransform(IDENTITY_3X3, K)}
        _assert_linear_matches_oracle([elements[name] for name in names])


@pytest.mark.parametrize("position", range(len(GENS)))
def test_fourier_lift_exceeds_the_cap_in_both_closures(position):
    # its square is 3 swap, so the oracle and generate_closure both stop at
    # the cap wherever fourier stands among the generators
    names = sorted(set(GENS) - {"fourier"})
    names.insert(position, "fourier")
    outcome = _assert_linear_matches_oracle([GENS[name] for name in names])
    assert outcome == "group closure exceeded cap 2000"


@lru_cache(maxsize=None)
def _unit_determinant_facts():
    return _matrix_facts(list(unit_determinant_generators().values()))


def test_unit_determinant_closure_matches_oracle():
    lifts = list(unit_determinant_generators().values())
    expected = _unit_determinant_facts()
    assert expected["order"] == 648
    assert group_facts(generate_closure(lifts, BASIS)) == expected
    assert group_facts(generate_closure(lifts[::-1], BASIS)) == expected


# the flex p_0 = (0 : 1 : -1), rational, as a vector of any domain
P0 = tuple(c.rational_value() for c in DATA.base_points[0].coords)


def test_unit_determinant_closure_seeded_at_the_flex():
    # p_0 spans with an orbit of 81 vectors, against 216 for the basis
    lifts = list(unit_determinant_generators().values())
    for gens in (lifts, lifts[::-1]):
        closure = generate_closure(gens, [P0])
        assert len(closure.gens[0]) == 81
        assert closure.order == 648
        assert group_facts(closure) == _unit_determinant_facts()
    assert len(generate_closure(lifts, BASIS).gens[0]) == 216


def test_closure_rejects_seeds_whose_orbit_does_not_span():
    # swap sends p_0 to -p_0, an orbit on one line; with scale the orbit
    # spans only the plane x = 0
    for names in (["swap"], ["swap", "scale"]):
        with pytest.raises(ValueError, match="orbit of the seeds does not span"):
            generate_closure([GENS[name] for name in names], [P0])


_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def _eps_elements(draw):
    kind = draw(st.sampled_from(("zero", "one", "general")))
    if kind == "zero":
        return K.zero()
    if kind == "one":
        return K.one()
    return draw(_RATIONALS) + draw(_RATIONALS) * EPS


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(_eps_elements(), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(_eps_elements(), min_size=3, max_size=3),
)
def test_sparse_image_matches_the_dense_product(rows, v):
    assume(det_generic(rows))
    g = ProjTransform(rows, K)
    assert g.image(v) == tuple(K.dot(row, v) for row in g.lift)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.permutations(range(n)).map(tuple), min_size=1, max_size=4
        )
    )
)
def test_permutation_closure_matches_oracle(perms):
    _assert_matches_oracle(perms)


def test_infinite_order_generator_exceeds_cap():
    one, zero = Fraction(1), Fraction(0)
    stretch = ProjTransform(
        ((2 * one, zero, zero), (zero, one, zero), (zero, zero, one)), QQ
    )
    cycle = ProjTransform(
        ((zero, one, zero), (zero, zero, one), (one, zero, zero)), QQ
    )
    # the orbit of the basis never closes, whichever generator comes first
    for gens in ([stretch, cycle], [cycle, stretch]):
        with pytest.raises(ValueError, match="exceeded cap 2000"):
            generate_closure(gens, BASIS)


def test_heisenberg_lift():
    heis = generate_closure(TRANSLATION_GENS, BASIS)
    facts = group_facts(heis)
    assert facts["order"] == 27
    assert not facts["abelian"]
    assert facts["center_order"] == 3
    assert facts["order_histogram"] == {1: 1, 3: 26}
    _assert_linear_matches_oracle(TRANSLATION_GENS)


def test_unit_determinant_closure():
    lifts = unit_determinant_generators()
    for t in lifts.values():
        assert t.det() == t.domain.one()
    big = generate_closure(list(lifts.values()), BASIS)
    assert big.order == 648


def test_seventy_two_normal_subgroup():
    twisted = GENS["dilate"].compose(GENS["fourier"]).compose(GENS["dilate"].inverse())
    h72 = action_on_points(
        [*TRANSLATION_GENS, GENS["fourier"], twisted], DATA.base_points
    )
    assert h72.order == 72
    assert _is_normal_subgroup(HESSIAN_GROUP, h72)


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def test_base_point_action_two_transitive():
    image = HESSIAN_GROUP
    assert image.order == 216
    assert _frame(DATA.base_points) is not None
    assert _two_transitive(image)
    assert (3, 0, 6, 1, 7, 4, 8, 5, 2) in image.elements  # (031)(475)(682)
    assert (0, 4, 8, 3, 7, 2, 6, 1, 5) in image.elements  # (147)(285)


def test_vertex_orbits_under_translations():
    assert _frame(DATA.vertices) is not None
    assert sorted(len(o) for o in _orbits(TRANSLATION_GENS, DATA.vertices)) == [3] * 4
    assert not _two_transitive(action_on_points(TRANSLATION_GENS, DATA.vertices))


def _action_by_every_element(gens, pts):
    """Reference permutation image: close the canonical matrices breadth
    first, then apply each element to each point.  The classical
    generators' lifts are canonical already."""
    lookup = {p: i for i, p in enumerate(pts)}
    matrices = _bfs_closure([g.lift for g in gens], _canonical_mul, 300)
    perms = {
        tuple(lookup[ProjTransform(m, K).apply(p)] for p in pts) for m in matrices
    }
    return tuple(sorted(perms)), len(matrices)


def test_action_from_generators_matches_every_element():
    for gens in (HESSIAN_GENS, TRANSLATION_GENS):
        for pts in (DATA.vertices, DATA.base_points):
            image = action_on_points(gens, pts)
            perms, order = _action_by_every_element(gens, pts)
            assert image.elements == perms
            assert _frame(pts) is not None
            assert image.order == order


def test_action_requires_closed_point_set():
    with pytest.raises(ValueError):
        action_on_points(TRANSLATION_GENS, DATA.base_points[:2])


def _no_three_collinear(pts) -> bool:
    return all(not line_through(a, b).contains(c) for a, b, c in combinations(pts, 3))


def test_frame_among_base_points_and_vertices():
    for pts in (DATA.base_points, DATA.vertices):
        quad = _frame(pts)
        assert quad is not None
        assert len(set(quad)) == 4
        assert _no_three_collinear([pts[i] for i in quad])


def test_no_frame_is_not_certified_faithful():
    # the translations permute the three coordinate vertices only cyclically,
    # and three points hold no frame: the image has order 3, not 9
    triangle = DATA.vertices[:3]
    assert set(triangle) == {
        ProjPoint(c, K) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    }
    assert _frame(triangle) is None
    image = action_on_points(TRANSLATION_GENS, triangle)
    assert image.order == 3
    # a frame is four points, no three of them on a line
    line_and_point = [
        ProjPoint(c, K) for c in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1))
    ]
    assert _frame(line_and_point) is None


def test_contact_cubic_permutations():
    perm, scalars = form_permutation(GENS["fourier"], DATA.halphen_cubics)
    assert perm == (1, 4, 7, 2, 5, 0, 3, 6)  # (121'2')(434'3')
    perm, scalars = form_permutation(GENS["dilate"], DATA.halphen_cubics)
    assert perm == (0, 3, 1, 2, 4, 7, 5, 6)  # (243)(2'4'3')
    perm, scalars = form_permutation(GENS["swap"], DATA.halphen_cubics)
    assert perm == (4, 5, 6, 7, 0, 1, 2, 3)  # pairs swap


# ---------------------------------------------------------------------------
# parameter action
# ---------------------------------------------------------------------------


IDENTITY_2X2 = ((K.one(), K.zero()), (K.zero(), K.one()))


def test_kernel_acts_trivially_on_parameters():
    for name in ("swap", "cycle", "scale"):
        assert parameter_action(GENS[name]) == IDENTITY_2X2, name


def test_parameter_image_order_twelve():
    assert parameter_image_order(HESSIAN_GENS) == 12
    # the canonical 2x2 matrices close to the same order
    gens = [_canonical(parameter_action(g)) for g in HESSIAN_GENS]
    assert len(_bfs_closure(gens, _canonical_mul, _CAP)) == 12


def test_parameter_action_permutes_special_sets():
    triangle = set(DATA.triangle_parameters)
    equi = set(DATA.equianharmonic_parameters)
    for name in ("fourier", "dilate"):
        act = parameter_action(GENS[name])
        assert {_moebius_image(act, p) for p in triangle} == triangle
        assert {_moebius_image(act, p) for p in equi} == equi


def test_parameter_action_orders():
    f = parameter_action(GENS["fourier"])
    assert f != IDENTITY_2X2
    assert _canonical_mul(f, f) == IDENTITY_2X2
    d = parameter_action(GENS["dilate"])
    assert d != IDENTITY_2X2
    assert _canonical_mul(_canonical_mul(d, d), d) == IDENTITY_2X2


def test_non_pencil_preserving_rejected():
    one, zero = K.one(), K.zero()
    shear = ProjTransform(((one, one, zero), (zero, one, zero), (zero, zero, one)), K)
    with pytest.raises(ValueError):
        parameter_action(shear)


# ---------------------------------------------------------------------------
# invariance factors
# ---------------------------------------------------------------------------


def test_sextic_invariance_factors():
    sextic = DATA.invariants["sextic"]
    for name in ("cycle", "scale", "dilate"):
        assert invariance_factor(sextic, GENS[name]) == K.one()
    assert invariance_factor(sextic, normalized_fourier()) == K.one()
    assert invariance_factor(sextic, GENS["fourier"]) == -27 * K.one()


def test_polar_product_factors():
    nonic = DATA.invariants["polar_product"]
    assert invariance_factor(nonic, GENS["swap"]) == -K.one()
    assert invariance_factor(nonic, GENS["cycle"]) == K.one()
    assert invariance_factor(nonic, GENS["dilate"]) == K.one()


def test_twelve_line_form_strictly_relative():
    lines = DATA.invariants["inflection_line_product"]
    assert invariance_factor(lines, GENS["scale"]) == K.one()
    assert invariance_factor(lines, GENS["dilate"]) == EPS * EPS
    assert invariance_factor(lines, normalized_fourier()) == K.one()


def test_equianharmonic_product_invariant():
    quartic = DATA.invariants["equianharmonic_product"]
    for name in ("swap", "cycle", "scale", "dilate"):
        assert invariance_factor(quartic, GENS[name]) == K.one()


def test_factors_multiplicative():
    lines = DATA.invariants["inflection_line_product"]
    g, h = GENS["dilate"], GENS["fourier"]
    combined = invariance_factor(lines, g.compose(h))
    assert combined == invariance_factor(lines, g) * invariance_factor(lines, h)


def test_invariance_failure_witness():
    from hesse_lab.multipoly import MultiPoly

    x, _, _ = MultiPoly.variables(3, K)
    with pytest.raises(ValueError):
        invariance_factor(x**3, GENS["fourier"])


# ---------------------------------------------------------------------------
# symplectic ratios on the double cover
# ---------------------------------------------------------------------------


def test_symplectic_generators_ratio_one():
    lifts = cover_automorphisms()
    for name in ("cycle", "scale", "fourier", "twisted_fourier"):
        assert symplectic_ratio(*lifts[name]) == K.one(), name


def test_dilate_lifts_are_non_symplectic_cube_roots():
    lifts = cover_automorphisms()
    ratio = symplectic_ratio(*lifts["dilate"])
    ratio_sq = symplectic_ratio(*lifts["dilate_square"])
    assert ratio == EPS * EPS == -1 - EPS
    assert ratio_sq == EPS
    assert ratio * ratio_sq == K.one()


def test_wrong_cover_scalar_rejected():
    with pytest.raises(ValueError):
        symplectic_ratio(GENS["dilate"], EPS)


def test_hessian_generators_are_built_once_and_read_only():
    gens = hessian_group_generators()
    assert gens is hessian_group_generators()
    with pytest.raises(TypeError):
        gens["swap"] = gens["cycle"]
    # a caller that wants other generators builds a new dict
    assert {**gens, "swap": gens["cycle"]}["swap"] is gens["cycle"]
