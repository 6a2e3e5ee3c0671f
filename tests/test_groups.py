"""Group closures, actions, invariance factors, cover ratios.

Projective groups are the permutation groups their generators induce on
the nine base points; linear groups are matrix closures of the lifts.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab.field import tower_eps
from hesse_lab.hesse import PencilParameter, hesse_data
from hesse_lab.multipoly import QQ
from hesse_lab.plane import ProjPoint
from hesse_lab.groups import (
    ProjTransform,
    _closure,
    _frame,
    _mat_canonical,
    _mat_det,
    _mat_mul,
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


def test_transform_equality_up_to_scalar():
    nf = normalized_fourier()
    assert nf == GENS["fourier"]
    assert nf.lift != GENS["fourier"].lift
    assert hash(nf) == hash(GENS["fourier"])
    with pytest.raises(AttributeError):
        nf.rows = ()


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


def test_singular_matrix_rejected():
    one, zero = K.one(), K.zero()
    with pytest.raises(ValueError):
        ProjTransform(((one, one, zero), (one, one, zero), (zero, zero, one)), K)


def test_projective_group_orders():
    for G in (TRANSLATIONS, KERNEL, HESSIAN_GROUP, STABILIZER):
        assert G.faithful
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


def _canonical_mul(a, b):
    """The projective product of canonical matrices over Q(eps)."""
    return _mat_canonical(_mat_mul(a, b, K))


def test_closure_cap():
    # the linear lift of fourier has infinite order (its square is 3 swap)
    with pytest.raises(ValueError, match="exceeded cap 2000"):
        generate_closure(list(GENS.values()))
    # the 2x2 parameter maps go through the same closure routine
    gens = [parameter_action(g) for g in HESSIAN_GENS]
    with pytest.raises(ValueError, match="exceeded cap 5"):
        _closure(gens, _canonical_mul, 5)


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
    assert generate_closure([swap, cycle, sign]).order == 48
    image = action_on_points([swap, cycle, sign], pts)
    assert image.faithful
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


def _closure_outcome(closure, gens, mul, cap):
    try:
        return closure(gens, mul, cap)
    except ValueError as err:
        return str(err)


def _assert_matches_oracle(gens, mul, cap):
    expected = _closure_outcome(_bfs_closure, gens, mul, cap)
    assert _closure_outcome(_closure, gens, mul, cap) == expected


IDENTITY_3X3 = tuple(
    tuple(K.one() if i == j else K.zero() for j in range(3)) for i in range(3)
)


# the linear lift of fourier has infinite order (its square is 3 swap), so
# linear generator sets holding it must exceed the cap in both routines;
# projectively each generator is its permutation of the base points
@settings(max_examples=20, deadline=None)
@given(
    names=st.lists(
        st.sampled_from(sorted(GENS) + ["identity"]), min_size=1, max_size=6
    ),
    projective=st.booleans(),
)
def test_closure_matches_breadth_first_oracle(names, projective):
    if projective:
        elements = {
            name: action_on_points([g], DATA.base_points).gens[0]
            for name, g in GENS.items()
        }
        elements["identity"] = tuple(range(9))
        mul = HESSIAN_GROUP.mul
    else:
        elements = {name: g.lift for name, g in GENS.items()}
        elements["identity"] = IDENTITY_3X3

        def mul(a, b):
            return _mat_mul(a, b, K)

    _assert_matches_oracle([elements[name] for name in names], mul, 300)


def test_unit_determinant_closure_matches_oracle():
    generators = unit_determinant_generators()
    lifts = [g.lift for g in generators.values()]

    def mul(a, b):
        return _mat_mul(a, b, generators["cycle"].domain)

    expected = _bfs_closure(lifts, mul, 700)
    assert len(expected) == 648
    assert _closure(lifts, mul, 700) == expected
    assert _closure(lifts[::-1], mul, 700) == expected


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.permutations(range(n)).map(tuple), min_size=1, max_size=4
        )
    )
)
def test_permutation_closure_matches_oracle(perms):
    _assert_matches_oracle(perms, lambda a, b: tuple(a[i] for i in b), 720)


def test_infinite_order_generator_exceeds_cap():
    one, zero = Fraction(1), Fraction(0)
    stretch = ProjTransform(
        ((2 * one, zero, zero), (zero, one, zero), (zero, zero, one)), QQ
    ).lift
    cycle = ProjTransform(
        ((zero, one, zero), (zero, zero, one), (one, zero, zero)), QQ
    ).lift

    def mul(a, b):
        return _mat_mul(a, b, QQ)

    # first generator: the cyclic group never closes
    with pytest.raises(ValueError, match="exceeded cap 50"):
        _closure([stretch, cycle], mul, 50)
    # later generator: the cosets never close
    with pytest.raises(ValueError, match="exceeded cap 50"):
        _closure([cycle, stretch], mul, 50)


def test_heisenberg_lift():
    heis = generate_closure(TRANSLATION_GENS)
    facts = group_facts(heis)
    assert facts["order"] == 27
    assert not facts["abelian"]
    assert facts["center_order"] == 3
    assert facts["order_histogram"] == {1: 1, 3: 26}


def test_unit_determinant_closure():
    lifts = unit_determinant_generators()
    for t in lifts.values():
        assert t.det() == t.domain.one()
    big = generate_closure(list(lifts.values()))
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
    assert image.faithful
    assert image.two_transitive
    assert (3, 0, 6, 1, 7, 4, 8, 5, 2) in image.elements  # (031)(475)(682)
    assert (0, 4, 8, 3, 7, 2, 6, 1, 5) in image.elements  # (147)(285)


def test_vertex_orbits_under_translations():
    image = action_on_points(TRANSLATION_GENS, DATA.vertices)
    assert image.faithful
    assert sorted(len(o) for o in image.orbits) == [3, 3, 3, 3]
    assert not image.two_transitive


def _action_by_every_element(gens, pts):
    """Reference permutation image: close the canonical matrices breadth
    first, then apply each element to each point."""
    lookup = {p: i for i, p in enumerate(pts)}
    matrices = _bfs_closure([g.rows for g in gens], _canonical_mul, 300)
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
            assert image.faithful
            assert image.order == order


def test_action_requires_closed_point_set():
    with pytest.raises(ValueError):
        action_on_points(TRANSLATION_GENS, DATA.base_points[:2])


def _no_three_collinear(pts) -> bool:
    return all(
        _mat_det(tuple(p.coords for p in triple), K) != 0
        for triple in combinations(pts, 3)
    )


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
    assert not image.faithful
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


def apply(m, p):
    (a, c), (b, d) = m
    return PencilParameter(a * p.t0 + c * p.t1, b * p.t0 + d * p.t1, p.domain)


def test_kernel_acts_trivially_on_parameters():
    for name in ("swap", "cycle", "scale"):
        assert parameter_action(GENS[name]) == IDENTITY_2X2, name


def test_parameter_image_order_twelve():
    assert parameter_image_order(HESSIAN_GENS) == 12


def test_parameter_action_permutes_special_sets():
    triangle = set(DATA.triangle_parameters)
    equi = set(DATA.equianharmonic_parameters)
    for name in ("fourier", "dilate"):
        act = parameter_action(GENS[name])
        assert {apply(act, p) for p in triangle} == triangle
        assert {apply(act, p) for p in equi} == equi


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
    assert invariance_factor(sextic, normalized_fourier(), use_lift=True) == K.one()
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
    assert invariance_factor(lines, normalized_fourier(), use_lift=True) == K.one()


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
