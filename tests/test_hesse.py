"""Pencil data, parameter maps, identity suite, configuration checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import cbrt, expjpi, mpc, mpf, workprec

from hesse_lab.field import tower_eps
from hesse_lab.multipoly import MultiPoly, convert_domain
from hesse_lab.hesse import (
    IDENTITIES,
    PencilParameter,
    RationalSelfMap,
    base_point_membership_check,
    cayleyan_map,
    char3_check,
    collinear_base_triples,
    collinearity_check,
    cuspidal_sextic_check,
    derive_cuspidal_nonic,
    dual_curve_check,
    dynamics_report,
    elkies_section_coefficients,
    halphen_map_check,
    hesse_data,
    hessian_duality_check,
    hessian_map,
    member_is_singular,
    parameter_flip,
    pencil_discriminant,
    pencil_member,
    polar_avoidance_check,
    polar_conic_split,
    polar_factorization_check,
    singular_parameters_check,
    triangle_member_check,
    vertex_singularity_check,
    _quartic_sextic_forms,
)

T0, T1 = MultiPoly.variables(2)


# ---------------------------------------------------------------------------
# parameter points
# ---------------------------------------------------------------------------


def test_parameter_canonical_form():
    p = PencilParameter(Fraction(2), Fraction(5))
    assert p.pair() == (1, Fraction(5, 2))
    assert p == PencilParameter.from_affine(Fraction(5, 2))
    assert not p.is_infinite
    inf = PencilParameter.infinity()
    assert inf.is_infinite and inf.pair() == (0, 1)
    assert inf == PencilParameter(Fraction(0), Fraction(-7))
    with pytest.raises(ValueError):
        PencilParameter(Fraction(0), Fraction(0))
    with pytest.raises(AttributeError):
        p.t0 = Fraction(3)


def test_parameter_hashing():
    trio = {
        PencilParameter.from_affine(Fraction(1)),
        PencilParameter(Fraction(2), Fraction(2)),
        PencilParameter.infinity(),
    }
    assert len(trio) == 2


def test_pencil_member_contains_base_points():
    data = hesse_data()
    member = pencil_member(PencilParameter.from_affine(hesse_data().eps, data.domain))
    for p in data.base_points:
        assert not member.evaluate(p.coords)


# ---------------------------------------------------------------------------
# self-maps of the parameter line
# ---------------------------------------------------------------------------


def test_self_map_reduction_and_rejection():
    m = RationalSelfMap(T0 * T1, T0 * T0)
    assert m.num.degree() == 1
    with pytest.raises(ValueError):
        RationalSelfMap(3 * T0, T0)  # constant after reduction
    with pytest.raises(ValueError):
        RationalSelfMap(T0 + T1, T0 * T1)  # unequal degrees


def test_self_map_rejects_forms_over_a_tower():
    # every self-map of the program is over Q, and only Q-content
    # normalises its forms
    s, t = MultiPoly.variables(2, tower_eps())
    with pytest.raises(ValueError, match="over Q"):
        RationalSelfMap(s * t, s * s)


def test_hessian_map_values():
    h = hessian_map()
    assert h.num.degree() == 3
    assert h.apply(PencilParameter.from_affine(Fraction(1))) == PencilParameter.from_affine(Fraction(-109, 3))
    assert h.apply(PencilParameter.from_affine(Fraction(0))).is_infinite
    assert h.apply(PencilParameter.infinity()).is_infinite


def test_cayleyan_map_values():
    c = cayleyan_map()
    assert c.apply(PencilParameter.from_affine(Fraction(1))) == PencilParameter.from_affine(Fraction(53, 9))
    assert c.apply(PencilParameter.from_affine(Fraction(0))).is_infinite


def test_duality_composition():
    lhs = hessian_map().compose(parameter_flip())
    ok, scalar = lhs.same_map(cayleyan_map())
    assert ok and scalar == 1


def test_identity_map_fixed_points():
    ident = RationalSelfMap(T1, T0)
    for value in (Fraction(0), Fraction(-3), Fraction(7, 2)):
        par = PencilParameter.from_affine(value)
        assert ident.apply(par) == par
    assert ident.wronskian().degree() == 0


# ---------------------------------------------------------------------------
# Weierstrass data and the j-map
# ---------------------------------------------------------------------------


def _forms_at(t):
    """(A, B, 4A^3 + 27B^2) of the short Weierstrass model at t."""
    forms = (*_quartic_sextic_forms(), pencil_discriminant())
    return tuple(convert_domain(f, t.domain).evaluate(t.pair()) for f in forms)


def test_weierstrass_fermat_member():
    t = PencilParameter.from_affine(Fraction(0))
    assert _forms_at(t) == (0, 2, 108)
    assert not member_is_singular(t)  # and A = 0, so j = 0


def test_weierstrass_harmonic_sample():
    assert _forms_at(PencilParameter.from_affine(Fraction(6))) == (0, -54, 78732)


def test_weierstrass_singular_members():
    data = hesse_data()
    assert member_is_singular(PencilParameter.infinity())
    for par in data.triangle_parameters:
        assert member_is_singular(par)
        assert _forms_at(par)[2] == 0


def test_j_vanishes_at_equianharmonic_parameters():
    data = hesse_data()
    for par in data.equianharmonic_parameters:
        assert _forms_at(par)[0] == 0 and not member_is_singular(par)


def test_j_minus_1728_is_a_square_multiple():
    # 1728*4A^3 - 1728*(4A^3+27B^2) = -46656*B^2, so j = 1728 exactly
    # on the vanishing locus of the sextic coefficient
    a, b = _quartic_sextic_forms()
    assert 6912 * a**3 - 1728 * (4 * a**3 + 27 * b**2) == -46656 * b**2


_K_EPS = tower_eps()
_RATIONAL = st.builds(Fraction, st.integers(-(2**64), 2**64), st.integers(1, 2**64))
# a + b*eps with a, b rationals of up to 64-bit height
_EPS_ELEMENT = st.builds(
    lambda a, b: a * _K_EPS.one() + b * _K_EPS.symbol_element("eps"), _RATIONAL, _RATIONAL
)
_EPS_PARAMETER = st.one_of(
    st.tuples(_EPS_ELEMENT, _EPS_ELEMENT)
    .filter(any)
    .map(lambda pair: PencilParameter(*pair, _K_EPS)),
    st.sampled_from(hesse_data().triangle_parameters),
)


@settings(max_examples=40, deadline=None)
@given(t=_EPS_PARAMETER)
def test_member_is_singular_exactly_at_the_triangle_parameters(t):
    assert member_is_singular(t) == (t in hesse_data().triangle_parameters)


# ---------------------------------------------------------------------------
# stored configuration
# ---------------------------------------------------------------------------


def test_base_point_labels():
    data = hesse_data()
    assert len(data.base_points) == 9
    assert data.labels == tuple((i % 3, i // 3) for i in range(9))


def test_collinear_triples_match_labels():
    data = hesse_data()
    triples = collinear_base_triples()
    assert len(triples) == 12
    for triple in triples:
        sums = [sum(data.labels[i][k] for i in triple) % 3 for k in (0, 1)]
        assert sums == [0, 0]


def test_triangle_parameters():
    data = hesse_data()
    finite = [p.t1 for p in data.triangle_parameters if not p.is_infinite]
    assert len(finite) == 3 and len(data.triangle_parameters) == 4
    assert sum(finite, data.domain.zero()) == 0
    assert finite[0] * finite[1] * finite[2] == -27


def test_equianharmonic_parameters():
    data = hesse_data()
    affines = [p.t1 for p in data.equianharmonic_parameters]
    assert len(affines) == 4
    assert sum(affines, data.domain.zero()) == 0
    assert data.domain.zero() in affines


def test_twelve_distinct_lines_and_vertices():
    data = hesse_data()
    assert len(set(data.inflection_lines)) == 12
    assert len(set(data.vertices)) == 12
    assert len(data.triangles) == 4
    assert all(len(tri) == 3 for tri in data.triangles)


def test_invariant_sextic_expansion():
    data = hesse_data()
    x, y, z = MultiPoly.variables(3, data.domain)
    expected = (
        x**6 + y**6 + z**6
        - 10 * (x**3 * y**3 + y**3 * z**3 + x**3 * z**3)
    )
    assert data.invariants["sextic"] == expected


def test_halphen_cubics_avoid_base_points():
    data = hesse_data()
    for cubic in data.halphen_cubics:
        for p in data.base_points:
            assert cubic.evaluate(p.coords) != 0


# ---------------------------------------------------------------------------
# the identity suite with frozen scalars
# ---------------------------------------------------------------------------


def test_identity_names_complete():
    assert tuple(IDENTITIES) == tuple("abcdefghijklmn")


@pytest.mark.parametrize("name", IDENTITIES)
def test_identity_holds(name):
    result = IDENTITIES[name]()
    assert result.holds, result.witness


def test_identity_frozen_scalars():
    assert IDENTITIES["a"]().details["ratio"] == Fraction(-2)
    e = IDENTITIES["e"]()
    assert e.details["ratio"] == Fraction(-16)
    assert e.details["stripped"] == (0, 6, 0, 0, 0)
    assert IDENTITIES["h"]().details["conic_determinant"] == Fraction(-324)
    m = IDENTITIES["m"]()
    assert m.details["coefficient_vector"] == (
        Fraction(432),
        Fraction(1),
        Fraction(-54),
        Fraction(1, 4),
        Fraction(-5832),
        Fraction(27),
        Fraction(-1, 8),
    )
    n = IDENTITIES["n"]()
    assert n.details["combo_coefficient"] == -3
    assert n.details["last_coefficient"] == 1


def test_elkies_coefficients_numeric():
    frozen = (
        mpc("-0.508704233214163979619756026133", "-2.55362157587897290214306342691"),
        mpc("-1.14963140481131986958712975345", "-0.663740001036663154992247515997"),
        mpc("-2.46585327297032402994355181108", "0.836259998963336845007752484003"),
    )
    # eps = exp(2*pi*i/3), i = +i and cbrt2 the real cube root of two
    with workprec(96):
        generators = (expjpi(mpf(2) / 3), mpc(0, 1), cbrt(2))
        for value, target in zip(elkies_section_coefficients(), frozen):
            total = mpc(0)
            for idx, q in enumerate(value.coords):
                term = mpf(q.numerator) / q.denominator
                for g, e in zip(generators, value.tower.basis_exponents(idx)):
                    term *= g ** e
                total += term
            assert abs(total - target) < mpf("1e-12")


# ---------------------------------------------------------------------------
# nonic derivation
# ---------------------------------------------------------------------------


def test_cuspidal_nonic_fit():
    fit = derive_cuspidal_nonic()
    assert fit.holds, fit.witness
    assert fit.details["coefficient_vector"] == (
        Fraction(1),
        Fraction(54),
        Fraction(1, 4),
        Fraction(-5832),
        Fraction(-27),
        Fraction(-1, 8),
    )
    assert fit.details["square_scalar"] == 432
    assert fit.details["derived_matches_stored"] == 1
    assert fit.details["stored_matches_line_product"] == 1


# ---------------------------------------------------------------------------
# dual sextics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("pair", [(1, 0), (1, 1), (2, 1)])
def test_dual_curve_matches(pair):
    result = dual_curve_check(PencilParameter(Fraction(pair[0]), Fraction(pair[1])))
    assert result.holds, result.witness
    assert result.details == {"scalar": 81}


def test_dual_curve_rejects_singular():
    with pytest.raises(ValueError):
        dual_curve_check(PencilParameter(Fraction(1), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        dual_curve_check(PencilParameter.infinity())


# ---------------------------------------------------------------------------
# dynamics of the parameter maps
# ---------------------------------------------------------------------------


def test_hessian_dynamics():
    data = hesse_data()
    report = dynamics_report(hessian_map(), data.equianharmonic_parameters)
    assert report.wronskian_degree == 4
    assert report.complete
    assert report.multiplicities == (1, 1, 1, 1)
    assert set(report.critical_values) <= set(data.triangle_parameters)


def test_cayleyan_dynamics():
    data = hesse_data()
    report = dynamics_report(cayleyan_map(), data.triangle_parameters)
    assert report.complete
    assert set(report.critical_values) == set(data.triangle_parameters)


def test_identity_dynamics():
    report = dynamics_report(RationalSelfMap(T1, T0), ())
    assert report.wronskian_degree == 0
    assert report.complete and report.multiplicities == ()


# ---------------------------------------------------------------------------
# the degree-nine contact-cubic map
# ---------------------------------------------------------------------------


def test_halphen_map_fixes_every_member():
    result = halphen_map_check()
    assert result.holds, result.witness
    assert result.details == {
        "cofactor_degree": 24,
        "pullback_scalars": {"sum_cubes": Fraction(1), "product": Fraction(1)},
    }


# ---------------------------------------------------------------------------
# configuration properties
# ---------------------------------------------------------------------------


def test_base_point_membership():
    assert base_point_membership_check().holds


def test_collinearity():
    result = collinearity_check()
    assert result.holds
    assert result.details["triples"] == 12
    assert result.details["lines"] == 12


def test_triangle_members():
    result = triangle_member_check()
    assert result.holds
    assert result.details["scalars"] == (1, 1, 1, 1)


def test_vertex_singularities():
    result = vertex_singularity_check()
    assert result.holds
    assert result.details["vertices"] == 12


def test_polar_lines():
    assert polar_avoidance_check().holds
    assert polar_factorization_check().holds


def test_polar_conic_split_reads_the_points_and_lines_it_is_given():
    data = hesse_data()
    pts, polars = data.base_points, data.harmonic_polars
    assert polar_conic_split(pts, polars) is None
    # L_i pairs with p_i alone; each other line misses the conic of p_0
    for other in polars[1:]:
        assert polar_conic_split(pts, (other,) + polars[1:]) == (
            "polar of p0 has no line factor"
        )
    assert polar_conic_split(pts[3:], polars[3:]) is None
    assert polar_conic_split(pts[3:], polars[4:]) == "polar of p0 has no line factor"


def test_singular_parameters_are_the_factored_discriminant():
    result = singular_parameters_check()
    assert result.holds
    assert result.details == {"singular_parameters": 4, "multiplicity": 3}


def test_char3_degeneration():
    result = char3_check()
    assert result.holds
    assert result.details["base_points"] == 3
    assert result.details["projection_scalar"] == 2


def test_cuspidal_sextic_singularities():
    result = cuspidal_sextic_check()
    assert result.holds
    assert result.details["cusps"] == 8


def test_hessian_duality():
    result = hessian_duality_check()
    assert result.holds
    assert result.details["cross_scalar"] == 1
