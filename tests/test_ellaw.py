"""Group-law module: exact chord-tangent arithmetic and numeric torsion."""

from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesse_lab import ellaw
from hesse_lab.ellaw import (
    _NumericLaw,
    _embed_point,
    _embed_poly,
    _eval_embedded,
    _gradient,
    _poly_roots,
    _proj_distance,
    _transverse_intersection,
    contact_pair_vertices_check,
    curve_context,
    nine_torsion_check,
    prop62_check,
    third_intersection,
    three_torsion_table,
    translation_compatibility_check,
    two_torsion_polar_check,
)
from hesse_lab.field import tower_eps
from hesse_lab.groups import hessian_group_generators
from hesse_lab.hesse import PencilParameter, hesse_data, hessian_map
from hesse_lab.multipoly import MultiPoly, _divmod, divide_exact
from hesse_lab.plane import (
    ProjPoint,
    line_parameter,
    line_through,
    restrict_to_line,
    tangent_line,
)

CTX = curve_context(1)
PTS = hesse_data().base_points


def add(ctx, p, q):
    return third_intersection(ctx, ctx.origin, third_intersection(ctx, p, q))


def neg(ctx, p):
    # the origin is an inflection point, so reflecting through it is the
    # chord through the origin
    return third_intersection(ctx, ctx.origin, p)


def scalar_mul(ctx, n, p):
    if n < 0:
        return scalar_mul(ctx, -n, neg(ctx, p))
    acc = ctx.origin
    run = p
    while n:
        if n & 1:
            acc = add(ctx, acc, run)
        n >>= 1
        if n:
            run = add(ctx, run, run)
    return acc


def test_context_rejects_singular_and_bad_origin():
    with pytest.raises(ValueError):
        curve_context(-3)
    with pytest.raises(ValueError):
        curve_context(1, origin_index=9)


def test_off_member_point_raises():
    off = ProjPoint((1, 1, 1), CTX.domain)
    assert CTX.member.evaluate(off.coords)
    with pytest.raises(ValueError):
        add(CTX, off, PTS[1])
    with pytest.raises(ValueError):
        third_intersection(CTX, PTS[1], off)
    with pytest.raises(ValueError):
        third_intersection(CTX, off, off)


def test_inflection_line_third_points():
    assert third_intersection(CTX, PTS[0], PTS[1]) == PTS[2]
    assert third_intersection(CTX, PTS[3], PTS[6]) == PTS[0]


def test_base_points_are_inflections():
    for p in PTS:
        assert third_intersection(CTX, p, p) == p


def test_first_addition_row():
    assert add(CTX, PTS[1], PTS[3]) == PTS[4]


def test_origin_is_identity():
    for p in PTS:
        assert add(CTX, p, PTS[0]) == p
        assert add(CTX, PTS[0], p) == p


def test_inverses_and_triple_torsion():
    for p in PTS:
        assert add(CTX, p, neg(CTX, p)) == PTS[0]
        assert scalar_mul(CTX, 3, p) == PTS[0]


GENERIC_CTX = curve_context(-6)
GENERIC = ProjPoint((1, 2, 3), GENERIC_CTX.domain)


def test_generic_point_arithmetic_stays_exact():
    ctx = GENERIC_CTX
    q = GENERIC
    assert not ctx.member.evaluate(q.coords)
    double = add(ctx, q, q)
    assert not ctx.member.evaluate(double.coords)
    assert double != q
    assert neg(ctx, neg(ctx, q)) == q
    assert add(ctx, q, neg(ctx, q)) == ctx.origin


def test_generic_scalar_multiples_consistent():
    ctx = GENERIC_CTX
    q = GENERIC
    six_a = scalar_mul(ctx, 6, q)
    six_b = scalar_mul(ctx, 2, scalar_mul(ctx, 3, q))
    six_c = scalar_mul(ctx, 3, scalar_mul(ctx, 2, q))
    assert six_a == six_b == six_c
    assert scalar_mul(ctx, -2, q) == neg(ctx, scalar_mul(ctx, 2, q))


def test_associativity_mixed_points():
    ctx = GENERIC_CTX
    q = GENERIC
    b1, b3 = PTS[1], PTS[3]
    assert add(ctx, add(ctx, q, b1), b3) == add(ctx, q, add(ctx, b1, b3))
    assert add(ctx, q, b1) == add(ctx, b1, q)


def _third_by_line_restriction(ctx, a, b):
    """Oracle for third_intersection: substitute the line's canonical
    parametrisation into the member and divide out the parameters of a, b."""
    line = tangent_line(ctx.member, a) if a == b else line_through(a, b)
    form = restrict_to_line(ctx.member, line)
    s, t = MultiPoly.variables(2, ctx.domain)
    for r in (a, b):
        s0, t0 = line_parameter(line, r)
        form, rem = _divmod(form, t0 * s - s0 * t)
        if rem:
            raise ValueError(f"{r!r} is not on the member")
    c_s = form.coefficient((1, 0))
    c_t = form.coefficient((0, 1))
    p0, p1 = line.basis_points()
    coords = tuple(c_t * u - c_s * v for u, v in zip(p0.coords, p1.coords))
    return ProjPoint(coords, ctx.domain)


_NUMERATOR = st.integers(-(2**128), 2**128).filter(bool)
_DENOMINATOR = st.integers(1, 2**16)
_RATIONAL = st.builds(Fraction, _NUMERATOR, _DENOMINATOR)
# (n, n, n + d) lies on a member with lambda = -3 - O(d^2 / n^2)
_NEAR_SINGULAR = st.builds(
    lambda n, d: (Fraction(n), Fraction(n), Fraction(n + d)),
    st.integers(10, 2**64),
    st.sampled_from((1, -1, 2)),
)


@settings(max_examples=40, deadline=None)
@given(
    point=st.one_of(st.tuples(_RATIONAL, _RATIONAL, _RATIONAL), _NEAR_SINGULAR),
    chords=st.lists(st.integers(0, 8), min_size=1, max_size=2),
)
def test_third_intersection_matches_line_restriction(point, chords):
    x, y, z = point
    assume(x * y * z != 0)
    lam = -(x**3 + y**3 + z**3) / (x * y * z)
    assume(lam != -3)
    ctx = curve_context(lam)
    p = ProjPoint(point, ctx.domain)
    assert not ctx.member.evaluate(p.coords)
    points = [p] + [_third_by_line_restriction(ctx, p, PTS[k]) for k in chords]
    pairs = [(a, b) for a in points for b in points] + [(q, PTS[k]) for q in points for k in chords]
    for a, b in pairs:
        assert third_intersection(ctx, a, b) == _third_by_line_restriction(ctx, a, b)
    off = ProjPoint((x, y, z + 1), ctx.domain)
    if ctx.member.evaluate(off.coords):
        for law in (third_intersection, _third_by_line_restriction):
            for a, b in ((off, p), (p, off), (off, off)):
                with pytest.raises(ValueError):
                    law(ctx, a, b)


@settings(max_examples=30, deadline=None)
@given(
    point=st.one_of(st.tuples(_RATIONAL, _RATIONAL, _RATIONAL), _NEAR_SINGULAR),
    chords=st.lists(st.integers(0, 8), min_size=1, max_size=2),
)
def test_third_intersection_is_symmetric(point, chords):
    # the torsion table and the translation check make each chord once for
    # both orders of its points, so an order-dependent law must fail here
    x, y, z = point
    assume(x * y * z != 0)
    lam = -(x**3 + y**3 + z**3) / (x * y * z)
    assume(lam != -3)
    ctx = curve_context(lam)
    p = ProjPoint(point, ctx.domain)
    points = [p] + [third_intersection(ctx, p, PTS[k]) for k in chords]
    pairs = list(combinations(points, 2)) + [(q, b) for q in points for b in PTS]
    for a, b in pairs + list(combinations(PTS, 2)):
        assert third_intersection(ctx, a, b) == third_intersection(ctx, b, a)


def test_three_torsion_table_matches_labels():
    for lam in (1, 2):
        report = three_torsion_table(lam)
        assert report.holds
        assert report.table[1][3] == 4
        assert report.table[0][5] == 5
    with pytest.raises(ValueError):
        three_torsion_table(-3)


def test_translation_compatibility():
    report = translation_compatibility_check(1)
    assert report.holds
    # matrix action convention: each generator translates by the inverse
    # of the point singled out under the substitution convention
    assert report.details["assignments"] == {"cycle": 6, "scale": 1}


# lambda of 2- to 128-bit height, near the singular member -3, and Fermat
_TORSION_LAMBDA = st.one_of(
    st.just(Fraction(0)),
    st.integers(2, 128).flatmap(
        lambda bits: st.builds(
            Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits)
        )
    ),
    st.builds(
        lambda k, sign: -3 + sign * Fraction(1, 10**k),
        st.integers(1, 30),
        st.sampled_from((1, -1)),
    ),
)


def _oracle_sums(lam):
    """table[i][j] = k with p_i + p_j = p_k, all 81 sums made by `add`."""
    ctx = curve_context(lam)
    index = {p: i for i, p in enumerate(PTS)}
    return tuple(tuple(index[add(ctx, a, b)] for b in PTS) for a in PTS)


def _oracle_translations(table):
    """translation_compatibility_check's verdict, read off the full table."""
    labels = hesse_data().labels
    index = {p: i for i, p in enumerate(PTS)}
    gens = hessian_group_generators()
    assignments = {}
    for name in ("cycle", "scale"):
        perm = tuple(index[gens[name].apply(p)] for p in PTS)
        found = [k for k in range(9) if all(table[i][k] == perm[i] for i in range(9))]
        if not found:
            return False, {}, f"{name} is not a translation"
        assignments[name] = found[0]
    la, lb = labels[assignments["cycle"]], labels[assignments["scale"]]
    if (la[0] * lb[1] - la[1] * lb[0]) % 3 == 0:
        return False, {}, f"labels {la} and {lb} are dependent"
    return True, {"assignments": assignments}, None


@settings(max_examples=20, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_torsion_table_and_translations_match_the_full_table(lam):
    assume(lam != -3)
    table = _oracle_sums(lam)
    labels = hesse_data().labels
    holds = all(
        labels[table[i][j]]
        == ((labels[i][0] + labels[j][0]) % 3, (labels[i][1] + labels[j][1]) % 3)
        for i in range(9)
        for j in range(9)
    )
    report = three_torsion_table(lam)
    assert (report.table, report.holds) == (table, holds)
    result = translation_compatibility_check(lam)
    assert (result.holds, result.details, result.witness) == _oracle_translations(table)


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_torsion_table_and_translations_make_each_chord_once(lam):
    assume(lam != -3)
    for check in (three_torsion_table, translation_compatibility_check):
        made = []

        def counted(ctx, a, b):
            made.append(frozenset((a, b)))
            return third_intersection(ctx, a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "third_intersection", counted)
            check(lam)
        assert len(made) == len(set(made)) <= 45, check.__name__


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_torsion_table_and_translations_make_each_gradient_once(lam):
    # the per-context polar data must not cost a chord its certificates:
    # both roots are still divided out on every chord
    assume(lam != -3)
    for check in (three_torsion_table, translation_compatibility_check):
        gradients, chords, divisions = [], [], []

        def gradient(ctx, p):
            gradients.append((ctx, p))
            return _gradient(ctx, p)

        def counted(ctx, a, b):
            chords.append((a, b))
            return third_intersection(ctx, a, b)

        def divide(f, g):
            divisions.append(g)
            return divide_exact(f, g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "_gradient", gradient)
            patch.setattr(ellaw, "third_intersection", counted)
            patch.setattr(ellaw, "divide_exact", divide)
            check(lam)
        assert gradients and len(gradients) == len(set(gradients)), check.__name__
        assert len(divisions) == 2 * len(chords) > 0, check.__name__


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_tangent_partner_lies_on_the_tangent(lam):
    # the tangent branch makes polar data for a and for one more point b,
    # where the tangent at a meets x_j = 0 (a_j the first nonzero of a)
    assume(lam != -3)
    for a in PTS:
        ctx = curve_context(lam)
        assert third_intersection(ctx, a, a) == _third_by_line_restriction(ctx, a, a)
        (b,) = set(ctx.polars) - {a}
        j = next(i for i, c in enumerate(a.coords) if c)
        assert b != a and b.coords[j] == 0
        assert tangent_line(ctx.member, a).contains(b)


def test_polar_data_belongs_to_one_context():
    ctx = curve_context(1)
    off = ProjPoint((1, 2, 4), ctx.domain)
    assert ctx.member.evaluate(off.coords)
    for _ in range(2):
        for a, b in ((off, PTS[0]), (PTS[0], off), (off, off)):
            with pytest.raises(ValueError):
                third_intersection(ctx, a, b)
    one, two = curve_context(1), curve_context(2)
    assert not one.polars and not two.polars
    # interleave the two members' chords, so that shared polar data would
    # hand one member the other's gradients
    for a, b in combinations(PTS, 2):
        for c in (one, two):
            assert third_intersection(c, a, b) == _third_by_line_restriction(c, a, b)
    for a in PTS:
        for c in (one, two):
            assert third_intersection(c, a, a) == _third_by_line_restriction(c, a, a)
    assert one.polars[PTS[1]][0] != two.polars[PTS[1]][0]


def test_contact_pair_vertices():
    report = contact_pair_vertices_check()
    assert report.holds
    assert report.details["count"] == 9


# ---------------------------------------------------------------------------
# numeric suites
# ---------------------------------------------------------------------------


def test_two_torsion_polar_samples():
    tol = mpmath.mpf(10) ** -25
    for lam, i in ((1, 0), (0, 0), (1, 3), (2, 7)):
        report = two_torsion_polar_check(lam, i)
        assert report.holds, (lam, i)
        assert len(report.points) == 3
        assert max(report.tangent_residuals) < tol
        assert max(report.doubling_residuals) < tol


def test_nine_torsion_samples():
    tol = mpmath.mpf(10) ** -25
    for lam in (1, 2, Fraction(1, 2)):
        report = nine_torsion_check(lam, 1)
        assert report.holds, lam
        assert len(report.points) == 9
        assert set(report.triple_indices) == {2}
        assert max(report.triple_residuals) < tol
        assert max(report.nine_residuals) < tol
        assert report.chain_residual < tol


def test_nine_torsion_every_contact_cubic_pinned():
    # 3p = p_k for every point p cut by contact cubic c
    expected = dict(zip(range(1, 9), (2, 3, 4, 5, 1, 6, 8, 7)))
    # lam = 0 is the Fermat member: cubics 1 and 5 cut it in a 3 x 3 grid
    for lam in (1, Fraction(12345, 678), 0):
        for cubic, k in expected.items():
            report = nine_torsion_check(lam, cubic)
            assert report.holds, (lam, cubic)
            assert len(report.points) == 9
            assert set(report.triple_indices) == {k}, (lam, cubic)
    report = nine_torsion_check(1, 1, precision_bits=512)
    assert report.holds and len(report.points) == 9
    assert set(report.triple_indices) == {2}


def _addition_chain_index(law, p, base_points):
    """k with 3P = (P + P) + P nearest p_k, by four numeric chords: the
    independent route the single chord through -2P and -P replaces."""

    def add(a, b):
        return law.third(law.origin, law.third(a, b))

    q = add(add(p, p), p)
    return min(range(9), key=lambda i: _proj_distance(q, base_points[i]))


@settings(max_examples=6, deadline=None)
@given(
    lam=st.fractions(min_value=-50, max_value=50, max_denominator=10**6),
    cubic=st.integers(1, 8),
    bits=st.sampled_from((128, 512)),
)
def test_nine_torsion_index_matches_the_addition_chain(lam, cubic, bits):
    assume(abs(lam + 3) > Fraction(1, 100))
    report = nine_torsion_check(lam, cubic, precision_bits=bits)
    assert report.holds
    with mpmath.workprec(bits + 48):
        law = _NumericLaw(report.parameter, 0, bits)
        base = [_embed_point(p, bits) for p in PTS]
        chain = [_addition_chain_index(law, p.coords, base) for p in report.points]
    assert list(report.triple_indices) == chain


def test_nine_torsion_holds_near_the_singular_member():
    # the line through -2P and -P passes within about 0.04 (lambda + 3) of
    # base points other than p_k there, but 3P itself stays near p_k
    report = nine_torsion_check(-3 + Fraction(1, 10**25), 2, precision_bits=512)
    assert report.holds and set(report.triple_indices) == {3}


def test_transverse_intersection_shears_zeros_that_share_x():
    K = tower_eps()
    x, y, z = MultiPoly.variables(3, K)
    # both cubics pass through (0 : 1 : 1) and (0 : -1 : 1)
    f = (y**2 - z**2) * (y - 2 * z) + x * (
        x**2 + 2 * x * y - y**2 + 3 * x * z + y * z - 2 * z**2
    )
    g = (y**2 - z**2) * (y + 3 * z) + x * (
        2 * x**2 - x * y + 3 * y**2 - x * z + 2 * y * z + z**2
    )
    with mpmath.workprec(176):
        points = _transverse_intersection(f, g, 128, mpmath.mpf(10) ** -25)
        assert len(points) == 9
        for w in ((0, 1, 1), (0, -1, 1)):
            assert min(_proj_distance(p, w) for p in points) < mpmath.mpf(10) ** -40
        f_terms, g_terms = _embed_poly(f, 128), _embed_poly(g, 128)
        for p in points:
            assert abs(_eval_embedded(f_terms, p)) < mpmath.mpf(10) ** -40
            assert abs(_eval_embedded(g_terms, p)) < mpmath.mpf(10) ** -40


def test_transverse_intersection_rejects_zeros_no_shear_separates():
    K = tower_eps()
    x, y, z = MultiPoly.variables(3, K)
    # x*y and x^2 - 2y^2 - 3xz + 2z^2 span the conics through (0 : 1 : 1),
    # (0 : -1 : 1), (1 : 0 : 1) and (2 : 0 : 1); pairs of these share x,
    # x + y and x + 2y, so no shear x = u - c*y with c = 0, 1, 2 separates them
    q1, q2 = x * y, x**2 - 2 * y**2 - 3 * x * z + 2 * z**2
    f = q1 * (x + 2 * y - z) + q2 * (3 * x - y + 2 * z)
    g = q1 * (2 * x - y + 3 * z) + q2 * (x + y - 4 * z)
    with mpmath.workprec(176), pytest.raises(ValueError, match="subresultant"):
        _transverse_intersection(f, g, 128, mpmath.mpf(10) ** -25)


_GAUSSIAN = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(1, 4),
    u_roots=st.lists(_GAUSSIAN, min_size=1, max_size=3, unique=True),
    zero_root=st.booleans(),
    bits=st.sampled_from((128, 512)),
)
def test_poly_roots_of_a_polynomial_in_x_to_the_k(k, u_roots, zero_root, bits):
    with mpmath.workprec(bits + 48):
        us = [mpmath.mpc(a, b) for a, b in u_roots] + [mpmath.mpc(0)] * zero_root
        s = [mpmath.mpc(1)]
        for u in us:  # descending coefficients of prod (u' - u)
            s = [a - u * b for a, b in zip(s + [0], [0] + s)]
        coeffs = [s[0]]  # P(x) = S(x^k)
        for c in s[1:]:
            coeffs += [mpmath.mpc(0)] * (k - 1) + [c]
        got = _poly_roots(coeffs, bits)
        # the exact roots: the k k-th roots of each u, a zero u giving a k-fold zero
        want = [mpmath.root(u, k) * w for u in us for w in mpmath.unitroots(k)]
        assert len(got) == len(want) == k * len(us)
        # _poly_roots finds a k-fold zero only to about bits/k
        for w in want:
            i = min(range(len(got)), key=lambda j: abs(got[j] - w))
            assert abs(got.pop(i) - w) < mpmath.mpf(10) ** -10 * max(1, abs(w))


def test_nine_torsion_other_cubic():
    report = nine_torsion_check(1, 5)
    assert report.holds
    assert set(report.triple_indices) == {1}


def test_nine_torsion_input_validation():
    with pytest.raises(ValueError):
        nine_torsion_check(1, 0)
    with pytest.raises(ValueError):
        nine_torsion_check(-3, 1)


def test_tangent_section_generic():
    report = prop62_check(1)
    assert report.holds
    assert report.details == {"count": 2, "off_base_points": True}
    hessian = hessian_map().apply(PencilParameter.from_affine(Fraction(1)))
    assert hessian.affine() == Fraction(-109, 3)


def test_tangent_section_fermat_degenerates_to_cusps():
    report = prop62_check(0)
    assert report.holds
    # at the Fermat member the two residual points collide with cusps
    assert report.details == {"count": 2, "off_base_points": False}
    assert hessian_map().apply(PencilParameter.from_affine(Fraction(0))).is_infinite


@settings(max_examples=15, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_tangent_section_holds_at_large_heights_and_near_the_singular_member(lam):
    assume(lam != -3)
    report = prop62_check(lam)
    assert report.holds
    assert report.details["count"] == 2


def test_numeric_reports_stable_under_more_precision():
    lo = nine_torsion_check(1, 1, precision_bits=128)
    hi = nine_torsion_check(1, 1, precision_bits=256)
    assert lo.holds and hi.holds
    assert max(hi.triple_residuals) < max(lo.triple_residuals)
    assert set(lo.triple_indices) == set(hi.triple_indices)
