"""Group-law module: exact chord-tangent arithmetic, the exact 2-torsion proof
and numeric torsion."""

import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hesse_lab import ellaw
from hesse_lab.ellaw import (
    _PRIMES,
    _Residue,
    _binary_cubic,
    _certified_unit,
    _chart_point,
    _cubic_discriminant,
    _embed_point,
    _embed_poly,
    _eval_embedded,
    _gcd_degree,
    _gradient,
    _known_point,
    _norm2,
    _poly_roots,
    _proj_distance,
    _scale,
    _to_mpc,
    _transverse_intersection,
    contact_pair_vertices_check,
    curve_context,
    nine_torsion_check,
    nine_torsion_proof,
    nine_torsion_sweep,
    polar_two_torsion_proof,
    prop62_check,
    third_intersection,
    three_torsion_table,
    translation_compatibility_check,
    two_torsion_polar_check,
)
from hesse_lab.field import tower_eps
from hesse_lab.groups import hessian_group_generators
from hesse_lab.hesse import (
    PencilParameter,
    hesse_data,
    hessian_map,
    member_gradient,
    member_is_singular,
    pencil_discriminant,
    pencil_member,
)
from hesse_lab.multipoly import (
    QQ,
    MultiPoly,
    _divmod,
    convert_domain,
    divide_exact,
    poly_remainder,
    proportionality,
    resultant_in_var,
)
from hesse_lab.plane import (
    ProjLine,
    ProjPoint,
    _cross,
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
    # grad F(1 : 0 : 0) is a multiple of e_0, so the tangent partner of
    # (1 : 0 : 0) is the zero vector; the certificate still rejects it
    for off in (ProjPoint((1, 1, 1), CTX.domain), ProjPoint((1, 0, 0), CTX.domain)):
        assert CTX.member.evaluate(off.coords)
        with pytest.raises(ValueError):
            add(CTX, off, PTS[1])
        for a, b in ((off, PTS[1]), (PTS[1], off), (off, off)):
            with pytest.raises(ValueError, match="inexact division"):
                third_intersection(CTX, a, b)


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


EPS = tower_eps().gen(0)
_HEIGHT_RATIONAL = st.integers(2, 128).flatmap(
    lambda bits: st.builds(
        Fraction, st.integers(-(2**bits), 2**bits), st.integers(1, 2**bits)
    )
)
# lambda of 2- to 128-bit height in Q and in Q(eps), near each of the
# singular members -3, -3 eps and -3 eps^2, and Fermat
_TORSION_LAMBDA = st.one_of(
    st.just(Fraction(0)),
    _HEIGHT_RATIONAL,
    st.builds(
        lambda a, b: a + b * EPS, _HEIGHT_RATIONAL, _HEIGHT_RATIONAL.filter(bool)
    ).filter(lambda lam: lam not in (-3 * EPS, -3 * EPS**2)),
    st.builds(
        lambda singular, k, sign: singular + sign * Fraction(1, 10**k),
        st.sampled_from((-3, -3 * EPS, -3 * EPS**2)),
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
    # the per-context polar data must not cost a chord its certificate:
    # one exact division by s*t (by t^2 for a tangent) on every chord
    assume(lam != -3)
    for check in (three_torsion_table, translation_compatibility_check):
        gradients, chords, divisions = [], [], []

        def gradient(ctx, coords):
            gradients.append((ctx, tuple(coords)))
            return _gradient(ctx, coords)

        def counted(ctx, a, b):
            chords.append((a, b))
            return third_intersection(ctx, a, b)

        def divide(f, g):
            divisions.append(g.terms)
            return divide_exact(f, g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "_gradient", gradient)
            patch.setattr(ellaw, "third_intersection", counted)
            patch.setattr(ellaw, "divide_exact", divide)
            check(lam)
        assert gradients and len(gradients) == len(set(gradients)), check.__name__
        roots = [(0, 2) if a == b else (1, 1) for a, b in chords]
        assert chords and divisions == [{r: 1} for r in roots], check.__name__


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_tangent_partner_lies_on_the_tangent(lam):
    # the tangent branch makes polar data for a alone, and a gradient at raw
    # coordinates v where the tangent at a meets x_j = 0 (a_j the first
    # nonzero of a)
    assume(lam != -3)
    for a in PTS:
        ctx = curve_context(lam)
        made = []

        def gradient(context, coords):
            made.append(coords)
            return _gradient(context, coords)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "_gradient", gradient)
            third = third_intersection(ctx, a, a)
        assert third == _third_by_line_restriction(ctx, a, a)
        assert made[0] == a.coords and len(made) == 2
        v = made[1]
        j = next(i for i, c in enumerate(a.coords) if c)
        assert v[j] == 0 and any(_cross(a.coords, v))
        assert not ctx.domain.dot(tangent_line(ctx.member, a).coeffs, v)
        assert set(ctx.polars) == {a}


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
@example(lam=-3 * EPS + Fraction(1, 10**20))
@example(lam=-3 * EPS**2 - Fraction(1, 10**25))
@example(lam=Fraction(3, 7) + Fraction(2**100 + 1, 3**50) * EPS)
def test_torsion_table_and_translations_run_in_integers(lam):
    # the context scales the member into Z[eps] once, so on the base points
    # no chord form and no kept gradient carries a denominator
    assume(lam != -3)
    for check in (three_torsion_table, translation_compatibility_check):
        contexts, forms = [], []

        def context(*args, **kwargs):
            contexts.append(curve_context(*args, **kwargs))
            return contexts[-1]

        def divide(f, g):
            forms.append(f)
            return divide_exact(f, g)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "curve_context", context)
            patch.setattr(ellaw, "divide_exact", divide)
            assert check(lam).holds, check.__name__
        (ctx,) = contexts
        assert forms and all(c.den == 1 for f in forms for c in f.terms.values())
        grads = [c for grad, _ in ctx.polars.values() for c in grad]
        assert grads and all(c.den == 1 for c in grads), check.__name__


def test_torsion_table_and_translations_skip_the_cubic_and_flex_points():
    # the table and the translation check read the member's gradient
    # coefficients only; a flex tangent (c_s = 0) returns its point and
    # every other chord among base points returns the base point its third
    # point is a multiple of, so neither check makes a ProjPoint; the checks
    # that restrict the member to a line still build its cubic
    made = {}

    def counter(name, f):
        def counted(*args):
            made[name] += 1
            return f(*args)

        return counted

    def run(check, *args):
        made.update(member=0, points=0, chords=0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ellaw, "pencil_member", counter("member", pencil_member))
            patch.setattr(ellaw, "ProjPoint", counter("points", ProjPoint))
            patch.setattr(
                ellaw, "third_intersection", counter("chords", third_intersection)
            )
            return check(*args)

    for lam in (1, Fraction(-7, 5), Fraction(1, 2) + 3 * EPS):
        assert run(three_torsion_table, lam).holds
        assert made == {"member": 0, "points": 0, "chords": 45}
        assert run(translation_compatibility_check, lam).holds
        assert made == {"member": 0, "points": 0, "chords": 24}
    for check, args in (
        (two_torsion_polar_check, (1, 0)),
        (nine_torsion_check, (1, 1)),
        (prop62_check, (1,)),
    ):
        assert run(check, *args).holds, check.__name__
        assert made["member"] >= 1, check.__name__


# nonzero elements of Q(eps), negative or irrational, of height up to 128 bits
_SCALAR = st.builds(lambda a, b: a + b * EPS, _HEIGHT_RATIONAL, _HEIGHT_RATIONAL).filter(bool)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 8), c=_SCALAR, moved=st.integers(0, 2))
def test_known_point_matches_exact_multiples_only(k, c, moved):
    p = PTS[k]
    w = [c * x for x in p.coords]
    assert _known_point(PTS, w) is p
    shifted = list(w)
    shifted[moved] = shifted[moved] + 1
    assume(ProjPoint(shifted, p.domain) not in PTS)
    assert _known_point(PTS, shifted) is None
    # a zero where p has none, or c where p has its zero
    flipped = list(w)
    flipped[moved] = 0 if p.coords[moved] else c
    assert _known_point(PTS, flipped) is None


_ENTRY = st.one_of(st.just(Fraction(0)), st.sampled_from((1, -1, EPS, -EPS, EPS**2)), _SCALAR)


@settings(max_examples=80, deadline=None)
@given(
    w=st.one_of(
        st.tuples(_ENTRY, _ENTRY, _ENTRY),
        st.builds(
            lambda k, c, d, i: tuple(
                c * x + (d if j == i else 0) for j, x in enumerate(PTS[k].coords)
            ),
            st.integers(0, 8),
            _SCALAR,
            st.sampled_from((0, 1, -1, EPS)),
            st.integers(0, 2),
        ),
    )
)
def test_known_point_agrees_with_normalisation(w):
    K = tower_eps()
    w = tuple(map(K.coerce, w))
    assume(any(w))
    found = _known_point(PTS, w)
    for p in PTS:
        assert (found is p) == (ProjPoint(w, K) == p)


@settings(max_examples=10, deadline=None)
@given(lam=_TORSION_LAMBDA)
def test_chords_and_images_of_base_points_are_the_base_points(lam):
    # every chord among base points and every generator image of one is
    # matched to the very base point the normalising oracle gives
    assume(lam != -3)
    ctx = curve_context(lam)
    for a, b in [(a, a) for a in PTS] + list(combinations(PTS, 2)):
        third = third_intersection(ctx, a, b)
        assert any(third is p for p in PTS)
        assert third == _third_by_line_restriction(ctx, a, b)
    for g in hessian_group_generators().values():
        for p in PTS:
            image = _known_point(PTS, g.image(p.coords))
            assert image is not None and image == g.apply(p)


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
# two-torsion on the harmonic polars, for every member
# ---------------------------------------------------------------------------

POLARS = hesse_data().harmonic_polars


def _generic_member(nvars):
    """The variables of Q(eps)[..., t0, t1], t0 and t1 the last two, and the
    generic member as a function of three coordinate forms."""
    variables = MultiPoly.variables(nvars, tower_eps())
    t0, t1 = variables[-2:]
    return variables, lambda x, y, z: t0 * (x**3 + y**3 + z**3) + t1 * x * y * z


def test_polar_two_torsion_steps_hold_on_every_line():
    # each step of polar_two_torsion_proof, made by another route: (a) as
    # proportionality to the product L_i * T_i, (b) and (d) by substituting
    # the line into F rather than by polarisation
    K = tower_eps()
    (x, y, z, t0, t1), member = _generic_member(5)
    zero = MultiPoly.zero(5, K)
    grad = member(x, y, z).gradient((0, 1, 2))
    target = -4 * t0 * (27 * t0**3 + t1**3)

    def lift(f):  # from Q(eps)[t0, t1] into the five variables
        return f.substitute([t0, t1])

    # pencil_discriminant() = target * (-1/729) t0^2 (t1^3 + 27 t0^3)^2
    cofactor = -(t0**2) * (t1**3 + 27 * t0**3) ** 2 / 729
    assert lift(convert_domain(pencil_discriminant(), K)) == target * cofactor
    two = MultiPoly.variables(2, K)
    for i, (p, line) in enumerate(zip(PTS, POLARS)):
        at_p = [MultiPoly.constant(5, c, K) for c in p.coords] + [t0, t1]
        gp = [g.substitute(at_p) for g in grad]
        assert gp == [lift(g) for g in member_gradient(p.coords, *two)]
        conic = sum((c * g for c, g in zip(p.coords, grad)), zero)
        tangent = gp[0] * x + gp[1] * y + gp[2] * z
        a, b, c = line.coeffs
        split = (a * x + b * y + c * z) * tangent
        assert proportionality(conic, split)[0] is not None, i
        j = next(k for k, e in enumerate(p.coords) if e)
        v = [zero] * 3
        v[(j + 1) % 3], v[(j + 2) % 3] = gp[(j + 2) % 3], -gp[(j + 1) % 3]
        on_tangent = member(*(x * e + y * f for e, f in zip(p.coords, v)))
        assert on_tangent == y**3 * member(*v), i
        assert member(*v) in (t0 * (27 * t0**3 + t1**3), -t0 * (27 * t0**3 + t1**3))
        assert not line.contains(p), i
        u, w = (q.coords for q in line.basis_points())
        by_powers = member(*(x * e + y * f for e, f in zip(u, w))).collect(0)
        coeffs = [divide_exact(by_powers.get(k, zero), y ** (3 - k)) for k in (3, 2, 1, 0)]
        assert coeffs == [lift(f) for f in _binary_cubic(u, w, *two)], i
        assert _cubic_discriminant(*coeffs) == target, i
    assert polar_two_torsion_proof() is None


_SMALL = st.builds(
    lambda a, b: tower_eps().coerce(a + b * EPS), st.integers(-9, 9), st.integers(-9, 9)
)


@settings(max_examples=20, deadline=None)
@given(u=st.tuples(_SMALL, _SMALL, _SMALL), v=st.tuples(_SMALL, _SMALL, _SMALL))
def test_binary_cubic_matches_substitution(u, v):
    # away from the basis points of the polars, where sum u_k^2 v_k and
    # sum v_k^2 u_k vanish, every term of the polarisation counts
    (s, w, t0, t1), member = _generic_member(4)
    by_powers = member(*(s * a + w * b for a, b in zip(u, v))).collect(0)
    zero = MultiPoly.zero(4, tower_eps())
    coeffs = [divide_exact(by_powers.get(k, zero), w ** (3 - k)) for k in (3, 2, 1, 0)]
    two = MultiPoly.variables(2, tower_eps())
    assert coeffs == [f.substitute([t0, t1]) for f in _binary_cubic(u, v, *two)]


def test_chart_resultant_loses_the_t0_factor_on_the_first_polar():
    # Res_s(df/ds, df/du) of f(s, u) = F(s*P0 + u*P1) along the basis points
    # of L_0 drops the t0 of the discriminant: at t0 = 0 the double root of
    # f sits at the basis point u = 0, where the s-degree of both partials
    # falls
    (s, u, t0, t1), member = _generic_member(4)
    p0, p1 = (q.coords for q in POLARS[0].basis_points())
    f = member(*(s * a + u * b for a, b in zip(p0, p1)))
    res = resultant_in_var(f.derivative(0), f.derivative(1), 0)
    assert res == 4 * u**4 * (27 * t0**3 + t1**3)
    with pytest.raises(ValueError):
        divide_exact(res, t0)
    two = MultiPoly.variables(2, tower_eps())
    disc = _cubic_discriminant(*_binary_cubic(p0, p1, *two))
    assert divide_exact(disc, two[0]) == -4 * (27 * two[0] ** 3 + two[1] ** 3)


def test_polar_two_torsion_proof_fails_at_each_step(monkeypatch):
    # with the split of (a) granted, a wrong point, line or discriminant
    # still fails at its own step
    data = hesse_data()
    K = data.domain
    one, zero = K.one(), K.zero()

    def patched(points=data.base_points, polars=data.harmonic_polars):
        wrong = data._replace(base_points=points, harmonic_polars=polars)
        monkeypatch.setattr(ellaw, "hesse_data", lambda: wrong)
        return polar_two_torsion_proof()

    monkeypatch.setattr(ellaw, "polar_conic_split", lambda points, lines: None)
    off = ProjPoint((1, 2, 3), K)
    assert patched(points=PTS[:4] + (off,) + PTS[5:]) == (
        "the flex tangent at p4 meets the member off p4"
    )
    # x = 0 holds p_0 = (0 : 1 : -1); y = 0 avoids p_8 = (1 : -eps^2 : 0),
    # and F = t0*(x^3 + z^3) there
    through = ProjLine((one, zero, zero), K)
    assert patched(polars=(through,) + POLARS[1:]) == "polar 0 passes through p0"
    avoiding = ProjLine((zero, one, zero), K)
    assert patched(polars=POLARS[:8] + (avoiding,)) == (
        "discriminant on polar 8 is not -4*t0*(27*t0^3 + t1^3)"
    )
    monkeypatch.setattr(ellaw, "hesse_data", lambda: data)
    t0, t1 = MultiPoly.variables(2, QQ)
    monkeypatch.setattr(ellaw, "pencil_discriminant", lambda: t0**11 * t1)
    assert polar_two_torsion_proof() == (
        "-4*t0*(27*t0^3 + t1^3) does not divide the pencil discriminant"
    )


def _smooth_lambda(rng):
    """A lambda of up to 16-bit height in Q or Q(eps), at least 1/100 from
    each singular member: |x + y*eps|^2 = x^2 - x*y + y^2."""

    def height16():
        return Fraction(rng.randint(-(2**16), 2**16), rng.randint(1, 2**16))

    while True:
        lam = height16() + (height16() * EPS if rng.random() < 0.5 else 0)
        gaps = (tower_eps().coerce(lam - s).coords for s in (-3, -3 * EPS, -3 * EPS**2))
        if all(x * x - x * y + y * y > Fraction(1, 10**4) for x, y in gaps):
            return lam


def test_two_torsion_numeric_check_holds_at_random_smooth_members():
    rng = random.Random(2718)
    for _ in range(3):
        lam = _smooth_lambda(rng)
        for i in range(9):
            assert two_torsion_polar_check(lam, i).holds, (lam, i)


def test_two_torsion_near_the_singular_member_is_proved_not_sampled():
    # lambda = -3 + 1e-40 is smooth, so (d) gives three distinct points on
    # every polar; the 128-bit numeric report still fails on six of the
    # nine lines there, the known defect of the numeric path
    lam = -3 + Fraction(1, 10**40)
    member = PencilParameter.from_affine(tower_eps().coerce(lam), tower_eps())
    assert not member_is_singular(member)
    assert polar_two_torsion_proof() is None
    t0, t1 = member.pair()
    assert -4 * t0 * (27 * t0**3 + t1**3) != 0
    for line in POLARS:
        form = restrict_to_line(pencil_member(member), line)
        coeffs = [form.coefficient((3 - k, k)) for k in range(4)]
        assert _cubic_discriminant(*coeffs) == -4 * t0 * (27 * t0**3 + t1**3)
    failing = {i for i in range(9) if not two_torsion_polar_check(lam, i).holds}
    assert failing == {1, 2, 4, 5, 7, 8}


# ---------------------------------------------------------------------------
# nine-torsion on the contact cubics, in Q(eps)[x]/(R)
# ---------------------------------------------------------------------------

# 3P = p_k for every point P cut by contact cubic c
CONTACT_K = dict(zip(range(1, 9), (2, 3, 4, 5, 1, 6, 8, 7)))


def _lift(u, v):
    """sum (u_i + v_i*eps) x^i as a polynomial in one variable over Q(eps)."""
    K = tower_eps()
    return MultiPoly(1, {(i,): a + b * EPS for i, (a, b) in enumerate(zip(u, v))}, K)


def _first_chart(lam, cubic):
    """P at shear 0 for the member at lam and contact cubic `cubic`."""
    member = pencil_member(curve_context(lam).parameter)
    return _chart_point(member, hesse_data().halphen_cubics[cubic - 1], 0)


def test_nine_torsion_proof_pins_k_and_the_shear():
    # lambda = 0 is the Fermat member: cubics 1 and 5 cut it in a 3 x 3
    # grid, three points over each abscissa, so S_1 vanishes over every
    # root at shear 0 (A is 0 there) and the proof takes shear 1
    for lam in (Fraction(1), Fraction(12345, 678), Fraction(0)):
        for cubic, k in CONTACT_K.items():
            shear = 1 if lam == 0 and cubic in (1, 5) else 0
            report = nine_torsion_proof(lam, cubic)
            assert report.details == {"k": k, "shear": shear, "degree": 9}, (lam, cubic)
    _, point = _first_chart(0, 1)
    assert not point[2] and _gcd_degree(point[2]) == 9


def test_nine_torsion_near_the_singular_member_is_proved_not_sampled():
    # lambda = -3 + 1e-27 and -3 + 1e-30 are smooth: the proof holds for
    # all eight cubics there, and so does the 128-bit numeric report with
    # the proof's k, but for cubics 2 and 6, where it fails: the known
    # defect of the numeric path, whose points lose too many digits there
    for lam in (-3 + Fraction(1, 10**27), -3 + Fraction(1, 10**30)):
        for cubic, k in CONTACT_K.items():
            assert nine_torsion_proof(lam, cubic).details == {"k": k, "shear": 0, "degree": 9}
            report = nine_torsion_check(lam, cubic)
            assert set(report.triple_indices) == {k}, (lam, cubic)
            assert report.holds == (cubic not in (2, 6)), (lam, cubic)


@settings(max_examples=8, deadline=None)
@given(lam=_TORSION_LAMBDA, cubic=st.integers(1, 8))
def test_nine_torsion_proof_holds_at_large_heights_and_near_the_singular_members(lam, cubic):
    assert nine_torsion_proof(lam, cubic).details["k"] == CONTACT_K[cubic]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), cubic=st.integers(1, 8))
def test_nine_torsion_proof_agrees_with_the_numeric_report(seed, cubic):
    lam = _smooth_lambda(random.Random(seed))
    report = nine_torsion_check(lam, cubic)
    assert report.holds
    assert report.triple_indices == (nine_torsion_proof(lam, cubic).details["k"],) * 9


def test_nine_torsion_proof_fails_at_each_clause(monkeypatch):
    data = hesse_data()
    x, y, z = MultiPoly.variables(3, data.domain)

    def with_contact(cubic):
        cubics = (cubic,) + data.halphen_cubics[1:]
        monkeypatch.setattr(ellaw, "hesse_data", lambda: data._replace(halphen_cubics=cubics))
        return nine_torsion_proof(1, 1).witness

    expected = "expected one p_k with k != 0 at all nine"
    assert with_contact(x**3 + 2 * y**3 + 3 * z**3 + x * y * z) == (
        f"3P is no base point at any of the nine points, {expected} (shear 0)"
    )
    # x = 0 cuts the member in p0, p1 and p2, all of abscissa 0 at shear 0;
    # at shear 1, 3P is p0 at p1 and p2, and the zero vector at p0, where the
    # chord from the origin degenerates
    assert with_contact(x * (2 * x**2 + y**2 + 3 * z**2 - x * z + y * z)) == (
        f"3P is p0 at 2, zero at 1 of the nine points, {expected} (shear 1)"
    )
    # the line holds p0, the conic p1 and p3: p0 and p1 share the abscissa x
    # at shear 0, p0 and p3 share x + y at shear 1, and the line is x + 2y
    # = -2 at shear 2, so A is a zero divisor at every shear
    conic = x**2 + y**2 + z**2 + 2 * x * z - y * z
    assert with_contact((x + 2 * y + 2 * z) * conic) == (
        "no shear x -> x - c*y with c = 0, 1, 2 makes A prime to R"
    )
    # x + z is the line of abscissa -1 at shear 0, both lines meet on the
    # member at (-1 : -1 : 1), and x + 2y + 3z is y-free at shear 2, where
    # the cubic has y-degree one and no first subresultant: every shear is
    # passed over, none raises
    assert with_contact((x + 2 * y + 3 * z) ** 2 * (x + z)) == (
        "no shear x -> x - c*y with c = 0, 1, 2 makes A prime to R"
    )
    # a double line meets the member in three points of multiplicity two
    line = x + 3 * y + 5 * z
    assert with_contact(line**2 * (3 * x - y + 7 * z)) == (
        "R is not squarefree: gcd(R, R') has degree 3 (shear 0)"
    )
    # x + y vanishes at p6 = (1 : -1 : 0), on the line at infinity
    assert with_contact((x + y) * conic) == "R has degree 8, not 9"
    monkeypatch.setattr(ellaw, "hesse_data", lambda: data)
    # a point off the member, then off the contact cubic: F is symmetric
    # in x and y, the first contact cubic is not
    chart_point = ellaw._chart_point

    def moved(change):
        def patched(member, contact, shear):
            degree, (px, py, pz) = chart_point(member, contact, shear)
            return degree, change(px, py, pz)

        return patched

    monkeypatch.setattr(ellaw, "_chart_point", moved(lambda px, py, pz: (px + pz, py, pz)))
    assert nine_torsion_proof(1, 1).witness == "F(P) is not 0 mod R (shear 0)"
    monkeypatch.setattr(ellaw, "_chart_point", moved(lambda px, py, pz: (py, px, pz)))
    assert nine_torsion_proof(1, 1).witness == "G(P) is not 0 mod R (shear 0)"
    monkeypatch.setattr(ellaw, "_chart_point", chart_point)
    # 3P = p2 at every point, but no certificate that 3P is nonzero there:
    # the proof fails rather than assume it
    certified, calls = ellaw._certified_unit, []

    def certifies_a_and_r_only(a):
        calls.append(a)
        return len(calls) <= 2 and certified(a)

    monkeypatch.setattr(ellaw, "_certified_unit", certifies_a_and_r_only)
    primes = ", ".join(str(p) for p, _ in _PRIMES)
    assert nine_torsion_proof(1, 1).witness == (
        f"no prime of ({primes}) certifies that 3P is nonzero at all nine points (shear 0)"
    )
    monkeypatch.setattr(ellaw, "_certified_unit", certified)
    # were -2P taken as P itself, the line through -P and P would meet the
    # member again at the origin: 3P = p0 at all nine points fails (e)
    monkeypatch.setattr(ellaw, "_tangent_third", lambda u, grad_u, t0, t1: tuple(u))
    assert nine_torsion_proof(1, 1).witness == (
        f"3P is p0 at 9 of the nine points, {expected} (shear 0)"
    )


def test_nine_torsion_sweep_needs_the_sample_to_agree_with_the_proof(monkeypatch):
    numeric = ellaw.nine_torsion_check

    def elsewhere(lam, cubic):
        return numeric(lam, cubic)._replace(triple_indices=(3,) * 9)

    monkeypatch.setattr(ellaw, "nine_torsion_check", elsewhere)
    result = nine_torsion_sweep()
    assert not result.holds
    assert result.witness.startswith(
        "lambda=1,cubic=1: triples hit base points (3, 3, 3, 3, 3, 3, 3, 3, 3), worst residual"
    )
    assert result.witness.endswith("expected p2 at all nine within 1.0e-25")
    # 7 divides the discriminant of R at lambda = 1, with eps -> 2, but not
    # the resultant of A and R: A is certified, squarefreeness undecided
    monkeypatch.setattr(ellaw, "_PRIMES", ((7, 2),))
    assert nine_torsion_proof(1, 1).witness == (
        "no prime of (7) certifies that R is squarefree (shear 0)"
    )
    monkeypatch.setattr(ellaw, "_PRIMES", ())
    assert nine_torsion_proof(1, 1).witness == (
        "no shear x -> x - c*y with c = 0, 1, 2 makes A prime to R"
    )


def test_certifying_primes_split_in_q_eps():
    for p, w in _PRIMES:
        assert p % 3 == 1 and all(p % q for q in range(2, 50000))
        assert pow(2, p - 1, p) == 1 and (w * w + w + 1) % p == 0


@settings(max_examples=20, deadline=None)
@given(
    lam=st.sampled_from((Fraction(1), Fraction(-5, 7))),
    us=st.lists(st.integers(-(2**40), 2**40), min_size=18, max_size=18),
    scalar=st.tuples(st.integers(-99, 99), st.integers(-99, 99)),
)
def test_residue_arithmetic_matches_the_polynomial_remainder(lam, us, scalar):
    _, point = _first_chart(lam, 1)
    modulus = point[0].modulus
    ru, rv, _ = modulus
    r = _lift(ru + [1], rv + [0])
    a = _Residue(modulus, us[:9], us[9:])
    c = tower_eps().coerce(scalar[0] + scalar[1] * EPS)
    for got, want in (
        (a * point[1], poly_remainder(_lift(a.u, a.v) * _lift(point[1].u, point[1].v), r)),
        (a * c, _lift(a.u, a.v) * c),
        (3 * a - point[2], _lift(a.u, a.v) * 3 - _lift(point[2].u, point[2].v)),
    ):
        assert _lift(got.u, got.v) == want
    # the certificate never claims a unit that shares a factor with R
    for b in (a, point[2], a * point[2]):
        assert not (_certified_unit(b) and _gcd_degree(b))


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


class _BinaryCubicLaw:
    """A numeric chord law that shares no code with `_chord_third` or
    `_tangent_third`, kept as an oracle: its own gradient, a distance test
    that chooses between chord and tangent, and for a tangent the best
    conditioned of the three partners grad F(p) x e_j."""

    def __init__(self, parameter, bits):
        self.t0, self.t1 = (_to_mpc(t, bits) for t in parameter.pair())
        self.tol = mpmath.mpf(2) ** -(bits // 2)
        self.origin = _embed_point(PTS[0], bits)

    def value(self, p):
        x, y, z = p
        return self.t0 * (x**3 + y**3 + z**3) + self.t1 * x * y * z

    def polar(self, p, q):
        """grad F(p) . q, the s^2 t coefficient of F(s*p + t*q)."""
        x, y, z = p
        grad = (
            3 * self.t0 * x**2 + self.t1 * y * z,
            3 * self.t0 * y**2 + self.t1 * x * z,
            3 * self.t0 * z**2 + self.t1 * x * y,
        )
        return sum(g * c for g, c in zip(grad, q))

    def third(self, p, q):
        if _proj_distance(p, q) < self.tol:
            grad = [self.polar(p, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            partners = [_cross(grad, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            r = _scale(max(partners, key=lambda c: _norm2(_cross(p, c))))
            # F(s*p + t*r) = t^2 (s grad F(r).p + t F(r)) up to noise
            c, d = self.polar(r, p), self.value(r)
            return _scale(tuple(d * a - c * b for a, b in zip(p, r)))
        # F(s*p + t*q) = s t (s grad F(p).q + t grad F(q).p) up to noise
        a, b = self.polar(p, q), self.polar(q, p)
        return _scale(tuple(b * u - a * v for u, v in zip(p, q)))


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
        law = _BinaryCubicLaw(report.parameter, bits)
        base = [_embed_point(p, bits) for p in PTS]
        chain = [_addition_chain_index(law, p.coords, base) for p in report.points]
    assert list(report.triple_indices) == chain


def test_nine_torsion_holds_near_the_singular_member():
    # the line through -2P and -P passes within about 0.04 (lambda + 3) of
    # base points other than p_k there, but 3P itself stays near p_k
    report = nine_torsion_check(-3 + Fraction(1, 10**25), 2, precision_bits=512)
    assert report.holds and set(report.triple_indices) == {3}


@pytest.mark.parametrize(
    "lam", [-3 + Fraction(1, 10**15), Fraction(2**64 - 59, 2**63 + 29)], ids=["1e-15", "height64"]
)
def test_numeric_reports_hold_near_the_singular_member_and_at_64_bit_height(lam):
    # how far the divide-free chord and tangent reach: every cubic with the
    # proof's k and every polar, at 128 and at 512 bits (nearer -3 the
    # 128-bit reports fail, as pinned above)
    for bits in (128, 512):
        for cubic, k in CONTACT_K.items():
            report = nine_torsion_check(lam, cubic, precision_bits=bits)
            assert report.holds and set(report.triple_indices) == {k}, (cubic, bits)
        for line in range(9):
            assert two_torsion_polar_check(lam, line, precision_bits=bits).holds, (line, bits)


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
    assert hessian == PencilParameter.from_affine(Fraction(-109, 3))


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


def test_known_point_returns_the_objects_of_the_tuple_it_is_given():
    # an equal tuple of fresh points, and the points in another order: the
    # match comes from the tuple passed, never from an earlier one
    copies = tuple(ProjPoint(p.coords, p.domain) for p in PTS)
    reordered = PTS[::-1]
    eps = tower_eps().symbol_element("eps")
    for p, q in zip(PTS, copies):
        w = [(2 - eps) * x for x in p.coords]
        assert _known_point(PTS, w) is p
        assert _known_point(copies, w) is q
        assert _known_point(reordered, w) is p
