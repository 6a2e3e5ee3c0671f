"""Polynomial arithmetic, calculus, resultants and exact linear algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab.field import (
    FieldElement,
    TowerError,
    tower_eps,
    tower_rationals,
    tower_zeta9,
)
from hesse_lab.multipoly import (
    QQ,
    MultiPoly,
    _divmod,
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

X, Y, Z = MultiPoly.variables(3)
S = X ** 3 + Y ** 3 + Z ** 3
T = X * Y * Z
PHI6 = X ** 6 + Y ** 6 + Z ** 6 - 10 * (X ** 3 * Y ** 3 + X ** 3 * Z ** 3 + Y ** 3 * Z ** 3)


def test_product_term_count():
    p = S * T
    assert len(p.terms) == 3
    assert p.degree() == 6 and p.is_homogeneous()


def test_phi6_vs_square_of_sum_of_cubes():
    cross = X ** 3 * Y ** 3 + X ** 3 * Z ** 3 + Y ** 3 * Z ** 3
    assert PHI6 + 12 * cross - S * S == 0


def test_powers_take_one_product_per_bit_after_the_first(monkeypatch):
    # left-to-right square-and-multiply: f**2, f**3 and f**6 take one, two and
    # three products, with no squaring after the last bit
    products = []
    multiply = MultiPoly.__mul__

    def counted(self, other):
        products.append(1)
        return multiply(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    f = X + 2 * Y - Z
    expected = {0: 0, 1: 0, 2: 1, 3: 2, 6: 3}
    for n, count in expected.items():
        products.clear()
        power = f ** n
        assert len(products) == count, n
        repeated = MultiPoly.constant(3, QQ.one(), QQ)
        for _ in range(n):
            repeated = multiply(repeated, f)
        assert power == repeated
    eps = tower_eps().symbol_element("eps")
    assert eps ** 6 == 1 and eps ** 0 == 1 and eps ** -2 == eps


def test_multiply_by_zero():
    assert S * MultiPoly.zero(3) == 0


def test_partial_derivatives():
    assert S.derivative(0) == 3 * X ** 2
    assert T.derivative(1) == X * Z


def test_euler_identity_degree_three():
    lam = Fraction(7, 2)
    f = S + lam * T
    total = X * f.derivative(0) + Y * f.derivative(1) + Z * f.derivative(2)
    assert total == 3 * f


def test_hessian_of_fermat_cubic():
    assert hessian_determinant(S) == 216 * T


def test_hessian_of_xyz():
    assert hessian_determinant(T) == 2 * T


def test_hessian_of_quadric_is_constant():
    q = X ** 2 + 5 * Y ** 2 - 3 * X * Z + Z ** 2
    h = hessian_determinant(q)
    assert all(sum(e) == 0 for e in h.terms)


def test_substitute_symmetry_of_phi6():
    assert PHI6.substitute([X, Z, Y]) == PHI6


def test_substitute_antisymmetry_of_phi9():
    phi9 = (X ** 3 - Y ** 3) * (X ** 3 - Z ** 3) * (Y ** 3 - Z ** 3)
    assert phi9.substitute([X, Z, Y]) == -phi9


def test_substitute_identity():
    f = S + 5 * T
    assert f.substitute([X, Y, Z]) == f


# Binary forms are compared by eliminating one variable.  Where both keep
# their full degree in it, the eliminant is Res(f, g) times a power of the
# other variable.


def test_resultant_of_coordinate_forms():
    # Sylvester matrices [[1, 0], [1, v]] and [[1, 0, 0, -v^3], [1, -2v, 0, 0],
    # ...] with f's rows on top; deg f * deg g is odd, so putting g's rows on
    # top would flip both signs.
    u, v = MultiPoly.variables(2)
    assert resultant_in_var(u, u + v, 0) == v  # Res(u, v) = +1
    assert resultant_in_var(u + v, u, 0) == -v
    assert resultant_in_var(u ** 3 - v ** 3, u - 2 * v, 0) == -7 * v ** 3


def test_resultant_detects_common_root():
    u, v = MultiPoly.variables(2)
    assert resultant_in_var(u * u - v * v, u - v, 1) == 0
    assert resultant_in_var(u * u - v * v, u + 2 * v, 1) != 0


def test_resultant_weierstrass_forms_nonzero():
    u, v = MultiPoly.variables(2)
    a = 12 * v * (u ** 3 - v ** 3)
    b = 2 * (u ** 6 - 20 * u ** 3 * v ** 3 - 8 * v ** 6)
    assert resultant_in_var(a, b, 1) == -940369969152 * u ** 24


def test_resultant_factored_roots():
    u, v = MultiPoly.variables(2)
    f = (u - v) * (u - 2 * v) * (u + 3 * v)
    g = (u - 5 * v) * (2 * u + v)
    assert resultant_in_var(f, g, 1) != 0
    assert resultant_in_var(f, (u - 2 * v) * (u - 7 * v), 1) == 0


def test_proportionality_scalar():
    c, witness = proportionality(2 * X ** 3, X ** 3)
    assert c == 2 and witness is None


def test_proportionality_failure_witness():
    c, witness = proportionality(X ** 3, Y ** 3)
    assert c is None and witness == (3, 0, 0)


def test_proportionality_phi6_under_g3():
    te = tower_eps()
    eps = te.symbol_element("eps")
    x, y, z = MultiPoly.variables(3, te)
    phi6 = x ** 6 + y ** 6 + z ** 6 - 10 * (
        x ** 3 * y ** 3 + x ** 3 * z ** 3 + y ** 3 * z ** 3
    )
    image = phi6.substitute(
        [x + y + z, x + eps * y + eps ** 2 * z, x + eps ** 2 * y + eps * z]
    )
    c, witness = proportionality(image, phi6)
    assert witness is None and c == -27


def test_divide_exact_and_failure():
    phi9 = (X ** 3 - Y ** 3) * (X ** 3 - Z ** 3) * (Y ** 3 - Z ** 3)
    q = divide_exact(phi9, X ** 3 - Y ** 3)
    assert q == (X ** 3 - Z ** 3) * (Y ** 3 - Z ** 3)
    with pytest.raises(ValueError):
        divide_exact(S, T)
    # the error names the first leading monomial that does not reduce
    f = S * S + X * Y ** 2
    assert poly_remainder(f, S).leading()[0] == (1, 2, 0)
    with pytest.raises(ValueError, match=r"remainder leading monomial \(1, 2, 0\)"):
        divide_exact(f, S)


_EXPONENTS = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
_TERMS = st.dictionaries(_EXPONENTS, st.integers(-5, 5), max_size=6)


@settings(max_examples=60, deadline=None)
@given(
    quotient=_TERMS,
    extra=_TERMS,
    monomial=_EXPONENTS,
    coefficient=st.sampled_from((1, -1, 2, Fraction(3, 7))),
    tower=st.sampled_from((QQ, tower_eps())),
)
def test_divide_exact_by_a_term_matches_long_division(quotient, extra, monomial, coefficient, tower):
    g = MultiPoly(3, {monomial: coefficient}, tower)
    f = MultiPoly(3, quotient, tower) * g + MultiPoly(3, extra, tower)
    q, r = _divmod(f, g, stop_early=True)
    if r:
        lead = r.leading()[0]
        with pytest.raises(ValueError) as info:
            divide_exact(f, g)
        assert str(info.value) == f"inexact division: remainder leading monomial {lead}"
    else:
        assert divide_exact(f, g) == q
        assert q * g == f


def test_poly_remainder():
    f = S ** 2 + X * Y * S + 7 * T
    r = poly_remainder(f, S)
    assert poly_remainder(f - r, S) == MultiPoly.zero(3)
    assert r == 7 * T
    assert poly_remainder(S * T, S) == MultiPoly.zero(3)


def test_binary_form_gcd():
    U, V = MultiPoly.variables(2)
    a = (U - V) ** 2 * (U + 2 * V)
    b = (U - V) * (U ** 2 + V ** 2)
    g = binary_form_gcd(a, b)
    c, _ = proportionality(g, U - V)
    assert c is not None
    assert binary_form_gcd(U ** 2, V ** 2).degree() == 0
    coprime = binary_form_gcd(U + V, U - V)
    assert coprime.degree() == 0


def _binary_form(data, tower, max_degree):
    """A nonzero binary form of degree at most max_degree times a monomial,
    with coefficients a + b*eps over Q(eps) and integers over Q."""
    eps = tower.symbol_element("eps") if tower.symbols else tower.zero()
    degree = data.draw(st.integers(0, max_degree))
    coeffs = {
        (degree - k, k): data.draw(_SMALL) + data.draw(_SMALL) * eps
        for k in range(degree + 1)
    }
    form = MultiPoly(2, coeffs, tower)
    if not form:
        form = MultiPoly.constant(2, 1, tower)
    U, V = MultiPoly.variables(2, tower)
    return form * U ** data.draw(st.integers(0, 2)) * V ** data.draw(st.integers(0, 2))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), tower=st.sampled_from((QQ, tower_eps())))
def test_binary_form_gcd_of_multiples_is_a_monic_common_divisor(data, tower):
    a, b, c = (_binary_form(data, tower, 3) for _ in range(3))
    g = binary_form_gcd(a * c, b * c)
    assert g.leading()[1] == 1
    divide_exact(a * c, g)
    divide_exact(b * c, g)
    divide_exact(g, c)


def test_poly_sqrt():
    g = X ** 2 - 3 * Y * Z + Fraction(1, 4) * Z ** 2
    assert poly_sqrt(g * g) == g
    with pytest.raises(ValueError):
        poly_sqrt(S)


def test_strip_monomial_content():
    gcd, cof = strip_monomial_content(X ** 2 * Y * Z + X ** 3 * Y ** 2)
    assert gcd == (2, 1, 0) and cof == Z + X * Y


def test_rational_content():
    assert rational_content(Fraction(6, 5) * X - 9 * Y) == Fraction(3, 5)
    assert rational_content(-4 * X ** 2 - 6 * Y ** 2) == -2


def test_collect_and_resultant_in_var():
    f = X ** 2 + Y * X + Z ** 2
    buckets = f.collect(0)
    assert buckets[2] == MultiPoly.constant(3, 1)
    assert buckets[1] == Y
    assert buckets[0] == Z ** 2
    # Res_x of (x - y)(x - z) and (x - y) vanishes; swap a factor and it does not
    r0 = resultant_in_var((X - Y) * (X - Z), X - Y, 0)
    assert r0 == 0
    r1 = resultant_in_var((X - Y) * (X - Z), X - 2 * Y, 0)
    assert r1 == (2 * Y - Z) * Y


def test_first_subresultant_recovers_a_shared_root():
    x, y = MultiPoly.variables(2)
    common = y - (x**2 + 1)
    f = common * (y**2 + x * y + 3)
    g = common * (y**2 - 2 * y + x + 5)
    assert resultant_in_var(f, g, 1) == 0
    s1 = resultant_in_var(f, g, 1, index=1).collect(1)
    assert set(s1) == {0, 1}
    a, b = s1[1], s1[0]
    # S_1 = A*y + B with -B/A = x^2 + 1 exactly
    assert a and b == -a * (x**2 + 1)
    with pytest.raises(ValueError):
        resultant_in_var(f, g, 1, index=3)


def test_det_generic_matches_known_matrix():
    m = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(0), Fraction(1), Fraction(4)],
        [Fraction(5), Fraction(6), Fraction(0)],
    ]
    assert det_generic(m) == 1


def test_linear_solver_and_nullspace():
    q = QQ.coerce
    a = [[q(1), q(2)], [q(3), q(4)]]
    x = field_linsolve(a, [q(5), q(6)], QQ)
    assert x == [Fraction(-4), Fraction(9, 2)]
    assert field_linsolve([[q(1), q(1)], [q(1), q(1)]], [q(0), q(1)], QQ) is None
    ns = field_nullspace([[q(1), q(1), q(0)]], QQ)
    assert len(ns) == 2
    for v in ns:
        assert v[0] + v[1] == 0


def test_rationals_are_the_degree_one_tower():
    K = tower_eps()
    eps = K.symbol_element("eps")
    assert QQ is tower_rationals() and QQ.total_degree == 1
    half = QQ.coerce(Fraction(1, 2))
    assert isinstance(half, FieldElement) and half.inverse() == 2
    # Q goes into every tower, and a rational element of any tower into Q
    assert K.coerce(half) == K.from_rational(Fraction(1, 2))
    back = QQ.coerce(K.from_rational(Fraction(-3, 4)))
    assert back.tower is QQ and back == Fraction(-3, 4)
    with pytest.raises(TowerError):
        QQ.coerce(eps)
    # two distinct non-trivial towers still do not mix
    for x in (eps, K.one()):
        with pytest.raises(TowerError):
            tower_zeta9().coerce(x)
    x, y = MultiPoly.variables(2)
    f = x**2 / 2 - 3 * x * y + Fraction(1, 3)
    assert f.domain is QQ and all(c.tower is QQ for c in f.terms.values())
    assert f.coefficient((2, 0)) == Fraction(1, 2)
    assert f.coefficient((0, 0)) == Fraction(1, 3)
    assert poly_to_str(f) == "1/2*x^2 - 3*x*y + 1/3"
    assert convert_domain(convert_domain(f, K), QQ) == f
    with pytest.raises(ValueError):
        MultiPoly(1, {(1,): eps}, QQ)


def test_reduce_mod_freshmans_dream():
    assert not reduce_mod(S - (X + Y + Z) ** 3, 3)
    assert reduce_mod(S - (X + Y + Z) ** 3, 2)
    assert reduce_mod((X + Y + Z) ** 3, 3) == S


def test_reduce_mod_takes_residues_in_range():
    f = -X ** 2 + Fraction(1, 2) * Y - 7 * Z + 3 * X * Y
    assert reduce_mod(f, 3) == 2 * X ** 2 + 2 * Y + 2 * Z
    assert reduce_mod(f, 5) == 4 * X ** 2 + 3 * Y + 3 * Z + 3 * X * Y
    for p in (3, 5, 7, 11):
        reduced = reduce_mod(f, p)
        assert reduced.domain is QQ
        residues = [c.rational_value() for c in reduced.terms.values()]
        assert all(r.denominator == 1 and 0 < r < p for r in residues)


def test_reduce_mod_rejects_a_denominator_divisible_by_p():
    with pytest.raises(ValueError):
        reduce_mod(X / 3 + Y, 3)
    with pytest.raises(ValueError):
        reduce_mod(Fraction(5, 6) * X, 2)
    assert reduce_mod(X / 3 + Y, 2) == X + Y


def test_parse_print_round_trip():
    te = tower_eps()
    eps = te.symbol_element("eps")
    x, y, z = MultiPoly.variables(3, te)
    f = (1 - eps) / 3 * x ** 2 * y - z ** 3 + 2
    assert poly_to_str(f) == "(1/3 - 1/3*eps)*x^2*y - z^3 + 2"
    assert poly_to_str((1 - eps) / 3 * x ** 2 * y) == "(1/3 - 1/3*eps)*x^2*y"
    assert poly_to_str(S) == "x^3 + y^3 + z^3"
    assert poly_to_str(MultiPoly.zero(3)) == "0"


def test_substitution_checks_arity_and_domain():
    with pytest.raises(ValueError):
        S.substitute([X, Y])
    u, v = MultiPoly.variables(2, tower_eps())
    with pytest.raises(ValueError):
        S.substitute([X, Y, MultiPoly.variables(3, tower_eps())[2]])
    assert S.substitute([u, v, u + v]) == u**3 + v**3 + (u + v) ** 3


_SMALL = st.integers(min_value=-4, max_value=4)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hessian_chain_rule(data):
    te = tower_eps()
    eps = te.symbol_element("eps")
    x, y, z = MultiPoly.variables(3, te)
    f = (
        x ** 3 * data.draw(_SMALL)
        + y ** 3 * data.draw(_SMALL)
        + z ** 3 * data.draw(_SMALL)
        + x * y * z * data.draw(_SMALL)
        + x ** 2 * y * data.draw(_SMALL)
        + y * z ** 2 * data.draw(_SMALL)
    )
    entries = [
        te.from_rational(data.draw(_SMALL)) + eps * data.draw(st.integers(0, 1))
        for _ in range(9)
    ]
    m = [entries[0:3], entries[3:6], entries[6:9]]
    images = [
        m[r][0] * x + m[r][1] * y + m[r][2] * z for r in range(3)
    ]
    det = det_generic([[MultiPoly.constant(3, e, te) for e in row] for row in m])
    lhs = hessian_determinant(f.substitute(images))
    rhs = det.coefficient((0, 0, 0)) ** 2 * hessian_determinant(f).substitute(images)
    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_substitute_respects_products(data):
    def rand_poly(draw):
        return (
            X ** 2 * draw(_SMALL)
            + X * Y * draw(_SMALL)
            + Z ** 2 * draw(_SMALL)
            + Y * Z * draw(_SMALL)
        )

    f = rand_poly(data.draw)
    g = rand_poly(data.draw)
    h = [Y + Z, X - Z, 2 * X + Y]
    assert (f * g).substitute(h) == f.substitute(h) * g.substitute(h)
