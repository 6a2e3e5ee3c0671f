"""Field tower arithmetic, the complex embedding of Q(eps) that the numeric
backend of `ellaw` takes, and printing."""

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab.field import (
    ExtensionSpec,
    FieldTower,
    TowerError,
    _reduced,
    element_to_str,
    tower_create,
    tower_eps,
    tower_eps_i,
    tower_eps_i_cbrt2,
    tower_rationals,
    tower_zeta9,
)
from hesse_lab.ellaw import _to_mpc
from hesse_lab.hesse import PencilParameter, hesse_data, pencil_member
from hesse_lab.multipoly import QQ, MultiPoly, resultant_in_var


def _from_coords(tower, coords):
    """The element of the tower with the given rational coordinates."""
    den = lcm(*(q.denominator for q in coords))
    return _reduced(tower, [q.numerator * (den // q.denominator) for q in coords], den)


def test_minpoly_reduction_kills_eps_relation():
    t = tower_eps()
    eps = t.symbol_element("eps")
    assert eps ** 2 + eps + 1 == 0


def test_eps_difference_squared_is_minus_three():
    t = tower_eps()
    eps = t.symbol_element("eps")
    assert (eps - eps ** 2) ** 2 == -3


def test_total_degree_multiplicative():
    assert tower_eps_i_cbrt2().total_degree == 12
    assert tower_eps_i().total_degree == 4
    assert tower_zeta9().total_degree == 6
    assert tower_rationals().total_degree == 1


def test_inverse_of_one_minus_eps():
    t = tower_eps()
    eps = t.symbol_element("eps")
    lhs = t.one() / (t.one() - eps)
    assert lhs == (1 - eps ** 2) / 3


def test_eps_times_eps_squared_is_one():
    eps = tower_eps().symbol_element("eps")
    assert eps * eps ** 2 == 1


def _value_at(x, generator_values):
    """x with each generator of its tower replaced by the given complex value,
    summed over the flat power basis at the current working precision."""
    total = mp.mpc(0)
    for idx, q in enumerate(x.coords):
        term = mp.mpf(q.numerator) / q.denominator
        for value, e in zip(generator_values, x.tower.basis_exponents(idx)):
            term *= value ** e
        total += term
    return total


def test_sqrt3_squares_to_three():
    t = tower_eps_i()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    sqrt3 = -i * (eps - eps ** 2)
    assert sqrt3 ** 2 == 3
    # at eps = exp(2*pi*i/3) and i = +i this is the positive square root
    with mp.workprec(128):
        val = _value_at(sqrt3, (mp.expjpi(mp.mpf(2) / 3), mp.j))
        assert abs(val - mp.sqrt(3)) < mp.mpf(2) ** -120


def test_embed_eps_128_bits():
    eps = tower_eps().symbol_element("eps")
    val = _to_mpc(eps, 128)
    with mp.workprec(160):
        ref = mp.mpc(mp.mpf(-1) / 2, mp.sqrt(3) / 2)
        assert abs(val - ref) < mp.mpf(2) ** -120


def test_embed_eps_difference_is_i_sqrt3():
    eps = tower_eps().symbol_element("eps")
    val = _to_mpc(eps - eps ** 2, 96)
    with mp.workprec(128):
        assert abs(val - mp.mpc(0, mp.sqrt(3))) < mp.mpf(2) ** -80


def test_rational_elements_are_equal_across_towers():
    # a rational element equals its int or Fraction and hashes like it, so
    # equality across towers must agree: any order of insertion gives one set
    K, Z = tower_eps(), tower_zeta9()
    assert len({QQ.one(), K.one(), 1}) == len({1, QQ.one(), K.one()}) == 1
    assert QQ.one() == K.one() == Z.one() and hash(QQ.one()) == hash(K.one())
    half = Fraction(-1, 2)
    assert K.from_rational(half) == QQ.coerce(half) == Z.from_rational(half)
    assert K.from_rational(half) != Z.from_rational(Fraction(1, 2))
    # eps and zeta9^3 satisfy one minimal polynomial, but in two towers
    eps, zeta9 = K.symbol_element("eps"), Z.symbol_element("zeta9")
    assert eps != zeta9 ** 3 and zeta9 ** 3 != eps
    assert len({eps, zeta9 ** 3}) == 2
    # == never raises, whatever it meets
    for other in (eps, zeta9, Z.one(), tower_eps_i().one(), 1, Fraction(1, 2), "1", None, 1.0):
        for x in (K.one(), eps, zeta9 ** 3):
            assert (x == other) in (True, False) and (other == x) in (True, False)


def test_zeta9_tower():
    t = tower_zeta9()
    z = t.symbol_element("zeta9")
    assert z ** 6 + z ** 3 + 1 == 0
    assert z ** 9 == 1
    cube = z ** 3
    assert cube ** 2 + cube + 1 == 0
    # zeta9 -> exp(2*pi*i/9) is a root of the minimal polynomial, so the
    # substitution respects the products the tower reduces by it
    a, b = z ** 5 + 2 * z, z ** 4 - Fraction(3, 7) * z ** 2
    with mp.workprec(128):
        zeta = (mp.expjpi(mp.mpf(2) / 9),)
        eps = mp.expjpi(mp.mpf(2) / 3)
        assert abs(_value_at(z ** 3, zeta) - eps) < mp.mpf(2) ** -120
        product = _value_at(a, zeta) * _value_at(b, zeta)
        assert abs(_value_at(a * b, zeta) - product) < mp.mpf(2) ** -120


def test_division_by_zero_raises():
    t = tower_eps()
    with pytest.raises(ZeroDivisionError):
        t.one() / t.zero()


def test_mixed_tower_arithmetic_raises():
    a = tower_eps().symbol_element("eps")
    b = tower_zeta9().symbol_element("zeta9")
    with pytest.raises(TowerError):
        a + b


def test_non_monic_minpoly_rejected():
    with pytest.raises(TowerError):
        tower_create([ExtensionSpec("a", [1, 1, 2])])


def test_equality_is_structural():
    t = tower_eps()
    eps = t.symbol_element("eps")
    a = (eps + 1) * (eps - 1)
    b = eps ** 2 - 1
    assert a == b
    assert a.coords == b.coords
    assert hash(a) == hash(b)
    assert a != eps


def test_rational_detection():
    t = tower_eps_i()
    x = t.from_rational(Fraction(22, 7))
    assert x.is_rational() and x.rational_value() == Fraction(22, 7)
    assert not t.symbol_element("i").is_rational()


def test_rational_elements_hash_like_their_value():
    # a rational element equals the int or Fraction of its value, so the two
    # must hash alike to find each other in dicts and sets
    for tower in (tower_rationals(), tower_eps(), tower_eps_i_cbrt2()):
        half = tower.from_rational(Fraction(1, 2))
        assert {Fraction(1, 2): "half"}[half] == "half"
        assert {half: "half"}[Fraction(1, 2)] == "half"
        assert hash(tower.one()) == hash(1) and tower.one() == 1
        assert hash(tower.from_rational(-7)) == hash(-7)
        assert len({tower.zero(), 0, Fraction(0)}) == 1
    eps = tower_eps().symbol_element("eps")
    assert hash(eps) == hash(eps * 1) and eps != 1


def test_text_grammar_round_trip():
    t = tower_eps_i_cbrt2()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    c = t.symbol_element("cbrt2")
    x = (eps + i * c) ** 3 - Fraction(7, 5) * c + 1
    assert element_to_str(x) == (
        "2 - 2*i - 7/5*cbrt2 - 3*i*cbrt2 - 3*eps*i*cbrt2 - 3*eps*cbrt2^2"
    )
    assert element_to_str((1 - eps) / 3) == "1/3 - 1/3*eps"
    assert element_to_str(t.zero()) == "0"


_RAT = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)


def _elem(draw):
    t = tower_eps_i()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    coeffs = [draw(_RAT) for _ in range(4)]
    return (
        t.from_rational(coeffs[0])
        + eps * coeffs[1]
        + i * coeffs[2]
        + eps * i * coeffs[3]
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_field_axioms(data):
    a = _elem(data.draw)
    b = _elem(data.draw)
    c = _elem(data.draw)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if a:
        assert a * a.inverse() == 1


# -- the integer-numerator layout: canonical form, hashing, inverses ----------


@lru_cache(maxsize=None)
def _tower_sqrt_half():
    """Q(s) with s^2 = 1/2: structure constants over D = 2."""
    return tower_create([ExtensionSpec("s", [Fraction(-1, 2), 0, 1])])


@lru_cache(maxsize=None)
def _tower_two_level_fractional():
    """Q(s, u) with u^3 = s/3 + 1/5: a fractional minpoly coefficient in Q(s)."""
    s = _tower_sqrt_half().symbol_element("s")
    return tower_create(
        [
            ExtensionSpec("s", [Fraction(-1, 2), 0, 1]),
            ExtensionSpec("u", [-(s / 3 + Fraction(1, 5)), 0, 0, 1]),
        ]
    )


def _contact_resultant(lam):
    """The monic R(x) = Res_y(member, contact cubic 1) in the chart z = 1,
    for the member at the affine parameter lam, as coefficients in Q(eps)."""
    K = tower_eps()
    member = pencil_member(PencilParameter.from_affine(lam, K))
    x, y = MultiPoly.variables(2, K)
    chart = [x, y, MultiPoly.constant(2, K.one(), K)]
    res = resultant_in_var(
        member.substitute(chart), hesse_data().halphen_cubics[0].substitute(chart), 1
    )
    degree = max(e[0] for e in res.terms)
    lead = res.coefficient((degree, 0)).inverse()
    return [res.coefficient((k, 0)) * lead for k in range(degree + 1)]


@lru_cache(maxsize=None)
def _tower_contact_resultant():
    """Q(eps)[xi]/(R) of degree 18 for the member at lambda = -211/163: the
    minimal polynomial's coefficients are elements of Q(eps) with
    denominators.  R need not be irreducible, so no inverse is taken."""
    return tower_create(
        [
            ExtensionSpec("eps", [1, 1, 1]),
            ExtensionSpec("xi", _contact_resultant(Fraction(-211, 163))),
        ]
    )


_TOWERS = (
    tower_eps,
    tower_eps_i,
    tower_eps_i_cbrt2,
    tower_zeta9,
    _tower_sqrt_half,
    _tower_two_level_fractional,
)


def _assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    assert all(isinstance(a, int) for a in x.num)


@st.composite
def _tower_and_elements(draw):
    """A tower of _TOWERS and two random elements of height up to 128 bits."""
    tower = draw(st.sampled_from(_TOWERS))()
    bits = draw(st.sampled_from((4, 16, 64, 128)))
    numerators = st.integers(min_value=-(2 ** bits), max_value=2 ** bits)
    denominators = st.integers(min_value=1, max_value=2 ** bits)
    basis = []
    for k in range(tower.total_degree):
        unit = tower.one()
        for level, e in enumerate(tower.basis_exponents(k)):
            unit = unit * tower.gen(level) ** e
        basis.append(unit)
    elems = []
    for _ in range(2):
        x = tower.zero()
        for unit in basis:
            x = x + unit * Fraction(draw(numerators), draw(denominators))
        elems.append(x)
    return tower, elems


@st.composite
def _embeddable_elements(draw):
    """Two elements of Q or of Q(eps) with coordinates of height up to 512 bits."""
    tower = draw(st.sampled_from((tower_rationals, tower_eps)))()
    bits = draw(st.sampled_from((4, 64, 128, 512)))
    numerators = st.integers(min_value=-(2 ** bits), max_value=2 ** bits)
    denominators = st.integers(min_value=1, max_value=2 ** bits)
    return [
        _from_coords(
            tower,
            [
                Fraction(draw(numerators), draw(denominators))
                for _ in range(tower.total_degree)
            ],
        )
        for _ in range(2)
    ]


def _height(x):
    """|a| + |b| for x = a + b*eps, as an mpf."""
    return sum(abs(mp.mpf(q.numerator) / q.denominator) for q in x.coords)


_EMBED_BITS = st.sampled_from((64, 128, 512))


@settings(max_examples=30, deadline=None)
@given(_embeddable_elements(), _EMBED_BITS)
def test_to_mpc_is_the_embedding_midpoint_bit_for_bit(elems, bits):
    # the closed form (a - b/2) + i*b*sqrt(3)/2 against a + b*exp(2*pi*i/3),
    # each within 2^-bits of the coordinate height
    with mp.workprec(bits + 64):
        eps = mp.expjpi(mp.mpf(2) / 3)
        for z in elems + [elems[0] * elems[1]]:
            a, b = (z.coords + (Fraction(0),))[:2]
            ref = mp.mpf(a.numerator) / a.denominator
            ref += mp.mpf(b.numerator) / b.denominator * eps
            assert abs(_to_mpc(z, bits) - ref) <= _height(z) * mp.mpf(2) ** -bits
    # where the value is exactly representable it comes out to the bit: a
    # rational has imaginary part 0, and small dyadic a, b give a - b/2 exactly
    assert _to_mpc(tower_rationals().from_rational(Fraction(1, 3)), bits).imag == 0
    eps_elem = tower_eps().symbol_element("eps")
    for a, b in ((0, 1), (Fraction(3, 4), -5), (-7, Fraction(1, 8))):
        value = _to_mpc(eps_elem * b + a, bits)
        exact = Fraction(a) - Fraction(b) / 2
        assert value.real == mp.mpf(exact.numerator) / exact.denominator


@settings(max_examples=20, deadline=None)
@given(_embeddable_elements(), _EMBED_BITS)
def test_embedding_additive(elems, bits):
    x, y = elems
    bound = 2 * (_height(x) + _height(y)) * mp.mpf(2) ** -bits
    with mp.workprec(bits + 64):
        assert abs(_to_mpc(x + y, bits) - (_to_mpc(x, bits) + _to_mpc(y, bits))) <= bound


@settings(max_examples=20, deadline=None)
@given(_embeddable_elements(), _EMBED_BITS)
def test_embedding_is_multiplicative_within_bounds(elems, bits):
    x, y = elems
    bound = 4 * _height(x) * _height(y) * mp.mpf(2) ** -bits
    with mp.workprec(bits + 64):
        assert abs(_to_mpc(x * y, bits) - _to_mpc(x, bits) * _to_mpc(y, bits)) <= bound


def test_to_mpc_embeds_only_q_and_q_eps_at_64_bits_or_more():
    with pytest.raises(TowerError):
        _to_mpc(tower_zeta9().symbol_element("zeta9"), 128)
    with pytest.raises(TowerError):
        _to_mpc(tower_eps_i().one(), 128)
    eps = tower_eps().symbol_element("eps")
    with pytest.raises(ValueError, match="precision_bits"):
        _to_mpc(eps, 63)
    assert _to_mpc(tower_rationals().from_rational(Fraction(-3, 4)), 64) == -0.75


def test_fractional_minpolys_give_a_common_denominator():
    assert _tower_sqrt_half()._scale == 2
    assert _tower_two_level_fractional()._scale > 1
    s = _tower_sqrt_half().symbol_element("s")
    assert s * s == Fraction(1, 2)
    u = _tower_two_level_fractional().symbol_element("u")
    s2 = _tower_two_level_fractional().symbol_element("s")
    assert u ** 3 == s2 / 3 + Fraction(1, 5)


def test_tower_build_makes_one_tower_per_level(monkeypatch):
    # each level's table is built over the prefix tower already in hand,
    # so no prefix is rebuilt: Q and one tower per level
    built = []
    init = FieldTower.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(FieldTower, "__init__", counting_init)
    tower = tower_create(
        [
            ExtensionSpec("eps", [1, 1, 1]),
            ExtensionSpec("i", [1, 0, 1]),
            ExtensionSpec("cbrt2", [-2, 0, 0, 1]),
        ]
    )
    assert len(built) == 4
    assert tower == tower_eps_i_cbrt2()
    assert tower._table == tower_eps_i_cbrt2()._table


@settings(max_examples=60, deadline=None)
@given(_tower_and_elements())
def test_integer_layout_properties(drawn):
    tower, (a, b) = drawn
    for x in (a, b, a + b, a - b, a * b, -a, a * Fraction(-3, 4)):
        _assert_canonical(x)
    same = _from_coords(tower, a.coords)
    assert same == a and hash(same) == hash(a)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    negative_rational = tower.from_rational(Fraction(-abs(a.num[0]) - 1, a.den))
    for x in (a, negative_rational):
        if x:
            inv = x.inverse()
            _assert_canonical(inv)
            assert x * inv == 1
    if b:
        assert (a / b) * b == a


def test_contact_resultant_tower_has_its_generator_as_a_root():
    tower = _tower_contact_resultant()
    assert tower.total_degree == 18 and tower._scale > 1
    eps, xi = tower.symbol_element("eps"), tower.symbol_element("xi")
    coeffs = _contact_resultant(Fraction(-211, 163))
    assert any(c.den > 1 for c in coeffs)
    value = tower.zero()
    for k, c in enumerate(coeffs):
        a, b = c.coords
        value = value + (eps * b + a) * xi**k
    assert value == 0


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_contact_resultant_tower_ring_axioms(data):
    tower = _tower_contact_resultant()
    bits = data.draw(st.sampled_from((4, 64)))
    numerators = st.integers(min_value=-(2 ** bits), max_value=2 ** bits)
    denominators = st.integers(min_value=1, max_value=2 ** bits)
    a, b, c = (
        _from_coords(
            tower,
            [
                Fraction(data.draw(numerators), data.draw(denominators))
                for _ in range(tower.total_degree)
            ],
        )
        for _ in range(3)
    )
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    _assert_canonical(a * b)


def test_reducible_minpoly_zero_divisor_raises():
    t = tower_create([ExtensionSpec("x", [-1, 0, 1])])
    x = t.symbol_element("x")
    assert (x - 1) * (x + 1) == 0
    with pytest.raises(ZeroDivisionError):
        (x - 1).inverse()
    assert (x + 2) * (x + 2).inverse() == 1


_DOT_DOMAINS = (
    tower_eps,
    tower_eps_i,
    tower_eps_i_cbrt2,
    tower_zeta9,
    _tower_sqrt_half,
    _tower_contact_resultant,
    lambda: QQ,
)


@st.composite
def _domain_and_vectors(draw):
    """A domain and two equal-length vectors mixing zeros, integral entries
    and entries with unrelated denominators, of height up to 128 bits."""
    domain = draw(st.sampled_from(_DOT_DOMAINS))()
    bits = draw(st.sampled_from((4, 16, 64, 128)))
    numerators = st.integers(min_value=-(2 ** bits), max_value=2 ** bits)

    def entry():
        kind = draw(st.sampled_from(("zero", "integral", "fractional")))
        if kind == "zero":
            return domain.zero()
        top = 1 if kind == "integral" else 2 ** bits
        coords = [
            Fraction(draw(numerators), draw(st.integers(min_value=1, max_value=top)))
            for _ in range(domain.total_degree)
        ]
        return _from_coords(domain, coords)

    size = draw(st.integers(min_value=0, max_value=4))
    return domain, [entry() for _ in range(size)], [entry() for _ in range(size)]


@settings(max_examples=80, deadline=None)
@given(_domain_and_vectors())
def test_dot_is_the_canonical_sum_of_products(drawn):
    domain, xs, ys = drawn
    expected = domain.zero()
    for x, y in zip(xs, ys):
        expected = expected + x * y
    got = domain.dot(xs, ys)
    assert got == expected
    assert domain.dot([], []) == domain.zero()
    assert domain.dot([domain.zero()] * len(ys), ys) == domain.zero()
    _assert_canonical(got)
    assert got.num == expected.num and got.den == expected.den


def _table_dot(tower, xs, ys) -> tuple:
    """(num, den) of sum(x * y) in canonical form, by the loop over the
    structure constant table that the compiled kernel replaces: integer
    terms over the lcm of the pair denominators, reduced once."""
    den = lcm(1, *(x.den * y.den for x, y in zip(xs, ys)))
    acc = [0] * tower.total_degree
    for x, y in zip(xs, ys):
        s = den // (x.den * y.den)
        for i, a in enumerate(x.num):
            for j, b in enumerate(y.num):
                for k, c in tower._table[i][j]:
                    acc[k] += c * a * b * s
    den *= tower._scale
    g = gcd(den, *acc)
    return tuple(a // g for a in acc), den // g


_KERNEL_TOWERS = (
    tower_rationals,
    tower_eps,
    tower_eps_i,
    tower_eps_i_cbrt2,
    tower_zeta9,
    _tower_sqrt_half,
    _tower_two_level_fractional,
)


@st.composite
def _kernel_operands(draw):
    """A tower and two equal-length lists of its elements: heights of 1 to
    256 bits, dense or sparse numerators of either sign, and a denominator
    of 1 or above 1."""
    tower = draw(st.sampled_from(_KERNEL_TOWERS))()
    n = tower.total_degree

    def element():
        bits = draw(st.integers(min_value=1, max_value=256))
        entry = st.integers(min_value=-(2**bits), max_value=2**bits)
        if draw(st.booleans()):
            entry = st.one_of(st.just(0), entry)
        num = draw(st.lists(entry, min_size=n, max_size=n))
        den = draw(st.one_of(st.just(1), st.integers(min_value=2, max_value=2**bits)))
        return _reduced(tower, num, den)

    size = draw(st.integers(min_value=1, max_value=4))
    return tower, [element() for _ in range(size)], [element() for _ in range(size)]


@settings(max_examples=120, deadline=None)
@given(_kernel_operands())
def test_compiled_kernel_matches_the_structure_constant_table(drawn):
    tower, xs, ys = drawn
    products = [x * y for x, y in zip(xs, ys)] + [tower.dot(xs, ys)]
    expected = [_table_dot(tower, [x], [y]) for x, y in zip(xs, ys)]
    expected.append(_table_dot(tower, xs, ys))
    for got, (num, den) in zip(products, expected):
        assert isinstance(got.num, tuple) and len(got.num) == tower.total_degree
        _assert_canonical(got)
        assert (got.num, got.den) == (num, den)
    empty = tower.dot([], [])
    assert empty == 0 and (empty.num, empty.den) == ((0,) * tower.total_degree, 1)


def test_compiled_kernel_of_q_eps_is_the_straight_line_product():
    # (x0 + x1 eps)(y0 + y1 eps) with eps^2 = -1 - eps
    mul = tower_eps()._mul
    for x0, x1, y0, y1 in ((3, -5, 7, 11), (-2**200, 1, 0, -3), (0, 0, 4, 9)):
        assert mul((x0, x1), (y0, y1)) == (x0 * y0 - x1 * y1, x0 * y1 + x1 * y0 - x1 * y1)


def test_text_round_trip_past_the_int_str_digit_limit():
    # the inverse of a 128-bit element of Q(eps, i, cbrt2) has numerators of
    # about 17,900 bits, past Python's default 4300-digit int <-> str limit
    K = tower_eps_i_cbrt2()
    x = _from_coords(
        K, [Fraction(2 ** 127 + 3 * k + 1, 2 ** 128 - 5 * k - 1) for k in range(12)]
    )
    y = x.inverse()
    assert max(abs(a) for a in y.num).bit_length() > 4300 * 10 // 3
    text = element_to_str(y)
    assert repr(y) == text
    # the same text from plain str(), with Python's digit limit lifted
    assert all(y.coords) and not any(abs(q) == 1 for q in y.coords)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        terms = [
            str(q) + "".join(
                f"*{sym}" if k == 1 else f"*{sym}^{k}"
                for sym, k in zip(K.symbols, K.basis_exponents(idx))
                if k
            )
            for idx, q in enumerate(y.coords)
        ]
    finally:
        sys.set_int_max_str_digits(limit)
    assert text == " + ".join(terms).replace(" + -", " - ")
