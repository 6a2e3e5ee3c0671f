"""Field tower arithmetic, embeddings, text grammar and JSON round-trips."""

from fractions import Fraction
from functools import lru_cache
from math import gcd

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab.field import (
    ComplexBall,
    ExtensionSpec,
    FieldTower,
    GFElement,
    PrimeField,
    TowerError,
    element_to_str,
    parse_element,
    tower_create,
    tower_eps,
    tower_eps_i,
    tower_eps_i_cbrt2,
    tower_rationals,
    tower_zeta9,
)


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


def test_sqrt3_squares_to_three():
    t = tower_eps_i()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    sqrt3 = -i * (eps - eps ** 2)
    assert sqrt3 ** 2 == 3
    # the chosen embeddings make this the positive square root
    val, rad = sqrt3.embed_complex(96)
    with mp.workprec(128):
        assert abs(val - mp.sqrt(3)) < mp.mpf(2) ** -80


def test_embed_eps_128_bits():
    eps = tower_eps().symbol_element("eps")
    val, rad = eps.embed_complex(128)
    with mp.workprec(160):
        ref = mp.mpc(mp.mpf(-1) / 2, mp.sqrt(3) / 2)
        assert abs(val - ref) < mp.mpf(2) ** -120
    assert rad < mp.mpf(2) ** -120


def test_embed_zero_is_exact():
    t = tower_eps()
    val, rad = t.zero().embed_complex(64)
    assert val == 0 and rad == 0


def test_embed_eps_difference_is_i_sqrt3():
    eps = tower_eps().symbol_element("eps")
    val, _ = (eps - eps ** 2).embed_complex(96)
    with mp.workprec(128):
        assert abs(val - mp.mpc(0, mp.sqrt(3))) < mp.mpf(2) ** -80


def test_embedding_refines_with_precision():
    x = tower_eps_i_cbrt2().symbol_element("cbrt2")
    _, rad_lo = (x ** 2 + 5).embed_complex(64)
    _, rad_hi = (x ** 2 + 5).embed_complex(256)
    assert rad_hi < rad_lo


def test_embedding_is_multiplicative_within_bounds():
    t = tower_eps_i_cbrt2()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    c = t.symbol_element("cbrt2")
    a = eps * 3 - i * c + 7
    b = c ** 2 - eps * i * Fraction(5, 3)
    va, ra = a.embed_complex(128)
    vb, rb = b.embed_complex(128)
    vab, rab = (a * b).embed_complex(128)
    with mp.workprec(192):
        slack = ra * abs(vb) + rb * abs(va) + ra * rb + rab
        assert abs(vab - va * vb) <= slack + mp.mpf(2) ** -100


def test_zeta9_tower():
    t = tower_zeta9()
    z = t.symbol_element("zeta9")
    assert z ** 6 + z ** 3 + 1 == 0
    assert z ** 9 == 1
    cube = z ** 3
    assert cube ** 2 + cube + 1 == 0
    val, _ = z.embed_complex(96)
    with mp.workprec(128):
        ref = mp.expjpi(mp.mpf(2) / 9)
        assert abs(val - ref) < mp.mpf(2) ** -80


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
        tower_create([ExtensionSpec("a", [1, 1, 2], complex(0, 1))])


def test_ambiguous_hint_rejected():
    # x^2 - 10^-8 has two roots within 1e-3 of 0
    with pytest.raises(TowerError):
        tower_create(
            [ExtensionSpec("a", [Fraction(-1, 10 ** 8), 0, 1], complex(0, 0))]
        )


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


def test_text_grammar_round_trip():
    t = tower_eps_i_cbrt2()
    eps = t.symbol_element("eps")
    i = t.symbol_element("i")
    c = t.symbol_element("cbrt2")
    x = (eps + i * c) ** 3 - Fraction(7, 5) * c + 1
    s = element_to_str(x)
    assert parse_element(s, t) == x
    assert parse_element("(1-eps)/3", t) == (1 - eps) / 3
    assert element_to_str(t.zero()) == "0"
    assert parse_element("0", t) == t.zero()


def test_tower_json_round_trip():
    for t in (tower_eps(), tower_eps_i(), tower_eps_i_cbrt2(), tower_zeta9()):
        assert FieldTower.from_json(t.to_json()) == t


def test_prime_field():
    f3 = PrimeField(3)
    a = f3.coerce(2)
    assert a + a == 1
    assert a * a == 1
    assert a.inverse() == 2
    assert f3.coerce(Fraction(1, 2)) == 2
    with pytest.raises(ZeroDivisionError):
        f3.zero().inverse()


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


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_embedding_additive(data):
    a = _elem(data.draw)
    b = _elem(data.draw)
    va, ra = a.embed_complex(96)
    vb, rb = b.embed_complex(96)
    vs, rs = (a + b).embed_complex(96)
    with mp.workprec(160):
        assert abs(vs - (va + vb)) <= ra + rb + rs + mp.mpf(2) ** -80


# -- the integer-numerator layout: canonical form, hashing, inverses ----------


@lru_cache(maxsize=None)
def _tower_sqrt_half():
    """Q(s) with s^2 = 1/2: structure constants over D = 2."""
    return tower_create(
        [ExtensionSpec("s", [Fraction(-1, 2), 0, 1], complex(0.7071, 0))]
    )


@lru_cache(maxsize=None)
def _tower_two_level_fractional():
    """Q(s, u) with u^3 = s/3 + 1/5: a fractional minpoly coefficient in Q(s)."""
    s = _tower_sqrt_half().symbol_element("s")
    return tower_create(
        [
            ExtensionSpec("s", [Fraction(-1, 2), 0, 1], complex(0.7071, 0)),
            ExtensionSpec(
                "u", [-(s / 3 + Fraction(1, 5)), 0, 0, 1], complex(0.7583, 0)
            ),
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


def test_fractional_minpolys_give_a_common_denominator():
    assert _tower_sqrt_half()._scale == 2
    assert _tower_two_level_fractional()._scale > 1
    s = _tower_sqrt_half().symbol_element("s")
    assert s * s == Fraction(1, 2)
    u = _tower_two_level_fractional().symbol_element("u")
    s2 = _tower_two_level_fractional().symbol_element("s")
    assert u ** 3 == s2 / 3 + Fraction(1, 5)


@settings(max_examples=60, deadline=None)
@given(_tower_and_elements())
def test_integer_layout_properties(drawn):
    tower, (a, b) = drawn
    for x in (a, b, a + b, a - b, a * b, -a, a * Fraction(-3, 4)):
        _assert_canonical(x)
    same = tower._from_coords(a.coords)
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


def test_reducible_minpoly_zero_divisor_raises():
    t = tower_create([ExtensionSpec("x", [-1, 0, 1], complex(1, 0))])
    x = t.symbol_element("x")
    assert (x - 1) * (x + 1) == 0
    with pytest.raises(ZeroDivisionError):
        (x - 1).inverse()
    assert (x + 2) * (x + 2).inverse() == 1
