"""Integer lattice arithmetic: SNF, enumeration, embeddings, fibrations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hesse_lab.lattice import (
    FibrationCombinatorics,
    IntLattice,
    determinant,
    direct_sum,
    discriminant_group,
    discriminant_order,
    embeds_finite_index,
    fibration_lattice_gram,
    kodaira_components,
    kummer_fibration_gram,
    shioda_tate_rank,
    smith_normal_form,
    standard_lattice,
    vectors_of_norm,
)


def test_gram_must_be_symmetric():
    with pytest.raises(ValueError):
        IntLattice(((0, 1), (2, 0)))


def test_standard_lattice_validation():
    with pytest.raises(ValueError):
        standard_lattice("Z3")
    with pytest.raises(ValueError):
        standard_lattice("A2", 0)
    with pytest.raises(ValueError):
        standard_lattice("D3")


def test_standard_gram_conventions():
    assert standard_lattice("U").gram == ((0, 1), (1, 0))
    assert standard_lattice("A2").gram == ((2, 1), (1, 2))
    assert standard_lattice("A2", -2).abs_gram == ((4, 2), (2, 4))
    assert standard_lattice("A2", -2).gram == ((-4, -2), (-2, -4))
    assert determinant(standard_lattice("A2", -2)) == 12
    assert determinant(standard_lattice("E8")) == 1
    assert determinant(standard_lattice("E8", -1)) == 1
    assert determinant(standard_lattice("D4")) == 4
    assert determinant(standard_lattice("A1", 2)) == 4


def test_k3_big_lattice_determinant():
    big = direct_sum(
        standard_lattice("U"),
        standard_lattice("E8", -1),
        standard_lattice("E8", -1),
        standard_lattice("A2", -1),
    )
    assert big.rank == 20
    assert determinant(big) == -3


def test_smith_normal_form_examples():
    assert smith_normal_form(standard_lattice("A2", -6)) == (6, 18)
    assert smith_normal_form(IntLattice(((2, 0), (0, 3)))) == (1, 6)
    assert discriminant_group(IntLattice(((2, 0), (0, 3)))) == (6,)
    with pytest.raises(ValueError):
        smith_normal_form(IntLattice(((1, 1), (1, 1))))


def test_norm_enumeration():
    assert vectors_of_norm(standard_lattice("A2", -3), 12) == ()
    twelve = vectors_of_norm(standard_lattice("A2", -2), 12)
    assert (1, 1) in twelve
    assert len(vectors_of_norm(standard_lattice("A2", -1), 2)) == 6
    with pytest.raises(ValueError):
        vectors_of_norm(standard_lattice("U"), 2)


def test_norm_enumeration_bound_is_exhaustive():
    lat = standard_lattice("A2", -2)
    default = vectors_of_norm(lat, 12)
    widened = vectors_of_norm(lat, 12, coeff_bound=9)
    assert default == widened


def test_finite_index_embeddings():
    sub = standard_lattice("A2", -6)
    emb = embeds_finite_index(sub, standard_lattice("A2", -2))
    assert emb is not None
    matrix, index = emb
    assert index == 3
    g_big = standard_lattice("A2", -2).gram
    for i in range(2):
        for j in range(2):
            got = sum(
                matrix[a][i] * g_big[a][b] * matrix[b][j]
                for a in range(2)
                for b in range(2)
            )
            assert got == sub.gram[i][j]
    assert embeds_finite_index(sub, standard_lattice("A2", -3)) is None
    same = standard_lattice("A2", -1)
    assert embeds_finite_index(same, same)[1] == 1
    with pytest.raises(ValueError):
        embeds_finite_index(standard_lattice("A1"), standard_lattice("A2"))


def test_index_square_test_is_exact_for_huge_determinants():
    # det ratio 10^400 + 1 is no square; a float root of it overflows
    sub = IntLattice(((2 * (10**400 + 1),),))
    assert embeds_finite_index(sub, IntLattice(((2,),))) is None
    emb = embeds_finite_index(IntLattice(((2 * 7**2,),)), IntLattice(((2,),)))
    assert emb == (((-7,),), 7)


def test_kodaira_component_counts():
    assert kodaira_components("I1") == 1
    assert kodaira_components("I6") == 6
    assert kodaira_components("I0*") == 5
    assert kodaira_components("IV*") == 7
    assert kodaira_components("II*") == 9
    with pytest.raises(ValueError):
        kodaira_components("V")


def test_shioda_tate_rank_examples():
    assert shioda_tate_rank(FibrationCombinatorics(("II*", "II*", "IV"), 0)) == 20
    assert shioda_tate_rank(FibrationCombinatorics(("I6", "I6", "I6", "I3"), 1)) == 20
    assert shioda_tate_rank(FibrationCombinatorics((), 0)) == 2


def test_fibration_gram_shipped_example():
    lat = kummer_fibration_gram()
    assert lat.rank == 20
    assert determinant(lat) == -972
    assert discriminant_group(lat) == (3, 3, 3, 6, 6)
    assert discriminant_order(lat) == 972


def test_fibration_gram_other_incidences_differ():
    other = fibration_lattice_gram((6, 6, 6, 3), (1, 1, 1, 0), 0)
    assert determinant(other) == -972
    assert discriminant_group(other) == (3, 6, 54)


def test_disc_invariants_order_matches_det_magnitude():
    order = 1
    for d in (3, 3, 3, 6, 6):
        order *= d
    assert order == 972 == 4 * 243


symmetric_entries = st.integers(min_value=-6, max_value=6)


@st.composite
def small_symmetric(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = draw(symmetric_entries)
            rows[i][j] = rows[j][i] = v
    return IntLattice(tuple(tuple(r) for r in rows))


@settings(max_examples=60, deadline=None)
@given(small_symmetric())
def test_snf_product_is_det(lat):
    det = determinant(lat)
    if det == 0:
        return
    product = 1
    for d in smith_normal_form(lat):
        product *= d
    assert product == abs(det)
    assert discriminant_order(lat) == abs(det)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=16))
def test_norm_enumeration_never_grows_with_bound(twist, target):
    lat = standard_lattice("A2", -twist)
    base = vectors_of_norm(lat, target)
    assert vectors_of_norm(lat, target, coeff_bound=8) == base
