"""Projective points, lines, tangency, singularity type, incidence."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hesse_lab.field import tower_eps
from hesse_lab.hesse import PencilParameter
from hesse_lab.multipoly import MultiPoly, det_generic
from hesse_lab.plane import (
    ProjLine,
    ProjPoint,
    SingularityClass,
    classify_point,
    incidence_table,
    line_parameter,
    line_through,
    lines_meet,
    normalize_projective,
    restrict_to_line,
    root_multiplicity,
    tangent_line,
)

X, Y, Z = MultiPoly.variables(3)
S = X ** 3 + Y ** 3 + Z ** 3
T = X * Y * Z


def test_point_canonicalization():
    assert ProjPoint([0, 2, -2]) == ProjPoint([0, 1, -1])
    assert ProjPoint([Fraction(1, 2), 1, 0]) == ProjPoint([1, 2, 0])
    assert ProjPoint([1, 0, 0]) != ProjPoint([0, 1, 0])
    with pytest.raises(ValueError):
        ProjPoint([0, 0, 0])


def test_normalize_projective():
    K = tower_eps()
    eps = K.symbol_element("eps")
    two = K.from_rational(2)
    values = (K.zero(), two * eps, two, K.zero())
    out = normalize_projective(values)
    assert out == (0, 1, eps.inverse(), 0)
    assert out[0] is values[0] and out[3] is values[3]  # zeros are not scaled
    assert normalize_projective(out) is out  # a lead of one is left alone
    assert normalize_projective([K.one(), two]) == (1, 2)
    with pytest.raises(ValueError):
        normalize_projective((K.zero(), K.zero(), K.zero()))
    # points, lines and pencil parameters share the one normaliser
    assert ProjPoint(values[:3], K).coords == out[:3]
    assert ProjLine(values[:3], K).coeffs == out[:3]
    assert PencilParameter(values[1], values[2], K).pair() == out[1:3]


def test_line_contains_and_meet():
    l = line_through(ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0]))
    assert l == ProjLine([0, 0, 1])
    assert l.contains(ProjPoint([1, -7, 0]))
    assert not l.contains(ProjPoint([1, 0, 1]))
    assert lines_meet(ProjLine([1, 0, 0]), ProjLine([0, 1, 0])) == ProjPoint([0, 0, 1])
    with pytest.raises(ValueError):
        line_through(ProjPoint([1, 1, 1]), ProjPoint([2, 2, 2]))


def test_tangent_to_pencil_member_at_base_point():
    lam = Fraction(5)
    curve = S + lam * T
    tangent = tangent_line(curve, ProjPoint([0, 1, -1]))
    assert tangent == ProjLine([-lam, 3, 3])


def test_tangent_to_fermat_cubic():
    assert tangent_line(S, ProjPoint([1, 0, -1])) == ProjLine([1, 0, 1])


def test_tangent_to_conic():
    assert tangent_line(X * Y - Z ** 2, ProjPoint([1, 0, 0])) == ProjLine([0, 1, 0])


def test_tangent_requires_incidence_and_smoothness():
    with pytest.raises(ValueError):
        tangent_line(S, ProjPoint([1, 0, 0]))
    with pytest.raises(ValueError):
        tangent_line(T, ProjPoint([1, 0, 0]))  # singular on xyz


def test_classify_triangle_vertex_is_node():
    assert classify_point(T, ProjPoint([1, 0, 0])) is SingularityClass.NODE


def test_classify_standard_cusp():
    curve = Z * Y ** 2 - X ** 3
    assert classify_point(curve, ProjPoint([0, 0, 1])) is SingularityClass.CUSP


def test_classify_tacnode_as_higher():
    curve = Z ** 2 * Y ** 2 - X ** 4
    assert classify_point(curve, ProjPoint([0, 0, 1])) is SingularityClass.HIGHER


def test_classify_smooth_point():
    assert classify_point(S, ProjPoint([1, 0, -1])) is SingularityClass.SMOOTH


def test_incidence_table_triangle():
    points = [ProjPoint([1, 0, 0]), ProjPoint([0, 1, 0]), ProjPoint([0, 0, 1])]
    lines = [ProjLine([1, 0, 0]), ProjLine([0, 1, 0]), ProjLine([0, 0, 1])]
    table = incidence_table(points, lines)
    assert table.point_counts == [2, 2, 2]
    assert table.line_counts == [2, 2, 2]
    assert table.matrix[0][0] is False and table.matrix[0][1] is True


def test_incidence_table_empty():
    table = incidence_table([], [])
    assert table.matrix == [] and table.point_counts == [] and table.line_counts == []


def test_restrict_fermat_to_coordinate_line():
    form = restrict_to_line(S, ProjLine([1, 0, 0]))
    s, t = MultiPoly.variables(2)
    assert form == s ** 3 + t ** 3


def test_restrict_triangle_to_diagonal_line():
    form = restrict_to_line(T, ProjLine([0, 1, -1]))
    s, t = MultiPoly.variables(2)
    assert form == s * t ** 2


def test_restrict_rejects_component():
    with pytest.raises(ValueError):
        restrict_to_line(T, ProjLine([1, 0, 0]))


def test_tangency_gives_double_root():
    curve = S + 7 * T
    p = ProjPoint([1, -1, 0])  # base point, so multiplicity is 3
    tangent = tangent_line(curve, p)
    form = restrict_to_line(curve, tangent)
    s0, t0 = line_parameter(tangent, p)
    assert root_multiplicity(form, s0, t0) == 3
    # a smooth point of a conic has tangency exactly 2
    conic = X * Y - Z ** 2
    r = ProjPoint([1, 1, 1])
    tl = tangent_line(conic, r)
    form2 = restrict_to_line(conic, tl)
    s1, t1 = line_parameter(tl, r)
    assert root_multiplicity(form2, s1, t1) == 2


def test_line_parameter_consistency():
    line = ProjLine([2, -3, 5])
    p0, p1 = line.basis_points()
    probe = ProjPoint(
        [a + b for a, b in zip(p0.coords, p1.coords)]
    )
    s, t = line_parameter(line, probe)
    combo = [s * a + t * b for a, b in zip(p0.coords, p1.coords)]
    assert ProjPoint(combo) == probe


_SMALL = st.integers(min_value=-3, max_value=3)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_classification_invariant_under_coordinate_change(data):
    te = tower_eps()
    eps = te.symbol_element("eps")
    x, y, z = MultiPoly.variables(3, te)
    # node and cusp models, transported by a random invertible matrix
    samples = [
        (x * y * z, ProjPoint([1, 0, 0], te), SingularityClass.NODE),
        (z * y ** 2 - x ** 3, ProjPoint([0, 0, 1], te), SingularityClass.CUSP),
    ]
    entries = [
        te.from_rational(data.draw(_SMALL)) + eps * data.draw(st.integers(0, 1))
        for _ in range(9)
    ]
    m = [entries[0:3], entries[3:6], entries[6:9]]
    det = det_generic([[MultiPoly.constant(3, e, te) for e in row] for row in m])
    assume(bool(det))
    images = [m[r][0] * x + m[r][1] * y + m[r][2] * z for r in range(3)]
    for eq, point, expected in samples:
        moved = eq.substitute(images)
        # moved(v) = eq(M v), so the singular point pulls back through M^-1;
        # solve M q = p exactly with the adjugate
        p = point.coords
        adj = []
        for i in range(3):
            row = []
            for j in range(3):
                sub = [
                    [m[a][b] for b in range(3) if b != i]
                    for a in range(3)
                    if a != j
                ]
                minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                row.append(minor if (i + j) % 2 == 0 else -minor)
            adj.append(row)
        q = [
            adj[i][0] * p[0] + adj[i][1] * p[1] + adj[i][2] * p[2]
            for i in range(3)
        ]
        assert classify_point(moved, ProjPoint(q, te)) is expected
