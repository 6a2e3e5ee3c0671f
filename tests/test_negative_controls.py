"""Negative controls: checks of every family fail on wrong input.

Every mutant patches wrong data into the library with monkeypatch and
runs one registered check through the harness.  The check must report
"fail" with its own reason string.  `harness.run` folds any exception
into a fail whose witness is "Type: message", so a mutant that merely
makes the check raise does not count; every reason is therefore pinned.
A mutant is keyed by its check id, or by "check id/variant" for a further
mutant of a check.
"""

import pytest

from hesse_lab import ellaw, groups, harness, hesse
from hesse_lab import lattice as lattice_mod
from hesse_lab.groups import ProjTransform
from hesse_lab.harness import HarnessConfig
from hesse_lab.multipoly import QQ, MultiPoly, reduce_mod

_generators = groups.hessian_group_generators
_unit_determinant_generators = groups.unit_determinant_generators
_groups_hesse_data = groups.hesse_data
_hesse_hesse_data = hesse.hesse_data
_ellaw_hesse_data = ellaw.hesse_data
_third_intersection = ellaw.third_intersection
_dot = ellaw._dot
_pencil_discriminant = hesse.pencil_discriminant
_member_gradient = hesse.member_gradient
_cover_automorphisms = groups.cover_automorphisms
_direct_sum = lattice_mod.direct_sum
_standard_lattice = lattice_mod.standard_lattice
_kummer_fibration_gram = lattice_mod.kummer_fibration_gram


def _dilate_dropped():
    # swap is the square of fourier, so the generators now give order 36
    gens = _generators()
    return {**gens, "dilate": gens["swap"]}


def _no_frame(_pts):
    # without a frame among the base points no image is certified faithful
    return None


def _scale_lift_negated():
    # the same projective map, but -1 is not in the Heisenberg group
    gens = _generators()
    return {**gens, "scale": gens["scale"].scaled(-1)}


def _scale_replaced_by_dilate():
    gens = _generators()
    return {**gens, "scale": gens["dilate"]}


def _dilate_lift_scaled_by_zeta9_squared():
    # det(zeta9^2 dilate) = eps, not one
    lifts = _unit_determinant_generators()
    z9 = lifts["dilate"].domain.symbol_element("zeta9")
    return {**lifts, "dilate": lifts["dilate"].scaled(z9)}


def _fourier_lift_replaced_by_cycle():
    # every determinant stays one, but without fourier the lifts close to
    # the Heisenberg group extended by the zeta9 dilate
    lifts = _unit_determinant_generators()
    return {**lifts, "fourier": lifts["cycle"]}


def _base_points_relabelled():
    data = _groups_hesse_data()
    p = data.base_points
    return data._replace(base_points=(p[1], p[0]) + p[2:])


def _labels_one_and_three_swapped():
    data = _ellaw_hesse_data()
    labels = list(data.labels)
    labels[1], labels[3] = labels[3], labels[1]
    return data._replace(labels=tuple(labels))


def _chord_replaced(indices, wrong):
    # the chord through the base points p_i, i in indices (the tangent for
    # one index), returns p_wrong, in either order of its points
    def mutant(ctx, a, b):
        pts = _ellaw_hesse_data().base_points
        if {a, b} == {pts[i] for i in indices}:
            return pts[wrong]
        return _third_intersection(ctx, a, b)

    return mutant


def _known_point_without_products(points, coords):
    # the first point with the zero pattern of coords, the products skipped:
    # each chord among base points returns the first base point on the
    # coordinate line of its third point
    zeros = tuple(not c for c in coords)
    return next((p for p in points if tuple(not c for c in p.coords) == zeros), None)


def _dilate_lift_with_w_scalar_eps():
    # eps^2 is not the factor 1 by which the sextic pulls back under dilate
    lifts = _cover_automorphisms()
    transform, _ = lifts["dilate"]
    return {**lifts, "dilate": (transform, transform.domain.symbol_element("eps"))}


def _fourier_not_normalized():
    # the bare fourier matrix multiplies the sextic by (eps - eps^2)^6 = -27
    return _generators()["fourier"]


def _swap_replaced_by_cycle():
    # the polar-product nonic is invariant under the cycle, not anti-invariant
    gens = _generators()
    return {**gens, "swap": gens["cycle"]}


def _replaced_by_shear(name):
    # (x, y, z) -> (x + y, y, z) lies outside the Hessian group, so it maps
    # no invariant to a multiple of itself and permutes no forms
    def mutant():
        gens = _generators()
        K = gens[name].domain
        one, zero = K.one(), K.zero()
        shear = ((one, one, zero), (zero, one, zero), (zero, zero, one))
        return {**gens, name: ProjTransform(shear, K)}

    return mutant


def _contact_cubic_replaced(index, cubic):
    # contact cubic number index + 1 becomes cubic(cubics, x, y, z), where
    # cubics are the unmutated ones
    def mutant():
        data = _ellaw_hesse_data()
        x, y, z = MultiPoly.variables(3, data.domain)
        cubics = list(data.halphen_cubics)
        cubics[index] = cubic(data.halphen_cubics, x, y, z)
        return data._replace(halphen_cubics=tuple(cubics))

    return mutant


def _tangent_partner_off_the_tangent(u, grad_u, t0, t1, j=2):
    # r = (g_y, g_x, 0) in place of grad F(u) x e_z = (g_y, -g_x, 0), and
    # the same unsigned swap for the numeric sample's e_j: then
    # grad F(u).r = 2 g_x g_y != 0, so r leaves the tangent and the formula
    # gives a point off the member, not -2P
    r = [grad_u[j] * 0] * 3
    r[(j + 1) % 3], r[(j + 2) % 3] = grad_u[(j + 2) % 3], grad_u[(j + 1) % 3]
    grad_r = _member_gradient(r, t0, t1)
    a, b = _dot(grad_r, r), 3 * _dot(grad_r, u)
    return tuple(a * p - b * q for p, q in zip(u, r))


def _cuspidal_sextic_plus_x6():
    # x^6 vanishes on x = 0, the tangent line at lambda = 0, but not on
    # the tangent line at lambda = 1
    data = _ellaw_hesse_data()
    x, _, _ = MultiPoly.variables(3, data.domain)
    sextic = data.invariants["cuspidal_sextic"] + x**6
    return data._replace(invariants={**data.invariants, "cuspidal_sextic": sextic})


def _polar_replaced(index, by):
    # L_index becomes L_by, the harmonic polar of p_by, not of p_index
    def mutant():
        data = _hesse_hesse_data()
        polars = list(data.harmonic_polars)
        polars[index] = polars[by]
        return data._replace(harmonic_polars=tuple(polars))

    return mutant


def _gradient_with_t0_and_t1_swapped(coords, t0, t1):
    # 3*x_k^2*t1 + x_l*x_m*t0: the tangent of another member than the one
    # whose polar conic is split
    return _member_gradient(coords, t1, t0)


def _pencil_discriminant_plus_t0_11_t1():
    # t0^11*t1 is no monomial of (4/729)*t0^3*(t1^3 + 27*t0^3)^3, whose t1
    # exponents are all multiples of three
    t0, t1 = MultiPoly.variables(2, QQ)
    return _pencil_discriminant() + t0**11 * t1


def _equianharmonic_product_plus_x11y():
    # x^11*y is no monomial of s*(s^3 + 216*t^3), whose exponents are all
    # multiples of three
    data = _hesse_hesse_data()
    x, y, _ = MultiPoly.variables(3, data.domain)
    product = data.invariants["equianharmonic_product"] + x**11 * y
    return data._replace(invariants={**data.invariants, "equianharmonic_product": product})


def _reduced_mod(wrong):
    # reduction mod another prime: x^3 + y^3 + z^3 is not (x + y + z)^3 mod 2
    # or mod 5, and the identity-l difference is nonzero mod both
    def mutant(f, p):
        return reduce_mod(f, wrong)

    return mutant


def _gram_entry_moved(lattice, delta):
    # the (0, 1) entry and its mirror move together, so the Gram stays symmetric
    rows = [list(row) for row in lattice.gram]
    rows[0][1] += delta
    rows[1][0] += delta
    return lattice_mod.IntLattice(tuple(map(tuple, rows)))


def _k3_sum_entry_moved(*lattices):
    # the hyperbolic plane U becomes ((0, 2), (2, 0)), of determinant -4
    return _gram_entry_moved(_direct_sum(*lattices), 1)


def _standard_entry_moved(name, twist):
    return _gram_entry_moved(_standard_lattice(name, twist), 1)


def _kummer_entry_moved():
    return _gram_entry_moved(_kummer_fibration_gram(), -1)


MUTANTS = {
    "groups.orders": (groups, "hessian_group_generators", _dilate_dropped),
    "groups.orders/no_frame": (groups, "_frame", _no_frame),
    "groups.heisenberg": (groups, "hessian_group_generators", _scale_lift_negated),
    "groups.unit_determinant": (
        groups,
        "unit_determinant_generators",
        _dilate_lift_scaled_by_zeta9_squared,
    ),
    "groups.unit_determinant/order": (
        groups,
        "unit_determinant_generators",
        _fourier_lift_replaced_by_cycle,
    ),
    "groups.permutation": (groups, "hesse_data", _base_points_relabelled),
    "groups.vertex_orbits": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
    "groups.parameter_image": (groups, "hessian_group_generators", _dilate_dropped),
    "groups.contact_permutations": (
        groups,
        "hessian_group_generators",
        _dilate_dropped,
    ),
    "groups.contact_permutations/shear": (
        groups,
        "hessian_group_generators",
        _replaced_by_shear("dilate"),
    ),
    "groups.invariance.sextic": (groups, "normalized_fourier", _fourier_not_normalized),
    "groups.invariance.sextic/shear": (
        groups,
        "hessian_group_generators",
        _replaced_by_shear("dilate"),
    ),
    "groups.invariance.nonic": (
        groups,
        "hessian_group_generators",
        _swap_replaced_by_cycle,
    ),
    "groups.invariance.nonic/shear": (
        groups,
        "hessian_group_generators",
        _replaced_by_shear("swap"),
    ),
    "groups.invariance.twelve_lines": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
    "groups.invariance.twelve_lines/shear": (
        groups,
        "hessian_group_generators",
        _replaced_by_shear("dilate"),
    ),
    "groups.symplectic": (
        groups,
        "cover_automorphisms",
        _dilate_lift_with_w_scalar_eps,
    ),
    "torsion.table": (ellaw, "hesse_data", _labels_one_and_three_swapped),
    # p_1 is a flex, so its tangent meets the member again only at p_1
    "torsion.table/tangent": (ellaw, "third_intersection", _chord_replaced((1,), 2)),
    "torsion.table/known_point": (ellaw, "_known_point", _known_point_without_products),
    "torsion.translations": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
    # the shear carries p_0 = (0 : 1 : -1) to (1 : 1 : -1), off the base
    # points
    "torsion.translations/shear": (
        groups,
        "hessian_group_generators",
        _replaced_by_shear("scale"),
    ),
    "torsion.translations/known_point": (
        ellaw,
        "_known_point",
        _known_point_without_products,
    ),
    # the line through p_3 and p_6 meets the member again at p_0
    "torsion.translations/chord": (
        ellaw,
        "third_intersection",
        _chord_replaced((3, 6), 3),
    ),
    # a generic cubic: its points are not 9-torsion, so 3P is no base point
    "torsion.nine": (
        ellaw,
        "hesse_data",
        _contact_cubic_replaced(
            0, lambda _, x, y, z: x**3 + 2 * y**3 + 3 * z**3 + x * y * z
        ),
    ),
    # x times a conic: it cuts the member in the three base points on x = 0,
    # which share the abscissa 0, so A is a zero divisor until shear 1; they
    # are 3-torsion, so 3P hits the origin at p1 and p2, and at p0 itself the
    # chord from the origin degenerates to the zero vector
    "torsion.nine/origin": (
        ellaw,
        "hesse_data",
        _contact_cubic_replaced(
            0, lambda _, x, y, z: x * (2 * x**2 + y**2 + 3 * z**2 - x * z + y * z)
        ),
    ),
    "torsion.nine/tangent": (ellaw, "_tangent_third", _tangent_partner_off_the_tangent),
    # both eliminations of the first and second contact cubics are still
    # cubes of x^3 - z^3 and y^3 - z^3, but the two meet in only six of the
    # nine non-coordinate vertices
    "torsion.contact_vertices": (
        ellaw,
        "hesse_data",
        _contact_cubic_replaced(4, lambda cubics, x, y, z: cubics[1]),
    ),
    # 2x^3 - (1 + eps)y^3 + eps*z^3 meets the first contact cubic off
    # x^3 = z^3, so neither elimination is such a cube
    "torsion.contact_vertices/plus_x3": (
        ellaw,
        "hesse_data",
        _contact_cubic_replaced(4, lambda cubics, x, y, z: cubics[4] + x**3),
    ),
    "torsion.prop62": (ellaw, "hesse_data", _cuspidal_sextic_plus_x6),
    # the polar conic of p_0 splits off L_0, not L_1
    "torsion.two": (ellaw, "hesse_data", _polar_replaced(0, 1)),
    # the numeric sample sees line 0 alone; the exact proof reads all nine
    "torsion.two/polar4": (ellaw, "hesse_data", _polar_replaced(4, 5)),
    "hesse.polar.factorization": (hesse, "hesse_data", _polar_replaced(0, 1)),
    "hesse.polar.factorization/tangent": (
        hesse,
        "member_gradient",
        _gradient_with_t0_and_t1_swapped,
    ),
    # L_1 avoids p_0 as well, but it is not y - z
    "hesse.polar.avoidance": (hesse, "hesse_data", _polar_replaced(0, 1)),
    "hesse.singular_parameters": (
        hesse,
        "pencil_discriminant",
        _pencil_discriminant_plus_t0_11_t1,
    ),
    "hesse.char3": (hesse, "reduce_mod", _reduced_mod(2)),
    "hesse.char3/mod5": (hesse, "reduce_mod", _reduced_mod(5)),
    # P^2(F_3) without the base point (0 : 1 : 2)
    "hesse.char3/points": (
        hesse,
        "_F3_POINTS",
        [p for p in hesse._F3_POINTS if p != (0, 1, 2)],
    ),
    "hesse.identity.d": (hesse, "hesse_data", _equianharmonic_product_plus_x11y),
    "hesse.identity.l": (hesse, "reduce_mod", _reduced_mod(2)),
    "hesse.identity.l/mod5": (hesse, "reduce_mod", _reduced_mod(5)),
    "lattice.k3sum.det": (lattice_mod, "direct_sum", _k3_sum_entry_moved),
    "lattice.a2m6.snf": (lattice_mod, "standard_lattice", _standard_entry_moved),
    "lattice.kummer": (lattice_mod, "kummer_fibration_gram", _kummer_entry_moved),
}

# the measured fail reasons; a check that raises also fails with a string,
# "Type: message", so each reason is pinned to tell the two apart
PINNED_WITNESS = {
    "groups.contact_permutations": (
        "dilate is (4, 5, 6, 7, 0, 1, 2, 3), expected (0, 3, 1, 2, 4, 7, 5, 6)"
    ),
    "groups.contact_permutations/shear": "dilate: map does not permute the forms",
    "groups.heisenberg": "order is 54, expected 27",
    "groups.invariance.nonic": "swap is 1, expected -1",
    "groups.invariance.nonic/shear": (
        "swap: not a relative invariant; first mismatch at (5, 4, 0)"
    ),
    "groups.invariance.sextic": "fourier_normalized is -27, expected 1",
    "groups.invariance.sextic/shear": (
        "dilate: not a relative invariant; first mismatch at (5, 1, 0)"
    ),
    "groups.invariance.twelve_lines": "scale is -1 - eps, expected 1",
    "groups.invariance.twelve_lines/shear": (
        "dilate: not a relative invariant; first mismatch at (9, 2, 1)"
    ),
    "groups.orders": "full is 36, expected 216",
    "groups.orders/no_frame": "the base points hold no frame",
    "groups.parameter_image": "order is 2, expected 12",
    "groups.permutation": "has_triple_cycle is False, expected True",
    "groups.symplectic": (
        "dilate: w scalar eps does not preserve the cover: "
        "the sextic pulls back to 1 times itself, not -1 - eps"
    ),
    "groups.unit_determinant": "determinants_one is False, expected True",
    "groups.unit_determinant/order": "order is 81, expected 648",
    "groups.vertex_orbits": "orbit_sizes is [3, 9], expected [3, 3, 3, 3]",
    "hesse.char3": "cubic sum is not a triple line",
    "hesse.char3/mod5": "cubic sum is not a triple line",
    "hesse.char3/points": "base locus [(1 : 0 : 2), (1 : 2 : 0)]",
    "hesse.identity.d": "monomial (11, 1, 0)",
    "hesse.identity.l": "monomial (5, 2, 2)",
    "hesse.identity.l/mod5": "monomial (5, 2, 2)",
    "hesse.polar.avoidance": "first polar is not y - z",
    "hesse.polar.factorization": "polar of p0 has no line factor",
    "hesse.polar.factorization/tangent": "cofactor of p0 is not its flex tangent",
    "hesse.singular_parameters": "monomial (11, 1)",
    "lattice.a2m6.snf": "invariants is (1, 119), expected (6, 18)",
    "lattice.k3sum.det": "det is -12, expected -3",
    "lattice.kummer": "det is -1296, expected -972",
    "torsion.contact_vertices": (
        "common vertices differ from the nine non-coordinate ones"
    ),
    "torsion.contact_vertices/plus_x3": "elimination has extra factors",
    "torsion.nine": (
        "lambda=1: 3P is no base point at any of the nine points, expected one "
        "p_k with k != 0 at all nine (shear 0)"
    ),
    "torsion.nine/origin": (
        "lambda=1: 3P is p0 at 2, zero at 1 of the nine points, expected one "
        "p_k with k != 0 at all nine (shear 1)"
    ),
    "torsion.nine/tangent": (
        "lambda=1: 3P is no base point at any of the nine points, expected one "
        "p_k with k != 0 at all nine (shear 0)"
    ),
    "torsion.prop62": (
        "lambda=1: 0 of 2 tangent-line points on the sextic, expected 2 of 2"
    ),
    "torsion.table": "1 is False, expected True",
    "torsion.table/known_point": "1 is False, expected True",
    "torsion.table/tangent": "1 is False, expected True",
    "torsion.translations": "scale is not a translation",
    "torsion.translations/known_point": "labels (0, 2) and (0, 0) are dependent",
    "torsion.translations/shear": "scale does not permute the base points",
    "torsion.translations/chord": "cycle is not a translation",
    "torsion.two": "polar of p0 has no line factor",
    "torsion.two/polar4": "polar of p4 has no line factor",
}


@pytest.mark.parametrize("key", sorted(MUTANTS))
def test_mutant_is_killed(key, monkeypatch):
    module, name, mutant = MUTANTS[key]
    monkeypatch.setattr(module, name, mutant)
    check_id = key.split("/")[0]
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "fail"
    assert result.witness == PINNED_WITNESS[key]


@pytest.mark.parametrize("check_id", sorted({key.split("/")[0] for key in MUTANTS}))
def test_unmutated_check_passes(check_id):
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "pass"


def test_tangent_mutant_fails_the_numeric_sample_too(monkeypatch):
    # the proof fails first in the harness, so the sample never sees the
    # mutant there; called alone, the sample's tangents leave the member
    # and 3P misses every base point
    monkeypatch.setattr(ellaw, "_tangent_third", _tangent_partner_off_the_tangent)
    report = ellaw.nine_torsion_check(1, 1)
    assert not report.holds
    assert min(report.triple_residuals) > report.tolerance
