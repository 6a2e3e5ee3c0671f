"""Negative controls: checks of every family fail on wrong input.

Every mutant patches wrong data into the library with monkeypatch and
runs one registered check through the harness.  The check must report
"fail" with its own reason string.  `harness.run` folds any exception
into a fail whose witness is "Type: message", so a mutant that merely
makes the check raise does not count; every reason is therefore pinned.
"""

from dataclasses import replace

import pytest

from hesse_lab import ellaw, groups, harness
from hesse_lab import lattice as lattice_mod
from hesse_lab.harness import HarnessConfig

_generators = groups.hessian_group_generators
_unit_determinant_generators = groups.unit_determinant_generators
_hesse_data = harness.hesse_data
_ellaw_hesse_data = ellaw.hesse_data
_cover_automorphisms = groups.cover_automorphisms
_direct_sum = lattice_mod.direct_sum
_standard_lattice = lattice_mod.standard_lattice
_kummer_fibration_gram = lattice_mod.kummer_fibration_gram


def _dilate_dropped():
    # swap is the square of fourier, so the generators now give order 36
    gens = _generators()
    return {**gens, "dilate": gens["swap"]}


def _scale_lift_negated():
    # the same projective map, but -1 is not in the Heisenberg group
    gens = _generators()
    return {**gens, "scale": gens["scale"].scaled(-1)}


def _scale_replaced_by_dilate(*domain):
    gens = _generators(*domain)
    return {**gens, "scale": gens["dilate"]}


def _dilate_lift_scaled_by_zeta9_squared():
    # det(zeta9^2 dilate) = eps, not one
    lifts = _unit_determinant_generators()
    z9 = lifts["dilate"].domain.symbol_element("zeta9")
    return {**lifts, "dilate": lifts["dilate"].scaled(z9)}


def _base_points_relabelled():
    data = _hesse_data()
    p = data.base_points
    return replace(data, base_points=(p[1], p[0]) + p[2:])


def _labels_one_and_three_swapped():
    data = _ellaw_hesse_data()
    labels = list(data.labels)
    labels[1], labels[3] = labels[3], labels[1]
    return replace(data, labels=tuple(labels))


def _dilate_lift_with_w_scalar_eps():
    # eps^2 is not the factor 1 by which the sextic pulls back under dilate
    lifts = _cover_automorphisms()
    transform, _ = lifts["dilate"]
    return {**lifts, "dilate": (transform, transform.domain.symbol_element("eps"))}


def _fourier_not_normalized(domain):
    # the bare fourier matrix multiplies the sextic by (eps - eps^2)^6 = -27
    return _generators(domain)["fourier"]


def _swap_replaced_by_cycle():
    # the polar-product nonic is invariant under the cycle, not anti-invariant
    gens = _generators()
    return {**gens, "swap": gens["cycle"]}


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
    "groups.heisenberg": (groups, "hessian_group_generators", _scale_lift_negated),
    "groups.unit_determinant": (
        groups,
        "unit_determinant_generators",
        _dilate_lift_scaled_by_zeta9_squared,
    ),
    "groups.permutation": (harness, "hesse_data", _base_points_relabelled),
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
    "groups.invariance.sextic": (groups, "normalized_fourier", _fourier_not_normalized),
    "groups.invariance.nonic": (
        groups,
        "hessian_group_generators",
        _swap_replaced_by_cycle,
    ),
    "groups.invariance.twelve_lines": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
    "groups.symplectic": (
        groups,
        "cover_automorphisms",
        _dilate_lift_with_w_scalar_eps,
    ),
    "torsion.table": (ellaw, "hesse_data", _labels_one_and_three_swapped),
    "torsion.translations": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
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
    "groups.heisenberg": "order is 54, expected 27",
    "groups.invariance.nonic": "swap is 1, expected -1",
    "groups.invariance.sextic": "fourier_normalized is -27, expected 1",
    "groups.invariance.twelve_lines": "scale is -1 - eps, expected 1",
    "groups.orders": "full is 36, expected 216",
    "groups.parameter_image": "order is 2, expected 12",
    "groups.permutation": "has_triple_cycle is False, expected True",
    "groups.symplectic": (
        "dilate: w scalar eps does not preserve the cover: "
        "the sextic pulls back to 1 times itself, not -1 - eps"
    ),
    "groups.unit_determinant": "determinants_one is False, expected True",
    "groups.vertex_orbits": "orbit_sizes is [3, 9], expected [3, 3, 3, 3]",
    "lattice.a2m6.snf": "invariants is (1, 119), expected (6, 18)",
    "lattice.k3sum.det": "det is -12, expected -3",
    "lattice.kummer": "det is -1296, expected -972",
    "torsion.table": "1 is False, expected True",
    "torsion.translations": "scale is not a translation",
}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_mutant_is_killed(check_id, monkeypatch):
    module, name, mutant = MUTANTS[check_id]
    monkeypatch.setattr(module, name, mutant)
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "fail"
    assert result.witness == PINNED_WITNESS[check_id]


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_unmutated_check_passes(check_id):
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "pass"
