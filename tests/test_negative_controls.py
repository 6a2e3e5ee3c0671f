"""Negative controls: each group and 3-torsion check fails on wrong input.

Every mutant patches wrong data into the library with monkeypatch and
runs one registered check through the harness.  The check must report
"fail" with its own measured witness; `harness.run` folds any exception
into a fail whose witness is "Type: message", so a mutant that merely
makes the check raise does not count.  Where a check's own witness is a
string, the expected witness is pinned.
"""

from dataclasses import replace

import pytest

from hesse_lab import ellaw, groups, harness
from hesse_lab.harness import HarnessConfig

_generators = groups.hessian_group_generators
_unit_determinant_generators = groups.unit_determinant_generators
_hesse_data = harness.hesse_data
_ellaw_hesse_data = ellaw.hesse_data


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
    "torsion.table": (ellaw, "hesse_data", _labels_one_and_three_swapped),
    "torsion.translations": (
        groups,
        "hessian_group_generators",
        _scale_replaced_by_dilate,
    ),
}

# measured witnesses; a reason string cannot be told from a raised exception
# by its type, so it is pinned
PINNED_WITNESS = {
    "torsion.table": {"1": False, "2": False},
    "torsion.translations": "scale is not a translation",
}


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_mutant_is_killed(check_id, monkeypatch):
    module, name, mutant = MUTANTS[check_id]
    monkeypatch.setattr(module, name, mutant)
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "fail"
    if check_id in PINNED_WITNESS:
        assert result.witness == PINNED_WITNESS[check_id]
    else:
        assert not isinstance(result.witness, str), result.witness


@pytest.mark.parametrize("check_id", sorted(MUTANTS))
def test_unmutated_check_passes(check_id):
    (result,) = harness.run(HarnessConfig(filters=(check_id,))).results
    assert result.status == "pass"
