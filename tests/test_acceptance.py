"""Acceptance gate: one test per published criterion, with time budgets.

Each test drives the shipped registry or public API, asserts the pinned
values and tolerances, and prints a single pass line; pytest -v adds the
authoritative pass/fail verdict per criterion.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from hesse_lab import harness
from hesse_lab.ellaw import (
    contact_pair_vertices_check,
    nine_torsion_check,
    nine_torsion_proof,
    three_torsion_table,
    translation_compatibility_check,
    two_torsion_polar_check,
)
from hesse_lab.groups import (
    cover_automorphisms,
    hessian_group_generators,
    invariance_factor,
    normalized_fourier,
    symplectic_ratio,
)
from hesse_lab.hesse import IDENTITIES, derive_cuspidal_nonic, hesse_data

TIMINGS = {}
TOL = mpmath.mpf("1e-25")


@contextmanager
def budget(criterion, seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    TIMINGS[criterion] = elapsed
    print(f"criterion {criterion:2d}: PASS in {elapsed:.2f}s (budget {seconds}s)")
    assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s: {elapsed:.2f}s"


def _run_ids(*ids):
    report = harness.run(harness.default_config(filters=ids))
    failed = [r.check_id for r in report.results if r.status != "pass"]
    assert not failed, f"failing checks: {failed}"
    return {r.check_id: r for r in report.results}


def test_criterion_01_configuration_incidence():
    with budget(1, 1.0):
        _run_ids("hesse.incidence", "hesse.collinear", "hesse.membership")


def test_criterion_02_hessian_proportionality_and_duality():
    with budget(2, 5.0):
        _run_ids("hesse.identity.a", "hesse.duality")
        assert IDENTITIES["a"]().details["ratio"] == -2


def test_criterion_03_discriminant_and_j_special_values():
    with budget(3, 30.0):
        _run_ids("hesse.identity.b", "hesse.j_values", "hesse.singular_parameters")


def test_criterion_04_group_tower_orders_and_actions():
    with budget(4, 60.0):
        results = _run_ids(
            "groups.orders",
            "groups.heisenberg",
            "groups.unit_determinant",
            "groups.parameter_image",
            "groups.permutation",
        )
        assert results["groups.orders"].witness == {
            "translations": 9,
            "kernel": 18,
            "full": 216,
            "stabilizer": 24,
            "stabilizer_involutions": 1,
        }
        assert results["groups.heisenberg"].witness["order"] == 27
        assert results["groups.heisenberg"].witness["abelian"] is False
        assert results["groups.unit_determinant"].witness["order"] == 648
        assert results["groups.parameter_image"].witness["order"] == 12
        perm = results["groups.permutation"].witness
        assert perm["size"] == 216 and perm["two_transitive"]
        assert perm["has_triple_cycle"] and perm["has_double_cycle"]


def test_criterion_05_invariant_factors_and_factorizations():
    with budget(5, 60.0):
        _run_ids(
            "groups.invariance.sextic",
            "groups.invariance.nonic",
            "groups.invariance.twelve_lines",
            "hesse.identity.c",
            "hesse.identity.d",
            "hesse.identity.e",
        )
        data = hesse_data()
        gens = hessian_group_generators()
        one = data.domain.one()
        quartic_invariant = data.invariants["equianharmonic_product"]
        for name in ("cycle", "scale", "dilate"):
            assert invariance_factor(quartic_invariant, gens[name]) == one
        assert invariance_factor(quartic_invariant, normalized_fourier()) == one


def test_criterion_06_contact_cubic_suite():
    with budget(6, 120.0):
        results = _run_ids(
            "hesse.identity.f", "groups.contact_permutations", "torsion.contact_vertices"
        )
        perms = results["groups.contact_permutations"].witness
        assert perms["fourier"] == [1, 4, 7, 2, 5, 0, 3, 6]
        assert perms["dilate"] == [0, 3, 1, 2, 4, 7, 5, 6]
        assert contact_pair_vertices_check().holds
        for lam in (Fraction(1), Fraction(2), Fraction(1, 2)):
            proof = nine_torsion_proof(lam, 1)
            assert proof.details == {"k": 2, "shear": 0, "degree": 9}
        rep = nine_torsion_check(Fraction(1), 1, precision_bits=128)
        assert rep.holds and set(rep.triple_indices) == {2}
        worst = max(max(rep.triple_residuals), max(rep.nine_residuals), rep.chain_residual)
        assert worst < TOL


def test_criterion_07_cuspidal_sextic():
    with budget(7, 60.0):
        _run_ids("hesse.cusps", "hesse.identity.n")
        data = hesse_data()
        gens = hessian_group_generators()
        sextic = data.invariants["cuspidal_sextic"]
        assert invariance_factor(sextic, gens["fourier"]) == -27
        assert invariance_factor(sextic, gens["dilate"]) == data.domain.one()


def test_criterion_08_relation_fits_and_square():
    with budget(8, 60.0):
        _run_ids("hesse.identity.m", "hesse.nonic_fit")
        fit = IDENTITIES["m"]()
        normalized = fit.details["coefficient_vector"]
        assert normalized[1] == 1 and len(normalized) == 7
        nonic = derive_cuspidal_nonic()
        assert nonic.holds and nonic.details["square_scalar"] == 432


def test_criterion_09_torsion_tables_and_polars():
    with budget(9, 120.0):
        for lam in (Fraction(1), Fraction(2)):
            assert three_torsion_table(lam).holds
        for lam in (Fraction(1), Fraction(0)):
            rep = two_torsion_polar_check(lam, 0, precision_bits=128)
            assert rep.holds
            assert max(max(rep.tangent_residuals), max(rep.doubling_residuals)) < TOL
        trans = translation_compatibility_check(Fraction(1))
        assert trans.holds
        assert trans.details["assignments"] == {"cycle": 6, "scale": 1}


def test_criterion_10_cover_identities_and_form_ratios():
    with budget(10, 120.0):
        results = _run_ids(
            "hesse.identity.i", "hesse.identity.j", "hesse.identity.k", "groups.symplectic"
        )
        lifts = cover_automorphisms()
        data = hesse_data()
        eps = data.eps
        for name in ("cycle", "scale", "fourier", "twisted_fourier"):
            assert symplectic_ratio(*lifts[name]) == data.domain.one()
        assert symplectic_ratio(*lifts["dilate"]) == eps * eps
        assert symplectic_ratio(*lifts["dilate_square"]) == eps
        assert results["groups.symplectic"].witness == {
            "cycle": "1", "scale": "1", "fourier": "1", "twisted_fourier": "1",
            "dilate": "-1 - eps", "dilate_square": "eps",
        }


def test_criterion_11_lattice_suite():
    with budget(11, 30.0):
        results = _run_ids("lattice.*")
        assert results["lattice.k3sum.det"].witness == {"det": -3}
        assert results["lattice.a2m6.snf"].witness == {"invariants": [6, 18]}
        assert results["lattice.a2m3.norm12"].witness == {"vectors": []}
        assert results["lattice.embed.a2m6_a2m2"].witness["index"] == 3
        assert results["lattice.embed.a2m6_a2m3"].witness == {"embedding": None}
        shioda = results["lattice.shioda"].witness
        assert shioda == {"extreme_fibers": 20, "cyclic_fibers": 20}


def test_criterion_12_side_results():
    with budget(12, 180.0):
        _run_ids(
            "hesse.identity.l",
            "hesse.identity.h",
            "hesse.dual_curve.m10",
            "hesse.dual_curve.m11",
            "hesse.dynamics",
        )
        assert _run_ids("torsion.prop62")["torsion.prop62"].witness == {
            "lambda=0": {"count": 2, "off_base_points": False},
            "lambda=1": {"count": 2, "off_base_points": True},
        }


def test_total_budget():
    total = sum(TIMINGS.values())
    print(f"total acceptance time: {total:.2f}s (budget 600s)")
    assert total < 600.0
