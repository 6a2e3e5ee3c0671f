"""The check table, the deterministic runner, and JSON reports.

Every verification of the library is a row of one table: a dotted
identifier, the paper statement it checks, and a zero-argument runner,
defined beside the mathematics in `hesse`, `groups`, `ellaw` or
`lattice`, that returns a `PropertyResult`.  A row that samples a
fixed argument binds it with `functools.partial`; no setting of the run
reaches a check.  The numeric torsion rows pick their parameters and
working precision and format their residuals in `ellaw`, so the harness
knows no numerics.  A pass reports its `details`, a fail its reason
string, and a check that raises fails with the exception's type and
message.  The runner executes any glob-selected subset in table order,
timing each check and serializing witnesses so that a fixed selection
reproduces the same results, whatever PYTHONHASHSEED is: every field of a
report is byte-identical between runs except each check's `runtime_ms`.
"""

import fnmatch
import json
import time
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from . import ellaw, groups, hesse, lattice

SCHEMA_VERSION = "1"


class HarnessConfig:
    """The glob filters that select the checks of a run; none selects all."""

    __slots__ = ("filters",)

    def __init__(self, filters=()):
        if isinstance(filters, str):
            raise TypeError("filters is a sequence of globs, not one string")
        self.filters = tuple(filters)

    def __eq__(self, other):
        if not isinstance(other, HarnessConfig):
            return NotImplemented
        return self.filters == other.filters


def default_config(**overrides) -> HarnessConfig:
    """The default config with the given fields replaced."""
    return HarnessConfig(**overrides)


class CheckResult(NamedTuple):
    check_id: str
    status: str  # pass | fail
    witness: object
    reference: str
    runtime_ms: float


def _jsonify(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonify(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# the check table
# ---------------------------------------------------------------------------


class RegisteredCheck(NamedTuple):
    check_id: str
    reference: str
    runner: object  # zero-argument callable -> PropertyResult


def registry() -> tuple:
    """The check table in run order."""
    rows = [
        (
            "hesse.incidence",
            "nine base points on twelve lines, three per line and four per point",
            hesse.incidence_check,
        ),
        (
            "hesse.collinear",
            "the twelve collinear triples of base points follow the label sums",
            hesse.collinearity_check,
        ),
        (
            "hesse.membership",
            "every base point lies on both pencil generators",
            hesse.base_point_membership_check,
        ),
        (
            "hesse.triangles",
            "the four singular members split into the twelve inflection lines",
            hesse.triangle_member_check,
        ),
        (
            "hesse.vertices",
            "the twelve triangle vertices are the singular points of singular members",
            hesse.vertex_singularity_check,
        ),
        (
            "hesse.duality",
            "second-polar parameter map composed with the flip equals the line-parameter map",
            hesse.hessian_duality_check,
        ),
        (
            "hesse.polar.factorization",
            "the polar conic of each base point splits as inflection tangent times fixed line",
            hesse.polar_factorization_check,
        ),
        (
            "hesse.polar.avoidance",
            "each fixed polar line avoids its own base point",
            hesse.polar_avoidance_check,
        ),
        (
            "hesse.cusps",
            "the quotient sextic has cusps at the eight non-origin base points only",
            hesse.cuspidal_sextic_check,
        ),
        (
            "hesse.char3",
            "in characteristic three the pencil degenerates onto three base points",
            hesse.char3_check,
        ),
        (
            "hesse.j_values",
            "j vanishes at the four equianharmonic members; j-1728 is a square multiple",
            hesse.j_values_check,
        ),
        (
            "hesse.singular_parameters",
            "the discriminant vanishes exactly at the triangle parameters",
            hesse.singular_parameters_check,
        ),
        (
            "hesse.dual_curve.m10",
            "dual-curve elimination matches the degree-six model at the first sample",
            partial(hesse.dual_curve_check, hesse.PencilParameter(1, 0)),
        ),
        (
            "hesse.dual_curve.m11",
            "dual-curve elimination matches the degree-six model at the second sample",
            partial(hesse.dual_curve_check, hesse.PencilParameter(1, 1)),
        ),
        (
            "hesse.dynamics",
            "critical values of both parameter maps land on the triangle parameters",
            hesse.dynamics_check,
        ),
        (
            "hesse.halphen_cofactor",
            "the degree-nine contact map multiplies both generators by one cofactor",
            hesse.halphen_map_check,
        ),
        (
            "hesse.nonic_fit",
            "the relation fit for the quotient model yields a perfect-square nonic",
            hesse.derive_cuspidal_nonic,
        ),
        *(
            (
                f"hesse.identity.{name}",
                f"exact polynomial identity '{name}' of the verification suite",
                identity,
            )
            for name, identity in hesse.IDENTITIES.items()
        ),
        (
            "groups.orders",
            "orders of the translation, kernel, full and stabilizer groups",
            groups.orders_check,
        ),
        (
            "groups.heisenberg",
            "the linear closure of the translations is nonabelian of order 27",
            groups.heisenberg_check,
        ),
        (
            "groups.unit_determinant",
            "determinant-one lifts generate a group of order 648",
            groups.unit_determinant_check,
        ),
        (
            "groups.permutation",
            "the action on base points is faithful, 2-transitive, order 216",
            groups.permutation_check,
        ),
        (
            "groups.vertex_orbits",
            "translations split the twelve vertices into four orbits of three",
            groups.vertex_orbits_check,
        ),
        (
            "groups.parameter_image",
            "the induced action on the parameter line has order twelve",
            groups.parameter_image_check,
        ),
        (
            "groups.contact_permutations",
            "the two stabilizer generators permute the eight contact cubics",
            groups.contact_permutations_check,
        ),
        (
            "groups.invariance.sextic",
            "the fundamental sextic is an absolute invariant of the lifted group",
            groups.sextic_invariance_check,
        ),
        (
            "groups.invariance.nonic",
            "the polar-product nonic changes sign under the swap and is multiplicative",
            groups.nonic_invariance_check,
        ),
        (
            "groups.invariance.twelve_lines",
            "the twelve-line product is strictly relative under the diagonal generator",
            groups.twelve_lines_invariance_check,
        ),
        (
            "groups.symplectic",
            "holomorphic-form ratios of the cover lifts are 1 and the primitive cube roots",
            groups.symplectic_check,
        ),
        (
            "torsion.table",
            "the base-point addition table realizes the rank-two elementary group",
            ellaw.torsion_table_sweep,
        ),
        (
            "torsion.translations",
            "the kernel generators act as translations by 3-torsion points",
            partial(ellaw.translation_compatibility_check, Fraction(1)),
        ),
        (
            "torsion.contact_vertices",
            "paired contact cubics meet exactly in the nine non-coordinate vertices",
            ellaw.contact_pair_vertices_check,
        ),
        (
            "torsion.two",
            "each harmonic polar cuts the three nonzero 2-torsion points of every "
            "smooth member, with its base point as origin",
            ellaw.two_torsion_sweep,
        ),
        (
            "torsion.nine",
            "the first contact cubic cuts nine points P of exact order nine, with "
            "3P = p_k for one k != 0, on the smooth members lambda = 1, 2 and 1/2",
            ellaw.nine_torsion_sweep,
        ),
        (
            "torsion.prop62",
            "the quotient sextic meets each member twice on a Hessian tangent line",
            ellaw.prop62_sweep,
        ),
        (
            "lattice.k3sum.det",
            "the rank-20 orthogonal sum has determinant -3",
            lattice.k3_sum_det_check,
        ),
        (
            "lattice.a2m6.snf",
            "the twisted hexagonal Gram has invariant factors (6, 18)",
            lattice.a2m6_snf_check,
        ),
        (
            "lattice.a2m3.norm12",
            "the thrice-twisted hexagonal lattice has no vector of norm twelve",
            lattice.a2m3_norm12_check,
        ),
        (
            "lattice.a2m2.norm12",
            "the doubly-twisted hexagonal lattice represents norm twelve",
            lattice.a2m2_norm12_check,
        ),
        (
            "lattice.embed.a2m6_a2m2",
            "index-three embedding of the six-twist into the two-twist lattice",
            lattice.embed_a2m6_a2m2_check,
        ),
        (
            "lattice.embed.a2m6_a2m3",
            "no finite-index embedding of the six-twist into the three-twist lattice",
            lattice.embed_a2m6_a2m3_check,
        ),
        (
            "lattice.shioda",
            "both fibration combinatorics reach Picard rank twenty",
            lattice.shioda_check,
        ),
        (
            "lattice.kummer",
            "the shipped rank-20 fibration Gram has determinant -972 and group order 972",
            lattice.kummer_check,
        ),
    ]
    return tuple(RegisteredCheck(*row) for row in rows)


def check_ids() -> tuple:
    return tuple(c.check_id for c in registry())


def select_checks(filters) -> tuple:
    """Rows of registry() matching any glob, in table order; every filter
    must match at least one identifier."""
    checks = registry()
    if not filters:
        return checks
    ids = [c.check_id for c in checks]
    for pattern in filters:
        if not any(fnmatch.fnmatchcase(i, pattern) for i in ids):
            raise ValueError(f"filter {pattern!r} matches no registered check")
    return tuple(
        c
        for c in checks
        if any(fnmatch.fnmatchcase(c.check_id, p) for p in filters)
    )


class RunReport(NamedTuple):
    config: HarnessConfig
    results: tuple

    @property
    def failures(self) -> tuple:
        return tuple(r for r in self.results if r.status == "fail")

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0


def run(config: HarnessConfig = None) -> RunReport:
    config = config or default_config()
    results = []
    for check in select_checks(config.filters):
        start = time.perf_counter()
        try:
            res = check.runner()
            status = "pass" if res.holds else "fail"
            witness = res.details if res.holds else res.witness
        except Exception as exc:  # noqa: BLE001 - a check must never kill the run
            status = "fail"
            witness = f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(
            CheckResult(
                check.check_id,
                status,
                _jsonify(witness),
                check.reference,
                round(elapsed, 3),
            )
        )
    return RunReport(config, tuple(results))


def report_dict(report: RunReport) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "config": {"filters": list(report.config.filters)},
        "results": [
            {
                "check_id": r.check_id,
                "status": r.status,
                "witness": r.witness,
                "paper_ref": r.reference,
                "runtime_ms": r.runtime_ms,
            }
            for r in report.results
        ],
    }


def report_json(report: RunReport, path: str = None) -> str:
    text = json.dumps(report_dict(report), indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
