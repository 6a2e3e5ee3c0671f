"""Check registry, deterministic runner, and JSON reports.

Every verification exposed by the library is registered here under a
dotted identifier, and every registered runner returns a
`PropertyResult`: a pass reports its `details`, a fail its reason
string, and a check that raises fails with the exception's type and
message.  The runner executes any glob-selected subset in registry
order, timing each check and serializing witnesses so that a fixed
configuration reproduces the same results, whatever PYTHONHASHSEED is:
every field of a report is byte-identical between runs except each
check's `runtime_ms`.
"""

import fnmatch
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import mpmath

from .hesse import (
    IDENTITY_NAMES,
    PencilParameter,
    PropertyResult,
    base_point_membership_check,
    char3_check,
    collinearity_check,
    cuspidal_sextic_check,
    derive_cuspidal_nonic,
    dual_curve_check,
    dynamics_report,
    halphen_map_check,
    hesse_data,
    hessian_duality_check,
    cayleyan_map,
    hessian_map,
    identity_suite,
    polar_avoidance_check,
    polar_factorization_check,
    triangle_member_check,
    vertex_singularity_check,
    weierstrass_data,
    _quartic_sextic_forms,
)
from .plane import incidence_table
from .ellaw import (
    contact_pair_vertices_check,
    nine_torsion_check,
    prop62_check,
    three_torsion_table,
    translation_compatibility_check,
    two_torsion_polar_check,
)
from . import groups as groups_mod
from . import lattice as lattice_mod

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class HarnessConfig:
    precision_bits: int = 128
    filters: tuple = ()
    lambdas: tuple = (Fraction(1), Fraction(2), Fraction(1, 2))

    def __post_init__(self):
        if self.precision_bits < 64:
            raise ValueError("precision must be at least 64 bits")
        object.__setattr__(self, "filters", tuple(self.filters))
        object.__setattr__(self, "lambdas", tuple(self.lambdas))


def default_config(**overrides) -> HarnessConfig:
    """The default config with the given fields replaced."""
    return HarnessConfig(**overrides)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # pass | fail | skipped
    witness: object
    reference: str
    runtime_ms: float


def _jsonify(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (mpmath.mpf, mpmath.mpc)):
        return mpmath.nstr(value, 17)
    if isinstance(value, PencilParameter):
        return "inf" if value.is_infinite else str(value.affine())
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonify(v) for v in value]
    return str(value)


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisteredCheck:
    check_id: str
    reference: str
    runner: object  # callable(config) -> PropertyResult


def _expect(got: dict, want: dict) -> PropertyResult:
    """Pass with `got` as details when it agrees with `want` on every key
    of `want`; otherwise fail naming the first key that differs."""
    for key, value in want.items():
        if got.get(key) != value:
            return PropertyResult(
                False, witness=f"{key} is {got.get(key)}, expected {value}"
            )
    return PropertyResult(True, got)


def _measure(measures: dict, want: dict, derive=None) -> PropertyResult:
    """_expect on {key: measure()}, passed through derive when given.  Each
    measure maps forms through the map named by its key and raises
    ValueError when that map lies outside the Hessian group; the first to
    raise fails with a reason naming it."""
    got = {}
    for key, measure in measures.items():
        try:
            got[key] = measure()
        except ValueError as exc:
            return PropertyResult(False, witness=f"{key}: {exc}")
    return _expect(derive(got) if derive else got, want)


def _incidence(_config):
    data = hesse_data()
    table = incidence_table(data.base_points, data.inflection_lines)
    lines_per_point, points_per_line = table.counts_multiset()
    if lines_per_point != [4] * 9 or points_per_line != [3] * 12:
        return PropertyResult(
            False,
            witness=f"lines per point {lines_per_point} and points per line "
            f"{points_per_line}, expected nine 4s and twelve 3s",
        )
    got = {
        "lines_per_point": sorted(set(lines_per_point)),
        "points_per_line": sorted(set(points_per_line)),
    }
    return PropertyResult(True, got)


def _j_special_values(_config):
    data = hesse_data()
    for t in data.equianharmonic_parameters:
        w = weierstrass_data(t.to_domain(data.domain))
        if w.singular or w.j != 0:
            return PropertyResult(False, witness=f"j({t!r}) = {w.j!r}")
    # j - 1728 is a square multiple of the sextic coefficient form, so
    # the harmonic members are exactly the zeros of that form
    a, b = _quartic_sextic_forms()
    lhs = 6912 * a**3 - 1728 * (4 * a**3 + 27 * b**2)
    diff = lhs + 46656 * b**2
    if diff:
        return PropertyResult(False, witness="square-multiple identity failed")
    return PropertyResult(True, {"equianharmonic_j": 0, "square_multiple": -46656})


def _discriminant_roots(_config):
    data = hesse_data()
    for t in data.triangle_parameters:
        if not weierstrass_data(t).singular:
            return PropertyResult(
                False, witness="discriminant nonzero at a triangle parameter"
            )
    for lam in (Fraction(0), Fraction(1), Fraction(-6)):
        if weierstrass_data(PencilParameter.from_affine(lam)).singular:
            return PropertyResult(False, witness=f"unexpected singular member at {lam}")
    return PropertyResult(True, {"singular_parameters": 4})


def _dynamics(_config):
    data = hesse_data()
    triangle = set(data.triangle_parameters)
    rep_h = dynamics_report(hessian_map(), data.equianharmonic_parameters)
    rep_c = dynamics_report(cayleyan_map(), data.triangle_parameters)
    if rep_h.wronskian_degree != 4:
        reason = f"Hessian map Wronskian degree {rep_h.wronskian_degree}, expected 4"
    elif not (rep_h.complete and rep_c.complete):
        reason = "a critical-point count is incomplete"
    elif not set(rep_h.critical_values) <= triangle:
        reason = "a Hessian map critical value is not a triangle parameter"
    elif set(rep_c.critical_values) != triangle:
        reason = "Cayleyan map critical values differ from the triangle parameters"
    else:
        witness = {
            "hessian_multiplicities": rep_h.multiplicities,
            "cayleyan_multiplicities": rep_c.multiplicities,
        }
        return PropertyResult(True, witness)
    return PropertyResult(False, witness=reason)


# groups ---------------------------------------------------------------------


# generator names of the projective groups that the group checks close
_PROJECTIVE_GROUPS = {
    "translations": ("cycle", "scale"),
    "kernel": ("swap", "cycle", "scale"),
    "full": ("cycle", "scale", "fourier", "dilate"),
    "stabilizer": ("fourier", "dilate"),
}


def _projective_image(name, pts):
    """The permutations that the named projective group induces on pts."""
    gens = groups_mod.hessian_group_generators()
    return groups_mod.action_on_points([gens[g] for g in _PROJECTIVE_GROUPS[name]], pts)


def _group_orders(_config):
    base_points = hesse_data().base_points
    images = {name: _projective_image(name, base_points) for name in _PROJECTIVE_GROUPS}
    if not all(image.faithful for image in images.values()):
        return PropertyResult(False, witness="the base points hold no frame")
    got = {name: image.order for name, image in images.items()}
    stab_facts = groups_mod.group_facts(images["stabilizer"])
    got["stabilizer_involutions"] = stab_facts["order_histogram"].get(2, 0)
    return _expect(
        got,
        {
            "translations": 9,
            "kernel": 18,
            "full": 216,
            "stabilizer": 24,
            "stabilizer_involutions": 1,
        },
    )


def _heisenberg(_config):
    gens = groups_mod.hessian_group_generators()
    heis = groups_mod.generate_closure([gens["cycle"], gens["scale"]])
    facts = groups_mod.group_facts(heis)
    got = {
        "order": facts["order"],
        "abelian": facts["abelian"],
        "center": facts["center_order"],
    }
    return _expect(got, {"order": 27, "abelian": False, "center": 3})


def _unit_determinant(_config):
    lifts = groups_mod.unit_determinant_generators()
    dets_one = all(t.det() == t.domain.one() for t in lifts.values())
    closure = groups_mod.generate_closure(list(lifts.values()))
    got = {"order": closure.order, "determinants_one": dets_one}
    return _expect(got, {"order": 648, "determinants_one": True})


def _perm_action(_config):
    image = _projective_image("full", hesse_data().base_points)
    got = {
        "size": image.order,
        "faithful": image.faithful,
        "two_transitive": image.two_transitive,
        "has_triple_cycle": (3, 0, 6, 1, 7, 4, 8, 5, 2) in image.elements,
        "has_double_cycle": (0, 4, 8, 3, 7, 2, 6, 1, 5) in image.elements,
    }
    return _expect(
        got,
        {
            "size": 216,
            "faithful": True,
            "two_transitive": True,
            "has_triple_cycle": True,
            "has_double_cycle": True,
        },
    )


def _vertex_orbits(_config):
    image = _projective_image("translations", hesse_data().vertices)
    sizes = sorted(len(o) for o in image.orbits)
    return _expect({"orbit_sizes": sizes}, {"orbit_sizes": [3, 3, 3, 3]})


def _parameter_image(_config):
    gens = groups_mod.hessian_group_generators()
    order = groups_mod.parameter_image_order(
        [gens["cycle"], gens["scale"], gens["fourier"], gens["dilate"]]
    )
    return _expect({"order": order}, {"order": 12})


def _contact_permutations(_config):
    gens = groups_mod.hessian_group_generators()
    cubics = hesse_data().halphen_cubics
    return _measure(
        {
            name: partial(groups_mod.form_permutation, gens[name], cubics)
            for name in ("fourier", "dilate")
        },
        {"fourier": (1, 4, 7, 2, 5, 0, 3, 6), "dilate": (0, 3, 1, 2, 4, 7, 5, 6)},
        lambda got: {name: perm for name, (perm, _) in got.items()},
    )


def _invariance_sextic(_config):
    gens = groups_mod.hessian_group_generators()
    data = hesse_data()
    K = data.domain
    factor = partial(groups_mod.invariance_factor, data.invariants["sextic"])
    measures = {
        name: partial(factor, gens[name]) for name in ("cycle", "scale", "dilate")
    }
    measures["fourier_normalized"] = partial(
        factor, groups_mod.normalized_fourier(), use_lift=True
    )
    return _measure(measures, dict.fromkeys(measures, K.one()))


def _invariance_nonic(_config):
    gens = groups_mod.hessian_group_generators()
    data = hesse_data()
    factor = partial(groups_mod.invariance_factor, data.invariants["polar_product"])
    swap, cycle = gens["swap"], gens["cycle"]
    return _measure(
        {
            "swap": partial(factor, swap),
            "cycle": partial(factor, cycle),
            "swap*cycle": partial(factor, swap.compose(cycle)),
        },
        {"swap": -data.domain.one(), "multiplicative": True},
        lambda f: {
            "swap": f["swap"],
            "multiplicative": f["swap*cycle"] == f["swap"] * f["cycle"],
        },
    )


def _invariance_twelve_lines(_config):
    gens = groups_mod.hessian_group_generators()
    data = hesse_data()
    lines = data.invariants["inflection_line_product"]
    factor = partial(groups_mod.invariance_factor, lines)
    return _measure(
        {name: partial(factor, gens[name]) for name in ("dilate", "scale")},
        {"dilate": data.eps * data.eps, "scale": data.domain.one()},
    )


def _symplectic(_config):
    data = hesse_data()
    e = data.eps
    one = data.domain.one()
    want = dict.fromkeys(("cycle", "scale", "fourier", "twisted_fourier"), one)
    return _measure(
        {
            name: partial(groups_mod.symplectic_ratio, transform, w_scalar)
            for name, (transform, w_scalar) in groups_mod.cover_automorphisms().items()
        },
        {**want, "dilate": e * e, "dilate_square": e},
    )


# torsion ---------------------------------------------------------------------


def _torsion_table(_config):
    tables = {
        str(lam): three_torsion_table(lam).holds for lam in (Fraction(1), Fraction(2))
    }
    return _expect(tables, {"1": True, "2": True})


def _two_torsion(config):
    out = {"precision_bits": config.precision_bits}
    samples = [(lam, 0) for lam in config.lambdas] + [(Fraction(0), 0)]
    for lam, i in samples:
        rep = two_torsion_polar_check(lam, i, precision_bits=config.precision_bits)
        worst = max(
            *(p.residual for p in rep.points),
            *rep.tangent_residuals,
            *rep.doubling_residuals,
        )
        key = f"lambda={lam},line={i}"
        if not rep.holds:
            return PropertyResult(
                False,
                witness=f"{key}: {len(rep.points)} points on the polar, worst "
                f"residual {mpmath.nstr(worst, 5)}, expected 3 points within "
                f"{mpmath.nstr(rep.tolerance, 5)}",
            )
        out[key] = worst
        out.setdefault("tolerance", rep.tolerance)
    return PropertyResult(True, out)


def _nine_torsion(config):
    out = {"precision_bits": config.precision_bits}
    for lam in config.lambdas:
        rep = nine_torsion_check(lam, 1, precision_bits=config.precision_bits)
        worst = max(
            max(rep.triple_residuals), max(rep.nine_residuals), rep.chain_residual
        )
        if not rep.holds:
            return PropertyResult(
                False,
                witness=f"lambda={lam}: triples hit base points {rep.triple_indices}, "
                f"worst residual {mpmath.nstr(worst, 5)}, expected no origin and "
                f"residuals within {mpmath.nstr(rep.tolerance, 5)}",
            )
        out[f"lambda={lam}"] = worst
        out.setdefault("tolerance", rep.tolerance)
    return PropertyResult(True, out)


def _prop62(_config):
    out = {}
    for lam in (Fraction(0), Fraction(1)):
        res = prop62_check(lam)
        if not res.holds:
            return PropertyResult(False, witness=f"lambda={lam}: {res.witness}")
        out[f"lambda={lam}"] = res.details
    return PropertyResult(True, out)


# lattices ---------------------------------------------------------------------


def _k3_sum_det(_config):
    big = lattice_mod.direct_sum(
        lattice_mod.standard_lattice("U"),
        lattice_mod.standard_lattice("E8", -1),
        lattice_mod.standard_lattice("E8", -1),
        lattice_mod.standard_lattice("A2", -1),
    )
    return _expect({"det": lattice_mod.determinant(big)}, {"det": -3})


def _a2m6_snf(_config):
    snf = lattice_mod.smith_normal_form(lattice_mod.standard_lattice("A2", -6))
    return _expect({"invariants": snf}, {"invariants": (6, 18)})


def _a2m3_norm12(_config):
    vecs = lattice_mod.vectors_of_norm(lattice_mod.standard_lattice("A2", -3), 12)
    return _expect({"vectors": list(vecs)}, {"vectors": []})


def _a2m2_norm12(_config):
    vecs = lattice_mod.vectors_of_norm(lattice_mod.standard_lattice("A2", -2), 12)
    if (1, 1) not in vecs:
        return PropertyResult(False, witness="(1, 1) is not a vector of norm twelve")
    return PropertyResult(True, {"count": len(vecs)})


def _embed_a2m6_a2m2(_config):
    emb = lattice_mod.embeds_finite_index(
        lattice_mod.standard_lattice("A2", -6), lattice_mod.standard_lattice("A2", -2)
    )
    if emb is None:
        return PropertyResult(False, witness="no embedding found")
    matrix, index = emb
    return _expect({"index": index, "matrix": matrix}, {"index": 3})


def _embed_a2m6_a2m3(_config):
    emb = lattice_mod.embeds_finite_index(
        lattice_mod.standard_lattice("A2", -6), lattice_mod.standard_lattice("A2", -3)
    )
    return _expect({"embedding": emb}, {"embedding": None})


def _shioda(_config):
    first = lattice_mod.shioda_tate_rank(
        lattice_mod.FibrationCombinatorics(("II*", "II*", "IV"), 0)
    )
    second = lattice_mod.shioda_tate_rank(
        lattice_mod.FibrationCombinatorics(("I6", "I6", "I6", "I3"), 1)
    )
    got = {"extreme_fibers": first, "cyclic_fibers": second}
    return _expect(got, {"extreme_fibers": 20, "cyclic_fibers": 20})


def _kummer(_config):
    lat = lattice_mod.kummer_fibration_gram()
    got = {
        "det": lattice_mod.determinant(lat),
        "discriminant_invariants": lattice_mod.discriminant_group(lat),
        "order": lattice_mod.discriminant_order(lat),
    }
    return _expect(
        got, {"det": -972, "order": 972, "discriminant_invariants": (3, 3, 3, 6, 6)}
    )


def _registry() -> tuple:
    checks = [
        RegisteredCheck(
            "hesse.incidence",
            "nine base points on twelve lines, three per line and four per point",
            _incidence,
        ),
        RegisteredCheck(
            "hesse.collinear",
            "the twelve collinear triples of base points follow the label sums",
            lambda _config: collinearity_check(),
        ),
        RegisteredCheck(
            "hesse.membership",
            "every base point lies on both pencil generators",
            lambda _config: base_point_membership_check(),
        ),
        RegisteredCheck(
            "hesse.triangles",
            "the four singular members split into the twelve inflection lines",
            lambda _config: triangle_member_check(),
        ),
        RegisteredCheck(
            "hesse.vertices",
            "the twelve triangle vertices are the singular points of singular members",
            lambda _config: vertex_singularity_check(),
        ),
        RegisteredCheck(
            "hesse.duality",
            "second-polar parameter map composed with the flip equals the line-parameter map",
            lambda _config: hessian_duality_check(),
        ),
        RegisteredCheck(
            "hesse.polar.factorization",
            "the polar conic of each base point splits as inflection tangent times fixed line",
            lambda _config: polar_factorization_check(),
        ),
        RegisteredCheck(
            "hesse.polar.avoidance",
            "each fixed polar line avoids its own base point",
            lambda _config: polar_avoidance_check(),
        ),
        RegisteredCheck(
            "hesse.cusps",
            "the quotient sextic has cusps at the eight non-origin base points only",
            lambda _config: cuspidal_sextic_check(),
        ),
        RegisteredCheck(
            "hesse.char3",
            "in characteristic three the pencil degenerates onto three base points",
            lambda _config: char3_check(),
        ),
        RegisteredCheck(
            "hesse.j_values",
            "j vanishes at the four equianharmonic members; j-1728 is a square multiple",
            _j_special_values,
        ),
        RegisteredCheck(
            "hesse.singular_parameters",
            "the discriminant vanishes exactly at the triangle parameters",
            _discriminant_roots,
        ),
        RegisteredCheck(
            "hesse.dual_curve.m10",
            "dual-curve elimination matches the degree-six model at the first sample",
            lambda _config: dual_curve_check(PencilParameter(1, 0)),
        ),
        RegisteredCheck(
            "hesse.dual_curve.m11",
            "dual-curve elimination matches the degree-six model at the second sample",
            lambda _config: dual_curve_check(PencilParameter(1, 1)),
        ),
        RegisteredCheck(
            "hesse.dynamics",
            "critical values of both parameter maps land on the triangle parameters",
            _dynamics,
        ),
        RegisteredCheck(
            "hesse.halphen_cofactor",
            "the degree-nine contact map multiplies both generators by one cofactor",
            lambda _config: halphen_map_check(),
        ),
        RegisteredCheck(
            "hesse.nonic_fit",
            "the relation fit for the quotient model yields a perfect-square nonic",
            lambda _config: derive_cuspidal_nonic(),
        ),
    ]
    for name in IDENTITY_NAMES:
        checks.append(
            RegisteredCheck(
                f"hesse.identity.{name}",
                f"exact polynomial identity '{name}' of the verification suite",
                lambda _config, name=name: identity_suite(name),
            )
        )
    checks.extend(
        [
            RegisteredCheck(
                "groups.orders",
                "orders of the translation, kernel, full and stabilizer groups",
                _group_orders,
            ),
            RegisteredCheck(
                "groups.heisenberg",
                "the linear closure of the translations is nonabelian of order 27",
                _heisenberg,
            ),
            RegisteredCheck(
                "groups.unit_determinant",
                "determinant-one lifts generate a group of order 648",
                _unit_determinant,
            ),
            RegisteredCheck(
                "groups.permutation",
                "the action on base points is faithful, 2-transitive, order 216",
                _perm_action,
            ),
            RegisteredCheck(
                "groups.vertex_orbits",
                "translations split the twelve vertices into four orbits of three",
                _vertex_orbits,
            ),
            RegisteredCheck(
                "groups.parameter_image",
                "the induced action on the parameter line has order twelve",
                _parameter_image,
            ),
            RegisteredCheck(
                "groups.contact_permutations",
                "the two stabilizer generators permute the eight contact cubics",
                _contact_permutations,
            ),
            RegisteredCheck(
                "groups.invariance.sextic",
                "the fundamental sextic is an absolute invariant of the lifted group",
                _invariance_sextic,
            ),
            RegisteredCheck(
                "groups.invariance.nonic",
                "the polar-product nonic changes sign under the swap and is multiplicative",
                _invariance_nonic,
            ),
            RegisteredCheck(
                "groups.invariance.twelve_lines",
                "the twelve-line product is strictly relative under the diagonal generator",
                _invariance_twelve_lines,
            ),
            RegisteredCheck(
                "groups.symplectic",
                "holomorphic-form ratios of the cover lifts are 1 and the primitive cube roots",
                _symplectic,
            ),
            RegisteredCheck(
                "torsion.table",
                "the base-point addition table realizes the rank-two elementary group",
                _torsion_table,
            ),
            RegisteredCheck(
                "torsion.translations",
                "the kernel generators act as translations by 3-torsion points",
                lambda _config: translation_compatibility_check(Fraction(1)),
            ),
            RegisteredCheck(
                "torsion.contact_vertices",
                "paired contact cubics meet exactly in the nine non-coordinate vertices",
                lambda _config: contact_pair_vertices_check(),
            ),
            RegisteredCheck(
                "torsion.two",
                "harmonic polars cut the 2-torsion with respect to their base point",
                _two_torsion,
            ),
            RegisteredCheck(
                "torsion.nine",
                "contact cubics cut points of exact order nine on smooth members",
                _nine_torsion,
            ),
            RegisteredCheck(
                "torsion.prop62",
                "the quotient sextic meets each member twice on a Hessian tangent line",
                _prop62,
            ),
            RegisteredCheck(
                "lattice.k3sum.det",
                "the rank-20 orthogonal sum has determinant -3",
                _k3_sum_det,
            ),
            RegisteredCheck(
                "lattice.a2m6.snf",
                "the twisted hexagonal Gram has invariant factors (6, 18)",
                _a2m6_snf,
            ),
            RegisteredCheck(
                "lattice.a2m3.norm12",
                "the thrice-twisted hexagonal lattice has no vector of norm twelve",
                _a2m3_norm12,
            ),
            RegisteredCheck(
                "lattice.a2m2.norm12",
                "the doubly-twisted hexagonal lattice represents norm twelve",
                _a2m2_norm12,
            ),
            RegisteredCheck(
                "lattice.embed.a2m6_a2m2",
                "index-three embedding of the six-twist into the two-twist lattice",
                _embed_a2m6_a2m2,
            ),
            RegisteredCheck(
                "lattice.embed.a2m6_a2m3",
                "no finite-index embedding of the six-twist into the three-twist lattice",
                _embed_a2m6_a2m3,
            ),
            RegisteredCheck(
                "lattice.shioda",
                "both fibration combinatorics reach Picard rank twenty",
                _shioda,
            ),
            RegisteredCheck(
                "lattice.kummer",
                "the shipped rank-20 fibration Gram has determinant -972 and group order 972",
                _kummer,
            ),
        ]
    )
    return tuple(checks)


_REGISTRY = None


def registry() -> tuple:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _registry()
    return _REGISTRY


def check_ids() -> tuple:
    return tuple(c.check_id for c in registry())


def select_checks(filters) -> tuple:
    """Checks matching any glob, in registry order; every filter must
    match at least one identifier."""
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


@dataclass(frozen=True)
class RunReport:
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
            res = check.runner(config)
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
        "config": {
            "precision_bits": report.config.precision_bits,
            "filters": list(report.config.filters),
            "lambdas": [_jsonify(l) for l in report.config.lambdas],
        },
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
