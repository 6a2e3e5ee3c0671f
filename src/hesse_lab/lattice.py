"""Integer quadratic lattices: Gram arithmetic, Smith normal form,
norm enumeration, finite-index embeddings, and fibration rank counting.

Grams are stored with their true sign (a lattice twisted by a negative
integer has a negative-definite Gram); the positive side is available
through `abs_gram` for enumeration, so printed positive forms and the
geometric sign never get mixed up silently.  The module ends with the
registered lattice checks, each described by its row in the harness table.
"""

import math

from .field import _solve_fraction_free
from .hesse import PropertyResult, _expect


def _is_symmetric(rows) -> bool:
    n = len(rows)
    return all(len(r) == n for r in rows) and all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(n)
    )


class IntLattice:
    __slots__ = ("gram",)  # tuple of tuple of int, symmetric

    def __init__(self, gram):
        rows = tuple(tuple(int(v) for v in r) for r in gram)
        if not _is_symmetric(rows):
            raise ValueError("Gram matrix must be symmetric")
        self.gram = rows

    @property
    def rank(self) -> int:
        return len(self.gram)

    def definiteness(self) -> int:
        """+1 positive definite, -1 negative definite, 0 otherwise."""
        for sign in (1, -1):
            minors_ok = True
            for k in range(1, self.rank + 1):
                sub = [[sign * self.gram[i][j] for j in range(k)] for i in range(k)]
                if _int_det(sub) <= 0:
                    minors_ok = False
                    break
            if minors_ok:
                return sign
        return 0

    @property
    def abs_gram(self) -> tuple:
        """The Gram of the sign-normalized (positive) side."""
        if self.definiteness() == -1:
            return tuple(tuple(-v for v in r) for r in self.gram)
        return self.gram

    def __eq__(self, other):
        if not isinstance(other, IntLattice):
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return f"IntLattice(rank={self.rank}, det={determinant(self)})"


def _int_det(rows) -> int:
    """Determinant of an integer matrix: the last pivot of the fraction-free
    elimination of [A | 0], or 0 when A is singular."""
    try:
        return _solve_fraction_free([list(row) + [0] for row in rows])[1]
    except ZeroDivisionError:
        return 0


def determinant(lattice: IntLattice) -> int:
    return _int_det(lattice.gram)


# ---------------------------------------------------------------------------
# standard lattices
# ---------------------------------------------------------------------------

_E_EDGES = {
    6: ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
    7: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
    8: ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
}


def _adjacency_gram(n: int, edges) -> list:
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
    for a, b in edges:
        rows[a - 1][b - 1] = 1
        rows[b - 1][a - 1] = 1
    return rows


def standard_lattice(name: str, twist: int = 1) -> IntLattice:
    """Conventional Gram matrices: U = [[0,1],[1,0]], A_n/D_n/E_n with 2
    on the diagonal and 1 for each Dynkin-diagram edge; the twist scales
    the whole Gram (negative values give the negative-definite side)."""
    if twist == 0:
        raise ValueError("twist must be nonzero")
    name = name.strip()
    if name == "U":
        base = [[0, 1], [1, 0]]
    elif name.startswith("A") and name[1:].isdigit() and int(name[1:]) >= 1:
        n = int(name[1:])
        base = _adjacency_gram(n, [(i, i + 1) for i in range(1, n)])
    elif name.startswith("D") and name[1:].isdigit() and int(name[1:]) >= 4:
        n = int(name[1:])
        edges = [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
        base = _adjacency_gram(n, edges)
    elif name.startswith("E") and name[1:] in ("6", "7", "8"):
        n = int(name[1:])
        base = _adjacency_gram(n, _E_EDGES[n])
    else:
        raise ValueError(f"unknown lattice name {name!r}")
    return IntLattice(tuple(tuple(twist * v for v in row) for row in base))


def direct_sum(*lattices: IntLattice) -> IntLattice:
    total = sum(l.rank for l in lattices)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                rows[offset + i][offset + j] = lat.gram[i][j]
        offset += lat.rank
    return IntLattice(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# Smith normal form and discriminant groups
# ---------------------------------------------------------------------------


def smith_normal_form(lattice: IntLattice) -> tuple:
    """Positive invariant factors d1 | d2 | ... of the Gram matrix."""
    m = [list(r) for r in lattice.gram]
    n = len(m)
    if _int_det(m) == 0:
        raise ValueError("degenerate Gram has no Smith normal form")
    invariants = []
    top = 0
    while top < n:
        pivot = min(
            (
                (abs(m[i][j]), i, j)
                for i in range(top, n)
                for j in range(top, n)
                if m[i][j] != 0
            ),
            default=None,
        )
        if pivot is None:
            break
        _, pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        dirty = False
        for i in range(top + 1, n):
            q = m[i][top] // m[top][top]
            if q:
                for j in range(top, n):
                    m[i][j] -= q * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, n):
            q = m[top][j] // m[top][top]
            if q:
                for i in range(top, n):
                    m[i][j] -= q * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        # pivot must divide every remaining entry for the factors to chain
        offender = next(
            (
                (i, j)
                for i in range(top + 1, n)
                for j in range(top + 1, n)
                if m[i][j] % m[top][top]
            ),
            None,
        )
        if offender is not None:
            i, _ = offender
            for j in range(top, n):
                m[top][j] += m[i][j]
            continue
        invariants.append(abs(m[top][top]))
        top += 1
    return tuple(invariants)


def discriminant_group(lattice: IntLattice) -> tuple:
    """Cyclic invariants (> 1) of the cokernel of the Gram matrix."""
    return tuple(d for d in smith_normal_form(lattice) if d > 1)


def discriminant_order(lattice: IntLattice) -> int:
    order = 1
    for d in discriminant_group(lattice):
        order *= d
    return order


# ---------------------------------------------------------------------------
# norm enumeration and embeddings
# ---------------------------------------------------------------------------


def _pairing(gram, u, v) -> int:
    """u^T Gram v."""
    rank = len(gram)
    return sum(u[a] * gram[a][b] * v[b] for a in range(rank) for b in range(rank))


def vectors_of_norm(lattice: IntLattice, n: int, coeff_bound: int = None) -> tuple:
    """Exhaustive list of vectors with |x Gram x| = |n| on a definite
    lattice; the default bound n*(G^-1)_ii covers every solution."""
    sign = lattice.definiteness()
    if sign == 0:
        raise ValueError("norm enumeration needs a definite lattice")
    target = abs(n)
    gram = lattice.abs_gram
    rank = lattice.rank
    if coeff_bound is None:
        det = _int_det(gram)
        bounds = []
        for i in range(rank):
            # (G^-1)_ii = det(G without row and column i) / det(G), by Cramer;
            # det > 0 on the positive-definite abs_gram
            minor = [row[:i] + row[i + 1 :] for k, row in enumerate(gram) if k != i]
            bounds.append(math.isqrt(_int_det(minor) * target // det))
    else:
        bounds = [coeff_bound] * rank

    out = []

    def walk(prefix):
        i = len(prefix)
        if i == rank:
            vec = tuple(prefix)
            if any(vec) and _pairing(gram, vec, vec) == target:
                out.append(vec)
            return
        for v in range(-bounds[i], bounds[i] + 1):
            walk(prefix + [v])

    walk([])
    return tuple(sorted(out))


def embeds_finite_index(sub: IntLattice, big: IntLattice):
    """Gram-preserving integer matrix M with M^T G_big M = G_sub, found
    by matching norms column by column; returns (M, index) or None."""
    if sub.rank != big.rank:
        raise ValueError("finite-index embedding needs equal ranks")
    s_sign, b_sign = sub.definiteness(), big.definiteness()
    if s_sign == 0 or b_sign == 0 or s_sign != b_sign:
        return None
    det_sub, det_big = determinant(sub), determinant(big)
    if det_big == 0 or det_sub % det_big:
        return None
    ratio = det_sub // det_big
    if math.isqrt(ratio) ** 2 != ratio:
        return None
    g_sub, g_big = sub.abs_gram, big.abs_gram
    rank = sub.rank
    candidates = [vectors_of_norm(big, g_sub[j][j]) for j in range(rank)]

    def extend(cols):
        j = len(cols)
        if j == rank:
            return list(cols)
        for v in candidates[j]:
            if all(_pairing(g_big, cols[i], v) == g_sub[i][j] for i in range(j)):
                got = extend(cols + [v])
                if got is not None:
                    return got
        return None

    columns = extend([])
    if columns is None:
        return None
    matrix = tuple(tuple(columns[j][i] for j in range(rank)) for i in range(rank))
    index = abs(_int_det(matrix))
    return matrix, index


# ---------------------------------------------------------------------------
# fibration bookkeeping
# ---------------------------------------------------------------------------

_KODAIRA_COMPONENTS = {
    "II": 1,
    "III": 2,
    "IV": 3,
    "II*": 9,
    "III*": 8,
    "IV*": 7,
}


def kodaira_components(fiber_type: str) -> int:
    fiber_type = fiber_type.strip()
    if fiber_type in _KODAIRA_COMPONENTS:
        return _KODAIRA_COMPONENTS[fiber_type]
    star = fiber_type.endswith("*")
    body = fiber_type[:-1] if star else fiber_type
    if body.startswith("I") and body[1:].isdigit():
        n = int(body[1:])
        if star:
            return n + 5
        if n >= 1:
            return n
    raise ValueError(f"unknown Kodaira fiber type {fiber_type!r}")


class FibrationCombinatorics:
    __slots__ = ("fiber_types", "mordell_weil_rank")

    def __init__(self, fiber_types: tuple, mordell_weil_rank: int):
        for t in fiber_types:
            kodaira_components(t)
        if mordell_weil_rank < 0:
            raise ValueError("invalid fibration data")
        self.fiber_types = fiber_types
        self.mordell_weil_rank = mordell_weil_rank


def shioda_tate_rank(fc: FibrationCombinatorics) -> int:
    """2 + sum of (components - 1) over reducible fibers + Mordell-Weil
    rank: the Picard number of the fibered surface."""
    return (
        2
        + sum(kodaira_components(t) - 1 for t in fc.fiber_types)
        + fc.mordell_weil_rank
    )


def fibration_lattice_gram(
    fiber_cycles, section_components, section_origin_pairing=0
) -> IntLattice:
    """Gram of the sublattice spanned by the zero section, a general
    fiber, the non-identity components of cyclic (I_n) fibers, and one
    extra section.

    `fiber_cycles` lists the cycle lengths n (each fiber contributes the
    chain C_1..C_{n-1}; the identity component C_0 meets the zero
    section).  `section_components` names the component index the extra
    section meets in each fiber.  All curves are smooth rational (-2)
    curves on a K3 surface; the fiber has self-intersection 0 and meets
    each section once.
    """
    if len(section_components) != len(fiber_cycles):
        raise ValueError("one section component per fiber is required")
    labels = [("O",), ("F",)]
    for k, n in enumerate(fiber_cycles):
        labels.extend(("C", k, i) for i in range(1, n))
    labels.append(("P",))
    size = len(labels)
    pos = {lab: i for i, lab in enumerate(labels)}
    rows = [[0] * size for _ in range(size)]

    def put(a, b, value):
        rows[pos[a]][pos[b]] = value
        rows[pos[b]][pos[a]] = value

    put(("O",), ("O",), -2)
    put(("P",), ("P",), -2)
    put(("F",), ("F",), 0)
    put(("O",), ("F",), 1)
    put(("P",), ("F",), 1)
    put(("O",), ("P",), section_origin_pairing)
    for k, n in enumerate(fiber_cycles):
        for i in range(1, n):
            put(("C", k, i), ("C", k, i), -2)
        for i in range(1, n - 1):
            put(("C", k, i), ("C", k, i + 1), 1)
        hit = section_components[k] % n
        if hit:
            put(("P",), ("C", k, hit), 1)
    return IntLattice(tuple(tuple(r) for r in rows))


def kummer_fibration_gram() -> IntLattice:
    """Shipped rank-20 example for the fibration with three I6 fibers,
    one I3 fiber, and a non-torsion section.

    The extra section meets the zero section once and the component
    opposite the identity in each I6 cycle; this is the unique incidence
    choice (up to cycle symmetry) whose Gram reaches determinant -972
    with discriminant group of invariants (3, 3, 3, 6, 6).  Callers may
    supply their own incidences through fibration_lattice_gram.
    """
    return fibration_lattice_gram((6, 6, 6, 3), (3, 3, 3, 0), 1)


# ---------------------------------------------------------------------------
# registered checks
# ---------------------------------------------------------------------------


def k3_sum_det_check() -> PropertyResult:
    big = direct_sum(
        standard_lattice("U"),
        standard_lattice("E8", -1),
        standard_lattice("E8", -1),
        standard_lattice("A2", -1),
    )
    return _expect({"det": determinant(big)}, {"det": -3})


def a2m6_snf_check() -> PropertyResult:
    snf = smith_normal_form(standard_lattice("A2", -6))
    return _expect({"invariants": snf}, {"invariants": (6, 18)})


def a2m3_norm12_check() -> PropertyResult:
    vecs = vectors_of_norm(standard_lattice("A2", -3), 12)
    return _expect({"vectors": list(vecs)}, {"vectors": []})


def a2m2_norm12_check() -> PropertyResult:
    vecs = vectors_of_norm(standard_lattice("A2", -2), 12)
    if (1, 1) not in vecs:
        return PropertyResult(False, witness="(1, 1) is not a vector of norm twelve")
    return PropertyResult(True, {"count": len(vecs)})


def embed_a2m6_a2m2_check() -> PropertyResult:
    emb = embeds_finite_index(standard_lattice("A2", -6), standard_lattice("A2", -2))
    if emb is None:
        return PropertyResult(False, witness="no embedding found")
    matrix, index = emb
    return _expect({"index": index, "matrix": matrix}, {"index": 3})


def embed_a2m6_a2m3_check() -> PropertyResult:
    emb = embeds_finite_index(standard_lattice("A2", -6), standard_lattice("A2", -3))
    return _expect({"embedding": emb}, {"embedding": None})


def shioda_check() -> PropertyResult:
    first = shioda_tate_rank(FibrationCombinatorics(("II*", "II*", "IV"), 0))
    second = shioda_tate_rank(FibrationCombinatorics(("I6", "I6", "I6", "I3"), 1))
    got = {"extreme_fibers": first, "cyclic_fibers": second}
    return _expect(got, {"extreme_fibers": 20, "cyclic_fibers": 20})


def kummer_check() -> PropertyResult:
    lat = kummer_fibration_gram()
    got = {
        "det": determinant(lat),
        "discriminant_invariants": discriminant_group(lat),
        "order": discriminant_order(lat),
    }
    return _expect(
        got, {"det": -972, "order": 972, "discriminant_invariants": (3, 3, 3, 6, 6)}
    )
