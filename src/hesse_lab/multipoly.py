"""Sparse multivariate polynomials with exact coefficients.

Coefficients live in a "domain", which is a FieldTower; Q itself is the
tower of degree one, `QQ`.  A domain exposes zero/one/coerce and every
coefficient answers `.inverse()`; polynomial arithmetic never leaves the
domain.  A statement over F_p is checked on integer polynomials over `QQ`
through `reduce_mod`, since reduction mod p commutes with ring operations.
Monomials are exponent tuples; the global order is graded lexicographic,
which fixes canonical printing, the leading term used by exact division,
and the witness monomial reported when two polynomials fail to be
proportional.

The resultant here is the classical Sylvester determinant with the rows of
the first form on top and coefficients listed with the leading power of the
eliminated variable first.  Under that convention Res(u, v) = +1 for the two
coordinate forms (eliminating u from u and u + v gives the determinant of
[[1, 0], [1, v]], which is +v), and every scalar recorded by the
verification suites is stated relative to it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .field import _power, tower_rationals

QQ = tower_rationals()


def default_names(nvars: int) -> tuple:
    if nvars <= 4:
        return ("x", "y", "z", "w")[:nvars]
    return tuple(f"x{i}" for i in range(nvars))


def _grlex_key(exps: tuple):
    return (sum(exps), exps)


class MultiPoly:
    """Exact sparse polynomial; immutable by convention."""

    __slots__ = ("nvars", "terms", "domain", "_hash")

    def __init__(self, nvars: int, terms: dict, domain, *, _clean=False):
        self.nvars = nvars
        self.domain = domain
        if _clean:
            self.terms = terms
        else:
            clean = {}
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"monomial arity {len(exps)} != {nvars}")
                c = domain.coerce(c)
                if c:
                    clean[exps] = c
            self.terms = clean
        self._hash = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(nvars: int, domain=QQ) -> "MultiPoly":
        return MultiPoly(nvars, {}, domain, _clean=True)

    @staticmethod
    def constant(nvars: int, c, domain=QQ) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c}, domain)

    @staticmethod
    def variable(index: int, nvars: int, domain=QQ) -> "MultiPoly":
        exps = [0] * nvars
        exps[index] = 1
        return MultiPoly(nvars, {tuple(exps): domain.one()}, domain, _clean=True)

    @staticmethod
    def variables(nvars: int, domain=QQ) -> tuple:
        return tuple(MultiPoly.variable(i, nvars, domain) for i in range(nvars))

    # -- basic queries ---------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self):
        """(monomial, coefficient) that is graded-lex largest."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def coefficient(self, exps: tuple):
        return self.terms.get(tuple(exps), self.domain.zero())

    def monomials_desc(self):
        return sorted(self.terms, key=_grlex_key, reverse=True)

    def is_term(self) -> bool:
        return len(self.terms) == 1

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly"):
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")
        if self.domain != other.domain:
            raise ValueError("coefficient domain mismatch")

    def _coerce_other(self, other):
        if isinstance(other, MultiPoly):
            self._check_compatible(other)
            return other
        try:
            c = self.domain.coerce(other)
        except (ValueError, TypeError):
            return None
        return MultiPoly.constant(self.nvars, c, self.domain)

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for exps, c in o.terms.items():
            acc = terms.get(exps)
            if acc is None:
                terms[exps] = c
            else:
                acc = acc + c
                if acc:
                    terms[exps] = acc
                else:
                    del terms[exps]
        return MultiPoly(self.nvars, terms, self.domain, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(
            self.nvars,
            {e: -c for e, c in self.terms.items()},
            self.domain,
            _clean=True,
        )

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            try:
                c = self.domain.coerce(other)
            except (ValueError, TypeError):
                return NotImplemented
            if not c:
                return MultiPoly.zero(self.nvars, self.domain)
            return MultiPoly(
                self.nvars,
                {e: k * c for e, k in self.terms.items()},
                self.domain,
                _clean=True,
            )
        self._check_compatible(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(exps)
                if acc is None:
                    out[exps] = c
                else:
                    acc = acc + c
                    if acc:
                        out[exps] = acc
                    else:
                        del out[exps]
        return MultiPoly(self.nvars, out, self.domain, _clean=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # scalar division only; exact polynomial division is divide_exact
        try:
            c = self.domain.coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self * c.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return _power(
            self,
            n,
            lambda: MultiPoly.constant(self.nvars, self.domain.one(), self.domain),
        )

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (
                self.nvars == other.nvars
                and self.domain == other.domain
                and self.terms == other.terms
            )
        if isinstance(other, (int, Fraction)):
            try:
                c = self.domain.coerce(other)
            except (ValueError, TypeError):
                return NotImplemented
            if not c:
                return not self.terms
            return self.terms == {(0,) * self.nvars: c}
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.nvars, frozenset(self.terms.items()))
            )
        return self._hash

    def __repr__(self):
        return poly_to_str(self)

    # -- calculus ----------------------------------------------------------------

    def derivative(self, var: int) -> "MultiPoly":
        out = {}
        for exps, c in self.terms.items():
            k = exps[var]
            if k == 0:
                continue
            e = list(exps)
            e[var] = k - 1
            e = tuple(e)
            add = c * k
            acc = out.get(e)
            out[e] = add if acc is None else acc + add
        return MultiPoly(self.nvars, out, self.domain)

    def gradient(self, vars: Sequence[int]) -> tuple:
        return tuple(self.derivative(v) for v in vars)

    # -- substitution --------------------------------------------------------------

    def substitute(self, images: Sequence["MultiPoly"]):
        if len(images) != self.nvars:
            raise ValueError(
                f"need {self.nvars} images, got {len(images)}"
            )
        if not images:
            raise ValueError("cannot substitute into a 0-variable polynomial")
        out_nvars = images[0].nvars
        domain = images[0].domain
        for g in images:
            if g.nvars != out_nvars or g.domain != domain:
                raise ValueError("substitution images disagree in arity or domain")
        if all(g.is_term() or not g for g in images):
            return self._substitute_monomial(images, out_nvars, domain)
        powers = [{0: MultiPoly.constant(out_nvars, domain.one(), domain)} for _ in images]

        def power(v: int, k: int) -> MultiPoly:
            cache = powers[v]
            got = cache.get(k)
            if got is None:
                got = power(v, k - 1) * images[v]
                cache[k] = got
            return got

        acc = MultiPoly.zero(out_nvars, domain)
        for exps, c in self.terms.items():
            term = MultiPoly.constant(out_nvars, domain.coerce(c), domain)
            for v, k in enumerate(exps):
                if k:
                    term = term * power(v, k)
            acc = acc + term
        return acc

    def _substitute_monomial(self, images, out_nvars, domain):
        # every image is a single term (or zero): map exponent vectors directly
        out: dict = {}
        for exps, c in self.terms.items():
            cc = domain.coerce(c)
            dead = False
            acc_e = [0] * out_nvars
            for v, k in enumerate(exps):
                if k == 0:
                    continue
                if not images[v]:
                    dead = True
                    break
                (ge, gc), = images[v].terms.items()
                for idx, ev in enumerate(ge):
                    acc_e[idx] += ev * k
                cc = cc * gc ** k
            if dead:
                continue
            e = tuple(acc_e)
            prev = out.get(e)
            out[e] = cc if prev is None else prev + cc
        return MultiPoly(out_nvars, out, domain)

    def evaluate(self, values: Sequence):
        """Exact value at a point; `values` are domain elements."""
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        vals = [self.domain.coerce(v) for v in values]
        acc = self.domain.zero()
        for exps, c in self.terms.items():
            term = c
            for v, k in zip(vals, exps):
                if k:
                    term = term * v**k
            acc = acc + term
        return acc

    # -- structure ---------------------------------------------------------------

    def collect(self, var: int) -> dict:
        """Coefficients of powers of one variable, as polynomials with that
        variable's exponent zeroed: {power: MultiPoly}."""
        out: dict = {}
        for exps, c in self.terms.items():
            k = exps[var]
            e = list(exps)
            e[var] = 0
            bucket = out.setdefault(k, {})
            bucket[tuple(e)] = c
        return {
            k: MultiPoly(self.nvars, terms, self.domain, _clean=True)
            for k, terms in out.items()
        }


def reduce_mod(f: MultiPoly, p: int) -> MultiPoly:
    """f over QQ with each coefficient replaced by its residue in 0..p-1 and
    zero terms dropped, so f vanishes mod p exactly when the result is zero.
    Raises ValueError when a coefficient's denominator is divisible by p."""
    terms = {}
    for exps, c in f.terms.items():
        q = c.rational_value()
        if q.denominator % p == 0:
            raise ValueError(f"coefficient {q} has no residue mod {p}")
        r = q.numerator * pow(q.denominator, -1, p) % p
        if r:
            terms[exps] = QQ.from_rational(r)
    return MultiPoly(f.nvars, terms, QQ, _clean=True)


def convert_domain(f: MultiPoly, domain) -> MultiPoly:
    """f with its coefficients coerced into domain; f itself when it is
    already over domain."""
    if f.domain == domain:
        return f
    return MultiPoly(f.nvars, dict(f.terms), domain)


# ---------------------------------------------------------------------------
# named operations (harness entry points)
# ---------------------------------------------------------------------------


def hessian_determinant(f: MultiPoly) -> MultiPoly:
    """Determinant of the 3x3 matrix of second partials in the first three
    variables.  Extra variables (pencil parameters) ride along in the
    coefficients."""
    second = [[f.derivative(a).derivative(b) for b in range(3)] for a in range(3)]
    return det_generic(second)


def proportionality(f: MultiPoly, g: MultiPoly):
    """Scalar c with f = c*g if one exists.

    Returns (c, None) on success and (None, witness_monomial) otherwise;
    the witness is the graded-lex largest monomial where the claim breaks.
    """
    f._check_compatible(g)
    if not g:
        if not f:
            return f.domain.one(), None
        return None, f.leading()[0]
    if not f:
        return f.domain.zero(), None
    support = sorted(set(f.terms) | set(g.terms), key=_grlex_key, reverse=True)
    for m in support:
        if m not in f.terms or m not in g.terms:
            return None, m
    lead = support[0]
    c = f.terms[lead] * g.terms[lead].inverse()
    for m in support:
        if f.terms[m] != c * g.terms[m]:
            return None, m
    return c, None


def _divmod(f: MultiPoly, g: MultiPoly, *, stop_early=False):
    """(quotient, remainder) of f by g: each leading term of what is left goes
    into the quotient when g's leading monomial divides it, else the remainder.
    With stop_early the division ends at the first remainder term, which is
    then the whole remainder returned."""
    f._check_compatible(g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    nvars, domain = f.nvars, f.domain
    glead, gcoef = g.leading()
    ginv = gcoef.inverse()
    quot, rem = {}, {}
    r = f
    while r:
        rlead, rcoef = r.leading()
        exps = tuple(a - b for a, b in zip(rlead, glead))
        if min(exps) >= 0:
            c = rcoef * ginv
            quot[exps] = c
            r = r - MultiPoly(nvars, {exps: c}, domain, _clean=True) * g
        else:
            rem[rlead] = rcoef
            if stop_early:
                break
            r = r - MultiPoly(nvars, {rlead: rcoef}, domain)
    return (
        MultiPoly(nvars, quot, domain, _clean=True),
        MultiPoly(nvars, rem, domain, _clean=True),
    )


def divide_exact(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Quotient f/g when division is exact; raises ValueError otherwise.

    A single-term g divides term by term: each exponent shifts down, and the
    graded-lex largest term it misses is the one long division would leave
    as the remainder's leading monomial."""
    if g.is_term():
        f._check_compatible(g)
        ((glead, gcoef),) = g.terms.items()
        missed = [e for e in f.terms if any(a < b for a, b in zip(e, glead))]
        if not missed:
            quot = {tuple(a - b for a, b in zip(e, glead)): c for e, c in f.terms.items()}
            if gcoef != 1:
                ginv = gcoef.inverse()
                quot = {e: c * ginv for e, c in quot.items()}
            return MultiPoly(f.nvars, quot, f.domain, _clean=True)
        lead = max(missed, key=_grlex_key)
    else:
        q, r = _divmod(f, g, stop_early=True)
        if not r:
            return q
        lead = r.leading()[0]
    raise ValueError(f"inexact division: remainder leading monomial {lead}")


def poly_remainder(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Normal form of f modulo g in graded-lex order.

    A single divisor generates its ideal as a Groebner basis, so the
    remainder is zero exactly when g divides f, and f -> remainder is
    linear in f for fixed g.
    """
    return _divmod(f, g)[1]


def poly_sqrt(h: MultiPoly) -> MultiPoly:
    """Exact square root of a polynomial square (rational coefficients)."""
    if not h:
        return h
    lead, c = h.leading()
    if any(e % 2 for e in lead):
        raise ValueError("leading monomial is not a square")
    croot = _fraction_sqrt(c.rational_value())
    g = MultiPoly(
        h.nvars, {tuple(e // 2 for e in lead): h.domain.coerce(croot)}, h.domain
    )
    # peel terms: maintain r = h - g^2 and fix g's next term from r's lead
    r = h - g * g
    glead = tuple(e // 2 for e in lead)
    twice_lead_coef = h.domain.coerce(2 * croot)
    while r:
        rlead, rcoef = r.leading()
        exps = tuple(a - b for a, b in zip(rlead, glead))
        if min(exps) < 0:
            raise ValueError("not a polynomial square")
        t = MultiPoly(h.nvars, {exps: rcoef * twice_lead_coef.inverse()}, h.domain)
        g = g + t
        r = h - g * g
    return g


def _fraction_sqrt(q: Fraction) -> Fraction:
    if q < 0:
        raise ValueError("negative leading coefficient is not a rational square")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        raise ValueError(f"{q} is not a rational square")
    return Fraction(rn, rd)


def strip_monomial_content(f: MultiPoly):
    """Factor out the largest monomial dividing every term: (exps, cofactor)."""
    if not f:
        return (0,) * f.nvars, f
    gcd = None
    for exps in f.terms:
        gcd = exps if gcd is None else tuple(map(min, gcd, exps))
    if not any(gcd):
        return gcd, f
    terms = {
        tuple(a - b for a, b in zip(e, gcd)): c for e, c in f.terms.items()
    }
    return gcd, MultiPoly(f.nvars, terms, f.domain, _clean=True)


def rational_content(f: MultiPoly) -> Fraction:
    """gcd of the coefficients of a Q-polynomial, signed by the leading term."""
    if not f:
        return Fraction(1)
    nums = [c.rational_value() for c in f.terms.values()]
    g = Fraction(
        math.gcd(*(abs(q.numerator) for q in nums)) if len(nums) > 1 else abs(nums[0].numerator),
        math.lcm(*(q.denominator for q in nums)) if len(nums) > 1 else nums[0].denominator,
    )
    _, lead = f.leading()
    if lead.rational_value() < 0:
        g = -g
    return g


# ---------------------------------------------------------------------------
# determinants and resultants
# ---------------------------------------------------------------------------


def det_generic(rows):
    """Determinant over any commutative ring, by expansion along the first
    row with memoization on column subsets.  Entries may be MultiPolys,
    FieldElements or Fractions; they only need +, -, * and truthiness.
    Only ring operations are used, so for integer entries the determinant
    reduced mod p is the determinant of the residues."""
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    memo: dict = {}

    def minor(depth: int, cols: tuple):
        if len(cols) == 1:
            return rows[depth][cols[0]]
        got = memo.get((depth, cols))
        if got is not None:
            return got
        acc = None
        for k, c in enumerate(cols):
            a = rows[depth][c]
            if not a:
                continue
            sub = minor(depth + 1, cols[:k] + cols[k + 1 :])
            if not sub:
                continue
            term = a * sub
            if k % 2:
                term = -term
            acc = term if acc is None else acc + term
        if acc is None:
            acc = rows[depth][cols[0]] * 0
        memo[(depth, cols)] = acc
        return acc

    return minor(0, tuple(range(n)))


def sylvester_matrix(fc: list, gc: list, zero, index: int = 0):
    """Sylvester matrix from descending coefficient lists, f rows on top.

    With index j > 0 it is the matrix of the j-th subresultant: n - j
    shifted rows of f over m - j of g, each m + n - j wide."""
    m = len(fc) - 1
    n = len(gc) - 1
    if m < 0 or n < 0:
        raise ValueError("zero polynomial in resultant")
    size = m + n - index
    rows = []
    for i in range(n - index):
        row = [zero] * size
        for j, c in enumerate(fc):
            row[i + j] = c
        rows.append(row)
    for i in range(m - index):
        row = [zero] * size
        for j, c in enumerate(gc):
            row[i + j] = c
        rows.append(row)
    return rows


def binary_form_gcd(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Monic gcd of two nonzero homogeneous binary forms over a field.

    Euclid runs on the forms with their monomial content stripped: such a
    form has nonzero x^d and y^d terms, so x and y are prime to it and the
    monomial content of each remainder may be stripped too.  Dividing by a
    form of x-degree d leaves only terms of x-degree below d, so each
    remainder has lower degree once that content is gone."""
    ef, f = strip_monomial_content(f)
    eg, g = strip_monomial_content(g)
    while g:
        f, g = g, strip_monomial_content(poly_remainder(f, g))[1]
    common = tuple(map(min, ef, eg))
    inv = f.leading()[1].inverse()
    terms = {tuple(a + b for a, b in zip(e, common)): c * inv for e, c in f.terms.items()}
    return MultiPoly(f.nvars, terms, f.domain, _clean=True)


def resultant_in_var(f: MultiPoly, g: MultiPoly, var: int, index: int = 0) -> MultiPoly:
    """Resultant of f, g viewed as polynomials in one variable; the result
    is a polynomial in the remaining variables (same arity, var unused).

    With index j > 0 it is the j-th subresultant S_j (Collins, JACM 1967),
    of degree at most j in var and in the ideal (f, g): the coefficient of
    var^i is the minor on the leading columns and the column of var^i."""
    f._check_compatible(g)
    cf = f.collect(var)
    cg = g.collect(var)
    if not cf or not cg:
        raise ValueError("zero polynomial in resultant")
    df, dg = max(cf), max(cg)
    zero = MultiPoly.zero(f.nvars, f.domain)
    fc = [cf.get(df - k, zero) for k in range(df + 1)]
    gc = [cg.get(dg - k, zero) for k in range(dg + 1)]
    if index and not 0 < index < min(df, dg):
        raise ValueError("subresultant index must lie below both degrees")
    if df == 0 and dg == 0:
        return MultiPoly.constant(f.nvars, f.domain.one(), f.domain)
    if df == 0:
        return fc[0] ** dg
    if dg == 0:
        return gc[0] ** df
    rows = sylvester_matrix(fc, gc, zero, index)
    lead = len(rows) - 1  # at index 0 the one minor is the whole matrix
    out = det_generic([r[:lead] + [r[-1]] for r in rows])
    for i in range(1, index + 1):
        v_i = MultiPoly.variable(var, f.nvars, f.domain) ** i
        out = out + det_generic([r[:lead] + [r[-1 - i]] for r in rows]) * v_i
    return out


# ---------------------------------------------------------------------------
# linear algebra over the coefficient domain
# ---------------------------------------------------------------------------


def field_rref(matrix: list):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for k in range(r, len(rows)):
            if rows[k][c]:
                pivot = k
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][c]:
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def field_linsolve(matrix: list, rhs: list, domain):
    """One exact solution of A x = b, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = field_rref(aug)
    ncols = len(matrix[0]) if matrix else 0
    if ncols in pivots:
        return None  # pivot in the rhs column
    x = [domain.zero()] * ncols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return x


def field_nullspace(matrix: list, domain) -> list:
    """Basis of the right nullspace of A, exact."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = field_rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [domain.zero()] * ncols
        v[fcol] = domain.one()
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fcol]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def poly_to_str(f: MultiPoly) -> str:
    if not f:
        return "0"
    names = default_names(f.nvars)
    parts = []
    for exps in f.monomials_desc():
        c = f.terms[exps]
        monos = []
        for name, k in zip(names, exps):
            if k == 1:
                monos.append(name)
            elif k > 1:
                monos.append(f"{name}^{k}")
        mono = "*".join(monos)
        ctext = str(c)
        simple = not any(ch in ctext[1:] for ch in "+-*")
        if not mono:
            text = ctext if simple else f"({ctext})"
        elif ctext == "1":
            text = mono
        elif ctext == "-1":
            text = f"-{mono}"
        elif simple:
            text = f"{ctext}*{mono}"
        else:
            text = f"({ctext})*{mono}"
        parts.append(text)
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out
