"""Towers of number fields over Q with exact arithmetic.

A tower Q = K0 < K1 < ... < Kn is built one simple extension at a time: each
level adjoins a root of a monic polynomial whose coefficients live in the
previous level.  An element is stored in the lexicographic power basis of the
whole tower as a tuple `num` of integer numerators over one positive common
denominator `den`, kept canonical (gcd(den, *num) == 1), so two elements are
equal exactly when their (num, den) pairs are identical.

Each tower holds one table of integer structure constants: e_i * e_j is
sum_k c_ijk e_k / D, where D is the lcm of the denominators of the rational
constants (D = 1 when every minimal polynomial has integer coefficients, as
in the built-in towers).  A new level's table is computed in the arithmetic
of the tower below it, whose elements' integer numerators fill it.  A
product runs through that table in integers and is reduced by a single gcd;
an inverse solves M_a x = e_0 on the integer multiplication matrix M_a by
fraction-free (Bareiss) elimination.  This is the layout of Cohen, *A Course
in Computational Algebraic Number Theory*, section 4.2.

A tower is exact data only: a level is a symbol and a minimal polynomial,
and no complex root is chosen.

Irreducibility of user-supplied minimal polynomials is *not* verified; the
built-in towers (`tower_eps`, `tower_eps_i`, `tower_eps_i_cbrt2`,
`tower_zeta9`) use classical irreducible polynomials.  A caller who supplies
a reducible polynomial gets a ring with zero divisors, whose inverse raises
ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

RationalLike = Union[int, Fraction]


class TowerError(ValueError):
    """Raised for malformed towers and mixed-tower arithmetic."""


def _solve_fraction_free(rows: list) -> tuple:
    """Solve the integer system [A | b] given as n augmented rows.

    Bareiss elimination keeps every entry an integer minor of A.  Returns
    (x, p) with A x = p b, where p = det A is the last pivot, so x / p is
    the solution.  A row swap negates one of the two rows, which keeps both
    the solution and the determinant.  Raises ZeroDivisionError when A is
    singular.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            raise ZeroDivisionError(
                "non-invertible element (reducible minimal polynomial?)"
            )
        if piv != k:
            rows[k], rows[piv] = rows[piv], [-v for v in rows[k]]
        top = rows[k]
        p = top[k]
        for row in rows[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    # back substitution on p * x, an integer vector by Cramer's rule, so
    # every division is exact
    x = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        s = prev * row[n] - sum(row[j] * x[j] for j in range(i + 1, n))
        x[i] = s // row[i]
    return x, prev


class _Level:
    """One extension step: symbol, degree and minpoly."""

    __slots__ = ("symbol", "degree", "minpoly")

    def __init__(self, symbol, degree, minpoly):
        self.symbol = symbol
        self.degree = degree
        self.minpoly = minpoly  # ascending coefficients, elements of the prefix


class ExtensionSpec:
    """Input description of one tower level.

    minpoly: ascending coefficients, monic; entries may be ints, Fractions
    or FieldElements of the tower built so far.
    """

    __slots__ = ("symbol", "minpoly")

    def __init__(self, symbol: str, minpoly: Sequence):
        self.symbol = symbol
        self.minpoly = tuple(minpoly)


class FieldTower:
    """A tower of simple extensions of Q with exact coordinate arithmetic."""

    def __init__(self, prefix: "FieldTower" = None, level: _Level = None):
        """Q, or the tower `prefix` with `level` adjoined on top."""
        self._levels = () if prefix is None else prefix._levels + (level,)
        self._degrees = tuple(l.degree for l in self._levels)
        self.total_degree = 1
        for d in self._degrees:
            self.total_degree *= d
        self._tail = (0,) * (self.total_degree - 1)
        self._fingerprint = hash(self._key())
        self._table, self._scale = self._structure_constants(prefix)

    # -- identity ----------------------------------------------------------

    @property
    def levels(self):
        return self._levels

    @property
    def symbols(self):
        return tuple(l.symbol for l in self._levels)

    def _key(self) -> tuple:
        return tuple((l.symbol, l.degree, l.minpoly) for l in self._levels)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return self._fingerprint

    def __repr__(self):
        if not self._levels:
            return "FieldTower(Q)"
        return "FieldTower(Q(%s))" % ", ".join(self.symbols)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) + self._tail, 1)

    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + self._tail, 1)

    def from_rational(self, q: RationalLike) -> "FieldElement":
        return FieldElement(self, (q.numerator,) + self._tail, q.denominator)

    def gen(self, level: int) -> "FieldElement":
        """The generator adjoined at `level` (0-based), as a tower element."""
        if not 0 <= level < len(self._levels):
            raise TowerError(f"no level {level} in {self!r}")
        num = [0] * self.total_degree
        num[self._stride(level)] = 1
        return FieldElement(self, tuple(num), 1)

    def symbol_element(self, symbol: str) -> "FieldElement":
        for k, l in enumerate(self._levels):
            if l.symbol == symbol:
                return self.gen(k)
        raise TowerError(f"symbol {symbol!r} not in {self!r}")

    def coerce(self, x) -> "FieldElement":
        """x as an element of this tower.

        Q is the tower without levels: its elements go into every tower, and
        a rational element of any tower goes into Q.  Elements of two
        distinct non-trivial towers do not mix.
        """
        if isinstance(x, FieldElement):
            if x.tower is self or x.tower == self:
                return x
            if not (x.tower._levels and self._levels):
                return self.from_rational(x.rational_value())
            raise TowerError(f"element of {x.tower!r} used in {self!r}")
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TowerError(f"cannot coerce {x!r} into {self!r}")

    def dot(self, xs: Sequence["FieldElement"], ys: Sequence["FieldElement"]):
        """sum(x * y for x, y in zip(xs, ys)) with a single reduction.

        The terms are accumulated in integers over a running lcm of their
        denominators, one pass through the structure constants per nonzero
        coordinate pair, and the sum is reduced by one gcd.
        """
        table = self._table
        acc = [0] * self.total_degree
        den = 1
        for x, y in zip(xs, ys):
            ynum = y.num
            if not any(ynum):
                continue
            d = x.den * y.den
            if den % d:
                new = lcm(den, d)
                acc = [v * (new // den) for v in acc]
                den = new
            s = den // d
            for i, a in enumerate(x.num):
                if not a:
                    continue
                a *= s
                row = table[i]
                for j, b in enumerate(ynum):
                    if not b:
                        continue
                    ab = a * b
                    for k, c in row[j]:
                        acc[k] += c * ab
        return _reduced(self, acc, den * self._scale)

    # -- internal layout ----------------------------------------------------

    def _stride(self, level: int) -> int:
        """Flat-coordinate stride of generator `level` (exponent 1 step)."""
        s = 1
        for d in self._degrees[:level]:
            s *= d
        return s

    def basis_exponents(self, index: int) -> tuple:
        """Exponent tuple (e_1,...,e_n) of flat basis element `index`."""
        exps = []
        for d in self._degrees:
            exps.append(index % d)
            index //= d
        return tuple(exps)

    # -- multiplication table -------------------------------------------------

    def _structure_constants(self, prefix: "FieldTower") -> tuple:
        """(table, D): table[i][j] lists the (k, c) with e_i * e_j = sum c e_k / D.

        Built in the arithmetic of the prefix tower K' below the last level,
        as built already: a basis element is e_r * x^e with e_r in K', and
        x^(e+f) is reduced modulo the last minimal polynomial once, so each
        product is d elements of K'; D is the lcm of their denominators.
        """
        if prefix is None:
            return [[((0, 1),)]], 1
        b = prefix.total_degree
        d = self._levels[-1].degree
        minpoly = self._levels[-1].minpoly
        zero = prefix.zero()
        # x^e for e <= 2d - 2 as d coefficients in K', using
        # x * sum c_k x^k = sum c_(k-1) x^k - c_(d-1) * minpoly(x)
        powers = [[prefix.one()] + [zero] * (d - 1)]
        for _ in range(2 * d - 2):
            last = powers[-1]
            powers.append(
                [s - last[-1] * m for s, m in zip([zero] + last[:-1], minpoly)]
            )
        units = [
            FieldElement(prefix, tuple(int(k == r) for k in range(b)), 1)
            for r in range(b)
        ]
        n = self.total_degree
        products = [
            [
                [units[i % b] * units[j % b] * c for c in powers[i // b + j // b]]
                for j in range(n)
            ]
            for i in range(n)
        ]
        scale = lcm(*(c.den for row in products for p in row for c in p))

        def entries(p):
            flat = [a * (scale // c.den) for c in p for a in c.num]
            return tuple((k, a) for k, a in enumerate(flat) if a)

        return [[entries(p) for p in row] for row in products], scale


def _extend(tower: FieldTower, spec: ExtensionSpec) -> FieldTower:
    coeffs = [tower.coerce(c) for c in spec.minpoly]
    degree = len(coeffs) - 1
    if degree < 2:
        raise TowerError(f"extension degree must be >= 2, got {degree}")
    if coeffs[-1] != tower.one():
        raise TowerError(f"minimal polynomial for {spec.symbol!r} is not monic")
    if spec.symbol in tower.symbols:
        raise TowerError(f"duplicate symbol {spec.symbol!r}")
    level = _Level(spec.symbol, degree, tuple(coeffs))
    return FieldTower(tower, level)


def tower_create(specs: Iterable[ExtensionSpec]) -> FieldTower:
    """Build a tower from extension specs, validating their shape."""
    tower = FieldTower()
    for spec in specs:
        tower = _extend(tower, spec)
    return tower


def _reduced(tower: FieldTower, num: Sequence[int], den: int) -> "FieldElement":
    """The canonical element num / den, for den > 0."""
    g = gcd(den, *num)
    if g != 1:
        return FieldElement(tower, tuple(a // g for a in num), den // g)
    return FieldElement(tower, tuple(num), den)


class FieldElement:
    """Element of a FieldTower: num / den in the tower power basis.

    `num` is a tuple of ints (one per basis element) and `den` a positive
    int with gcd(den, *num) == 1, so equal elements of one tower have
    identical fields and equal hashes.  Elements of two towers are equal
    when both are rational with one value, and a rational element equals
    and hashes like the int or Fraction of its value.  The constructor
    trusts that form; `coords` gives the rational coordinates num[k] / den.
    """

    __slots__ = ("tower", "num", "den", "_hash")

    def __init__(self, tower: FieldTower, num: tuple, den: int):
        self.tower = tower
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coords(self) -> tuple:
        return tuple(Fraction(a, self.den) for a in self.num)

    # -- coercion ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, FieldElement):
            if other.tower is self.tower or other.tower == self.tower:
                return other
            raise TowerError("mixed-tower arithmetic")
        if isinstance(other, (int, Fraction)):
            return self.tower.from_rational(other)
        return None

    # -- predicates ---------------------------------------------------------

    def __bool__(self):
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise TowerError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = [a + b for a, b in zip(self.num, o.num)]
            return _reduced(self.tower, num, da)
        return _reduced(
            self.tower, [a * db + b * da for a, b in zip(self.num, o.num)], da * db
        )

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.tower, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            num = [a - b for a, b in zip(self.num, o.num)]
            return _reduced(self.tower, num, da)
        return _reduced(
            self.tower, [a * db - b * da for a, b in zip(self.num, o.num)], da * db
        )

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        t = self.tower
        if isinstance(other, FieldElement):
            if other.tower is not t and other.tower != t:
                raise TowerError("mixed-tower arithmetic")
            # one pass through the integer structure constants, one gcd
            table = t._table
            acc = [0] * t.total_degree
            for i, a in enumerate(self.num):
                if not a:
                    continue
                row = table[i]
                for j, b in enumerate(other.num):
                    if not b:
                        continue
                    ab = a * b
                    for k, c in row[j]:
                        acc[k] += c * ab
            return _reduced(t, acc, self.den * other.den * t._scale)
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return t.zero()
            return _reduced(
                t, [a * other.numerator for a in self.num], self.den * other.denominator
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        t, num = self.tower, self.num
        if self.is_rational():
            a = num[0]
            if not a:
                raise ZeroDivisionError("division by zero field element")
            den = self.den if a > 0 else -self.den
            return FieldElement(t, (den,) + t._tail, abs(a))
        # column j of the integer matrix M is den * D * (self * e_j), so
        # self * x = e_0 reads M x = den * D * e_0: solve M y = e_0 and scale
        n = t.total_degree
        rows = [[0] * n + [int(k == 0)] for k in range(n)]
        for i, a in enumerate(num):
            if a:
                for j, entries in enumerate(t._table[i]):
                    for k, c in entries:
                        rows[k][j] += a * c
        y, p = _solve_fraction_free(rows)
        if p < 0:
            y, p = [-v for v in y], -p
        scale = self.den * t._scale
        return _reduced(t, [v * scale for v in y], p)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, self.tower.one)

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            if other.tower is not self.tower and other.tower != self.tower:
                return (
                    self.num[0] == other.num[0]
                    and self.den == other.den
                    and self.is_rational()
                    and other.is_rational()
                )
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return (
                self.num[0] == other.numerator
                and self.den == other.denominator
                and self.is_rational()
            )
        return NotImplemented

    def __hash__(self):
        # a rational element equals the int or Fraction of its value, so it
        # hashes like one
        if self._hash is None:
            if not self.is_rational():
                self._hash = hash((self.tower._fingerprint, self.num, self.den))
            elif self.den == 1:
                self._hash = hash(self.num[0])
            else:
                self._hash = hash(Fraction(self.num[0], self.den))
        return self._hash

    def __repr__(self):
        return element_to_str(self)


def _power(x, n: int, one):
    """x ** n for n >= 0 by left-to-right square-and-multiply: n = 2, 3 and
    6 take one, two and three products; n = 0 returns one()."""
    if not n:
        return one()
    result = x
    for bit in bin(n)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


# ---------------------------------------------------------------------------
# printing: one term per nonzero basis coordinate.  Integers past Python's
# int -> str limit (sys.get_int_max_str_digits(), 4300 digits by default,
# never below 640) are printed by halves split at a power of ten.
# ---------------------------------------------------------------------------


def _int_str(n: int) -> str:
    """str(n) for an int of any size."""
    if n < 0:
        return "-" + _int_str(-n)
    if n.bit_length() <= 2000:  # at most 603 digits
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the decimal digits
    hi, lo = divmod(n, 10**k)
    return _int_str(hi) + _int_str(lo).zfill(k)


def _rational_str(q: Fraction) -> str:
    text = _int_str(q.numerator)
    return text if q.denominator == 1 else f"{text}/{_int_str(q.denominator)}"


def element_to_str(e: FieldElement) -> str:
    t = e.tower
    parts = []
    for idx, q in enumerate(e.coords):
        if not q:
            continue
        exps = t.basis_exponents(idx)
        monos = []
        for sym, k in zip(t.symbols, exps):
            if k == 1:
                monos.append(sym)
            elif k > 1:
                monos.append(f"{sym}^{k}")
        mono = "*".join(monos)
        if not mono:
            text = _rational_str(q)
        elif q == 1:
            text = mono
        elif q == -1:
            text = f"-{mono}"
        else:
            text = f"{_rational_str(q)}*{mono}"
        parts.append(text)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
    return out


# ---------------------------------------------------------------------------
# built-in towers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def tower_rationals() -> FieldTower:
    """The trivial tower Q."""
    return FieldTower()


@lru_cache(maxsize=None)
def tower_eps() -> FieldTower:
    """Q(eps) with eps^2 + eps + 1 = 0."""
    return tower_create([ExtensionSpec("eps", [1, 1, 1])])


@lru_cache(maxsize=None)
def tower_eps_i() -> FieldTower:
    """Q(eps, i) with i^2 + 1 = 0."""
    return tower_create(
        [ExtensionSpec("eps", [1, 1, 1]), ExtensionSpec("i", [1, 0, 1])]
    )


@lru_cache(maxsize=None)
def tower_eps_i_cbrt2() -> FieldTower:
    """Q(eps, i, cbrt2) of degree 12, with cbrt2^3 = 2."""
    return tower_create(
        [
            ExtensionSpec("eps", [1, 1, 1]),
            ExtensionSpec("i", [1, 0, 1]),
            ExtensionSpec("cbrt2", [-2, 0, 0, 1]),
        ]
    )


@lru_cache(maxsize=None)
def tower_zeta9() -> FieldTower:
    """Q(zeta9) with zeta9^6 + zeta9^3 + 1 = 0, a primitive ninth root of unity."""
    return tower_create([ExtensionSpec("zeta9", [1, 0, 0, 1, 0, 0, 1])])
