"""Towers of number fields over Q with exact arithmetic and certified embeddings.

A tower Q = K0 < K1 < ... < Kn is built one simple extension at a time: each
level adjoins a root of a monic polynomial whose coefficients live in the
previous level.  An element is stored in the lexicographic power basis of the
whole tower as a tuple `num` of integer numerators over one positive common
denominator `den`, kept canonical (gcd(den, *num) == 1), so two elements are
equal exactly when their (num, den) pairs are identical.

Each tower holds one table of integer structure constants: e_i * e_j is
sum_k c_ijk e_k / D, where D is the lcm of the denominators of the rational
constants (D = 1 when every minimal polynomial has integer coefficients, as
in the built-in towers).  A product runs through that table in integers and
is reduced by a single gcd; an inverse solves M_a x = e_0 on the integer
multiplication matrix M_a by fraction-free (Bareiss) elimination.  This is
the layout of Cohen, *A Course in Computational Algebraic Number Theory*,
section 4.2.

Each level carries a numeric hint that selects one complex root of its
minimal polynomial; the induced embedding is evaluated in midpoint-radius
ball arithmetic, so `FieldElement.embed_complex` returns a value together
with an error bound that is honoured by every arithmetic step.

Irreducibility of user-supplied minimal polynomials is *not* verified; the
built-in towers (`tower_eps`, `tower_eps_i`, `tower_eps_i_cbrt2`,
`tower_zeta9`) use classical irreducible polynomials.  A caller who supplies
a reducible polynomial gets a ring with zero divisors, whose inverse raises
ZeroDivisionError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence, Union

import mpmath as mp

Rational = Fraction

RationalLike = Union[int, Fraction]


class TowerError(ValueError):
    """Raised for malformed towers, mixed-tower arithmetic and bad hints."""


# ---------------------------------------------------------------------------
# complex ball arithmetic
# ---------------------------------------------------------------------------


def _round_eps() -> mp.mpf:
    # a few guard bits above the working-precision ulp
    return mp.mpf(2) ** (4 - mp.mp.prec)


class ComplexBall:
    """Complex enclosure mid +- rad; every operation pads for rounding."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad=0):
        self.mid = mp.mpc(mid)
        self.rad = mp.mpf(rad)

    @staticmethod
    def from_rational(q: Fraction) -> "ComplexBall":
        if q == 0:
            return ComplexBall(0, 0)
        mid = mp.mpf(q.numerator) / mp.mpf(q.denominator)
        return ComplexBall(mid, abs(mid) * _round_eps())

    def __add__(self, other: "ComplexBall") -> "ComplexBall":
        mid = self.mid + other.mid
        rad = self.rad + other.rad + abs(mid) * _round_eps()
        return ComplexBall(mid, rad)

    def __mul__(self, other: "ComplexBall") -> "ComplexBall":
        mid = self.mid * other.mid
        rad = (
            abs(self.mid) * other.rad
            + abs(other.mid) * self.rad
            + self.rad * other.rad
            + abs(mid) * _round_eps()
        )
        return ComplexBall(mid, rad)

    def __repr__(self):
        return f"ComplexBall({self.mid}, rad={self.rad})"


def _nested_from_flat(coords: Sequence[Fraction], degrees: Sequence[int], lvl: int):
    """Coordinates as nested coefficient lists, outermost the last generator.

    flat index = e_1 + d_1*(e_2 + d_2*(...)): the first generator varies
    fastest, so block e of the flat tuple is the coefficient of x_lvl^e.
    """
    if lvl == 0:
        return coords[0]
    d = degrees[lvl - 1]
    block = len(coords) // d
    return [
        _nested_from_flat(coords[e * block : (e + 1) * block], degrees, lvl - 1)
        for e in range(d)
    ]


def _solve_fraction_free(rows: list) -> tuple:
    """Solve the integer system [A | b] given as n augmented rows.

    Bareiss elimination keeps every entry an integer minor of A.  Returns
    (x, p) with A x = p b, where p = +-det A is the last pivot, so x / p is
    the solution.  Raises ZeroDivisionError when A is singular.
    """
    n = len(rows)
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            raise ZeroDivisionError(
                "non-invertible element (reducible minimal polynomial?)"
            )
        rows[k], rows[piv] = rows[piv], rows[k]
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
    """One extension step: symbol, degree, minpoly and embedding hint."""

    __slots__ = ("symbol", "degree", "minpoly_coords", "hint")

    def __init__(self, symbol, degree, minpoly_coords, hint):
        self.symbol = symbol
        self.degree = degree
        self.minpoly_coords = minpoly_coords  # tuple of flat prefix coord tuples
        self.hint = hint


class ExtensionSpec:
    """Input description of one tower level.

    minpoly: ascending coefficients, monic; entries may be ints, Fractions
    or FieldElements of the tower built so far.
    """

    __slots__ = ("symbol", "minpoly", "embedding_hint")

    def __init__(self, symbol: str, minpoly: Sequence, embedding_hint: complex):
        self.symbol = symbol
        self.minpoly = tuple(minpoly)
        self.embedding_hint = complex(embedding_hint)


class FieldTower:
    """A tower of simple extensions of Q with exact coordinate arithmetic."""

    def __init__(self, levels: tuple):
        self._levels = levels
        self._degrees = tuple(l.degree for l in levels)
        self.total_degree = 1
        for d in self._degrees:
            self.total_degree *= d
        self._tail = (0,) * (self.total_degree - 1)
        self._roots: dict = {}
        self._fingerprint = hash(
            tuple((l.symbol, l.degree, l.minpoly_coords, l.hint) for l in levels)
        )
        self._table, self._scale = self._structure_constants()

    # -- identity ----------------------------------------------------------

    @property
    def levels(self):
        return self._levels

    @property
    def symbols(self):
        return tuple(l.symbol for l in self._levels)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return [
            (l.symbol, l.degree, l.minpoly_coords, l.hint) for l in self._levels
        ] == [(l.symbol, l.degree, l.minpoly_coords, l.hint) for l in other._levels]

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
        if isinstance(x, FieldElement):
            if x.tower is self or x.tower == self:
                return x
            raise TowerError(f"element of {x.tower!r} used in {self!r}")
        if isinstance(x, (int, Fraction)):
            return self.from_rational(x)
        raise TowerError(f"cannot coerce {x!r} into {self!r}")

    def _from_coords(self, coords: Sequence[Fraction]) -> "FieldElement":
        """The element with the given rational coordinates."""
        den = lcm(*(q.denominator for q in coords))
        num = tuple(q.numerator * (den // q.denominator) for q in coords)
        return FieldElement(self, num, den)

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

    def _structure_constants(self) -> tuple:
        """(table, D): table[i][j] lists the (k, c) with e_i * e_j = sum c e_k / D.

        Built from the prefix tower K' below the last level: a basis element
        is e_r * x^e with e_r in K', and x^(e+f) is reduced modulo the last
        minimal polynomial once, as d coefficients in K'.
        """
        if not self._levels:
            return [[((0, 1),)]], 1
        prefix = FieldTower(self._levels[:-1])
        b = prefix.total_degree
        d = self._levels[-1].degree
        minpoly = [prefix._from_coords(c) for c in self._levels[-1].minpoly_coords]
        # x^e for e <= 2d - 2 as d coefficients in K', using
        # x * sum c_k x^k = sum c_(k-1) x^k - c_(d-1) * minpoly(x)
        powers = [[prefix.one()] + [prefix.zero()] * (d - 1)]
        for _ in range(2 * d - 2):
            last = powers[-1]
            shifted = [prefix.zero()] + last[:-1]
            powers.append(
                [
                    prefix._from_coords(
                        [u - v for u, v in zip(s.coords, last[-1]._times(m).coords)]
                    )
                    for s, m in zip(shifted, minpoly)
                ]
            )
        units = [
            FieldElement(prefix, tuple(int(k == r) for k in range(b)), 1)
            for r in range(b)
        ]
        n = self.total_degree
        products = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                base = units[i % b]._times(units[j % b])
                products[i][j] = [
                    q for c in powers[i // b + j // b] for q in base._times(c).coords
                ]
        scale = lcm(*(q.denominator for row in products for p in row for q in p))
        table = [
            [
                tuple(
                    (k, q.numerator * (scale // q.denominator))
                    for k, q in enumerate(p)
                    if q
                )
                for p in row
            ]
            for row in products
        ]
        return table, scale

    # -- embeddings ------------------------------------------------------------

    def _root_ball(self, level: int, prec: int) -> ComplexBall:
        key = (level, prec)
        cached = self._roots.get(key)
        if cached is not None:
            return cached
        lev = self._levels[level]
        with mp.workprec(prec):
            coeff_balls = [
                self._eval_prefix_ball(c, level, prec) for c in lev.minpoly_coords
            ]
            centers = [b.mid for b in coeff_balls]
            x = mp.mpc(lev.hint)
            for _ in range(prec):
                fx = _horner(centers, x)
                dfx = _horner_derivative(centers, x)
                if dfx == 0:
                    raise TowerError(f"singular Newton step for {lev.symbol!r}")
                step = fx / dfx
                x = x - step
                if abs(step) < mp.mpf(2) ** (8 - prec) * max(1, abs(x)):
                    break
            # residual-based radius for a simple root, padded by the
            # coefficient enclosure widths
            ball_res = ComplexBall(0, 0)
            xb = ComplexBall(x, 0)
            for b in reversed(coeff_balls):
                ball_res = ball_res * xb + b
            dfx = _horner_derivative(centers, x)
            rad = 2 * (abs(ball_res.mid) + ball_res.rad) / abs(dfx)
            ball = ComplexBall(x, rad)
        self._roots[key] = ball
        return ball

    def _eval_prefix_ball(self, coords, level: int, prec: int) -> ComplexBall:
        """Evaluate a flat prefix-tower coordinate tuple at the embedding."""
        degrees = self._degrees[:level]
        nested = _nested_from_flat(list(coords), degrees, level)
        return self._eval_nested_ball(nested, level, prec)

    def _eval_nested_ball(self, nested, lvl: int, prec: int) -> ComplexBall:
        if lvl == 0:
            return ComplexBall.from_rational(nested)
        root = self._root_ball(lvl - 1, prec)
        acc = ComplexBall(0, 0)
        for c in reversed(nested):
            acc = acc * root + self._eval_nested_ball(c, lvl - 1, prec)
        return acc

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> str:
        levels = []
        for k, lev in enumerate(self._levels):
            prefix = FieldTower(self._levels[:k])
            coeffs = [
                element_to_str(prefix._from_coords(c)) for c in lev.minpoly_coords
            ]
            levels.append(
                {
                    "symbol": lev.symbol,
                    "minpoly_coeffs": coeffs,
                    "hint_re": float(lev.hint.real),
                    "hint_im": float(lev.hint.imag),
                }
            )
        return json.dumps({"levels": levels}, indent=2)

    @staticmethod
    def from_json(text: str) -> "FieldTower":
        data = json.loads(text)
        tower = FieldTower(())
        for lev in data["levels"]:
            coeffs = [parse_element(s, tower) for s in lev["minpoly_coeffs"]]
            spec = ExtensionSpec(
                lev["symbol"], coeffs, complex(lev["hint_re"], lev["hint_im"])
            )
            tower = _extend(tower, spec)
        return tower


def _horner(coeffs, x):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _horner_derivative(coeffs, x):
    acc = mp.mpc(0)
    for k in range(len(coeffs) - 1, 0, -1):
        acc = acc * x + k * coeffs[k]
    return acc


def _extend(tower: FieldTower, spec: ExtensionSpec) -> FieldTower:
    coeffs = [tower.coerce(c) for c in spec.minpoly]
    degree = len(coeffs) - 1
    if degree < 2:
        raise TowerError(f"extension degree must be >= 2, got {degree}")
    if coeffs[-1] != tower.one():
        raise TowerError(f"minimal polynomial for {spec.symbol!r} is not monic")
    if spec.symbol in tower.symbols:
        raise TowerError(f"duplicate symbol {spec.symbol!r}")
    # the hint must select exactly one root of the minimal polynomial
    with mp.workprec(200):
        centers = [
            tower._eval_prefix_ball(c.coords, len(tower.levels), 200).mid
            for c in coeffs
        ]
        roots = mp.polyroots(list(reversed(centers)), maxsteps=200, extraprec=120)
        hint = mp.mpc(spec.embedding_hint)
        close = [r for r in roots if abs(r - hint) < mp.mpf("1e-3")]
    if len(close) == 0:
        raise TowerError(f"embedding hint for {spec.symbol!r} is not near any root")
    if len(close) > 1:
        raise TowerError(f"embedding hint for {spec.symbol!r} is ambiguous")
    minpoly_coords = tuple(c.coords for c in coeffs)
    level = _Level(spec.symbol, degree, minpoly_coords, spec.embedding_hint)
    return FieldTower(tower.levels + (level,))


def tower_create(specs: Iterable[ExtensionSpec]) -> FieldTower:
    """Build a tower from extension specs, validating shape and hints."""
    tower = FieldTower(())
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
    int with gcd(den, *num) == 1, so equal elements have identical fields
    and equal hashes.  The constructor trusts that form; `coords` gives the
    rational coordinates num[k] / den.
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
    # a new tower builds its table through this alias, so that code wrapping
    # the operator names (perfbench/tracer.py) counts only callers' products
    _times = __mul__

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
        result = self.tower.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison -------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (
                self.num[0] == other.numerator
                and self.den == other.denominator
                and self.is_rational()
            )
        if isinstance(other, FieldElement):
            if other.tower is not self.tower and other.tower != self.tower:
                return False
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.tower._fingerprint, self.num, self.den))
        return self._hash

    def __repr__(self):
        return element_to_str(self)

    # -- embedding ------------------------------------------------------------

    def embed_complex(self, precision_bits: int = 128):
        """Complex value of the element plus a guaranteed error radius."""
        if precision_bits < 64:
            raise ValueError("precision_bits must be >= 64")
        t = self.tower
        levels = len(t.levels)
        with mp.workprec(precision_bits + 48):
            nested = _nested_from_flat(self.coords, t._degrees, levels)
            ball = t._eval_nested_ball(nested, levels, precision_bits + 48)
            return mp.mpc(ball.mid), mp.mpf(ball.rad)


# ---------------------------------------------------------------------------
# prime fields (coefficient domain for characteristic-p checks)
# ---------------------------------------------------------------------------


class GFElement:
    """Element of F_p with the usual operator protocol."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _lift(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristic")
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        if isinstance(other, Fraction):
            return GFElement(self.p, other.numerator) / GFElement(self.p, other.denominator)
        return None

    def __bool__(self):
        return self.v != 0

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GFElement(self.p, self.v * other)
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__
    # a new tower builds its table through this alias, so that code wrapping
    # the operator names (perfbench/tracer.py) counts only callers' products
    _times = __mul__

    def inverse(self):
        if self.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return GFElement(self.p, pow(self.v, -1, self.p))

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, n: int):
        return GFElement(self.p, pow(self.v, n, self.p))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.v == other % self.p
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash(("GF", self.p, self.v))

    def __repr__(self):
        return f"{self.v}"


class PrimeField:
    """Coefficient domain F_p; mirrors the small FieldTower domain surface."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        self.p = p

    def zero(self):
        return GFElement(self.p, 0)

    def one(self):
        return GFElement(self.p, 1)

    def coerce(self, x):
        if isinstance(x, GFElement):
            if x.p != self.p:
                raise ValueError("mixed characteristic")
            return x
        if isinstance(x, int):
            return GFElement(self.p, x)
        if isinstance(x, Fraction):
            return GFElement(self.p, x.numerator) / GFElement(self.p, x.denominator)
        raise ValueError(f"cannot coerce {x!r} into F_{self.p}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# ---------------------------------------------------------------------------
# element text grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ('^' int)?
#   atom   := rational | symbol | '(' expr ')' | '-' atom
#
# Printing emits one term per nonzero basis coordinate, which the parser
# reads back exactly.
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.toks.append(("int", text[i:j]))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.toks.append(("name", text[i:j]))
                i = j
            elif ch in "+-*/^()":
                self.toks.append((ch, ch))
                i += 1
            else:
                raise ValueError(f"bad character {ch!r} in {text!r}")
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok


class _ElementParser:
    """Recursive-descent parser for the element grammar over a tower."""

    def __init__(self, tower: FieldTower, atom_hook=None):
        self.tower = tower
        self.atom_hook = atom_hook  # lets the polynomial grammar add variables

    def parse(self, text: str):
        toks = _Tokens(text)
        val = self._expr(toks)
        if toks.peek()[0] is not None:
            raise ValueError(f"trailing input in {text!r}")
        return val

    def _expr(self, toks):
        val = self._term(toks)
        while toks.peek()[0] in ("+", "-"):
            op = toks.next()[0]
            rhs = self._term(toks)
            val = val + rhs if op == "+" else val - rhs
        return val

    def _term(self, toks):
        val = self._factor(toks)
        while toks.peek()[0] in ("*", "/"):
            op = toks.next()[0]
            rhs = self._factor(toks)
            val = val * rhs if op == "*" else self._divide(val, rhs)
        return val

    def _divide(self, a, b):
        return a / b

    def _factor(self, toks):
        val = self._atom(toks)
        if toks.peek()[0] == "^":
            toks.next()
            neg = False
            if toks.peek()[0] == "-":
                toks.next()
                neg = True
            kind, text = toks.next()
            if kind != "int":
                raise ValueError("exponent must be an integer")
            n = int(text)
            val = val ** (-n if neg else n)
        return val

    def _atom(self, toks):
        kind, text = toks.peek()
        if kind == "-":
            toks.next()
            return -self._atom(toks)
        if kind == "int":
            toks.next()
            return self._const(int(text))
        if kind == "name":
            toks.next()
            if self.atom_hook is not None:
                hooked = self.atom_hook(text)
                if hooked is not None:
                    return hooked
            return self._symbol(text)
        if kind == "(":
            toks.next()
            val = self._expr(toks)
            if toks.next()[0] != ")":
                raise ValueError("unbalanced parentheses")
            return val
        raise ValueError(f"unexpected token {text!r}")

    def _const(self, n: int):
        return self.tower.from_rational(n)

    def _symbol(self, name: str):
        return self.tower.symbol_element(name)


def parse_element(text: str, tower: FieldTower) -> FieldElement:
    return _ElementParser(tower).parse(text)


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
            text = str(q)
        elif q == 1:
            text = mono
        elif q == -1:
            text = f"-{mono}"
        else:
            text = f"{q}*{mono}"
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
    return FieldTower(())


@lru_cache(maxsize=None)
def tower_eps() -> FieldTower:
    """Q(eps) with eps^2 + eps + 1 = 0, eps = exp(2*pi*i/3)."""
    return tower_create(
        [ExtensionSpec("eps", [1, 1, 1], complex(-0.5, 0.8660254037844386))]
    )


@lru_cache(maxsize=None)
def tower_eps_i() -> FieldTower:
    """Q(eps, i) with i^2 + 1 = 0, i in the upper half plane."""
    return tower_create(
        [
            ExtensionSpec("eps", [1, 1, 1], complex(-0.5, 0.8660254037844386)),
            ExtensionSpec("i", [1, 0, 1], complex(0.0, 1.0)),
        ]
    )


@lru_cache(maxsize=None)
def tower_eps_i_cbrt2() -> FieldTower:
    """Q(eps, i, cbrt2): degree 12, cbrt2 the real cube root of 2."""
    return tower_create(
        [
            ExtensionSpec("eps", [1, 1, 1], complex(-0.5, 0.8660254037844386)),
            ExtensionSpec("i", [1, 0, 1], complex(0.0, 1.0)),
            ExtensionSpec("cbrt2", [-2, 0, 0, 1], complex(1.2599210498948732, 0.0)),
        ]
    )


@lru_cache(maxsize=None)
def tower_zeta9() -> FieldTower:
    """Q(zeta9) with zeta9^6 + zeta9^3 + 1 = 0, zeta9 = exp(2*pi*i/9)."""
    return tower_create(
        [
            ExtensionSpec(
                "zeta9",
                [1, 0, 0, 1, 0, 0, 1],
                complex(0.766044443118978, 0.6427876096865393),
            )
        ]
    )
