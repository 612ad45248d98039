"""Sparse multivariate polynomials with exact rational coefficients.

These house the non-homogeneous terms of the PDE systems, the
inductively constructed chain maps, residuals, and truncated Taylor
series, so all operations (product, derivative, composition, evaluation)
are exact.

A Polynomial holds integer numerators over one positive denominator:
a dict from exponent tuples to nonzero ints, and den, reduced so that
den and the numerators share no factor.  That form is unique, so equal
polynomials compare equal field by field.  add, neg, scale, partial,
truncate, coefficient, mul, compose and linear_combination run on the
numerators, multiplying and adding Python ints, and reduce each result
once by the gcd of its numerators and denominator.  terms, the public
read-only mapping of nonzero Fractions, is built on its first read and
kept, so a polynomial that is only computed with builds no Fraction.  A
Polynomial is immutable: every attribute write raises AttributeError,
Polynomial.from_numerators is the integer entry point: it takes nonzero
int numerators over a positive den and reduces them (Polynomial._of, the
internal constructor, skips that reduction for numerators already in
lowest terms).  The public constructor takes int, Fraction or string
coefficients and int exponents (not bool).

Substitution (Polynomial.compose and PolyMap.compose) runs on one
kernel, _substitute.  It builds the integer value of each monomial once,
in a table shared by every component, and takes an optional degree cap:
a truncated series composed with a cap d is exact through degree d, and
no product ever forms a term above d (Polynomial.mul takes the same
cap).  Sums of many scaled polynomials go through linear_combination,
which accumulates them in one dict.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import add
from types import MappingProxyType
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InputError
from .linalg import Vector, frac

_set = object.__setattr__


class Polynomial:
    __slots__ = ("num_vars", "den", "_ints", "_terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            e = tuple(exps)
            if any(type(x) is not int for x in e):
                raise InputError("polynomial exponents must be integers")
            if len(e) != num_vars:
                raise DimensionMismatch("exponent vector length != num_vars")
            if any(x < 0 for x in e):
                raise DimensionMismatch("negative exponent")
            c = frac(coeff)
            if c != 0:
                c0 = clean.get(e)
                c = c if c0 is None else c0 + c
                if c != 0:
                    clean[e] = c
                elif e in clean:
                    del clean[e]
        den = math.lcm(*(c.denominator for c in clean.values()))
        _set(self, "num_vars", num_vars)
        _set(self, "den", den)
        _set(self, "_ints", {e: c.numerator * (den // c.denominator)
                             for e, c in clean.items()})
        _set(self, "_terms", None)

    @classmethod
    def _of(cls, num_vars: int, ints: dict, den: int = 1) -> "Polynomial":
        """The polynomial with the nonzero numerators ints over den > 0,
        already in lowest terms, taken as they are: no copy, no check."""
        p = object.__new__(cls)
        _set(p, "num_vars", num_vars)
        _set(p, "den", den)
        _set(p, "_ints", ints)
        _set(p, "_terms", None)
        return p

    @classmethod
    def from_numerators(cls, num_vars: int, ints: dict, den: int = 1) -> "Polynomial":
        """The polynomial with the numerators ints over den > 0, divided
        by their common factor with den: the integer entry point.  ints
        maps exponent tuples of length num_vars to nonzero ints, and is
        kept, not copied or checked."""
        if den != 1:
            g = math.gcd(den, *ints.values())
            if g != 1:
                den //= g
                ints = {e: v // g for e, v in ints.items()}
        return cls._of(num_vars, ints, den)

    def __setattr__(self, name, value):
        raise AttributeError("a Polynomial is immutable, %s cannot be rebound" % name)

    def __reduce__(self):
        return (Polynomial, (self.num_vars, dict(self.terms)))

    @property
    def terms(self) -> Mapping:
        """The read-only mapping of nonzero Fraction coefficients, built
        on the first read and kept."""
        terms = self._terms
        if terms is None:
            den = self.den
            if den == 1:
                terms = {e: Fraction(v) for e, v in self._ints.items()}
            else:
                terms = {e: Fraction(v, den) for e, v in self._ints.items()}
            terms = MappingProxyType(terms)
            _set(self, "_terms", terms)
        return terms

    @property
    def numerators(self) -> Mapping:
        """The read-only mapping of the nonzero integer numerators over den."""
        return MappingProxyType(self._ints)

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls._of(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, c) -> "Polynomial":
        c = frac(c)
        if not c:
            return cls._of(num_vars, {})
        return cls._of(num_vars, {(0,) * num_vars: c.numerator}, c.denominator)

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "Polynomial":
        e = [0] * num_vars
        e[i] = 1
        return cls._of(num_vars, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self._ints

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return max(map(sum, self._ints), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.den == other.den
            and self._ints == other._ints
        )

    def __repr__(self) -> str:
        if not self._ints:
            return "Polynomial(0)"
        bits = []
        for e in sorted(self._ints, key=lambda t: (sum(t), t)):
            mono = "*".join(f"v{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{self.terms[e]}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"

    def _check(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatch("polynomial arity mismatch")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        den_l, den_r = self.den, other.den
        den = den_l if den_l == den_r else math.lcm(den_l, den_r)
        k = den // den_l
        out = dict(self._ints) if k == 1 else {e: k * v for e, v in self._ints.items()}
        k = den // den_r
        for e, v in other._ints.items():
            s = out.get(e, 0) + k * v
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Polynomial.from_numerators(self.num_vars, out, den)

    def neg(self) -> "Polynomial":
        return Polynomial._of(self.num_vars, {e: -v for e, v in self._ints.items()},
                              self.den)

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        if not c:
            return Polynomial._of(self.num_vars, {})
        num = c.numerator
        return Polynomial.from_numerators(
            self.num_vars, {e: num * v for e, v in self._ints.items()},
            self.den * c.denominator)

    def mul(self, other: "Polynomial", max_degree: int | None = None) -> "Polynomial":
        """Product; with max_degree, terms above it are never formed."""
        self._check(other)
        right = sorted((sum(e), e, c) for e, c in other._ints.items())
        cap = math.inf if max_degree is None else max_degree
        return Polynomial.from_numerators(
            self.num_vars, _mul_terms(self._ints, right, cap), self.den * other.den)

    def partial(self, var: int) -> "Polynomial":
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch("variable index out of range")
        out: dict[tuple[int, ...], int] = {}
        for e, v in self._ints.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = v * k
        return Polynomial.from_numerators(self.num_vars, out, self.den)

    def eval(self, point: Sequence) -> Fraction:
        if len(point) != self.num_vars:
            raise DimensionMismatch("evaluation point arity mismatch")
        pt = [frac(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def compose(self, subs: Sequence["Polynomial"],
                max_degree: int | None = None) -> "Polynomial":
        """Substitute subs[i] for variable i; all subs share one arity.

        With max_degree the result is truncated there, and no term above
        it is ever formed (see _substitute)."""
        return _substitute([self], self.num_vars, subs, max_degree)[0]

    def truncate(self, max_degree: int) -> "Polynomial":
        return Polynomial.from_numerators(
            self.num_vars,
            {e: v for e, v in self._ints.items() if sum(e) <= max_degree}, self.den)

    def lowest_degree(self) -> int:
        """Smallest total degree with a nonzero term, or -1 if zero."""
        return min(map(sum, self._ints), default=-1)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        v = self._ints.get(tuple(exps))
        return Fraction(v, self.den) if v else Fraction(0)

    def to_table(self) -> list[list]:
        """Serializable form: [[coeff string, [exponents]], ...], sorted.
        Each string is the coefficient in lowest terms as Fraction prints
        it, written from the numerators without building the Fraction."""
        den = self.den
        out = []
        for e in sorted(self._ints, key=lambda t: (sum(t), t)):
            v = self._ints[e]
            g = math.gcd(v, den)
            out.append([str(v // g) if g == den else "%d/%d" % (v // g, den // g),
                        list(e)])
        return out

    @classmethod
    def from_table(cls, num_vars: int, table: Iterable) -> "Polynomial":
        """The polynomial of a to_table list; every exponent must be an
        int, as a JSON integer reads (InputError otherwise)."""
        return cls(num_vars, [(tuple(e), c) for c, e in table])


class PolyMap:
    """An immutable vector of polynomials (a tuple) in a shared list of
    variables."""

    __slots__ = ("num_vars", "components")

    def __init__(self, num_vars: int, components: Sequence[Polynomial]):
        components = tuple(components)
        if any(p.num_vars != num_vars for p in components):
            raise DimensionMismatch("component arity mismatch")
        _set(self, "num_vars", num_vars)
        _set(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("a PolyMap is immutable, %s cannot be rebound" % name)

    def __reduce__(self):
        return (PolyMap, (self.num_vars, self.components))

    @property
    def dim(self) -> int:
        return len(self.components)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMap)
            and self.num_vars == other.num_vars
            and self.components == other.components
        )

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components)

    def add(self, other: "PolyMap") -> "PolyMap":
        if self.dim != other.dim:
            raise DimensionMismatch("component count mismatch")
        return PolyMap(self.num_vars, [p.add(q) for p, q in zip(self.components, other.components)])

    def sub(self, other: "PolyMap") -> "PolyMap":
        if self.dim != other.dim:
            raise DimensionMismatch("component count mismatch")
        return PolyMap(self.num_vars, [p.sub(q) for p, q in zip(self.components, other.components)])

    def scale(self, c) -> "PolyMap":
        return PolyMap(self.num_vars, [p.scale(c) for p in self.components])

    def partial(self, var: int) -> "PolyMap":
        return PolyMap(self.num_vars, [p.partial(var) for p in self.components])

    def eval(self, point: Sequence) -> Vector:
        return [p.eval(point) for p in self.components]

    def compose(self, subs: Sequence[Polynomial],
                max_degree: int | None = None) -> "PolyMap":
        """Every component composed with subs through one shared monomial
        table (see _substitute), truncated at max_degree if given."""
        comps = _substitute(self.components, self.num_vars, subs, max_degree)
        return PolyMap(subs[0].num_vars if subs else 0, comps)

    def truncate(self, max_degree: int) -> "PolyMap":
        return PolyMap(self.num_vars, [p.truncate(max_degree) for p in self.components])

    def total_degree(self) -> int:
        return max((p.total_degree() for p in self.components), default=-1)


def linear_combination(coeffs: Iterable, polys: Iterable[Polynomial],
                       num_vars: int) -> Polynomial:
    """The sum of c * p over the pairs of coeffs and polys, in num_vars
    variables, with int or Fraction coefficients.  Every pair is brought
    to one common denominator and the integer numerators accumulate in
    one dict, so no partial sum is copied; a zero c skips its
    polynomial."""
    scaled = []
    den = 1
    for c, p in zip(coeffs, polys):
        if p.num_vars != num_vars:
            raise DimensionMismatch("polynomial arity mismatch")
        if not c or not p._ints:
            continue
        num, c_den = c.as_integer_ratio()
        d = c_den * p.den
        scaled.append((num, d, p._ints))
        if d != den:
            den = math.lcm(den, d)
    acc: dict[tuple[int, ...], int] = {}
    for num, d, ints in scaled:
        k = num * (den // d)
        for e, v in ints.items():
            acc[e] = acc.get(e, 0) + k * v
    return Polynomial.from_numerators(num_vars, {e: v for e, v in acc.items() if v}, den)


def _mul_terms(left: dict, right: list, cap) -> dict:
    """The product of two integer term dicts, with right given as
    (degree, exponents, coefficient) sorted by degree; no term above cap
    is formed and zero sums are dropped."""
    out: dict[tuple[int, ...], int] = {}
    for e1, a in left.items():
        room = cap - sum(e1)
        for d2, e2, b in right:
            if d2 > room:
                break
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + a * b
    return {e: c for e, c in out.items() if c}


def _substitute(polys: Sequence[Polynomial], num_vars: int,
                subs: Sequence[Polynomial], max_degree: int | None) -> list[Polynomial]:
    """Each of polys (all in num_vars variables) with subs[i] put for
    variable i, truncated at max_degree if given.

    The subs are brought to one common denominator den, so the value of
    a monomial x^e is an integer term dict over den^|e|.  Each value is
    built at most once per call, as the value of x^(e - e_i) times
    subs[i] for the last variable i of e, in one table that all of polys
    share.  Every product is capped at max_degree, so no term above it is
    formed.  The integer coefficients of each result accumulate in one
    dict over one denominator.
    """
    if len(subs) != num_vars:
        raise DimensionMismatch("compose needs one substitution per variable")
    m = subs[0].num_vars if subs else 0
    if any(s.num_vars != m for s in subs):
        raise DimensionMismatch("substitutions have mixed arities")
    cap = math.inf if max_degree is None else max_degree
    den = math.lcm(*(s.den for s in subs))
    factors = [sorted((sum(f), f, c * (den // s.den)) for f, c in s._ints.items())
               for s in subs]
    table = {(0,) * num_vars: {(0,) * m: 1} if cap >= 0 else {}}
    out = []
    for p in polys:
        ints = p._ints
        top = max(map(sum, ints), default=0)
        acc: dict[tuple[int, ...], int] = {}
        for e, c in ints.items():
            k = c * den ** (top - sum(e))
            for f, v in _monomial_value(table, e, factors, cap).items():
                acc[f] = acc.get(f, 0) + k * v
        out.append(Polynomial.from_numerators(
            m, {f: v for f, v in acc.items() if v}, p.den * den ** top))
    return out


def _monomial_value(table: dict, e: tuple, factors: list, cap) -> dict:
    """The integer value of x^e in the table of _substitute, building the
    missing values below it iteratively: x^e, then x^(e - e_i) for the
    last variable i of e, and so on down to a stored value."""
    chain = []
    v = table.get(e)
    while v is None:
        i = max(k for k, x in enumerate(e) if x)
        chain.append((e, i))
        e = e[:i] + (e[i] - 1,) + e[i + 1:]
        v = table.get(e)
    for e, i in reversed(chain):
        v = _mul_terms(v, factors[i], cap)
        table[e] = v
    return v
