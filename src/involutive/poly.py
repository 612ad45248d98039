"""Sparse multivariate polynomials with exact rational coefficients.

A Polynomial stores a map from exponent tuples to nonzero Fraction
coefficients.  These house the non-homogeneous terms of the PDE systems,
the inductively constructed chain maps, residuals, and truncated Taylor
series, so all operations (product, derivative, composition, evaluation)
are exact.

Products, substitutions and linear combinations run on integer kernels:
each operand is cleared once to integer coefficients over the least
common multiple of its denominators, the inner loops multiply and add
Python ints, and exactly one normalised Fraction is built per nonzero
coefficient of the result.  A Polynomial is immutable: terms is a
read-only mapping of nonzero Fractions, and Polynomial._of, the internal
constructor, takes a dict of them built in this module as it is.

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


class Polynomial:
    __slots__ = ("num_vars", "terms")

    def __init__(self, num_vars: int, terms: Mapping[tuple, object] | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in items:
            e = tuple(int(x) for x in exps)
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
        self.num_vars = num_vars
        self.terms = MappingProxyType(clean)

    @classmethod
    def _of(cls, num_vars: int, terms: dict) -> "Polynomial":
        """A polynomial over a dict of nonzero Fractions built in this
        module, taken as it is: no coercion, no copy, no check."""
        p = object.__new__(cls)
        p.num_vars = num_vars
        p.terms = MappingProxyType(terms)
        return p

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("a Polynomial is immutable, %s cannot be rebound" % name)
        object.__setattr__(self, name, value)

    def __reduce__(self):
        return (Polynomial, (self.num_vars, dict(self.terms)))

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, c) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: frac(c)})

    @classmethod
    def variable(cls, num_vars: int, i: int) -> "Polynomial":
        e = [0] * num_vars
        e[i] = 1
        return cls(num_vars, {tuple(e): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.num_vars == other.num_vars
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            mono = "*".join(f"v{i}^{k}" for i, k in enumerate(e) if k)
            bits.append(f"{self.terms[e]}{'*' + mono if mono else ''}")
        return "Polynomial(" + " + ".join(bits) + ")"

    def _check(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise DimensionMismatch("polynomial arity mismatch")

    def add(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial._of(self.num_vars, out)

    def neg(self) -> "Polynomial":
        return Polynomial._of(self.num_vars, {e: -c for e, c in self.terms.items()})

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def scale(self, c) -> "Polynomial":
        c = frac(c)
        return Polynomial._of(self.num_vars,
                              {e: c * v for e, v in self.terms.items()} if c else {})

    def mul(self, other: "Polynomial", max_degree: int | None = None) -> "Polynomial":
        """Product; with max_degree, terms above it are never formed."""
        self._check(other)
        den_l, left = _cleared(self.terms)
        den_r, ints_r = _cleared(other.terms)
        right = sorted((sum(e), e, c) for e, c in ints_r.items())
        cap = math.inf if max_degree is None else max_degree
        return Polynomial._of(self.num_vars,
                              _fractions(_mul_terms(left, right, cap), den_l * den_r))

    def partial(self, var: int) -> "Polynomial":
        if not 0 <= var < self.num_vars:
            raise DimensionMismatch("variable index out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            out[tuple(e2)] = c * k
        return Polynomial._of(self.num_vars, out)

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
        return Polynomial._of(self.num_vars,
                              {e: c for e, c in self.terms.items() if sum(e) <= max_degree})

    def lowest_degree(self) -> int:
        """Smallest total degree with a nonzero term, or -1 if zero."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def to_table(self) -> list[list]:
        """Serializable form: [[coeff string, [exponents]], ...], sorted."""
        out = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t)):
            out.append([str(self.terms[e]), list(e)])
        return out

    @classmethod
    def from_table(cls, num_vars: int, table: Iterable) -> "Polynomial":
        """The polynomial of a to_table list; every exponent must be an
        int, as a JSON integer reads (InputError otherwise)."""
        terms = [(tuple(e), c) for c, e in table]
        if any(type(k) is not int for e, _ in terms for k in e):
            raise InputError("polynomial exponents must be integers")
        return cls(num_vars, terms)


class PolyMap:
    """An immutable vector of polynomials (a tuple) in a shared list of
    variables."""

    __slots__ = ("num_vars", "components")

    def __init__(self, num_vars: int, components: Sequence[Polynomial]):
        self.num_vars = num_vars
        self.components = tuple(components)
        if any(p.num_vars != num_vars for p in self.components):
            raise DimensionMismatch("component arity mismatch")

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("a PolyMap is immutable, %s cannot be rebound" % name)
        object.__setattr__(self, name, value)

    @classmethod
    def linear(cls, matrix_rows: Sequence[Sequence], num_vars: int) -> "PolyMap":
        """The linear map with the given matrix, as polynomials."""
        comps = []
        for row in matrix_rows:
            if len(row) != num_vars:
                raise DimensionMismatch("matrix width != num_vars")
            comps.append(
                Polynomial(num_vars, {tuple(int(i == j) for j in range(num_vars)): frac(c)
                                      for i, c in enumerate(row)})
            )
        return cls(num_vars, comps)

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
        if not c or not p.terms:
            continue
        num, c_den = c.as_integer_ratio()
        p_den, ints = _cleared(p.terms)
        scaled.append((num, c_den * p_den, ints))
        den = math.lcm(den, c_den * p_den)
    acc: dict[tuple[int, ...], int] = {}
    for num, d, ints in scaled:
        k = num * (den // d)
        for e, v in ints.items():
            acc[e] = acc.get(e, 0) + k * v
    return Polynomial._of(num_vars, _fractions(acc, den))


def _cleared(terms: Mapping) -> tuple[int, dict]:
    """(den, ints): the Fraction coefficients of terms as integers over
    den, the least common multiple of their denominators."""
    den = 1
    for c in terms.values():
        if c.denominator != 1:
            den = math.lcm(den, c.denominator)
    if den == 1:
        return 1, {e: c.numerator for e, c in terms.items()}
    return den, {e: c.numerator * (den // c.denominator) for e, c in terms.items()}


def _fractions(ints: dict, den: int) -> dict:
    """The nonzero integer coefficients of ints over den, each as one
    normalised Fraction."""
    if den == 1:
        return {e: Fraction(v) for e, v in ints.items() if v}
    return {e: Fraction(v, den) for e, v in ints.items() if v}


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

    The subs are cleared to integers over one common denominator den, so
    the value of a monomial x^e is an integer term dict over den^|e|.
    Each value is built at most once per call, as the value of
    x^(e - e_i) times subs[i] for the last variable i of e, in one table
    that all of polys share.  Every product is capped at max_degree, so
    no term above it is formed.  The integer coefficients of each result
    accumulate in one dict over one denominator.
    """
    if len(subs) != num_vars:
        raise DimensionMismatch("compose needs one substitution per variable")
    m = subs[0].num_vars if subs else 0
    if any(s.num_vars != m for s in subs):
        raise DimensionMismatch("substitutions have mixed arities")
    cap = math.inf if max_degree is None else max_degree
    cleared = [_cleared(s.terms) for s in subs]
    den = math.lcm(*(d for d, _ in cleared))
    factors = [sorted((sum(f), f, c * (den // d)) for f, c in ints.items())
               for d, ints in cleared]
    table = {(0,) * num_vars: {(0,) * m: 1} if cap >= 0 else {}}
    out = []
    for p in polys:
        p_den, ints = _cleared(p.terms)
        top = max(map(sum, ints), default=0)
        acc: dict[tuple[int, ...], int] = {}
        for e, c in ints.items():
            k = c * den ** (top - sum(e))
            for f, v in _monomial_value(table, e, factors, cap).items():
                acc[f] = acc.get(f, 0) + k * v
        out.append(Polynomial._of(m, _fractions(acc, p_den * den ** top)))
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
