"""Exact linear algebra over the rationals.

Matrices are stored dense, row-major, as lists of fractions.Fraction, but
products (matmul and matvec) skip zero entries: the Koszul, embedding and
contraction matrices of the Spencer and tableau layers are mostly 0 or
+-1.  Skipping a zero drops only a zero term, so products stay exact and
the canonical bases below do not depend on which entries were skipped.
Everything is exact: no floating point, no tolerance thresholds.

Storage is dense Fraction at the API boundary; elimination is sparse and
fraction-free over Python ints.  Ranks, kernels, reduced forms and
subspaces come from one elimination routine, the IntegerEchelon; the
two other passes are integer_inverse, a dense fraction-free Gauss-Jordan
elimination on [m | I] (below), and the Bareiss pass of
liealg.definiteness, which reads signs of leading minors.  In the
IntegerEchelon each row is scaled by the lcm of its denominators
(clear_denominators), which changes no rank and no row space, stored as
a {column: int} dict of its nonzero entries, and reduced against at most
one primitive row per pivot column.  Ranks are its length.  Matrix.rref
back-substitutes the echelon and divides each row by its pivot once, at
the end, which gives the canonical reduced row-echelon form, and solve
reads its solutions off that.  Kernels are the echelon's integer kernel
divided by the entry at each vector's free column, and inverses come
from integer_inverse, so each job has one route.  Subspaces of Q^N are
built from an echelon in the same canonical basis, which makes equality
of subspaces a syntactic comparison of the stored rows, together with
the same rows as primitive integers (Subspace.integer_rows), which
callers that work on integer rows read instead of clearing the basis
again.  Coordinates over that basis are read off the pivots and proved
by multiplying back.

A caller that keeps a matrix as integer rows over one positive
denominator (cleared) multiplies with integer_matmul and inverts with
integer_inverse, a fraction-free Gauss-Jordan elimination, so no
Fraction is formed until it reads an entry off.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Inconsistent, InputError

Vector = list[Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction; a bool
    is not a number here (JSON true is not 1).  A string of decimal
    digits, with at most a leading '-', is read with int, which accepts
    exactly what Fraction accepts there, only faster."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if x.isdecimal() or (x[:1] == "-" and x[1:].isdecimal()):
                return Fraction(int(x))
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{x!r} is not an exact rational") from exc
    raise DimensionMismatch(f"cannot interpret {x!r} as an exact rational")


def vec(entries: Iterable) -> Vector:
    return [frac(x) for x in entries]


def clear_denominators(row: Iterable) -> list[int]:
    """The row times the lcm of its denominators, as Python ints.

    Entries are ints or Fractions; the result spans the same line.
    """
    row = list(row)
    m = lcm(*(x.denominator for x in row))
    if m == 1:
        return [x.numerator for x in row]
    return [x.numerator * (m // x.denominator) for x in row]


def _primitive(row: dict[int, int], negate: bool = False) -> dict[int, int]:
    """The sparse integer row divided by its content (and by -1 if asked)."""
    g = gcd(*row.values())
    if negate:
        g = -g
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def _eliminate(row: dict[int, int], e: dict[int, int], c: int) -> dict[int, int]:
    """e[c] * row - row[c] * e, the fraction-free step that clears column c
    of row against the kept row e.  Updates row in place when e[c] is 1."""
    x = row[c]
    p = e[c]
    if p != 1:
        row = {k: p * v for k, v in row.items()}
    for k, v in e.items():
        w = row.get(k, 0) - x * v
        if w:
            row[k] = w
        else:
            del row[k]
    return row


class IntegerEchelon:
    """A sparse row echelon over the integers, grown one row at a time.

    Rows are {column: int} dicts holding only nonzero entries.  At most
    one primitive integer row is kept per pivot column; a kept row is
    zero left of its pivot and positive at it.  add(row) reduces the row
    against the kept rows by fraction-free steps (pivot * row -
    entry * kept, then dividing out the content) and keeps what is left
    if it is nonzero.  len() is the rank of all rows added.  reduced()
    back-substitutes, after which every kept row is also zero in the
    other pivot columns: divided by its pivot it is the row of the
    reduced row-echelon form.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable = ()):
        self._rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, row: Sequence[int] | dict[int, int]) -> bool:
        """Reduce an integer row (a dense list or a sparse dict) and keep
        it; False when it was dependent."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: x for c, x in items if x}
        kept = self._rows
        while row:
            c = min(row)
            x = row[c]
            e = kept.get(c)
            if e is None:
                kept[c] = _primitive(row, x < 0)
                return True
            row = _eliminate(row, e, c)
            if e[c] != 1 and row:
                row = _primitive(row)
        return False

    def reduced(self) -> tuple[list[dict[int, int]], list[int]]:
        """Back-substitute; the kept rows in pivot order, and the pivots.

        Rows are reduced from the last pivot up, each against the rows
        below it, which are already zero in every other pivot column, so
        one pass clears all of them.
        """
        kept = self._rows
        pivots = sorted(kept)
        for c in reversed(pivots):
            later = [k for k in kept[c] if k != c and k in kept]
            if not later:
                continue
            row = dict(kept[c])
            for k in later:
                row = _eliminate(row, kept[k], k)
            kept[c] = _primitive(row)
        return [kept[c] for c in pivots], pivots

    def kernel(self, ncols: int) -> list[list[int]]:
        """An integer basis of the null space of the rows added, over
        ncols columns: one vector per free column f, equal to the
        canonical kernel vector of f times the lcm of the pivots it uses."""
        rows, pivots = self.reduced()
        pivot_set = set(pivots)
        basis = []
        for f in range(ncols):
            if f in pivot_set:
                continue
            uses = [(c, row) for c, row in zip(pivots, rows) if f in row]
            m = lcm(*(row[c] for c, row in uses))
            v = [0] * ncols
            v[f] = m
            for c, row in uses:
                v[c] = -row[f] * (m // row[c])
            basis.append(v)
        return basis


def cleared(m: "Matrix") -> tuple[list[list[int]], int]:
    """m as integer rows over one positive denominator: (rows, den) with
    m = rows / den, den the lcm of all denominators of m."""
    den = lcm(*(x.denominator for row in m.rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m.rows], den


def integer_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product a * b of integer matrices given as lists of rows,
    skipping zero entries of both factors."""
    if any(len(row) != len(b) for row in a):
        raise DimensionMismatch("matmul shape mismatch")
    width = len(b[0]) if b else 0
    b_nonzeros = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    product = []
    for row in a:
        acc = [0] * width
        for x, nonzeros in zip(row, b_nonzeros):
            if x:
                for j, y in nonzeros:
                    acc[j] += x * y
        product.append(acc)
    return product


def integer_columns(rows: Sequence[Sequence[int]], ncols: int) -> list[Sequence[int]]:
    """The columns of the integer matrix with the given rows and ncols
    columns (ncols empty columns when there are no rows)."""
    return list(zip(*rows)) if rows else [()] * ncols


def integer_inverse(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """The inverse of a square integer matrix as (rows, den) with den > 0
    and inverse = rows / den; Inconsistent when m is singular.

    Fraction-free Gauss-Jordan on [m | I]: step c swaps a row with a
    nonzero entry in column c into place and replaces every other row by
    (p * x - f * y) / prev, with p the new pivot, f the row's entry in
    column c and prev the pivot of step c - 1.  As in Bareiss elimination
    each division is exact and every entry stays an integer minor.  At
    the end the left half is d * I with d = +-det m and the right half is
    d * m^-1.
    """
    n = len(m)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    if any(len(row) != 2 * n for row in rows):
        raise DimensionMismatch("only square matrices can be inverted")
    prev = 1
    for c in range(n):
        k = next((i for i in range(c, n) if rows[i][c]), None)
        if k is None:
            raise Inconsistent("matrix is singular")
        rows[c], rows[k] = rows[k], rows[c]
        top = rows[c]
        p = top[c]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    sign = 1 if prev > 0 else -1
    return [[sign * x for x in row[n:]] for row in rows], sign * prev


def _rref_rows(
    echelon: IntegerEchelon, ncols: int
) -> tuple[list[Vector], list[int], list[list[int]]]:
    """The nonzero rows of the reduced row-echelon form of the echelon's
    rows, as dense Fractions, the pivot columns, and the same rows as
    dense primitive integers with positive pivots (the echelon's rows)."""
    rows, pivots = echelon.reduced()
    out = []
    integer = []
    for row, c in zip(rows, pivots):
        p = row[c]
        dense = [row.get(k, 0) for k in range(ncols)]
        integer.append(dense)
        out.append([Fraction(x, p) for x in dense])
    return out, pivots, integer


class Matrix:
    """An exact rational matrix."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows: Sequence[Sequence], ncols: int | None = None):
        data = [[frac(x) for x in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise DimensionMismatch("ragged rows")
        else:
            if ncols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            width = ncols
        if ncols is not None and ncols != width:
            raise DimensionMismatch("declared column count disagrees with rows")
        self.rows = data
        self.nrows = len(data)
        self.ncols = width

    @classmethod
    def _of(cls, rows: list[Vector], ncols: int) -> "Matrix":
        """A matrix over rows of Fractions built in this module, taken as
        they are: no coercion, no copy, no shape check."""
        m = object.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls._of([[_ZERO] * n for _ in range(m)], n)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)], n
        )

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise DimensionMismatch("empty column list needs a row count")
            return cls.zeros(nrows, 0)
        m = len(cols[0])
        return cls._of(
            [[frac(cols[j][i]) for j in range(len(cols))] for i in range(m)], len(cols)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols})"

    def transpose(self) -> "Matrix":
        return Matrix._of(
            [[row[j] for row in self.rows] for j in range(self.ncols)], self.nrows
        )

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        """Exact product self * v, skipping zero entries of both factors."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matvec length mismatch")
        nonzeros = [(j, b) for j, b in enumerate(v) if b]
        product = []
        for row in self.rows:
            acc = _ZERO
            for j, b in nonzeros:
                a = row[j]
                if a:
                    acc += a * b
            product.append(acc)
        return product

    def matmul(self, other: "Matrix") -> "Matrix":
        """Exact product self * other, skipping zero entries of both factors."""
        if self.ncols != other.nrows:
            raise DimensionMismatch("matmul shape mismatch")
        width = other.ncols
        other_nonzeros = [
            [(j, b) for j, b in enumerate(row) if b] for row in other.rows
        ]
        product = []
        for row in self.rows:
            acc = [_ZERO] * width
            for a, nonzeros in zip(row, other_nonzeros):
                if a:
                    for j, b in nonzeros:
                        acc[j] += a * b
            product.append(acc)
        return Matrix._of(product, width)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        c = frac(other)
        return Matrix._of([[c * x for x in row] for row in self.rows], self.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix._of(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)],
            self.ncols,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other * -1)

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise DimensionMismatch("vstack width mismatch")
        return Matrix._of(
            [row[:] for row in self.rows] + [row[:] for row in other.rows], self.ncols
        )

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("hstack height mismatch")
        return Matrix._of(
            [a + b for a, b in zip(self.rows, other.rows)], self.ncols + other.ncols
        )

    def _echelon(self) -> IntegerEchelon:
        """The integer echelon of the rows, each cleared of denominators,
        stopping once the rank is full."""
        echelon = IntegerEchelon()
        full = min(self.nrows, self.ncols)
        for row in self.rows:
            if len(echelon) == full:
                break
            echelon.add(clear_denominators(row))
        return echelon

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Pivots are 1 and cleared above and below; pivot columns are chosen
        left to right, so the result is the canonical form of the row
        space, with the zero rows last.  The elimination runs in the
        integer echelon; the rows become Fractions only at the end.
        """
        rows, pivots, _ = _rref_rows(self._echelon(), self.ncols)
        rows += [[_ZERO] * self.ncols for _ in range(self.nrows - len(rows))]
        return Matrix._of(rows, self.ncols), pivots

    def rank(self) -> int:
        """Dimension of the row space, by the integer echelon of the rows."""
        return len(self._echelon())

    def kernel(self) -> list[Vector]:
        """A canonical basis of the null space: one vector per free column,
        1 there and 0 at the other free columns.

        Each is the echelon's integer kernel vector divided by its entry
        at the free column, which is its last nonzero entry, since every
        pivot row that uses the column starts left of it.
        """
        basis = []
        for v in self._echelon().kernel(self.ncols):
            d = next(x for x in reversed(v) if x)
            basis.append([Fraction(x, d) for x in v])
        return basis

    def _augmented_rref(self, rhs: Sequence[Fraction]) -> tuple[list[Vector], list[int]]:
        """rref of [self | rhs], checked consistent: its rows and pivots."""
        if len(rhs) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        aug = self.hstack(Matrix._of([[frac(b)] for b in rhs], 1))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            raise Inconsistent("right-hand side is not in the column space")
        return red.rows, pivots

    def solve(self, rhs: Sequence[Fraction]) -> Vector:
        """One exact solution of self * x = rhs with free variables set to 0.

        Raises Inconsistent when rhs is outside the column space.
        """
        rows, pivots = self._augmented_rref(rhs)
        return _solution_of_rref(rows, pivots, self.ncols)

    def inverse(self) -> "Matrix":
        """The inverse by integer_inverse of the cleared rows; Inconsistent
        when the matrix is singular."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices can be inverted")
        rows, den = cleared(self)
        inverse, inv_den = integer_inverse(rows)
        # self = rows / den, so self^-1 = den * rows^-1 = den * inverse / inv_den
        return Matrix._of(
            [[Fraction(den * x, inv_den) for x in row] for row in inverse], self.ncols
        )


def _solution_of_rref(rows: list[Vector], pivots: list[int], ncols: int) -> Vector:
    """The solution with free variables 0, read off the consistent rref of
    an augmented matrix [m | rhs] with m of width ncols."""
    x = [_ZERO] * ncols
    for i, p in enumerate(pivots):
        x[p] = rows[i][ncols]
    return x


class Subspace:
    """A linear subspace of Q^N in canonical reduced-echelon basis.

    Two Subspace objects are equal exactly when they describe the same
    span, because construction always reduces the generators.  pivots[i]
    is the leading column of basis[i].  integer_rows[i] is basis[i] as
    primitive integers with a positive pivot, the one integer row that
    clear_denominators gives for it.  Both constructors read all three
    off an IntegerEchelon: from_echelon off the caller's, and a Subspace
    built from generators off the echelon of the generators cleared of
    denominators.
    """

    __slots__ = ("ambient_dim", "basis", "pivots", "integer_rows")

    def __init__(self, ambient_dim: int, generators: Sequence[Sequence] = ()):
        gens = [vec(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator length does not match ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis, self.pivots, self.integer_rows = _rref_rows(
            IntegerEchelon(map(clear_denominators, gens)), ambient_dim)

    @classmethod
    def from_echelon(cls, ambient_dim: int, echelon: IntegerEchelon) -> "Subspace":
        """The span of the rows of an integer echelon in Q^ambient_dim."""
        s = object.__new__(cls)
        s.ambient_dim = ambient_dim
        s.basis, s.pivots, s.integer_rows = _rref_rows(echelon, ambient_dim)
        return s

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def basis_matrix(self) -> Matrix:
        return Matrix._of(list(self.basis), self.ambient_dim)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v over the stored basis, or None if v is outside.

        basis[i] is 1 at pivots[i] and 0 at the other pivots, so the only
        candidate coefficients are the entries of v at the pivots; v lies
        in the span exactly when the basis rows times them sum back to v.
        """
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        w = vec(v)
        coords = [w[p] for p in self.pivots]
        acc = [_ZERO] * self.ambient_dim
        for c, row in zip(coords, self.basis):
            if c:
                for k, x in enumerate(row):
                    if x:
                        acc[k] += c * x
        return coords if acc == w else None

    def annihilator_matrix(self) -> Matrix:
        """A matrix whose kernel is exactly this subspace."""
        if self.dim == 0:
            return Matrix.identity(self.ambient_dim)
        ann = self.basis_matrix().kernel()
        if not ann:
            return Matrix.zeros(1, self.ambient_dim)
        return Matrix._of(ann, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        stacked = self.annihilator_matrix().vstack(other.annihilator_matrix())
        return Subspace(self.ambient_dim, stacked.kernel())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace(self.ambient_dim, self.basis + other.basis)


def kernel(m: Matrix) -> Subspace:
    return Subspace(m.ncols, m.kernel())
