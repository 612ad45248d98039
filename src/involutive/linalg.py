"""Exact linear algebra over the rationals.

Matrices are stored dense, row-major, as lists of fractions.Fraction, but
products (matmul and matvec) skip zero entries: the Koszul, embedding and
contraction matrices of the Spencer and tableau layers are mostly 0 or
+-1.  Skipping a zero drops only a zero term, so products stay exact and
the canonical bases below do not depend on which entries were skipped.
A full-column-rank matrix that is solved against many times is factored
once as a ColumnCoordinates, which reads a solution off pivot rows and
proves it by multiplying back.  Everything is exact: no floating point,
no tolerance thresholds.

Ranks and independence tests go through one fraction-free routine, the
IntegerEchelon: each row is scaled by the lcm of its denominators
(clear_denominators), which changes no rank, and reduced over Python
ints against at most one primitive row per pivot column.  Bases, kernels
and solutions go through the canonical reduced row-echelon form of
Matrix.rref.  Subspaces of Q^N are kept in that canonical basis, which
makes equality of subspaces a syntactic comparison of the stored rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Inconsistent

Vector = list[Fraction]


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise DimensionMismatch(f"cannot interpret {x!r} as an exact rational")


def vec(entries: Iterable) -> Vector:
    return [frac(x) for x in entries]


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return [a + b for a, b in zip(u, v)]

def vec_sub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vector:
    if len(u) != len(v):
        raise DimensionMismatch("vector length mismatch")
    return [a - b for a, b in zip(u, v)]

def vec_scale(c, v: Sequence[Fraction]) -> Vector:
    c = frac(c)
    return [c * a for a in v]

def vec_is_zero(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def clear_denominators(row: Iterable) -> list[int]:
    """The row times the lcm of its denominators, as Python ints.

    Entries are ints or Fractions; the result spans the same line.
    """
    row = list(row)
    m = lcm(*(x.denominator for x in row))
    if m == 1:
        return [x.numerator for x in row]
    return [x.numerator * (m // x.denominator) for x in row]


class IntegerEchelon:
    """A row echelon over the integers, grown one row at a time.

    At most one primitive integer row is kept per pivot column; a kept
    row is zero left of its pivot and positive at it.  add(row) reduces
    the row against the kept rows by fraction-free steps
    (pivot * row - entry * kept, then dividing out the content) and keeps
    what is left if it is nonzero.  len() is the rank of all rows added.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Sequence[int]] = ()):
        self._rows: dict[int, list[int]] = {}
        for row in rows:
            self.add(row)

    def __len__(self) -> int:
        return len(self._rows)

    def add(self, row: Sequence[int]) -> bool:
        """Reduce an integer row and keep it; False when it was dependent."""
        row = list(row)
        kept = self._rows
        for c in range(len(row)):
            x = row[c]
            if not x:
                continue
            e = kept.get(c)
            if e is None:
                g = gcd(*row)
                if x < 0:
                    g = -g
                kept[c] = [a // g for a in row] if g != 1 else row
                return True
            p = e[c]
            if p == 1:
                row = [a - x * b for a, b in zip(row, e)]
            else:
                row = [p * a - x * b for a, b in zip(row, e)]
                g = gcd(*row)
                if g > 1:
                    row = [a // g for a in row]
        return False


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
    def zeros(cls, m: int, n: int) -> "Matrix":
        return cls([[Fraction(0)] * n for _ in range(m)], ncols=n)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)],
            ncols=n,
        )

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: int | None = None) -> "Matrix":
        if not cols:
            if nrows is None:
                raise DimensionMismatch("empty column list needs a row count")
            return cls.zeros(nrows, 0)
        m = len(cols[0])
        return cls([[frac(cols[j][i]) for j in range(len(cols))] for i in range(m)], ncols=len(cols))

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
        return Matrix(
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
        )

    def matvec(self, v: Sequence[Fraction]) -> Vector:
        """Exact product self * v, skipping zero entries of both factors."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matvec length mismatch")
        nonzeros = [(j, b) for j, b in enumerate(v) if b]
        product = []
        for row in self.rows:
            acc = Fraction(0)
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
            acc = [Fraction(0)] * width
            for a, nonzeros in zip(row, other_nonzeros):
                if a:
                    for j, b in nonzeros:
                        acc[j] += a * b
            product.append(acc)
        return Matrix(product, ncols=width)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self.matmul(other)
        return Matrix([[frac(other) * x for x in row] for row in self.rows], ncols=self.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("matrix addition shape mismatch")
        return Matrix(
            [vec_add(r, s) for r, s in zip(self.rows, other.rows)], ncols=self.ncols
        )

    def sub(self, other: "Matrix") -> "Matrix":
        return self.add(other * Fraction(-1))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise DimensionMismatch("vstack width mismatch")
        return Matrix([row[:] for row in self.rows] + [row[:] for row in other.rows], ncols=self.ncols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.nrows != other.nrows:
            raise DimensionMismatch("hstack height mismatch")
        return Matrix(
            [self.rows[i] + other.rows[i] for i in range(self.nrows)],
            ncols=self.ncols + other.ncols,
        )

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns.

        Pivots are scaled to 1 and cleared above and below; pivot columns
        are chosen left to right, so the result is the canonical form of
        the row space.
        """
        m = [row[:] for row in self.rows]
        pivots: list[int] = []
        r = 0
        for c in range(self.ncols):
            pivot_row = None
            for i in range(r, self.nrows):
                if m[i][c] != 0:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = Fraction(1) / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(self.nrows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.nrows:
                break
        return Matrix(m, ncols=self.ncols), pivots

    def rank(self) -> int:
        """Dimension of the row space, by the integer echelon of the rows."""
        echelon = IntegerEchelon()
        full = min(self.nrows, self.ncols)
        for row in self.rows:
            if len(echelon) == full:
                break
            echelon.add(clear_denominators(row))
        return len(echelon)

    def kernel(self) -> list[Vector]:
        """A canonical basis of the null space (one vector per free column)."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for i, p in enumerate(pivots):
                v[p] = -red.rows[i][f]
            basis.append(v)
        return basis

    def solve(self, rhs: Sequence[Fraction]) -> Vector:
        """One exact solution of self * x = rhs with free variables set to 0.

        Raises Inconsistent when rhs is outside the column space.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatch("rhs length mismatch")
        aug = self.hstack(Matrix([[frac(b)] for b in rhs], ncols=1))
        red, pivots = aug.rref()
        if self.ncols in pivots:
            raise Inconsistent("right-hand side is not in the column space")
        x = [Fraction(0)] * self.ncols
        for i, p in enumerate(pivots):
            x[p] = red.rows[i][self.ncols]
        return x

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("only square matrices can be inverted")
        aug = self.hstack(Matrix.identity(self.nrows))
        red, pivots = aug.rref()
        if pivots != list(range(self.nrows)):
            raise Inconsistent("matrix is singular")
        return Matrix([row[self.nrows:] for row in red.rows], ncols=self.nrows)


class ColumnCoordinates:
    """Coordinates over the columns of a full-column-rank matrix, factored once.

    `rows` picks m.ncols rows of m on which m is invertible and `inverse`
    is the inverse of m restricted to them (None when that restriction is
    the identity).  Both default to the first independent rows, found by
    one rref of the transpose.  The coordinates of v are read off as
    inverse * v[rows]; they solve m * x = v exactly when the product
    m * x reproduces v, which is checked, so a wrong choice of rows can
    only reject a vector, never return a false solution.  Full column
    rank makes the solution unique, hence equal to Matrix.solve.
    """

    __slots__ = ("matrix", "rows", "inverse")

    def __init__(self, m: Matrix, rows: Sequence[int] | None = None,
                 inverse: Matrix | None = None):
        if rows is None:
            _, rows = m.transpose().rref()
            if len(rows) != m.ncols:
                raise Inconsistent("columns are linearly dependent")
            inverse = Matrix([m.rows[i] for i in rows], ncols=m.ncols).inverse()
        self.matrix = m
        self.rows = list(rows)
        self.inverse = inverse

    def of_vector(self, v: Sequence[Fraction]) -> Vector:
        """The x with m * x = v; Inconsistent when v is outside the column space."""
        if len(v) != self.matrix.nrows:
            raise DimensionMismatch("rhs length mismatch")
        x = [frac(v[i]) for i in self.rows]
        if self.inverse is not None:
            x = self.inverse.matvec(x)
        if self.matrix.matvec(x) != list(v):
            raise Inconsistent("right-hand side is not in the column space")
        return x

    def of_columns(self, b: Matrix) -> Matrix:
        """The X with m * X = b; Inconsistent when a column of b is outside."""
        if b.nrows != self.matrix.nrows:
            raise DimensionMismatch("rhs height mismatch")
        x = Matrix([b.rows[i] for i in self.rows], ncols=b.ncols)
        if self.inverse is not None:
            x = self.inverse.matmul(x)
        if self.matrix.matmul(x) != b:
            raise Inconsistent("a right-hand side is not in the column space")
        return x


def solve_affine(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Vector, list[Vector]]:
    """One solution of m*x = rhs together with a kernel basis.

    The full solution set is x + span(kernel).  Raises Inconsistent when
    there is no solution.
    """
    return m.solve(rhs), m.kernel()


class Subspace:
    """A linear subspace of Q^N in canonical reduced-echelon basis.

    Two Subspace objects are equal exactly when they describe the same
    span, because construction always reduces the generators.
    """

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, generators: Sequence[Sequence] = ()):
        gens = [vec(g) for g in generators]
        for g in gens:
            if len(g) != ambient_dim:
                raise DimensionMismatch("generator length does not match ambient dimension")
        if gens:
            red, pivots = Matrix(gens, ncols=ambient_dim).rref()
            basis = [red.rows[i] for i in range(len(pivots))]
        else:
            basis = []
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

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
        return Matrix(self.basis, ncols=self.ambient_dim)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v over the stored basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        w = vec(v)
        coords = []
        for row in self.basis:
            p = next(i for i, x in enumerate(row) if x != 0)
            c = w[p]
            coords.append(c)
            if c != 0:
                w = vec_sub(w, vec_scale(c, row))
        if not vec_is_zero(w):
            return None
        return coords

    def annihilator_matrix(self) -> Matrix:
        """A matrix whose kernel is exactly this subspace."""
        if self.dim == 0:
            return Matrix.identity(self.ambient_dim)
        ann = self.basis_matrix().kernel()
        if not ann:
            return Matrix.zeros(1, self.ambient_dim)
        return Matrix(ann, ncols=self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        stacked = self.annihilator_matrix().vstack(other.annihilator_matrix())
        return Subspace(self.ambient_dim, stacked.kernel())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return Subspace(self.ambient_dim, self.basis + other.basis)

    def is_subspace_of(self, other: "Subspace") -> bool:
        return all(other.contains(v) for v in self.basis)


def intersect(u: Subspace, v: Subspace) -> Subspace:
    return u.intersect(v)


def kernel(m: Matrix) -> Subspace:
    return Subspace(m.ncols, m.kernel())
