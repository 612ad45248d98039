"""Finite dimensional Lie algebras over Q and Cartan decompositions.

A LieAlgebra is given by structure constants on a chosen basis; the
constructor enforces antisymmetry and the Jacobi identity exactly.  As
in a Polynomial, the constants are integer numerators over one positive
denominator den that shares no factor with them, kept in one sparse
table {(i, j): {k: den * c_{ij}^k}} of the nonzero constants.  Brackets,
den^2 times the Killing form, the Jacobi check and to_json_dict all read
it, and Fractions are built only for returned values.  from_matrices
clears the basis matrices to one denominator, spans them in one
IntegerEchelon, forms each commutator with integer_matmul and reads its
coordinates through the integer_inverse of the basis block on the
pivots, proved by one integer product, so a basis that is not closed is
still rejected.

A CartanDecomposition g = g0 (+) m is checked from the structure
constants alone: bracket relations, Killing orthogonality, definiteness
of the Killing form on both summands, and maximality of the abelian
subspace a inside m.  It derives the orthogonal complements

    b = a-perp inside m,   g_a = centralizer of a inside g0,
    p = g_a-perp inside g0,

together with the bracket inclusions [a, b] in p and [a, p] in b that
make b and p realizable as tableaux of linear maps.  Regularity of an
element A of a means ad_A maps b injectively into p.

It runs on integer rows (Subspace.integer_rows, integer brackets and
den^2 times the Killing form), as positive scalings change no span,
kernel, rank or sign.  Centralizers and Killing complements are
IntegerEchelon kernels of their conditions, definiteness is Sylvester's
criterion on leading principal minors read off one Bareiss
(fraction-free) elimination, each bracket inclusion is one rank test in
an IntegerEchelon over the target, and coordinates in p are read off
its pivots.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import (
    BadDecomposition,
    DimensionMismatch,
    InputError,
    JacobiViolation,
    NotInImage,
    NotRegular,
)
from .linalg import (
    IntegerEchelon,
    Matrix,
    Subspace,
    clear_denominators,
    cleared,
    frac,
    integer_columns,
    integer_inverse,
    integer_matmul,
    vec,
)


def _bareiss(rows):
    """Bareiss fraction-free elimination of a square integer matrix, in
    place and without row exchanges; returns its pivots.

    Step c replaces every entry below the pivot row by (p * x - f * y)
    divided by the previous pivot, which is exact, so every number stays
    an integer minor of the input.  The pivot of step c is the leading
    principal (c+1) x (c+1) minor, and the first zero one ends the
    elimination.
    """
    prev = 1
    pivots = []
    for c in range(len(rows)):
        p = rows[c][c]
        pivots.append(p)
        if p == 0:
            break
        top = rows[c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
        prev = p
    return pivots


def definiteness(gram):
    """Classify a symmetric Gram matrix (a Matrix or rows of ints or
    Fractions): "positive", "negative", "zero" (0x0), or
    "indefinite_or_degenerate".

    Sylvester's criterion on the leading principal minors, all read off
    one Bareiss elimination without row exchanges over the rows cleared
    to integers; clearing scales each minor by a positive integer, so
    their signs are those of the gram matrix.  A zero minor ends the
    elimination and stays in the list, so the form is then neither
    positive nor negative definite.
    """
    rows = gram.rows if isinstance(gram, Matrix) else gram
    if not rows:
        return "zero"
    minors = _bareiss([clear_denominators(row) for row in rows])
    if all(d > 0 for d in minors):
        return "positive"
    if all((d > 0 if k % 2 == 0 else d < 0) for k, d in enumerate(minors, 1)):
        return "negative"
    return "indefinite_or_degenerate"


def _sparse(row):
    return {i: c for i, c in enumerate(row) if c}


class LieAlgebra:
    """Structure constants c_{ij}^k on a basis e_1..e_d (0-indexed API).

    brackets input: iterable of (i, j, k, c) with int indices, meaning
    [e_i, e_j] has coefficient c on e_k; the opposite pair is filled in
    by antisymmetry and conflicting duplicates are rejected.  The
    constants are stored once, in the sparse table
    _table = {(i, j): {k: den * c}} of nonzero c (both orders of every
    pair with a nonzero bracket).
    """

    def __init__(self, dim, brackets):
        if type(dim) is not int:
            raise InputError("Lie algebra dimension must be an integer, got %r" % (dim,))
        if dim < 1:
            raise InputError("Lie algebra dimension must be at least 1")
        given = {}
        for item in brackets:
            i, j, k, c = item
            if not type(i) is type(j) is type(k) is int:
                raise InputError("bracket indices must be integers: %r" % (item,))
            c = frac(c)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise InputError("bracket index out of range: %r" % (item,))
            if i == j:
                if c != 0:
                    raise InputError("[e_%d, e_%d] must vanish" % (i, i))
                continue
            for key, val in (((i, j, k), c), ((j, i, k), -c)):
                if key in given and given[key] != val:
                    raise InputError(
                        "conflicting structure constants for %r" % (key,)
                    )
                given[key] = val
        den = lcm(*(c.denominator for c in given.values()))
        self._store(dim, {key: c.numerator * (den // c.denominator)
                          for key, c in given.items()}, den)
        self._check_jacobi()

    def _store(self, dim, entries, den):
        """Keep the numerators {(i, j, k): n} over den, divided by their
        common factor with den, in the table of the nonzero ones."""
        g = gcd(den, *entries.values())
        self.dim, self.den, self._table = dim, den // g, {}
        for (i, j, k), c in entries.items():
            if c:
                self._table.setdefault((i, j), {})[k] = c // g

    @classmethod
    def from_matrices(cls, mats):
        """Structure constants of a matrix Lie algebra on the given basis.

        mats: independent square matrices closed under the commutator.
        They are cleared to N_k = s M_k and spanned in one IntegerEchelon.
        With P the block of the N_k on its pivots, the coordinates of a
        commutator C of two N_k over them are P^-1 C|pivots, by
        integer_inverse, proved by one integer product; the constants are
        those coordinates over s.  Commutators satisfy the Jacobi
        identity, so it is not checked again.
        """
        if not mats:
            raise InputError("need at least one basis matrix")
        mats = [m if isinstance(m, Matrix) else Matrix(m) for m in mats]
        sz, dim = mats[0].nrows, len(mats)
        if any(m.nrows != sz or m.ncols != sz for m in mats):
            raise DimensionMismatch("basis matrices must share a square shape")
        rows, s = cleared(Matrix([row for m in mats for row in m.rows], ncols=sz))
        ints = [rows[k * sz:(k + 1) * sz] for k in range(dim)]
        flat = [[x for row in m for x in row] for m in ints]
        echelon = IntegerEchelon(flat)
        if len(echelon) != dim:
            raise InputError("basis matrices are linearly dependent")
        pivots = echelon.reduced()[1]
        inverse, d = integer_inverse([[f[p] for f in flat] for p in pivots])
        pairs = list(combinations(range(dim), 2))
        comms = [[x - y for r, t in zip(integer_matmul(ints[i], ints[j]),
                                        integer_matmul(ints[j], ints[i]))
                  for x, y in zip(r, t)] for i, j in pairs]
        # d times the coordinates of each commutator over the N_k
        coords = integer_matmul([[c[p] for p in pivots] for c in comms],
                                integer_columns(inverse, dim))
        entries = {}
        for (i, j), x, back, comm in zip(pairs, coords, integer_matmul(coords, flat), comms):
            if back != [d * c for c in comm]:
                raise InputError(
                    "matrices are not closed under the commutator "
                    "(failure at pair (%d, %d))" % (i, j)
                )
            for k, c in enumerate(x):
                entries[i, j, k], entries[j, i, k] = c, -c
        alg = object.__new__(cls)
        alg._store(dim, entries, d * s)
        return alg

    def _bracket_sparse(self, x, y):
        """den [x, y] for sparse integer coordinates {i: c}, as a sparse {k: c}."""
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                col = self._table.get((i, j))
                if col:
                    c = xi * yj
                    for k, v in col.items():
                        out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}

    def _check_jacobi(self):
        for i, j, k in combinations(range(self.dim), 3):
            # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
            total = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self._table.get((b, c), {})
                for m, v in self._bracket_sparse({a: 1}, inner).items():
                    total[m] = total.get(m, 0) + v
            if any(total.values()):
                raise JacobiViolation(
                    "Jacobi identity fails on basis triple (%d, %d, %d)" % (i, j, k)
                )

    def integer_bracket(self, x, y):
        """den [x, y] for coordinate rows x and y, integers for integers."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vectors do not match the algebra dimension")
        out = self._bracket_sparse(_sparse(x), _sparse(y))
        return [out.get(k, 0) for k in range(self.dim)]

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        return [Fraction(c) / self.den for c in self.integer_bracket(vec(x), vec(y))]

    def _killing_numerators(self):
        """den^2 K as integer rows, K_{ij} = sum of c_{il}^k c_{jk}^l."""
        d = self.dim
        # (k, l) -> [(j, c_{jk}^l)]: the entries of ad_j in row l, column k
        by_entry = {}
        for (j, k), col in self._table.items():
            for l, c in col.items():
                by_entry.setdefault((k, l), []).append((j, c))
        rows = [[0] * d for _ in range(d)]
        for (i, l), col in self._table.items():
            for k, c in col.items():
                for j, c2 in by_entry.get((k, l), ()):
                    rows[i][j] += c * c2
        return rows

    def to_json_dict(self):
        entries = sorted(
            (i, j, k, c)
            for (i, j), col in self._table.items()
            if i < j
            for k, c in col.items()
        )
        return {
            "dim": self.dim,
            "brackets": [[i, j, k, str(Fraction(c, self.den))] for i, j, k, c in entries],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls(data["dim"], [(i, j, k, frac(c)) for i, j, k, c in data["brackets"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed Lie algebra JSON") from exc


def _annihilated(rows, conditions, d):
    """The canonical Subspace of Q^d of the sums of c_j rows_j whose
    coefficients c satisfy every integer condition row."""
    kernel = IntegerEchelon(conditions).kernel(len(rows))
    return Subspace.from_echelon(d, IntegerEchelon(integer_matmul(kernel, rows)))


def _centralizer(alg, rows, of_rows):
    """{X in span(rows) : [X, v] = 0 for all v in of_rows}."""
    conditions = [entry for v in of_rows
                  for entry in zip(*(alg.integer_bracket(x, v) for x in rows))]
    return _annihilated(rows, conditions, alg.dim)


def _gram(killing, left, right):
    """[K(x, y)] for x in left, y in right, K given by integer rows."""
    return integer_matmul(integer_matmul(left, killing),
                          integer_columns(right, len(killing)))


def _within(vectors, target):
    """Every integer vector lies in target: none raises the rank of an
    IntegerEchelon of the target's integer rows."""
    echelon = IntegerEchelon(target.integer_rows)
    return not any(echelon.add(v) for v in vectors)


def _bracket_into(alg, rows1, rows2, target):
    """[x, y] in target for every x in rows1 and y in rows2 (integer rows),
    decided by one rank test."""
    rows2 = [_sparse(y) for y in rows2]
    return _within((alg._bracket_sparse(_sparse(x), y) for x in rows1 for y in rows2), target)


class CartanDecomposition:
    """g = g0 (+) m with a maximal abelian a in m, all checked exactly.

    Derived data: b (a-perp in m), g_a (centralizer of a in g0), p
    (g_a-perp in g0), and ordered bases of every subspace.  The ordered a_basis is kept as given because downstream
    constructions use it as the flag of independent directions.
    """

    def __init__(self, algebra, g0_basis, a_basis):
        self.algebra = algebra
        d = algebra.dim
        g0_basis = [vec(v) for v in g0_basis]
        a_basis = [vec(v) for v in a_basis]
        for v in g0_basis + a_basis:
            if len(v) != d:
                raise DimensionMismatch("subspace vector length differs from dim g")
        killing = algebra._killing_numerators()
        g0 = Subspace(d, g0_basis)
        if g0.dim != len(g0_basis):
            raise BadDecomposition("g0 basis is linearly dependent")
        g0_rows = g0.integer_rows
        # Killing complements are kernels of Gram blocks, centralizers of brackets
        units = [[int(i == j) for j in range(d)] for i in range(d)]
        m = _annihilated(units, _gram(killing, g0_rows, units), d)
        if g0.dim + m.dim != d:
            raise BadDecomposition(
                "g0 and its Killing orthocomplement do not split g "
                "(the Killing form is degenerate on g0)"
            )
        m_rows = m.integer_rows
        if not _bracket_into(algebra, g0_rows, g0_rows, g0):
            raise BadDecomposition("[g0, g0] is not contained in g0")
        if not _bracket_into(algebra, g0_rows, m_rows, m):
            raise BadDecomposition("[g0, m] is not contained in m")
        if not _bracket_into(algebra, m_rows, m_rows, g0):
            raise BadDecomposition("[m, m] is not contained in g0")
        if definiteness(_gram(killing, g0_rows, g0_rows)) not in ("negative", "zero"):
            raise BadDecomposition("Killing form is not negative definite on g0")
        if definiteness(_gram(killing, m_rows, m_rows)) != "positive":
            raise BadDecomposition("Killing form is not positive definite on m")
        a = Subspace(d, a_basis)
        if a.dim != len(a_basis):
            raise BadDecomposition("a basis is linearly dependent")
        a_rows = a.integer_rows
        if not _within(a_rows, m):
            raise BadDecomposition("a is not contained in m")
        if any(any(algebra.integer_bracket(x, y)) for x in a_rows for y in a_rows):
            raise BadDecomposition("a is not abelian")
        if _centralizer(algebra, m_rows, a_rows) != a:
            raise BadDecomposition("a is not maximal abelian in m")
        self.g0, self.m, self.a_basis, self.a = g0, m, a_basis, a
        self.b = _annihilated(m_rows, _gram(killing, a_rows, m_rows), d)
        if self.b.dim + a.dim != m.dim:
            raise BadDecomposition("a and its orthocomplement do not split m")
        self.g_a = _centralizer(algebra, g0_rows, a_rows)
        self.p = _annihilated(g0_rows, _gram(killing, self.g_a.integer_rows, g0_rows), d)
        if self.p.dim + self.g_a.dim != g0.dim:
            raise BadDecomposition("g_a and its orthocomplement do not split g0")
        if not _bracket_into(algebra, a_rows, self.b.integer_rows, self.p):
            raise BadDecomposition("[a, b] is not contained in p")
        if not _bracket_into(algebra, a_rows, self.p.integer_rows, self.b):
            raise BadDecomposition("[a, p] is not contained in b")

    @property
    def n(self):
        return self.a.dim

    def integer_coords_p(self, v):
        """The coordinates over p.basis of an integer vector v: v at the
        pivots of p, since p.basis[k] is 1 at pivots[k] and 0 at the other
        pivots, once a rank test has shown that v lies in p."""
        if not _within([v], self.p):
            raise NotInImage("vector lies outside the requested subspace")
        return [v[c] for c in self.p.pivots]

    def is_regular(self, a_elem):
        """A in a is regular when ad_A : b -> p has zero kernel: the
        p-coordinates of [A, x] over the integer rows x of b are
        independent."""
        a_row = clear_denominators(vec(a_elem))
        cols = [self.integer_coords_p(self.algebra.integer_bracket(a_row, x))
                for x in self.b.integer_rows]
        return len(IntegerEchelon(cols)) == self.b.dim

    def require_regular_basis(self):
        for idx, a_elem in enumerate(self.a_basis):
            if not self.is_regular(a_elem):
                raise NotRegular(
                    "basis vector %d of a is not regular (ad restricted to "
                    "b has a kernel)" % idx
                )


def su2_algebra():
    """Compact three dimensional algebra with [e1,e2]=e3 cyclically."""
    return LieAlgebra(3, [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)])


def abelian_algebra(dim):
    return LieAlgebra(dim, [])


def sl2_matrices():
    h = [[1, 0], [0, -1]]
    e = [[0, 1], [0, 0]]
    f = [[0, 0], [1, 0]]
    return [Matrix(h), Matrix(e), Matrix(f)]


def sl2_decomposition():
    """sl(2): g0 = so(2), m = symmetric traceless, a = span(H)."""
    alg = LieAlgebra.from_matrices(sl2_matrices())
    # coordinates on (H, E, F): so(2) = span(E - F), a = span(H)
    return CartanDecomposition(alg, [[0, 1, -1]], [[1, 0, 0]])


def sl3_matrices():
    """Basis E12,E13,E23,E21,E31,E32,H1,H2 of traceless 3x3 matrices."""
    cells = [(0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1)]
    mats = [[[int((r, c) == cell) for c in range(3)] for r in range(3)] for cell in cells]
    mats += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]
    return [Matrix(m) for m in mats]


def sl3_decomposition():
    """sl(3): g0 = so(3), m = symmetric traceless, a = diagonal traceless.

    In the basis E12,E13,E23,E21,E31,E32,H1,H2 the ordered a basis is
    (diag(1,0,-1), diag(0,1,-1)) = (H1+H2, H2), both regular.
    """
    alg = LieAlgebra.from_matrices(sl3_matrices())
    so3 = [
        [1, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0, -1, 0, 0],
    ]
    a = [
        [0, 0, 0, 0, 0, 0, 1, 1],
        [0, 0, 0, 0, 0, 0, 0, 1],
    ]
    return CartanDecomposition(alg, so3, a)
