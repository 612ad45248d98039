"""Finite dimensional Lie algebras over Q and Cartan decompositions.

A LieAlgebra is given by structure constants on a chosen basis; the
constructor enforces antisymmetry and the Jacobi identity exactly.  The
constants live in one sparse table {(i, j): {k: c}} of the nonzero
c_{ij}^k, and bracket, ad, killing_form, the Jacobi check and
to_json_dict all read it, so a bracket costs one term per pair of
nonzero coordinates with a nonzero bracket.  from_matrices spans the
flattened basis matrices once (a linalg.Subspace) and reads each
commutator's coordinates off its pivots, which proves them by
multiplying back, so a basis that is not closed is still rejected.  A
CartanDecomposition g = g0 (+) m is checked from the structure constants
alone: bracket relations, Killing orthogonality, definiteness of the
Killing form on both summands, and maximality of the abelian subspace
a inside m.  It derives the orthogonal complements

    b = a-perp inside m,   g_a = centralizer of a inside g0,
    p = g_a-perp inside g0,

together with the bracket inclusions [a, b] in p and [a, p] in b that
make b and p realizable as tableaux of linear maps.  Regularity of an
element A of a means ad_A maps b injectively into p.

Definiteness is decided exactly with Sylvester's criterion on leading
principal minors, all read off one Bareiss (fraction-free integer)
elimination, never numerically.  Each bracket inclusion is one rank test
in an IntegerEchelon over the target basis.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

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
    frac,
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
    """Classify a symmetric Gram matrix: "positive", "negative",
    "zero" (0x0), or "indefinite_or_degenerate".

    Sylvester's criterion on the leading principal minors, all read off
    one Bareiss elimination without row exchanges over the rows cleared
    to integers; clearing scales each minor by a positive integer, so
    their signs are those of the gram matrix.  A zero minor ends the
    elimination and stays in the list, so the form is then neither
    positive nor negative definite.
    """
    n = gram.nrows
    if n == 0:
        return "zero"
    minors = _bareiss([clear_denominators(row) for row in gram.rows])
    if all(d > 0 for d in minors):
        return "positive"
    if all((d > 0 if k % 2 == 0 else d < 0) for k, d in enumerate(minors, 1)):
        return "negative"
    return "indefinite_or_degenerate"


class LieAlgebra:
    """Structure constants c_{ij}^k on a basis e_1..e_d (0-indexed API).

    brackets input: iterable of (i, j, k, c) meaning [e_i, e_j] has
    coefficient c on e_k; the opposite pair is filled in by antisymmetry
    and conflicting duplicates are rejected.  The constants are stored
    once, in the sparse table _table = {(i, j): {k: c}} of nonzero c
    (both orders of every pair with a nonzero bracket).
    """

    def __init__(self, dim, brackets):
        dim = int(dim)
        if dim < 1:
            raise InputError("Lie algebra dimension must be at least 1")
        self.dim = dim
        given = {}
        for item in brackets:
            i, j, k, c = item
            i, j, k = int(i), int(j), int(k)
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
        self._table = {}
        for (i, j, k), c in given.items():
            if c:
                self._table.setdefault((i, j), {})[k] = c
        self._check_jacobi()

    @classmethod
    def from_matrices(cls, mats):
        """Structure constants of a matrix Lie algebra on the given basis.

        mats: independent square matrices closed under the commutator.
        The flattened basis is spanned once; each commutator's
        coordinates over the span's canonical basis are read off its
        pivots and proved by multiplying back, then written over the
        given basis through the inverse of its block on the pivots (see
        Tableau.jet_coordinates for why that needs no further check).
        """
        if not mats:
            raise InputError("need at least one basis matrix")
        mats = [m if isinstance(m, Matrix) else Matrix(m) for m in mats]
        sz = mats[0].nrows
        for m in mats:
            if m.nrows != sz or m.ncols != sz:
                raise DimensionMismatch("basis matrices must share a square shape")
        flat = [[x for row in m.rows for x in row] for m in mats]
        span = Subspace(sz * sz, flat)
        if span.dim != len(mats):
            raise InputError("basis matrices are linearly dependent")
        inverse = Matrix([[f[p] for f in flat] for p in span.pivots],
                         ncols=len(mats)).inverse()
        brackets = []
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                comm = mats[i].matmul(mats[j]).sub(mats[j].matmul(mats[i]))
                coords = span.coordinates([x for row in comm.rows for x in row])
                if coords is None:
                    raise InputError(
                        "matrices are not closed under the commutator "
                        "(failure at pair (%d, %d))" % (i, j)
                    )
                for k, c in enumerate(inverse.matvec(coords)):
                    if c:
                        brackets.append((i, j, k, c))
        return cls(len(mats), brackets)

    def _bracket_sparse(self, x, y):
        """[x, y] for sparse coordinates {i: c}, as a sparse {k: c}."""
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
        d = self.dim
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    # [e_i, [e_j, e_k]] + [e_j, [e_k, e_i]] + [e_k, [e_i, e_j]]
                    total = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        inner = self._table.get((b, c), {})
                        for m, v in self._bracket_sparse({a: 1}, inner).items():
                            total[m] = total.get(m, 0) + v
                    if any(total.values()):
                        raise JacobiViolation(
                            "Jacobi identity fails on basis triple "
                            "(%d, %d, %d)" % (i, j, k)
                        )

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        x = vec(x)
        y = vec(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vectors do not match the algebra dimension")
        out = self._bracket_sparse(
            {i: c for i, c in enumerate(x) if c}, {j: c for j, c in enumerate(y) if c}
        )
        return [out.get(k, Fraction(0)) for k in range(self.dim)]

    def ad(self, x):
        """The adjoint matrix of the coordinate vector x: entry (k, j) is
        the e_k coefficient of [x, e_j]."""
        x = vec(x)
        if len(x) != self.dim:
            raise DimensionMismatch("vector does not match the algebra dimension")
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for (i, j), col in self._table.items():
            if x[i]:
                for k, c in col.items():
                    rows[k][j] += x[i] * c
        return Matrix(rows, ncols=self.dim)

    def killing_form(self):
        """Gram matrix K_{ij} = trace(ad_i ad_j) = sum of c_{il}^k c_{jk}^l."""
        d = self.dim
        # (k, l) -> [(j, c_{jk}^l)]: the entries of ad_j in row l, column k
        by_entry = {}
        for (j, k), col in self._table.items():
            for l, c in col.items():
                by_entry.setdefault((k, l), []).append((j, c))
        rows = [[Fraction(0)] * d for _ in range(d)]
        for (i, l), col in self._table.items():
            for k, c in col.items():
                for j, c2 in by_entry.get((k, l), ()):
                    rows[i][j] += c * c2
        return Matrix(rows, ncols=d)

    def to_json_dict(self):
        entries = sorted(
            (i, j, k, c)
            for (i, j), col in self._table.items()
            if i < j
            for k, c in col.items()
        )
        return {
            "dim": self.dim,
            "brackets": [[i, j, k, str(c)] for i, j, k, c in entries],
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            return cls(data["dim"], [(i, j, k, frac(c)) for i, j, k, c in data["brackets"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed Lie algebra JSON") from exc


def _annihilated(basis, of_basis, pairing, d):
    """{X in span(basis) : pairing(X, v) = 0 for all v in of_basis}, for a
    vector-valued pairing linear in X: the bracket gives a centralizer,
    the Killing form an orthogonal complement.  Column j of the condition
    matrix stacks pairing(basis_j, v) over of_basis; its kernel,
    recombined over basis, is returned as the canonical Subspace."""
    if not basis:
        return Subspace(d, [])
    cols = [[c for v in of_basis for c in pairing(x, v)] for x in basis]
    gens = []
    for cv in Matrix.from_columns(cols).kernel():
        w = [Fraction(0)] * d
        for c, x in zip(cv, basis):
            if c:
                w = [wi + c * xi for wi, xi in zip(w, x)]
        gens.append(w)
    return Subspace(d, gens)


def _gram(killing, basis):
    n = len(basis)
    rows = []
    for x in basis:
        kx = killing.matvec(x)
        rows.append([sum(kx[t] * y[t] for t in range(len(kx))) for y in basis])
    return Matrix(rows, ncols=n)


def _bracket_into(alg, basis1, basis2, target):
    """[x, y] in target for every x in basis1 and y in basis2, decided by
    one rank test: the brackets, cleared to integers, are added to an
    IntegerEchelon of the target's integer rows, and the first one that
    raises its rank is outside the target."""
    echelon = IntegerEchelon(target.integer_rows)
    for x in basis1:
        for y in basis2:
            if echelon.add(clear_denominators(alg.bracket(x, y))):
                return False
    return True


class CartanDecomposition:
    """g = g0 (+) m with a maximal abelian a in m, all checked exactly.

    Derived data: b (a-perp in m), g_a (centralizer of a in g0), p
    (g_a-perp in g0), the Killing Gram matrix, and ordered bases of every
    subspace.  The ordered a_basis is kept as given because downstream
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
        killing = self.killing = algebra.killing_form()

        def killing_pairing(x, v):
            return [sum(map(mul, x, killing.matvec(v)))]

        g0 = Subspace(d, g0_basis)
        if g0.dim != len(g0_basis):
            raise BadDecomposition("g0 basis is linearly dependent")
        m = _annihilated(Matrix.identity(d).rows, g0.basis, killing_pairing, d)
        if g0.dim + m.dim != d:
            raise BadDecomposition(
                "g0 and its Killing orthocomplement do not split g "
                "(the Killing form is degenerate on g0)"
            )
        if not _bracket_into(algebra, g0.basis, g0.basis, g0):
            raise BadDecomposition("[g0, g0] is not contained in g0")
        if not _bracket_into(algebra, g0.basis, m.basis, m):
            raise BadDecomposition("[g0, m] is not contained in m")
        if not _bracket_into(algebra, m.basis, m.basis, g0):
            raise BadDecomposition("[m, m] is not contained in g0")
        if definiteness(_gram(self.killing, g0.basis)) not in ("negative", "zero"):
            raise BadDecomposition("Killing form is not negative definite on g0")
        if definiteness(_gram(self.killing, m.basis)) != "positive":
            raise BadDecomposition("Killing form is not positive definite on m")
        a = Subspace(d, a_basis)
        if a.dim != len(a_basis):
            raise BadDecomposition("a basis is linearly dependent")
        if not a.is_subspace_of(m):
            raise BadDecomposition("a is not contained in m")
        for i, x in enumerate(a_basis):
            for y in a_basis[i + 1 :]:
                if any(c != 0 for c in algebra.bracket(x, y)):
                    raise BadDecomposition("a is not abelian")
        if _annihilated(m.basis, a.basis, algebra.bracket, d) != a:
            raise BadDecomposition("a is not maximal abelian in m")
        self.g0 = g0
        self.m = m
        self.a_basis = a_basis
        self.a = a
        self.b = _annihilated(m.basis, a.basis, killing_pairing, d)
        if self.b.dim + a.dim != m.dim:
            raise BadDecomposition("a and its orthocomplement do not split m")
        self.g_a = _annihilated(g0.basis, a.basis, algebra.bracket, d)
        self.p = _annihilated(g0.basis, self.g_a.basis, killing_pairing, d)
        if self.p.dim + self.g_a.dim != g0.dim:
            raise BadDecomposition("g_a and its orthocomplement do not split g0")
        if not _bracket_into(algebra, [list(v) for v in a_basis], self.b.basis, self.p):
            raise BadDecomposition("[a, b] is not contained in p")
        if not _bracket_into(algebra, [list(v) for v in a_basis], self.p.basis, self.b):
            raise BadDecomposition("[a, p] is not contained in b")

    @property
    def n(self):
        return self.a.dim

    def coords_in(self, space, v):
        c = space.coordinates(v)
        if c is None:
            raise NotInImage("vector lies outside the requested subspace")
        return c

    def coords_p(self, v):
        return self.coords_in(self.p, v)

    def is_regular(self, a_elem):
        """A in a is regular when ad_A : b -> p has zero kernel."""
        cols = [self.coords_p(self.algebra.bracket(a_elem, x)) for x in self.b.basis]
        if self.b.dim == 0:
            return True
        m = Matrix.from_columns(cols, nrows=self.p.dim)
        return m.rank() == self.b.dim

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

    def unit(i, j):
        m = [[0] * 3 for _ in range(3)]
        m[i][j] = 1
        return Matrix(m)

    mats = [unit(0, 1), unit(0, 2), unit(1, 2), unit(1, 0), unit(2, 0), unit(2, 1)]
    h1 = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
    h2 = Matrix([[0, 0, 0], [0, 1, 0], [0, 0, -1]])
    return mats + [h1, h2]


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
