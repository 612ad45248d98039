"""Ordered bases for symmetric and exterior powers and the operators on them.

Conventions used everywhere in the package:

* S^h(a*) has the monomial basis m_I indexed by weakly increasing tuples
  I of length h over {0..n-1}, listed in lexicographic order.  m_I is the
  sum of all distinct arrangements of the multiset I as an h-fold tensor
  (no multinomial normalization).  Consequently the contraction obeys
  i(e_k) m_I = m_{I minus one k} when k occurs in I, with coefficient 1,
  and m_I has squared norm h!/prod(multiplicities!) when the coordinate
  basis of a is declared orthonormal.

* Lambda^p(a*) has the basis w_K indexed by strictly increasing p-tuples,
  with w_K the full antisymmetrization (again without 1/p!), so that
  (e_i* ^ e_j*)(X, Y) = X_i Y_j - X_j Y_i and |w_K|^2 = p!.

* A tensor product U (x) V of based spaces is ordered U-major: the index
  of u_a (x) v_b is a * dim(V) + b.  In particular b (x) S^h(a*) puts the
  b-index first, and cells U (x) Lambda^p put the wedge index last.

* The Koszul differential acts on b (x) S^q (x) Lambda^p by
  delta(f (x) m_I (x) w) = sum over distinct k in I of
  f (x) m_{I-k} (x) (e_k* ^ w), matching the contract-then-wedge-in-front
  formula for symmetric forms.

* One index table serves every contraction: sym_raise(n, h)[J][k] is
  the index in S^{h+1}(a*) of J + e_k for the monomial J of S^h(a*).
  Since i(e_k) m_I = m_{I minus one k} with coefficient 1, the
  coefficient of m_J in i(e_k) t is t[sym_raise(n, h)[J][k]]: every
  contraction is a gather, and no contraction matrix is built.  The
  Spencer differential and the Cauchy layer read Tableau.contraction
  (A^(0) -> b included); the dense contraction_matrix_sym,
  contraction_matrix and koszul_delta_full, and contract_vector, have no
  caller in the package and are the reference the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial

from .errors import DimensionMismatch
from .linalg import Matrix, Vector


class SymBasis:
    """The ordered monomial basis of S^h(a*) for dim a = n."""

    __slots__ = ("n", "h", "indices", "index_of")

    def __init__(self, n: int, h: int):
        if n < 0 or h < 0:
            raise DimensionMismatch("negative dimension or degree")
        self.n = n
        self.h = h
        self.indices: list[tuple[int, ...]] = list(combinations_with_replacement(range(n), h))
        self.index_of = {I: i for i, I in enumerate(self.indices)}
        assert len(self.indices) == comb(n + h - 1, h) if h > 0 else len(self.indices) == 1

    @property
    def size(self) -> int:
        return len(self.indices)

    def norm_sq(self, I: tuple[int, ...]) -> Fraction:
        """Squared length of m_I under the induced inner product."""
        counts: dict[int, int] = {}
        for k in I:
            counts[k] = counts.get(k, 0) + 1
        denom = 1
        for c in counts.values():
            denom *= factorial(c)
        return Fraction(factorial(self.h), denom)


class ExtBasis:
    """The ordered wedge basis of Lambda^p(a*) for dim a = n."""

    __slots__ = ("n", "p", "indices", "index_of")

    def __init__(self, n: int, p: int):
        if n < 0 or p < 0:
            raise DimensionMismatch("negative dimension or degree")
        self.n = n
        self.p = p
        self.indices: list[tuple[int, ...]] = list(combinations(range(n), p))
        self.index_of = {K: i for i, K in enumerate(self.indices)}

    @property
    def size(self) -> int:
        return len(self.indices)

    def norm_sq(self) -> Fraction:
        return Fraction(factorial(self.p))


@lru_cache(maxsize=None)
def sym_basis(n: int, h: int) -> SymBasis:
    return SymBasis(n, h)


@lru_cache(maxsize=None)
def ext_basis(n: int, p: int) -> ExtBasis:
    return ExtBasis(n, p)


@lru_cache(maxsize=None)
def sym_raise(n: int, h: int) -> tuple[tuple[int, ...], ...]:
    """up[J][k] = index in S^{h+1} of J + e_k, for J indexed in S^h."""
    index_of = sym_basis(n, h + 1).index_of
    return tuple(
        tuple(index_of[tuple(sorted(J + (k,)))] for k in range(n))
        for J in sym_basis(n, h).indices
    )


def multiindex_remove(I: tuple[int, ...], k: int) -> tuple[int, ...] | None:
    """I with one occurrence of k removed, or None when k is absent."""
    if k not in I:
        return None
    out = list(I)
    out.remove(k)
    return tuple(out)


def wedge_insert(k: int, K: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """e_k* ^ w_K as (sign, sorted index tuple), or None when k is in K."""
    if k in K:
        return None
    below = sum(1 for j in K if j < k)
    sign = -1 if below % 2 else 1
    return sign, tuple(sorted(K + (k,)))


@lru_cache(maxsize=None)
def contraction_matrix_sym(n: int, h: int, k: int) -> Matrix:
    """Matrix of i(e_k): S^h -> S^{h-1} over the monomial bases."""
    if h < 1:
        raise DimensionMismatch("cannot contract degree 0")
    src = sym_basis(n, h)
    dst = sym_basis(n, h - 1)
    m = [[Fraction(0)] * src.size for _ in range(dst.size)]
    for j, I in enumerate(src.indices):
        J = multiindex_remove(I, k)
        if J is not None:
            m[dst.index_of[J]][j] = Fraction(1)
    return Matrix(m, ncols=src.size)


@lru_cache(maxsize=None)
def contraction_matrix(n: int, b_dim: int, h: int, k: int) -> Matrix:
    """Matrix of id_b (x) i(e_k): b (x) S^h -> b (x) S^{h-1}, b-major order."""
    base = contraction_matrix_sym(n, h, k)
    rows = base.nrows * b_dim
    cols = base.ncols * b_dim
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for b in range(b_dim):
        for i in range(base.nrows):
            for j in range(base.ncols):
                if base.rows[i][j] != 0:
                    m[b * base.nrows + i][b * base.ncols + j] = base.rows[i][j]
    return Matrix(m, ncols=cols)


def contract_vector(n: int, b_dim: int, h: int, t: Vector, x: Vector) -> Vector:
    """i(X) applied to t in b (x) S^h for X in a, both as coordinate vectors.

    Nothing in the package calls it: the Spencer and Cauchy layers read
    Tableau.contraction.  It stays as the tests' reference and because
    the benchmark tracer wraps it by name.
    """
    if len(x) != n:
        raise DimensionMismatch("direction vector has wrong length")
    size = sym_basis(n, h).size
    if len(t) != b_dim * size:
        raise DimensionMismatch("tensor coordinate length mismatch")
    if h < 1:
        raise DimensionMismatch("cannot contract degree 0")
    terms = [(k, c) for k, c in enumerate(x) if c]
    return [
        sum((c * t[off + up[k]] for k, c in terms), Fraction(0))
        for off in range(0, len(t), size)
        for up in sym_raise(n, h - 1)
    ]


class GradedCoords:
    """A coordinate vector in b (x) S^q (x) Lambda^p (or a declared cell).

    Only a light tag: the mathematics lives in the matrices produced by
    this module and by the Spencer cells.
    """

    __slots__ = ("q", "p", "coords")

    def __init__(self, q: int, p: int, coords: Vector):
        self.q = q
        self.p = p
        self.coords = list(coords)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GradedCoords)
            and (self.q, self.p) == (other.q, other.p)
            and self.coords == other.coords
        )

    def __repr__(self) -> str:
        return f"GradedCoords(q={self.q}, p={self.p}, dim={len(self.coords)})"


def full_space_dim(n: int, b_dim: int, q: int, p: int) -> int:
    return b_dim * sym_basis(n, q).size * ext_basis(n, p).size


@lru_cache(maxsize=None)
def koszul_delta_full(n: int, b_dim: int, q: int, p: int) -> Matrix:
    """Matrix of delta: b (x) S^q (x) Lambda^p -> b (x) S^{q-1} (x) Lambda^{p+1}.

    Index order is (b, I)-major with the wedge index last.  delta is zero
    when q = 0 or p = n; it is the reference spencer.delta is tested on.
    """
    sq = sym_basis(n, q)
    ep = ext_basis(n, p)
    cols = b_dim * sq.size * ep.size
    if q == 0 or p >= n:
        return Matrix.zeros(0, cols)
    sq1 = sym_basis(n, q - 1)
    ep1 = ext_basis(n, p + 1)
    rows = b_dim * sq1.size * ep1.size
    m = [[Fraction(0)] * cols for _ in range(rows)]
    # (J, k) runs once over every pair I = J + e_k with k a distinct index of I
    for b in range(b_dim):
        for iJ, up in enumerate(sym_raise(n, q - 1)):
            for k, iI in enumerate(up):
                for iK, K in enumerate(ep.indices):
                    wk = wedge_insert(k, K)
                    if wk is None:
                        continue
                    sign, K2 = wk
                    row = (b * sq1.size + iJ) * ep1.size + ep1.index_of[K2]
                    m[row][(b * sq.size + iI) * ep.size + iK] += Fraction(sign)
    return Matrix(m, ncols=cols)


@lru_cache(maxsize=None)
def gram_diagonal(n: int, b_dim: int, q: int, p: int) -> tuple[Fraction, ...]:
    """Diagonal of the Gram matrix of b (x) S^q (x) Lambda^p, built once.

    The coordinate bases of a and b are declared orthonormal; the monomial
    and wedge bases are then orthogonal with the combinatorial norms fixed
    by the polarization convention.
    """
    sq = sym_basis(n, q)
    ep = ext_basis(n, p)
    ext_norm = ep.norm_sq()
    out = []
    for _ in range(b_dim):
        for I in sq.indices:
            w = sq.norm_sq(I) * ext_norm
            out.extend([w] * ep.size)
    return tuple(out)
