"""Spencer complexes of a tableau: differentials, cohomology, harmonic splits.

For a tableau A inside Hom(a, b) the Spencer cells are

    C^{q,p}(A) = A^(q-1) (x) Lambda^p(a*),   with A^(-1) := b,

and the differential delta: C^{q,p} -> C^{q-1,p+1} is

    delta(v (x) w_K) = sum_i i(e_i) v (x) (e_i* ^ w_K),

built from the contractions i(e_i): A^(q-1) -> A^(q-2) that
Tableau.contraction already holds for the prolongation tower.  This
module computes cohomology dimensions

    dim H^{q,p} = dim C^{q,p} - rank delta^{q,p} - rank delta^{q+1,p-1},

with dim C^{q,p} = dim A^(q-1) * C(n, p) read off the tower and each
rank kept in the tableau's memo (Tableau.memo) per (q, p), so
neighbouring queries and the 2-acyclicity report share their ranks and
build a cell only for a differential not yet ranked.  It decides
2-acyclicity and produces the harmonic decomposition

    C^{q,p} = B^{q,p} (+) H^{q,p} (+) B_{q,p}

together with the inverse map sigma_{q,p}: B^{q-1,p+1} -> B_{q,p} of the
restricted differential, each split kept in the same memo per (q, p).

Inner products: the standard bases of a and b are declared orthonormal;
the induced inner product makes the monomial/wedge basis orthogonal with
the combinatorial norms of bases.gram_diagonal.  Cohomology dimensions do
not depend on this choice; harmonic representatives and sigma do, so the
choice is fixed here once.  The adjoint of a differential with matrix D
between cells with Gram matrices G_src, G_dst is G_src^{-1} D^T G_dst,
not the bare transpose, because the cell bases are not orthonormal;
codifferential forms it.  A harmonic split needs only the spaces the
adjoints cut out, and those are G-orthogonal complements inside its own
cell: Ker delta*_in = kernel(D_in^T G) and B_{q,p} = kernel(K^T G) for
a basis K of Ker delta_out, and H^{q,p} is one kernel of the stacked
matrix [D_out; D_in^T G].  G is p! (G_jet (x) I) for the Gram matrix
G_jet of the jet coordinates of A^(q-1), memoised per level as integer
rows over one denominator, and the differentials come from the
contractions, so a split builds no cell and inverts no Gram matrix; its
products with G and its kernels run on integer rows, and it stores the
rank of its outgoing differential in the rank memo.  It is certified by
products and dimensions alone: the three parts are pairwise
G-orthogonal, their dimensions add up to the cell, D_out D_in = 0,
D_out kills H and dim B + dim H = dim Ker delta.
Because G is positive definite, G-orthogonal parts are independent, and
these checks imply Ker delta = B (+) H, Ker delta* = H (+) B_ and that
the three parts fill the cell (see HarmonicSplit), with no sum or
intersection of subspaces formed.

Cell coordinates order the basis of A^(q-1) first (Tableau.jet_basis:
the tableau generators for q = 1, the canonical reduced basis of the
cached prolongation for q >= 2) and the wedge index last: index =
alpha * C(n, p) + k.  So delta is written straight from the
contraction matrices, and a full-space vector is written in a cell slot
by slot with Tableau.jet_coordinates, which rejects a vector outside
the cell exactly.  The dense bases.koszul_delta_full is only the
reference the tests compare delta against.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import factorial

from .bases import (
    GradedCoords,
    ext_basis,
    full_space_dim,
    gram_diagonal,
    sym_basis,
    wedge_insert,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InputError,
    NotInImage,
    StructureViolation,
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
)
from .tableau import involutive_index

class SpencerCell:
    """One cell C^{q,p}(A) with its embedding into b (x) S^q (x) Lambda^p.

    The A^(q-1) factor is written over tableau.jet_basis(q - 1) (the
    identity of b for q = 0), so cell coordinates extend the jet
    coordinates of Tableau.jet_coordinates by the wedge index.  A cell
    with p > n is the zero cell, since Lambda^p(a*) = 0.
    """

    def __init__(self, tableau, q, p):
        if q < 0:
            raise InputError("Spencer cell needs q >= 0, got %d" % q)
        if p < 0:
            raise InputError("Spencer cell needs p >= 0, got %d" % p)
        n, r = tableau.a_dim, tableau.b_dim
        self.tableau = tableau
        self.q = q
        self.p = p
        if q == 0:
            a_basis = Matrix.identity(r).rows
        else:
            a_basis = tableau.jet_basis(q - 1)
        w = ext_basis(n, p).size
        self.dim = len(a_basis) * w
        # basis vector alpha (x) w_k is column alpha * w + k; its entry c at
        # position pos of A^(q-1) sits in row pos * w + k
        zeros = [Fraction(0) for _ in range(self.dim)]
        rows = [zeros[:] for _ in range(full_space_dim(n, r, q, p))]
        for alpha, av in enumerate(a_basis):
            for pos, c in enumerate(av):
                if c != 0:
                    for k in range(w):
                        rows[pos * w + k][alpha * w + k] = c
        self.embed = Matrix._of(rows, self.dim)
        g_full = gram_diagonal(n, r, q, p)
        scaled = Matrix._of(
            [[g_full[i] * x for x in row] for i, row in enumerate(rows)], self.dim
        )
        self.gram = self.embed.transpose().matmul(scaled)

    def embed_coords(self, coords):
        """Cell coordinates -> coordinates in the full tensor space."""
        return self.embed.matvec(coords)

    def coordinates_of(self, full_vec):
        """Full-space vector -> cell coordinates; NotInImage if outside.

        Entry alpha of wedge slot k = full_vec[k::C(n,p)], written in the
        level-(q-1) jet coordinates (as it is for q = 0), is coordinate
        alpha * C(n,p) + k.
        """
        if len(full_vec) != self.embed.nrows:
            raise DimensionMismatch("vector length does not match the cell")
        q, w = self.q, ext_basis(self.tableau.a_dim, self.p).size
        try:
            slots = [full_vec[k::w] if q == 0 else
                     self.tableau.jet_coordinates(q - 1, full_vec[k::w])
                     for k in range(w)]
        except NotInImage as exc:
            raise NotInImage(
                "vector does not lie in the Spencer cell C^{%d,%d}" % (q, self.p)
            ) from exc
        return [frac(x) for column in zip(*slots) for x in column]


def delta(cell):
    """Matrix of the Spencer differential C^{q,p} -> C^{q-1,p+1}.

    Expressed in cell coordinates on both sides: with C_i =
    Tableau.contraction(q - 1, i) and e_i* ^ w_K = sign w_K2, entry
    (beta * C(n,p+1) + K2, alpha * C(n,p) + K) is sign * C_i[beta][alpha].
    Tableau.contraction proves that the image lies in the target cell
    (StructureViolation otherwise); delta^{0,p} = 0 by convention and the
    matrix then has zero rows.
    """
    return _delta(cell.tableau, cell.q, cell.p, cell.dim)


def _delta(t, q, p, dim):
    """delta out of C^{q,p}, a cell of dimension dim, without the cell."""
    n = t.a_dim
    if q == 0 or p >= n:
        return Matrix.zeros(0, dim)
    src, dst = ext_basis(n, p), ext_basis(n, p + 1)
    contractions = [t.contraction(q - 1, i) for i in range(n)]
    m = Matrix.zeros(contractions[0].nrows * dst.size, dim)
    for i, c in enumerate(contractions):
        for k, K in enumerate(src.indices):
            wk = wedge_insert(i, K)
            if wk is None:
                continue
            sign, K2 = wk
            k2 = dst.index_of[K2]
            for beta, c_row in enumerate(c.rows):
                row = m.rows[beta * dst.size + k2]
                for alpha, x in enumerate(c_row):
                    if x:
                        row[alpha * src.size + k] = sign * x
    return m


def _delta_rank(t, q, p):
    """rank delta^{q,p}, memoised on the tableau per (q, p).

    A zero differential (q = 0 or p >= n) has rank 0 and is not stored.
    A miss builds the cell and ranks delta.
    """
    if q == 0 or p >= t.a_dim:
        return 0
    return t.memo(("delta_rank", q, p),
                  lambda: delta(SpencerCell(t, q, p)).rank())


def cohomology_dim(t, q, p):
    """dim H^{q,p}(A) = dim C^{q,p} - rank delta^{q,p} - rank delta^{q+1,p-1}.

    dim C^{q,p} = dim A^(q-1) * C(n, p) is read off the tower (b at
    q = 0), and the ranks come from the tableau's memo (see _delta_rank),
    so a cell is built only for a differential not yet ranked.
    """
    if q < 0 or p < 0:
        raise InputError("cohomology needs q, p >= 0, got (%d, %d)" % (q, p))
    dim = (t.dim_at(q - 1) if q else t.b_dim) * ext_basis(t.a_dim, p).size
    h = dim - _delta_rank(t, q, p) - (_delta_rank(t, q + 1, p - 1) if p else 0)
    if h < 0:
        raise StructureViolation(
            "negative cohomology dimension at (q,p)=(%d,%d); differentials "
            "do not compose to zero" % (q, p)
        )
    return h


def two_acyclicity_report(t, q_cap, seed=0, k=None):
    """H^{q,2} for q = 1..max(q_cap, k+1), with k the involutive index.

    The involutive index is included when it is computable within the
    tableau's cap; the report records exactly which range was verified.  A
    caller that already holds the index passes it as k; otherwise it is
    certified with the flags of involutive_index(t, seed=seed).
    """
    if q_cap < 1:
        raise InputError("need q_cap >= 1, got %d" % q_cap)
    if k is None:
        try:
            k = involutive_index(t, h_max=q_cap + 1, seed=seed)["k"]
        except CapExceeded:
            pass
    top = max(q_cap, k + 1) if k is not None else q_cap
    dims = {}
    for q in range(1, top + 1):
        dims[q] = cohomology_dim(t, q, 2)
    return {
        "two_acyclic": all(v == 0 for v in dims.values()),
        "checked_q_range": [1, top],
        "H_q2_dims": dims,
        "involutive_index": k,
    }


def codifferential(t, q, p):
    """Matrix of delta*_{q,p}: C^{q-1,p+1} -> C^{q,p}, the Gram adjoint of
    the outgoing differential of C^{q,p}.  Its image is B_{q,p}."""
    if q < 1:
        raise InputError("codifferential needs q >= 1, got %d" % q)
    if p >= t.a_dim:
        raise InputError("codifferential needs p < a_dim, got p = %d" % p)
    cell = SpencerCell(t, q, p)
    dst = SpencerCell(t, q - 1, p + 1)
    if cell.dim == 0 or dst.dim == 0:
        return Matrix.zeros(cell.dim, dst.dim)
    d = delta(cell)
    return _adjoint(d, cell.gram, dst.gram)


def _span(dim, vectors):
    """The Subspace of Q^dim spanned by integer vectors, through the
    integer echelon."""
    return Subspace.from_echelon(dim, IntegerEchelon(vectors))


def _adjoint(d, gram_src, gram_dst):
    """Adjoint of d: src -> dst with respect to the cell Gram matrices."""
    return gram_src.inverse().matmul(d.transpose().matmul(gram_dst))


def _orthogonal(u, v, gram):
    """u and v are G-orthogonal: U G V^T is zero for their basis
    matrices, taken as their integer rows, which scales no entry of the
    product to or from zero.  gram is the integer rows of a positive
    multiple of G."""
    u_g = integer_matmul(u.integer_rows, gram)
    v_columns = integer_columns(v.integer_rows, v.ambient_dim)
    return _zero_rows(integer_matmul(u_g, v_columns))


def _zero_rows(rows):
    return not any(map(any, rows))


class HarmonicSplit:
    """Harmonic decomposition of one Spencer cell, from its own Gram matrix.

    Fields (all in cell coordinates of C^{q,p}):
      b_up      image of delta from C^{q+1,p-1}            (B^{q,p})
      harmonic  Ker delta  intersected with  Ker adjoint   (H^{q,p})
      b_down    image of the adjoint of the outgoing delta (B_{q,p})
      sigma_matrix  matrix of the inverse of delta restricted to b_down,
                written in the bases (image of delta in C^{q-1,p+1}) ->
                (basis of b_down); square of size dim b_down

    No cell is built: the Gram matrix of C^{q,p} is G = p! (G_jet (x)
    I_C(n,p)) in the cell order alpha * C(n,p) + k, with G_jet =
    J diag(|m_I|^2) J^T over the rows J of jet_basis(q - 1) (the identity
    of b for q = 0), memoised on the tableau (_jet_gram), and delta out
    of the cell comes from _delta.  Its rank is stored in the tableau's
    rank memo, so cohomology_dim builds no cell for it afterwards.  The
    split keeps the cell's dimension dim and G cleared once, as the
    integer rows of G_jet (x) I of which G is a positive multiple; gram
    builds G itself as a Matrix on first read.  So it holds no reference
    to the tableau.  A negative q or p raises InputError.  G is
    positive definite (E^T diag(g) E with E injective and g > 0), so the
    adjoint spaces are G-orthogonal complements: Ker delta*_in is the
    complement of Im delta_in, kernel(D_in^T G), and B_{q,p} = Im
    delta*_out is the complement of Ker delta_out, kernel(K^T G) for the
    basis K of Ker delta_out.  The harmonic space is one kernel of the
    stacked matrix [D_out; D_in^T G].  The spaces, hence their canonical
    bases, are those of the adjoints G_src^{-1} D^T G_dst, with no
    neighbouring cell and no Gram inverse.  The products with G and the
    three kernels run on integer rows: each kernel is read off one
    IntegerEchelon, whose reduced rows give the canonical basis.

    Construction certifies the decomposition with products and
    dimensions (_verify), in this order:
      (a) B, H and B_ are pairwise G-orthogonal (three products U G V^T);
      (b) dim B + dim H + dim B_ = dim C^{q,p};
      (c) D_out D_in = 0, D_out H^T = 0 and dim B + dim H = dim Ker delta.
    These imply what a comparison of subspaces would show.  If
    b + h + c = 0 with b in B, h in H, c in B_, pairing with b under G
    leaves <b, b> = 0 by (a), so b = 0 as G is positive definite, and
    likewise h = c = 0: the parts are independent, and by (b) they fill
    the cell.  B = Im delta_in and H lie in Ker delta_out by (c), and
    B (+) H has the dimension of Ker delta_out, so Ker delta = B (+) H.
    The rows of B span Im delta_in, so the products of (a) with B say
    that H and B_ lie in Ker D_in^T G = Ker delta*_in, which has
    dimension dim C - rank D_in = dim H + dim B_ by (b), so Ker delta* =
    H (+) B_.  Hence also dim H = dim Ker delta - rank delta_in = dim
    H^{q,p}.  Any failure raises StructureViolation.  sigma is checked
    by multiplying back: delta o sigma = identity on the image.
    """

    def __init__(self, tableau, q, p):
        if q < 0 or p < 0:
            raise InputError(
                "harmonic split needs q, p >= 0, got (%d, %d)" % (q, p)
            )
        self.q = q
        self.p = p
        n = tableau.a_dim
        w = ext_basis(n, p).size
        jet_gram, self._jet_den = _jet_gram(tableau, q - 1)
        self.dim = dim = len(jet_gram) * w
        self._gram_rows = g = _cell_gram(jet_gram, w)
        self.d_out = _delta(tableau, q, p, dim)
        if p >= 1:
            src_dim = tableau.dim_at(q) * ext_basis(n, p - 1).size
            d_in = _delta(tableau, q + 1, p - 1, src_dim)
        else:
            d_in = Matrix.zeros(dim, 0)
        self._has_target = q >= 1 and p < n and dim > 0
        d_in_columns = integer_columns(cleared(d_in)[0], d_in.ncols)
        self.b_up = _span(dim, d_in_columns)
        # Ker delta_out, then H = Ker [D_out; D_in^T G] in the same echelon
        echelon = IntegerEchelon(map(clear_denominators, self.d_out.rows))
        rank_out = len(echelon)
        ker_out = echelon.kernel(dim)
        if q >= 1 and p < n:
            tableau.memo(("delta_rank", q, p), lambda: rank_out)
        for row in integer_matmul(d_in_columns, g):
            echelon.add(row)
        self.harmonic = _span(dim, echelon.kernel(dim))
        if self._has_target:
            b_down = IntegerEchelon(integer_matmul(ker_out, g)).kernel(dim)
            self.b_down = _span(dim, b_down)
        else:
            self.b_down = Subspace(dim, [])
        self._verify(d_in, len(ker_out))
        self.sigma_matrix = self._build_sigma()

    @cached_property
    def gram(self):
        """The Gram matrix G of the cell as a Matrix, built on first read."""
        scale = Fraction(factorial(self.p), self._jet_den)
        return Matrix._of([[scale * x for x in row] for row in self._gram_rows], self.dim)

    def _verify(self, d_in, ker_dim):
        """Checks (a)-(c) of the class docstring; d_in is the matrix of the
        incoming differential and ker_dim the dimension of Ker delta_out.
        Every product runs on integer rows (see _orthogonal)."""
        if self.dim == 0:
            return
        g = self._gram_rows
        pairs = [
            (self.b_up, self.harmonic),
            (self.b_up, self.b_down),
            (self.harmonic, self.b_down),
        ]
        if not all(_orthogonal(u, v, g) for u, v in pairs):
            raise StructureViolation(
                "harmonic components of C^{%d,%d} are not orthogonal"
                % (self.q, self.p)
            )
        if self.b_up.dim + self.harmonic.dim + self.b_down.dim != self.dim:
            raise StructureViolation(
                "harmonic components of C^{%d,%d} do not sum to the cell"
                % (self.q, self.p)
            )
        d_out = list(map(clear_denominators, self.d_out.rows))
        if not (
            self.b_up.dim + self.harmonic.dim == ker_dim
            and _zero_rows(integer_matmul(d_out, cleared(d_in)[0]))
            and _zero_rows(integer_matmul(
                d_out, integer_columns(self.harmonic.integer_rows, self.dim)))
        ):
            raise StructureViolation(
                "Ker delta != B (+) H at (q,p)=(%d,%d)" % (self.q, self.p)
            )

    def _build_sigma(self):
        """Solve delta(sigma(w)) = w for each basis vector of the image.

        delta restricted to b_down, R = D_out B_down^T, is kept as integer
        rows with the first rows on which it is invertible and the
        fraction-free inverse there (linalg.integer_inverse), for
        sigma_on_columns.  Dependent columns of R raise StructureViolation.
        """
        if not self._has_target:
            return Matrix.zeros(0, 0)
        d_rows, d_den = cleared(self.d_out)
        b_rows, b_den = cleared(self.b_down.basis_matrix())
        self._b_down_columns = integer_columns(b_rows, self.dim)
        restricted = integer_matmul(d_rows, self._b_down_columns)
        k = len(b_rows)
        # the first independent rows of R are the pivots of its transpose
        rows = IntegerEchelon(integer_columns(restricted, k)).reduced()[1]
        if len(rows) < k:
            raise StructureViolation(
                "sigma failed to invert delta at (q,p)=(%d,%d)" % (self.q, self.p)
            )
        inverse, inv_den = integer_inverse([restricted[i] for i in rows])
        # R = restricted / (d_den b_den), and R[rows]^-1 = inverse * d_den
        # b_den / inv_den
        self._restricted = (restricted, rows, inverse, inv_den)
        self._d_den = d_den
        m = self.d_out.nrows
        image = _span(m, integer_columns(d_rows, self.dim)).basis_matrix()
        image_rows, den = cleared(image)
        try:
            y, y_den = self._coordinates(integer_columns(image_rows, m), den)
        except Inconsistent as exc:
            raise StructureViolation(
                "sigma failed to invert delta at (q,p)=(%d,%d)"
                % (self.q, self.p)
            ) from exc
        scale = Fraction(d_den * b_den, y_den)
        return Matrix._of([[scale * v for v in row] for row in y], k)

    def _coordinates(self, targets, den):
        """(y, y_den): the Y with R Y = targets / den for R of _build_sigma,
        as integer rows with Y = y * d_den * b_den / y_den, for the
        denominators d_den of D_out and b_den of the basis of b_down;
        Inconsistent when a column of targets is outside the image of R."""
        restricted, rows, inverse, inv_den = self._restricted
        if not rows:
            if not _zero_rows(targets):
                raise Inconsistent("a right-hand side is not in the column space")
            return [], 1
        y = integer_matmul(inverse, [targets[i] for i in rows])
        # R Y = targets / den exactly when restricted y = inv_den targets
        for got, want in zip(integer_matmul(restricted, y), targets):
            if any(a != inv_den * b for a, b in zip(got, want)):
                raise Inconsistent("a right-hand side is not in the column space")
        return y, inv_den * den

    def dims(self):
        return (self.b_up.dim, self.harmonic.dim, self.b_down.dim)

    def sigma_on_columns(self, targets, den, ncols):
        """Preimages in B_{q,p} of the columns of targets / den, integer
        rows in C^{q-1,p+1} coordinates with ncols columns, as (rows, den):
        the preimages are the columns of rows / den, integer rows over the
        cell and a positive denominator.

        One product proves delta(x) = target for every column, and one
        more product with the integer basis of B_{q,p} writes the
        preimages in the cell.  NotInImage when a column is outside the
        image of delta; DimensionMismatch when targets has the wrong
        number of rows.
        """
        y = []
        if not self._has_target:
            if not _zero_rows(targets):
                raise NotInImage("the differential out of this cell is zero")
        elif len(targets) != self.d_out.nrows:
            raise DimensionMismatch("rhs height mismatch")
        else:
            try:
                y, y_den = self._coordinates(targets, den)
            except Inconsistent as exc:
                raise NotInImage(
                    "target is not in the image of delta on C^{%d,%d}"
                    % (self.q, self.p)
                ) from exc
        if not y:
            return [[0] * ncols for _ in range(self.dim)], 1
        # x = B_down^T Y = b_columns y d_den / y_den
        scale = Fraction(self._d_den, y_den)
        rows = integer_matmul(self._b_down_columns, y)
        if scale.numerator != 1:
            rows = [[scale.numerator * v for v in row] for row in rows]
        return rows, scale.denominator

    def sigma_on_cell_coords(self, target_cell_coords):
        """Preimage in B_{q,p} of a target given in C^{q-1,p+1} coordinates:
        sigma_on_columns on one column."""
        column, den = cleared(Matrix._of([[frac(x)] for x in target_cell_coords], 1))
        rows, den = self.sigma_on_columns(column, den, 1)
        return [Fraction(row[0], den) for row in rows]


def _jet_gram(t, h):
    """G_jet(h) = J diag(|m_I|^2) J^T over the rows J of t.jet_basis(h),
    the Gram matrix of the level-h jet coordinates, as (rows, den): its
    integer rows over one positive denominator, with J cleared to
    integers once.  The identity of b for h = -1.  Memoised on the
    tableau per level."""
    def build():
        if h < 0:
            return [[int(i == j) for j in range(t.b_dim)] for i in range(t.b_dim)], 1
        sym = sym_basis(t.a_dim, h + 1)
        # |m_I|^2 = (h+1)! / I! is a multinomial coefficient, an integer
        norms = [sym.norm_sq(m).numerator for m in sym.indices] * t.b_dim
        jet, den = cleared(Matrix._of(t.jet_basis(h), len(norms)))
        scaled = [[x * g for x, g in zip(v, norms)] for v in jet]
        return integer_matmul(scaled, integer_columns(jet, len(norms))), den * den

    return t.memo(("jet_gram", h), build)


def _cell_gram(jet_gram, w):
    """The integer rows of G_jet (x) I_w for the integer rows of G_jet,
    a cell with w = C(n, p) wedge slots, in the cell order alpha * w + k;
    the cell's Gram matrix is p! / den times it."""
    size = len(jet_gram) * w
    rows = []
    for g_row in jet_gram:
        nonzero = [(beta * w, x) for beta, x in enumerate(g_row) if x]
        for k in range(w):
            row = [0] * size
            for col, x in nonzero:
                row[col + k] = x
            rows.append(row)
    return rows


def harmonic_split(t, q, p):
    """Harmonic decomposition of C^{q,p}(A); see HarmonicSplit.

    Built once per (q, p) and kept in the tableau's memo, so every caller
    (a TowerData, a sigma) shares it; a failed build stores nothing.
    """
    return t.memo(("harmonic_split", q, p), lambda: HarmonicSplit(t, q, p))


def sigma(t, q, p):
    """The inverse sigma_{q,p}: B^{q-1,p+1} -> B_{q,p} of the differential.

    Returns a callable taking GradedCoords in bidegree (q-1, p+1) (full
    tensor-space coordinates), checking membership in B^{q-1,p+1}, and
    returning GradedCoords in bidegree (q, p).  NotInImage is raised when
    the target fails the membership check.
    """
    if q < 1:
        raise InputError("sigma needs q >= 1, got %d" % q)
    if p >= t.a_dim:
        raise InputError("sigma needs p < a_dim, got p = %d" % p)
    split = harmonic_split(t, q, p)
    cell = SpencerCell(t, q, p)
    target_cell = SpencerCell(t, q - 1, p + 1)

    def apply(target):
        if not isinstance(target, GradedCoords):
            raise InputError("sigma expects GradedCoords")
        if (target.q, target.p) != (q - 1, p + 1):
            raise DimensionMismatch(
                "sigma target must have bidegree (%d,%d), got (%d,%d)"
                % (q - 1, p + 1, target.q, target.p)
            )
        cy = target_cell.coordinates_of(list(target.coords))
        cx = split.sigma_on_cell_coords(cy)
        return GradedCoords(q, p, cell.embed_coords(cx))

    return apply

