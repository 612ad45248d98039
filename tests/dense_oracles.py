"""Slow textbook routines, the oracles for linalg and poly.

Matrix.rref eliminates over sparse integer rows; the dense_* routines
work on dense Fraction rows and share no code with it, so the tests can
compare the two bit for bit.  compose_oracle substitutes term by term
with a power cache and a full expansion, where Polynomial.compose runs on
one capped, shared monomial table.  fraction_mul, fraction_substitute
and fraction_linear_combination are the poly kernels with a Fraction
operation at every inner step, the references for the integer kernels
behind Polynomial.mul, Polynomial.compose, PolyMap.compose and
linear_combination.  The dense_ad_* routines give the
adjoint matrices of a Lie algebra as dense Fraction rows (commutator
coordinates by Matrix.solve), the oracle for the sparse structure
constants of LieAlgebra.  dense_det and dense_definiteness are the
Fraction Gaussian elimination and the minor-by-minor Sylvester test that
liealg.det and liealg.definiteness replaced with one Bareiss elimination;
bracket_into_per_pair is the pair-by-pair Subspace.contains check that
one rank test replaced.  view_route_involutive_index is the involutive
index search that builds the view tableau of every order and prolongs
it, the oracle for the search on the prolongation tower.
AdjointHarmonicSplit and adjoint_sigma build a harmonic split from three
Spencer cells and the Gram adjoints of both differentials, and check it
by comparing subspaces, the oracle for the split read off the Gram
matrix of its own cell and certified by products and dimensions;
dense_cohomology_dim counts H^{q,p} with the dense Koszul differential
on the cell embeddings.  solve_affine reads one solution and a kernel
basis off one rref of [m | rhs], the oracle for the integer-echelon
solve of the curl slices in cauchy.  section_polar_counts counts polar
spaces on the flag lifted through the section S_(k+1) at a jet point,
with bases.contract_vector, the oracle for the ranks of stacked flag
contractions behind cauchy.polar_dims and restricted_polar_check.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from involutive.bases import (
    GradedCoords,
    contract_vector,
    koszul_delta_full,
    sym_basis,
)
from involutive.errors import (
    CapExceeded,
    DimensionMismatch,
    InputError,
    StructureViolation,
    UnstableGenericity,
)
from involutive.linalg import (
    Matrix,
    Subspace,
    _kernel_of_rref,
    _solution_of_rref,
    kernel,
)
from involutive.poly import Polynomial
from involutive.spencer import HarmonicSplit, SpencerCell, delta
from involutive.tableau import DEFAULT_MAX_DIM, cartan_test, flatten_generator


def dense_rref(rows, ncols):
    """(reduced rows, pivot columns) by Gauss-Jordan on dense Fractions;
    the zero rows are kept, last."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_kernel(rows, ncols):
    """The canonical null-space basis read off dense_rref."""
    red, pivots = dense_rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def dense_span(vectors, ncols):
    """The canonical basis of the span: the nonzero rows of dense_rref."""
    red, pivots = dense_rref(vectors, ncols)
    return red[: len(pivots)]


def compose_oracle(p, subs):
    """p with subs[i] put for variable i, expanded in full term by term:
    each power of each substitution is cached, every term is built by
    products and added to the running sum."""
    if len(subs) != p.num_vars:
        raise DimensionMismatch("compose needs one substitution per variable")
    m = subs[0].num_vars if subs else 0
    if any(s.num_vars != m for s in subs):
        raise DimensionMismatch("substitutions have mixed arities")
    out = Polynomial.zero(m)
    powers = [{0: Polynomial.constant(m, 1)} for _ in subs]
    for e, c in p.terms.items():
        term = Polynomial.constant(m, c)
        for i, k in enumerate(e):
            if k == 0:
                continue
            cache = powers[i]
            for j in range(len(cache), k + 1):
                cache[j] = cache[j - 1].mul(subs[i])
            term = term.mul(cache[k])
        out = out.add(term)
    return out


def _polynomial(num_vars, terms):
    """A Polynomial over terms, dropping the zero coefficients."""
    p = Polynomial(num_vars)
    p.terms = {e: c for e, c in terms.items() if c}
    return p


def fraction_mul(p, q, max_degree=None):
    """p * q by Fraction products, forming no term above max_degree."""
    if p.num_vars != q.num_vars:
        raise DimensionMismatch("polynomial arity mismatch")
    cap = math.inf if max_degree is None else max_degree
    right = sorted((sum(e), e, c) for e, c in q.terms.items())
    out = {}
    for e1, c1 in p.terms.items():
        room = cap - sum(e1)
        for d2, e2, c2 in right:
            if d2 > room:
                break
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _polynomial(p.num_vars, out)


def fraction_substitute(polys, num_vars, subs, max_degree=None):
    """Each of polys with subs[i] put for variable i, truncated at
    max_degree, through one recursive table of monomial values built
    with fraction_mul."""
    if len(subs) != num_vars:
        raise DimensionMismatch("compose needs one substitution per variable")
    m = subs[0].num_vars if subs else 0
    if any(s.num_vars != m for s in subs):
        raise DimensionMismatch("substitutions have mixed arities")
    one = Polynomial.constant(m, 1)
    table = {(0,) * num_vars: one if max_degree is None else one.truncate(max_degree)}

    def value(e):
        v = table.get(e)
        if v is None:
            i = max(k for k, x in enumerate(e) if x)
            v = fraction_mul(value(e[:i] + (e[i] - 1,) + e[i + 1:]), subs[i], max_degree)
            table[e] = v
        return v

    out = []
    for p in polys:
        acc = {}
        for e, c in p.terms.items():
            for f, v in value(e).terms.items():
                acc[f] = acc.get(f, 0) + c * v
        out.append(_polynomial(m, acc))
    return out


def fraction_linear_combination(coeffs, polys, num_vars):
    """The sum of c * p by Fraction products and sums in one dict."""
    acc = {}
    for c, p in zip(coeffs, polys):
        if p.num_vars != num_vars:
            raise DimensionMismatch("polynomial arity mismatch")
        if not c:
            continue
        for e, v in p.terms.items():
            acc[e] = acc.get(e, 0) + c * v
    return _polynomial(num_vars, acc)


def solve_affine(m, rhs):
    """One solution of m*x = rhs together with a kernel basis.

    The full solution set is x + span(kernel).  Both are read off one
    rref of [m | rhs]: when the system is consistent every pivot lies in
    the left block, which is then rref(m).  Raises Inconsistent when
    there is no solution.
    """
    rows, pivots = m._augmented_rref(rhs)
    return (_solution_of_rref(rows, pivots, m.ncols),
            _kernel_of_rref(rows, pivots, m.ncols))


def dense_ad_from_brackets(dim, brackets):
    """Dense adjoint matrices, ad_i[k][j] = c_ij^k, from (i, j, k, c)
    entries with c_ji^k = -c_ij^k filled in."""
    ads = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in brackets:
        ads[i][k][j] = Fraction(c)
        ads[j][k][i] = -Fraction(c)
    return ads


def dense_ad_from_matrices(mats):
    """Dense adjoint matrices of the matrix Lie algebra on the basis mats:
    every commutator M_i M_j - M_j M_i, formed entry by entry, solved for
    its coordinates over the flattened basis with Matrix.solve."""
    mats = [[[Fraction(x) for x in row] for row in getattr(m, "rows", m)] for m in mats]
    dim, sz = len(mats), len(mats[0])
    flat = Matrix.from_columns([[x for row in m for x in row] for m in mats], nrows=sz * sz)
    ads = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            comm = [
                sum(a[r][t] * b[t][c] - b[r][t] * a[t][c] for t in range(sz))
                for r in range(sz)
                for c in range(sz)
            ]
            for k, x in enumerate(flat.solve(comm)):
                ads[i][k][j] = x
    return ads


def dense_killing(ads):
    """K_ij = trace(ad_i ad_j) by full dense products."""
    d = len(ads)
    return [
        [
            sum(ads[i][k][l] * ads[j][l][k] for k in range(d) for l in range(d))
            for j in range(d)
        ]
        for i in range(d)
    ]


def dense_jacobi_holds(ads):
    """[e_i, [e_j, e_k]] + cyclic = 0 for every basis triple, by dense
    matrix-vector products."""
    d = len(ads)

    def br(i, v):
        return [sum(ads[i][k][j] * v[j] for j in range(d)) for k in range(d)]

    def col(i, j):
        return [ads[i][k][j] for k in range(d)]

    for i in range(d):
        for j in range(d):
            for k in range(d):
                terms = (br(i, col(j, k)), br(j, col(k, i)), br(k, col(i, j)))
                if any(sum(t) for t in zip(*terms)):
                    return False
    return True


def dense_det(m):
    """Determinant by Gaussian elimination on dense Fractions, with row
    exchanges."""
    n = m.nrows
    rows = [list(r) for r in m.rows]
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        p = rows[c][c]
        result *= p
        for i in range(c + 1, n):
            f = rows[i][c] / p
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return sign * result


def dense_definiteness(gram):
    """Sylvester's criterion with one dense_det per leading principal
    minor."""
    n = gram.nrows
    if n == 0:
        return "zero"
    minors = [
        dense_det(Matrix([row[:k] for row in gram.rows[:k]], ncols=k))
        for k in range(1, n + 1)
    ]
    if all(d > 0 for d in minors):
        return "positive"
    if all((d > 0 if k % 2 == 0 else d < 0) for k, d in enumerate(minors, 1)):
        return "negative"
    return "indefinite_or_degenerate"


def bracket_into_per_pair(alg, basis1, basis2, target):
    """[x, y] in target for every pair, one Subspace.contains each."""
    return all(target.contains(alg.bracket(x, y)) for x in basis1 for y in basis2)


def view_route_involutive_index(tab, h_max, samples=5, seed=0,
                                max_dim=DEFAULT_MAX_DIM):
    """The involutive index with A^(h) built as view_at_level(h) and that
    tableau tested (and prolonged) on its own, order by order; the same
    seeds, trajectory and errors as tableau.involutive_index."""
    rng = random.Random(seed)
    trajectory = []
    k = None
    k_chars = None
    for h in range(h_max + 1):
        view = tab.view_at_level(h, max_dim)
        res = cartan_test(
            view, samples=samples, seed=rng.randrange(2**32), max_dim=max_dim
        )
        trajectory.append({
            "h": h,
            "dim": tab.dim_at(h, max_dim),
            "characters": res["characters"].s,
            "involutive": res["involutive"],
        })
        if res["involutive"]:
            if k is None:
                k = h
                k_chars = res["characters"]
        elif k is not None:
            raise UnstableGenericity("order %d failed after order %d passed" % (h, k))
    if k is None:
        raise CapExceeded("no involutive prolongation up to order %d" % h_max)
    return {"k": k, "involutive_characters": k_chars, "trajectory": trajectory}


def _adjoint(d, gram_src, gram_dst):
    """Adjoint G_src^{-1} d^T G_dst of d: src -> dst."""
    return gram_src.inverse().matmul(d.transpose().matmul(gram_dst))


def _image(m):
    return Subspace(m.nrows, m.transpose().rows)


class AdjointHarmonicSplit(HarmonicSplit):
    """The harmonic split of C^{q,p} built from three cells: Ker delta*_in
    is the kernel of the adjoint of the incoming differential, B_{q,p} the
    image of the adjoint of the outgoing one, each adjoint formed with
    the inverse of a Gram matrix, and H their intersection.  Its own
    _verify compares subspaces: the parts are pairwise G-orthogonal, they
    sum to the cell, and Ker delta = B (+) H and Ker delta* = H (+) B_ by
    equality of canonical bases.  sigma and dims are those of
    HarmonicSplit; _target_cell is the cell C^{q-1,p+1} when delta out
    is nonzero."""

    def __init__(self, tableau, q, p, max_dim=DEFAULT_MAX_DIM):
        self.tableau = tableau
        self.q = q
        self.p = p
        cell = SpencerCell(tableau, q, p, max_dim)
        self.cell = cell
        n = tableau.a_dim
        d_out = delta(cell, max_dim)
        if p >= 1:
            src = SpencerCell(tableau, q + 1, p - 1, max_dim)
            d_in = delta(src, max_dim)
            if src.dim and cell.dim:
                adj_in = _adjoint(d_in, src.gram, cell.gram)
            else:
                adj_in = Matrix.zeros(0, cell.dim)
        else:
            d_in = Matrix.zeros(cell.dim, 0)
            adj_in = Matrix.zeros(0, cell.dim)
        if q >= 1 and p < n and cell.dim:
            dst = SpencerCell(tableau, q - 1, p + 1, max_dim)
            self._target_cell = dst
            if dst.dim:
                adj_out = _adjoint(d_out, cell.gram, dst.gram)
            else:
                adj_out = Matrix.zeros(cell.dim, 0)
        else:
            self._target_cell = None
            adj_out = Matrix.zeros(cell.dim, 0)
        self._has_target = self._target_cell is not None
        self.d_out = d_out
        self.b_up = _image(d_in) if cell.dim else Subspace(0, [])
        self.b_down = _image(adj_out)
        full = Subspace.full(cell.dim)
        ker_out = kernel(d_out) if d_out.nrows else full
        ker_adj_in = kernel(adj_in) if adj_in.nrows else full
        self.harmonic = ker_out.intersect(ker_adj_in)
        self._verify(ker_out, ker_adj_in)
        self.sigma_matrix = self._build_sigma()

    def _verify(self, ker_out, ker_adj_in):
        cell = self.cell
        if cell.dim == 0:
            return
        g = cell.gram
        pairs = [
            (self.b_up, self.harmonic),
            (self.b_up, self.b_down),
            (self.harmonic, self.b_down),
        ]
        for u, v in pairs:
            product = u.basis_matrix().matmul(g).matmul(v.basis_matrix().transpose())
            if any(any(row) for row in product.rows):
                raise StructureViolation("harmonic components are not orthogonal")
        total = self.b_up.sum(self.harmonic).sum(self.b_down)
        if total.dim != cell.dim or (
            self.b_up.dim + self.harmonic.dim + self.b_down.dim != cell.dim
        ):
            raise StructureViolation("harmonic components do not sum to the cell")
        if self.b_up.sum(self.harmonic) != ker_out:
            raise StructureViolation("Ker delta != B (+) H")
        if self.harmonic.sum(self.b_down) != ker_adj_in:
            raise StructureViolation("Ker delta* != H (+) B_")


def adjoint_sigma(t, q, p, max_dim=DEFAULT_MAX_DIM):
    """spencer.sigma over an AdjointHarmonicSplit and its target cell."""
    if q < 1:
        raise InputError("sigma needs q >= 1, got %d" % q)
    if p >= t.a_dim:
        raise InputError("sigma needs p < a_dim, got p = %d" % p)
    split = AdjointHarmonicSplit(t, q, p, max_dim)
    target_cell = split._target_cell or SpencerCell(t, q - 1, p + 1, max_dim)

    def apply(target):
        if not isinstance(target, GradedCoords):
            raise InputError("sigma expects GradedCoords")
        if (target.q, target.p) != (q - 1, p + 1):
            raise DimensionMismatch("sigma target has the wrong bidegree")
        cy = target_cell.coordinates_of(list(target.coords))
        cx = split.sigma_on_cell_coords(cy)
        return GradedCoords(q, p, split.cell.embed_coords(cx))

    return apply


def dense_cohomology_dim(t, q, p, max_dim=DEFAULT_MAX_DIM):
    """dim H^{q,p} = dim Ker delta - rank of the incoming delta, each delta
    the dense Koszul differential of the full tensor space applied to the
    cell embedding, ranked by dense_rref."""
    n, r = t.a_dim, t.b_dim

    def rank_on(q_, p_):
        embed = SpencerCell(t, q_, p_, max_dim).embed
        image = koszul_delta_full(n, r, q_, p_).matmul(embed)
        return len(dense_rref(image.rows, image.ncols)[1])

    ker = SpencerCell(t, q, p, max_dim).dim - rank_on(q, p)
    return ker - (rank_on(q + 1, p - 1) if p >= 1 else 0)


def section_polar_counts(sys, tower, nf, k, point=None, max_dim=DEFAULT_MAX_DIM):
    """(dim H(E_h) for h = 0..n, the restricted counts for h = 0..n-1)
    along the flag of nf.basis_a lifted through the section xi -> (xi,
    S_(k+1)(xi)) at a jet point, the raw counts without any assertion.

    Each flag element (xi_l, X_l) cuts iota(xi_l)(X - S(xi)) -
    iota(xi)(X_l - S(xi_l)) = 0 on (xi, X), the matrix formed one unit
    vector at a time with iota = bases.contract_vector into the full
    b (x) S^k coordinates, and ranked by dense_rref.  The restricted
    count intersects with the lifts of a_1..a_{h+1}, projected to the
    blocks beyond h through the inverse of the normal-generator matrix,
    and the normal generators of blocks 1..h.  The oracle for the rank
    route of cauchy.polar_dims and cauchy.restricted_polar_check.
    """
    t = sys.tableau
    n, r = t.a_dim, t.b_dim
    jet = tower.jet
    dim_k = jet.dims[k]
    val_rows = r * sym_basis(n, k).size
    flag_cols = [[nf.basis_a.rows[i][l] for i in range(n)] for l in range(n)]
    point = [Fraction(x) for x in point or []]
    point += [Fraction(0)] * (jet.num_vars - len(point))
    s_map = tower.s_chain[k]
    s_vals = [
        [s_map.components[beta * n + i].eval(point) for beta in range(dim_k)]
        for i in range(n)
    ]
    jet_basis = t.jet_basis(k, max_dim)

    def s_of(xi):
        return [sum((xi[i] * s_vals[i][beta] for i in range(n)), Fraction(0))
                for beta in range(dim_k)]

    size = r * sym_basis(n, k + 1).size

    def iota(xi, y):
        full = [sum((c * v[j] for c, v in zip(y, jet_basis)), Fraction(0))
                for j in range(size)]
        return contract_vector(n, r, k + 1, full, list(xi))

    def unit(size, i):
        return [Fraction(int(j == i)) for j in range(size)]

    def polar_rows(xi_l, x_l):
        resid_l = [a - b for a, b in zip(x_l, s_of(xi_l))]
        cols = [[-a - b for a, b in zip(iota(xi_l, s_of(unit(n, i))),
                                         iota(unit(n, i), resid_l))]
                for i in range(n)]
        cols += [iota(xi_l, unit(dim_k, beta)) for beta in range(dim_k)]
        return [[col[o] for col in cols] for o in range(val_rows)]

    def rank(rows, ncols):
        return len(dense_rref(rows, ncols)[1]) if rows else 0

    flag = [(xi, s_of(xi)) for xi in flag_cols]
    dims = []
    rows = []
    for h in range(n + 1):
        if h:
            rows += polar_rows(*flag[h - 1])
        dims.append(n + dim_k - rank(rows, n + dim_k))

    block_of = [j for j, block in enumerate(nf.blocks, start=1) for _ in block]
    view = t.view_at_level(k, max_dim)
    big_n = Matrix.from_columns(
        [view.jet_coordinates(0, flatten_generator(q)) for q in nf.normal_basis()],
        nrows=dim_k,
    )
    n_inv = big_n.inverse() if block_of else None

    def project_high(y, h):
        if not block_of:
            return list(y)
        g = [c if block_of[m] > h else 0 for m, c in enumerate(n_inv.matvec(y))]
        return big_n.matvec(g)

    restricted = []
    for h in range(n):
        params = [(xi, project_high(s_of(xi), h)) for xi in flag_cols[:h + 1]]
        params += [([Fraction(0)] * n, [row[m] for row in big_n.rows])
                   for m, j in enumerate(block_of) if j <= h]
        cond = [row for elem in flag[:h] for row in polar_rows(*elem)]
        cols = [Matrix(cond, ncols=n + dim_k).matvec(list(xi) + list(x))
                for xi, x in params]
        image = [[col[o] for col in cols] for o in range(len(cond))]
        restricted.append(len(params) - rank(image, len(params)))
    return dims, restricted
