"""Slow textbook routines, the oracles for linalg and poly.

Matrix.rref eliminates over sparse integer rows; the dense_* routines
work on dense Fraction rows and share no code with it, so the tests can
compare the two bit for bit.  compose_oracle substitutes term by term
with a power cache and a full expansion, where Polynomial.compose runs on
one capped, shared monomial table.  fraction_mul, fraction_substitute
and fraction_linear_combination are the poly kernels with a Fraction
operation at every inner step, the references for the integer kernels
behind Polynomial.mul, Polynomial.compose, PolyMap.compose and
linear_combination; polymap_linear writes a matrix as a PolyMap.  The
dense_ad_* routines give the adjoint matrices of a Lie algebra as dense
Fraction rows (commutator coordinates by Matrix.solve), the oracle for
the sparse structure constants of LieAlgebra.  dense_det and
dense_definiteness are the Fraction Gaussian elimination and the
minor-by-minor Sylvester test that liealg.definiteness replaced with
one Bareiss elimination; bracket_into_per_pair is the pair-by-pair
Subspace.contains check that one rank test replaced.  ad, killing_form
and is_subspace_of are the adjoint matrix and the Fraction Killing form
of a LieAlgebra and subspace inclusion, which only the tests read.
FractionLieAlgebra, fraction_cartan, fraction_is_regular and fraction_gg0_system are the
Fraction route of liealg and of build_gg0_system: Fraction structure
constants, commutator coordinates by Subspace.coordinates, centralizers
and Killing complements by Matrix.kernel (fraction_annihilated) and
Gram matrices in Fractions (fraction_gram), the oracle for the integer
numerators and integer rows of the Lie-algebra layer.  view_route_involutive_index is the involutive
index search that builds the view tableau of every order and prolongs
it, the oracle for the search on the prolongation tower, which tests
the orders up to the index and derives those above it.
vote_characters is the five-flag vote alone, with no zero-level, witness
or rank-bound shortcut, the oracle for the certificates of
tableau.characters.
AdjointHarmonicSplit and adjoint_sigma build a harmonic split from three
Spencer cells and the Gram adjoints of both differentials, and check it
by comparing subspaces, the oracle for the split read off the Gram
matrix of its own cell and certified by products and dimensions;
_adjoint, formed with the inverse of a dense cell Gram matrix, is also
the oracle for spencer.codifferential on the integer jet Gram matrices;
dense_cohomology_dim counts H^{q,p} with the dense Koszul differential
on the cell embeddings.  solve_affine reads one solution and a kernel
basis off one rref of [m | rhs], the oracle for the integer-echelon
solve of the curl slices in cauchy.  section_polar_counts counts polar
spaces on the flag lifted through the section S_(k+1) at a jet point,
with bases.contract_vector, the oracle for the ranks of stacked flag
contractions behind cauchy.polar_dims and restricted_polar_check.
fraction_construct, fraction_normal_form and fraction_verify_normal_form
build and check the Guillemin normal form in Fraction matrices over the
canonical basis of the view tableau of the level, the oracle for the
integer route of guillemin.  tableau_from_vectors builds a tableau from
b-major coordinate vectors.
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
    BadDecomposition,
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InputError,
    NotInvolutive,
    StructureViolation,
    UnstableGenericity,
)
from involutive.guillemin import _NF_ATTEMPTS, NormalForm
from involutive.linalg import (
    IntegerEchelon,
    Matrix,
    Subspace,
    _solution_of_rref,
    clear_denominators,
    cleared,
    kernel,
)
from involutive.poly import Polynomial, PolyMap
from involutive.spencer import HarmonicSplit, SpencerCell, _check_bidegree, delta
from involutive.systems import System
from involutive.tableau import (
    _FLAG_ATTEMPTS,
    _FLAG_BASE_BOUND,
    _FLAG_SAMPLES,
    CharacterVector,
    Tableau,
    _sample_flag,
    cartan_test,
    character_partial_sums,
    characters,
    flatten_generator,
)


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


def polymap_linear(matrix_rows, num_vars):
    """The linear map with the given matrix, as a PolyMap."""
    comps = []
    for row in matrix_rows:
        if len(row) != num_vars:
            raise DimensionMismatch("matrix width != num_vars")
        comps.append(
            Polynomial(num_vars, {tuple(int(i == j) for j in range(num_vars)): Fraction(c)
                                  for i, c in enumerate(row)})
        )
    return PolyMap(num_vars, comps)


def _polynomial(num_vars, terms):
    """A Polynomial over terms, dropping the zero coefficients."""
    return Polynomial(num_vars, {e: c for e, c in terms.items() if c})


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


def _kernel_of_rref(rows, pivots, ncols):
    """The canonical null-space basis of the first ncols columns of a
    reduced row-echelon form whose pivots all lie among them."""
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -rows[i][f]
        basis.append(v)
    return basis


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


def ad(alg, x):
    """The adjoint matrix of the coordinate vector x under a LieAlgebra:
    column j is [x, e_j]."""
    x = [Fraction(c) for c in x]
    if len(x) != alg.dim:
        raise DimensionMismatch("vector does not match the algebra dimension")
    return Matrix.from_columns([alg.bracket(x, e) for e in Matrix.identity(alg.dim).rows])


def killing_form(alg):
    """The Gram matrix K_{ij} = trace(ad_i ad_j) of a LieAlgebra, read off
    the integer numerators den^2 K that CartanDecomposition works on."""
    return Matrix(alg._killing_numerators(), ncols=alg.dim) * Fraction(1, alg.den ** 2)


def is_subspace_of(u, v):
    """u inside v, for Subspaces of one ambient space: every basis
    vector of u passes v.contains."""
    return all(v.contains(x) for x in u.basis)


class FractionLieAlgebra:
    """The Fraction route of LieAlgebra: the structure constants as one
    sparse table {(i, j): {k: c}} of nonzero Fractions, read off matrices
    through Subspace.coordinates and Matrix.inverse, the oracle for the
    integer numerators of liealg.  Neither constructor checks Jacobi."""

    def __init__(self, dim, brackets):
        self.dim = dim
        self.table = {}
        for i, j, k, c in brackets:
            c = Fraction(c)
            if c:
                self.table.setdefault((i, j), {})[k] = c
                self.table.setdefault((j, i), {})[k] = -c

    @classmethod
    def from_matrices(cls, mats):
        """The commutator coordinates over the canonical basis of the
        flattened span, proved by Subspace.coordinates and written over the
        given basis through the inverse of its block on the pivots; the
        same InputError texts as LieAlgebra.from_matrices."""
        mats = [m if isinstance(m, Matrix) else Matrix(m) for m in mats]
        flat = [[x for row in m.rows for x in row] for m in mats]
        span = Subspace(len(flat[0]), flat)
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
                brackets += [(i, j, k, c) for k, c in enumerate(inverse.matvec(coords))]
        return cls(len(mats), brackets)

    def bracket(self, x, y):
        out = [Fraction(0)] * self.dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k, v in self.table.get((i, j), {}).items():
                    out[k] += Fraction(xi) * Fraction(yj) * v
        return out

    def killing_form(self):
        d = self.dim
        by_entry = {}
        for (j, k), col in self.table.items():
            for l, c in col.items():
                by_entry.setdefault((k, l), []).append((j, c))
        rows = [[Fraction(0)] * d for _ in range(d)]
        for (i, l), col in self.table.items():
            for k, c in col.items():
                for j, c2 in by_entry.get((k, l), ()):
                    rows[i][j] += c * c2
        return Matrix(rows, ncols=d)

    def to_json_dict(self):
        entries = sorted((i, j, k, c) for (i, j), col in self.table.items()
                         if i < j for k, c in col.items())
        return {"dim": self.dim, "brackets": [[i, j, k, str(c)] for i, j, k, c in entries]}


def fraction_annihilated(basis, of_basis, pairing, d):
    """{X in span(basis) : pairing(X, v) = 0 for all v in of_basis} by
    Matrix.kernel of the condition columns, recombined in Fractions."""
    if not basis:
        return Subspace(d, [])
    cols = [[c for v in of_basis for c in pairing(x, v)] for x in basis]
    gens = []
    for cv in Matrix.from_columns(cols).kernel():
        w = [Fraction(0)] * d
        for c, x in zip(cv, basis):
            w = [wi + c * xi for wi, xi in zip(w, x)]
        gens.append(w)
    return Subspace(d, gens)


def fraction_gram(killing, basis):
    """The Gram matrix of the Fraction basis under the Killing Matrix."""
    rows = [[sum(a * b for a, b in zip(killing.matvec(x), y)) for y in basis]
            for x in basis]
    return Matrix(rows, ncols=len(basis))


def fraction_cartan(alg, g0_basis, a_basis):
    """The subspaces of a CartanDecomposition of the FractionLieAlgebra by
    the Fraction route, unchecked: g0, m, a, b, g_a, p, the centralizer of
    a in m, and the dense_definiteness of the Killing form on g0 and m."""
    d = alg.dim
    killing = alg.killing_form()

    def killing_pairing(x, v):
        return [sum(a * b for a, b in zip(x, killing.matvec(v)))]

    g0, a = Subspace(d, g0_basis), Subspace(d, a_basis)
    out = {"g0": g0, "a": a}
    out["m"] = m = fraction_annihilated(Matrix.identity(d).rows, g0.basis, killing_pairing, d)
    out["b"] = fraction_annihilated(m.basis, a.basis, killing_pairing, d)
    out["g_a"] = fraction_annihilated(g0.basis, a.basis, alg.bracket, d)
    out["p"] = fraction_annihilated(g0.basis, out["g_a"].basis, killing_pairing, d)
    out["centralizer"] = fraction_annihilated(m.basis, a.basis, alg.bracket, d)
    out["definiteness"] = [dense_definiteness(fraction_gram(killing, s.basis))
                           for s in (g0, m)]
    return out


def fraction_is_regular(alg, spaces, a_elem):
    """ad_A : b -> p injective, by Fraction p-coordinates and Matrix.rank."""
    cols = [spaces["p"].coordinates(alg.bracket(a_elem, x)) for x in spaces["b"].basis]
    return Matrix.from_columns(cols, nrows=spaces["p"].dim).rank() == len(cols)


def fraction_gg0_system(alg, spaces, a_basis):
    """build_gg0_system by the Fraction route: Fraction brackets and
    p-coordinates from Subspace.coordinates."""
    n, b_basis, p = len(a_basis), spaces["b"].basis, spaces["p"]
    gens = [Matrix.from_columns([p.coordinates(alg.bracket(bv, av)) for av in a_basis],
                                nrows=p.dim) for bv in b_basis]
    t = Tableau(n, p.dim, gens)
    nv = n + t.dim
    phi = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeff = {}
            for beta, bb in enumerate(b_basis):
                for gamma, bg in enumerate(b_basis):
                    v = alg.bracket(alg.bracket(a_basis[i], bb), alg.bracket(a_basis[j], bg))
                    e = [0] * nv
                    e[n + beta] += 1
                    e[n + gamma] += 1
                    cur = coeff.get(tuple(e), [Fraction(0)] * p.dim)
                    coeff[tuple(e)] = [x - y for x, y in zip(cur, p.coordinates(v))]
            for a in range(p.dim):
                terms = {exp: c[a] for exp, c in coeff.items() if c[a]}
                if terms:
                    phi[(a, i, j)] = Polynomial(nv, terms)
    return System(t, phi)


def vote_characters(tab, seed=0, h=0):
    """The characters of A^(h) by the vote of _FLAG_SAMPLES flags drawn
    from Random(seed), retried with an eightfold coefficient bound on a
    disagreement: the same draws as tableau.characters, every flag's
    partial sums taken, nothing memoised.  UnstableGenericity when the
    flags keep disagreeing or their total is not dim A^(h)."""
    n = tab.a_dim
    b_dim = tab.b_dim * sym_basis(n, h).size
    rng = random.Random(seed)
    bound = _FLAG_BASE_BOUND
    for _ in range(_FLAG_ATTEMPTS):
        seqs = [character_partial_sums(tab, _sample_flag(rng, n, bound), h)
                for _ in range(_FLAG_SAMPLES)]
        if all(s == seqs[0] for s in seqs):
            sums = seqs[0]
            if sums[-1] != tab.dim_at(h):
                raise UnstableGenericity("character sum is not dim A^(%d)" % h)
            return CharacterVector(
                [sums[0]] + [sums[j] - sums[j - 1] for j in range(1, n)], b_dim)
        bound *= 8
    raise UnstableGenericity("flag samples disagree")


def view_route_involutive_index(tab, h_max, seed=0):
    """The involutive index with A^(h) built as view_at_level(h) and that
    tableau tested (and prolonged) on its own, order by order, above the
    index too; the same trajectory as tableau.involutive_index, and its
    seeds at every order h >= 1 (the search tests order 0 with seed)."""
    rng = random.Random(seed)
    trajectory = []
    k = None
    k_chars = None
    for h in range(h_max + 1):
        view = tab.view_at_level(h)
        res = cartan_test(view, seed=rng.randrange(2**32))
        trajectory.append({
            "h": h,
            "dim": tab.dim_at(h),
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
    equality of canonical bases.  sigma_on_columns and dims are those of
    HarmonicSplit; _target_cell is the cell C^{q-1,p+1} when delta out
    is nonzero."""

    def __init__(self, tableau, q, p):
        self.tableau = tableau
        self.q = q
        self.p = p
        cell = SpencerCell(tableau, q, p)
        self.cell = cell
        self.dim = cell.dim
        n = tableau.a_dim
        d_out = delta(cell)
        if p >= 1:
            src = SpencerCell(tableau, q + 1, p - 1)
            d_in = delta(src)
            if src.dim and cell.dim:
                adj_in = _adjoint(d_in, src.gram, cell.gram)
            else:
                adj_in = Matrix.zeros(0, cell.dim)
        else:
            d_in = Matrix.zeros(cell.dim, 0)
            adj_in = Matrix.zeros(0, cell.dim)
        if q >= 1 and p < n and cell.dim:
            dst = SpencerCell(tableau, q - 1, p + 1)
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
        self._d_out_rows, self._d_den = cleared(d_out)
        self.b_up = _image(d_in) if cell.dim else Subspace(0, [])
        self.b_down = _image(adj_out)
        full = Subspace.full(cell.dim)
        ker_out = kernel(d_out) if d_out.nrows else full
        ker_adj_in = kernel(adj_in) if adj_in.nrows else full
        self.harmonic = ker_out.intersect(ker_adj_in)
        self._verify(ker_out, ker_adj_in)
        self._build_sigma()

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


def adjoint_sigma(t, q, p):
    """spencer.sigma over an AdjointHarmonicSplit and its target cell."""
    _check_bidegree("sigma", q, p, q_least=1, p_below=t.a_dim)
    split = AdjointHarmonicSplit(t, q, p)
    target_cell = split._target_cell or SpencerCell(t, q - 1, p + 1)

    def apply(target):
        if not isinstance(target, GradedCoords):
            raise InputError("sigma expects GradedCoords")
        if (target.q, target.p) != (q - 1, p + 1):
            raise DimensionMismatch("sigma target has the wrong bidegree")
        cy = target_cell.coordinates_of(list(target.coords))
        column, den = cleared(Matrix([[x] for x in cy], 1))
        rows, den = split.sigma_on_columns(column, den, 1)
        cx = [Fraction(row[0], den) for row in rows]
        return GradedCoords(q, p, split.cell.embed_coords(cx))

    return apply


def dense_cohomology_dim(t, q, p):
    """dim H^{q,p} = dim Ker delta - rank of the incoming delta, each delta
    the dense Koszul differential of the full tensor space applied to the
    cell embedding, ranked by dense_rref."""
    n, r = t.a_dim, t.b_dim

    def rank_on(q_, p_):
        embed = SpencerCell(t, q_, p_).embed
        image = koszul_delta_full(n, r, q_, p_).matmul(embed)
        return len(dense_rref(image.rows, image.ncols)[1])

    ker = SpencerCell(t, q, p).dim - rank_on(q, p)
    return ker - (rank_on(q + 1, p - 1) if p >= 1 else 0)


def section_polar_counts(sys, tower, nf, k, point=None):
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
    jet_basis = t.jet_basis(k)

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
    view = t.view_at_level(k)
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


def tableau_from_vectors(a_dim, b_dim, vectors):
    """The tableau spanned by b-major coordinate vectors in b (x) a*."""
    return Tableau(a_dim, b_dim, [_vector_to_matrix(v, b_dim, a_dim) for v in vectors])


def _vector_to_matrix(v, r, n):
    return Matrix([list(v[b * n:(b + 1) * n]) for b in range(r)], ncols=n)


def _fraction_tableau_matrices(t):
    n, r = t.a_dim, t.b_dim
    return [_vector_to_matrix(v, r, n) for v in t.level(0).basis]


def _fraction_kernel_filtration(mats, flag_rows, n, r, depth):
    """Coordinate subspaces K_rho = {x : sum x^beta M_beta(A_l) = 0, l <= rho}."""
    d = len(mats)
    out = [Subspace(d, Matrix.identity(d).rows)]
    rows = []
    for rho in range(1, depth + 1):
        v = flag_rows[rho - 1]
        for b in range(r):
            rows.append([sum(m.rows[b][i] * v[i] for i in range(n)) for m in mats])
        out.append(kernel(Matrix(rows, ncols=d)) if d else Subspace(0, []))
    return out


def _fraction_echelon_extend(current, echelon, target_basis):
    for v in target_basis:
        if echelon.add(clear_denominators(v)):
            current.append(list(v))


def fraction_construct(t, cv, flag):
    """The normal form of the tableau t on the flag (an n x n Matrix), all
    in Fraction matrices over the canonical basis of t."""
    n, r = t.a_dim, t.b_dim
    s = cv.s
    nu = cv.nu
    mats = _fraction_tableau_matrices(t)
    d = len(mats)
    flag_rows = [list(row) for row in flag.rows]
    kernels = _fraction_kernel_filtration(mats, flag_rows, n, r, nu)
    u_spaces = []
    for rho in range(1, nu + 1):
        vecs = []
        for x in kernels[rho - 1].basis:
            w = [Fraction(0)] * r
            for beta, c in enumerate(x):
                if c:
                    col = mats[beta].matvec(flag_rows[rho - 1])
                    w = [wi + c * ci for wi, ci in zip(w, col)]
            vecs.append(w)
        u = Subspace(r, vecs)
        if u.dim != s[rho - 1]:
            raise BadDecomposition(
                "image step %d has dimension %d, expected the character %d"
                % (rho, u.dim, s[rho - 1])
            )
        u_spaces.append(u)
    for rho in range(1, nu):
        if not is_subspace_of(u_spaces[rho], u_spaces[rho - 1]):
            raise BadDecomposition(
                "image filtration is not nested at step %d" % (rho + 1)
            )
    if nu > 0:
        total = Subspace(r, [m.matvec(e) for m in mats for e in Matrix.identity(n).rows])
        if total != u_spaces[0]:
            raise BadDecomposition(
                "total image has dimension %d, expected %d from the first "
                "character" % (total.dim, u_spaces[0].dim)
            )
    cols = []
    echelon = IntegerEchelon()
    for rho in range(nu, 0, -1):
        _fraction_echelon_extend(cols, echelon, u_spaces[rho - 1].basis)
        if len(cols) != s[rho - 1]:
            raise BadDecomposition(
                "echelon extension through image step %d reached %d vectors, "
                "expected %d" % (rho, len(cols), s[rho - 1])
            )
    _fraction_echelon_extend(cols, echelon, Matrix.identity(r).rows)
    basis_b = Matrix.from_columns(cols, nrows=r)
    basis_a = Matrix.from_columns(flag_rows, nrows=n)
    b_inv = basis_b.inverse()
    new_mats = [b_inv.matmul(m).matmul(basis_a) for m in mats]
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    phi = Matrix(
        [[m.rows[a - 1][j - 1] for m in new_mats] for (j, a) in pairs], ncols=d
    )
    try:
        x = phi.inverse()
    except Inconsistent as exc:
        raise BadDecomposition("pivot functionals are not a basis of A*") from exc
    blocks = []
    coeffs = {}
    col = 0
    for j in range(1, nu + 1):
        block = []
        for a in range(1, s[j - 1] + 1):
            std_rows = [[Fraction(0)] * n for _ in range(r)]
            for beta in range(d):
                c = x.rows[beta][col]
                if c:
                    for bi in range(r):
                        mrow = mats[beta].rows[bi]
                        srow = std_rows[bi]
                        for ni in range(n):
                            srow[ni] += c * mrow[ni]
            std = Matrix(std_rows, ncols=n)
            block.append(std)
            q_new = b_inv.matmul(std).matmul(basis_a)
            for h in range(j + 1, n + 1):
                top = s[h - 1] if h <= nu else 0
                for b in range(top + 1, s[j - 1] + 1):
                    val = q_new.rows[b - 1][h - 1]
                    if val != 0:
                        coeffs[(j, a, h, b)] = val
            col += 1
        blocks.append(block)
    return NormalForm(basis_a, basis_b, s, blocks, coeffs)


def fraction_normal_form(t, seed=0, h=0):
    """guillemin.normal_form with fraction_construct on view_at_level(h)
    and fraction_verify_normal_form, drawing the same flags."""
    res = cartan_test(t, seed=seed, h=h)
    if not res["involutive"]:
        raise NotInvolutive("normal form requires an involutive tableau")
    cv = res["characters"]
    view = t.view_at_level(h)
    n, r = view.a_dim, view.b_dim
    if view.dim == 0:
        return NormalForm(Matrix.identity(n), Matrix.identity(r), cv.s, [], {})
    targets = [sum(cv.s[: j + 1]) for j in range(n)]
    rng = random.Random(seed)
    bound = _FLAG_BASE_BOUND
    failure = None
    for _ in range(_NF_ATTEMPTS):
        flag = _sample_flag(rng, n, bound)
        bound *= 4
        if flag != cv.flag and character_partial_sums(t, flag, h) != targets:
            continue
        try:
            nf = fraction_construct(view, cv, Matrix(flag, ncols=n))
        except BadDecomposition as exc:
            failure = str(exc)
            continue
        report = fraction_verify_normal_form(t, nf, seed=seed, h=h)
        if report["all_passed"]:
            return nf
        failure = report
    raise UnstableGenericity(
        "no sampled flag produced a verifying normal form after %d attempts; "
        "last failure: %r" % (_NF_ATTEMPTS, failure)
    )


def _first_failure(checks):
    return next((c for c in checks if not c["passed"]), None)


def fraction_verify_normal_form(t, nf, seed=0, h=0):
    """guillemin.verify_normal_form in Fraction matrices on the view
    tableau of level h: every product is Matrix.matmul over the
    canonical basis of the view, and pairings compare Fractions."""
    view = t.view_at_level(h)
    n, r = view.a_dim, view.b_dim
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    inv_a = nf.basis_a.nrows == n and nf.basis_a.ncols == n and nf.basis_a.rank() == n
    inv_b = nf.basis_b.nrows == r and nf.basis_b.ncols == r and nf.basis_b.rank() == r
    add("bases_invertible", inv_a and inv_b)
    s = nf.s
    nu = nf.nu
    try:
        cv = characters(t, seed=seed, h=h)
        chars_match = cv.s == s
    except UnstableGenericity:
        cv = None
        chars_match = False
    add("characters_match", chars_match,
        "stored %r vs certified %r" % (s, None if cv is None else cv.s))
    if not (inv_a and inv_b and chars_match):
        return {
            "all_passed": False,
            "checks": checks,
            "tail_rows_within_principal_block": None,
            "first_failure": _first_failure(checks),
        }
    flag = nf.basis_a.transpose()
    targets = [sum(s[: j + 1]) for j in range(n)]
    add("flag_generic", character_partial_sums(t, flag, h) == targets)
    sizes_ok = len(nf.blocks) == nu and all(
        len(nf.blocks[j]) == s[j] for j in range(nu)
    ) and sum(s) == view.dim
    add("block_sizes", sizes_ok)
    if not sizes_ok:
        return {
            "all_passed": False,
            "checks": checks,
            "tail_rows_within_principal_block": None,
            "first_failure": _first_failure(checks),
        }
    mats = _fraction_tableau_matrices(view)
    b_inv = nf.basis_b.inverse()
    new_mats = [b_inv.matmul(m).matmul(nf.basis_a) for m in mats]
    zero_rows_ok = True
    zero_detail = ""
    s1 = s[0] if nu > 0 else 0
    for idx, m in enumerate(new_mats):
        for b in range(s1, r):
            if any(x != 0 for x in m.rows[b]):
                zero_rows_ok = False
                zero_detail = "tableau basis element %d has a nonzero entry in row %d" % (idx, b + 1)
                break
        if not zero_rows_ok:
            break
    add("zero_rows_beyond_s1", zero_rows_ok, zero_detail)
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    flat = nf.normal_basis()
    pairing_ok = len(flat) == len(pairs)
    pair_detail = ""
    if pairing_ok:
        new_q = [b_inv.matmul(q).matmul(nf.basis_a) for q in flat]
        for row_i, (j, a) in enumerate(pairs):
            for col_i in range(len(flat)):
                want = Fraction(1) if row_i == col_i else Fraction(0)
                got = new_q[col_i].rows[a - 1][j - 1]
                if got != want:
                    pairing_ok = False
                    pair_detail = (
                        "pairing of pi_%d^%d with normal-basis element %d is %s"
                        % (j, a, col_i + 1, got)
                    )
                    break
            if not pairing_ok:
                break
    add("dual_basis_pairing", pairing_ok, pair_detail)
    span_ok = True
    span_detail = ""
    for rho in range(1, nu + 1):
        base = IntegerEchelon(
            clear_denominators([m.rows[a - 1][l - 1] for m in new_mats])
            for l in range(1, rho + 1)
            for a in range(1, s[l - 1] + 1)
        )
        low = s[rho] if rho < nu else 0
        for i in range(rho, n + 1):
            for b in range(low + 1, s[rho - 1] + 1):
                probe = [m.rows[b - 1][i - 1] for m in new_mats]
                if base.add(clear_denominators(probe)):
                    span_ok = False
                    span_detail = (
                        "row %d of column %d escapes the span of pivot "
                        "functionals up to block %d" % (b, i, rho)
                    )
                    break
            if not span_ok:
                break
        if not span_ok:
            break
    add("span_conditions", span_ok, span_detail)
    support_ok = pairing_ok
    support_detail = "" if pairing_ok else "not checked: pairing failed"
    tail_within = None
    if pairing_ok:
        qi = 0
        for j in range(1, nu + 1):
            for a in range(1, s[j - 1] + 1):
                q = new_q[qi]
                qi += 1
                for b in range(1, r + 1):
                    for col in range(1, n + 1):
                        val = q.rows[b - 1][col - 1]
                        if col < j or (col == j and b != a):
                            allowed = False
                        elif col == j:
                            allowed = val == 1
                        elif col <= nu:
                            allowed = s[col - 1] < b <= s[j - 1]
                        else:
                            allowed = b <= s[j - 1]
                            if val != 0 and b > (s[nu - 1] if nu else 0):
                                tail_within = False
                        if val != 0 and not allowed:
                            support_ok = False
                            support_detail = (
                                "Q_[%d],%d has entry %s at row %d, column %d, "
                                "outside the triangular ranges" % (j, a, val, b, col)
                            )
                            break
                    if not support_ok:
                        break
                if not support_ok:
                    break
            if not support_ok:
                break
        if tail_within is None and nu < n:
            tail_within = True
    add("support_pattern", support_ok, support_detail)
    return {
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
        "tail_rows_within_principal_block": tail_within,
        "first_failure": _first_failure(checks),
    }
