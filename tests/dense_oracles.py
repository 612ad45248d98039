"""Slow textbook routines, the oracles for linalg and poly.

Matrix.rref eliminates over sparse integer rows; the dense_* routines
work on dense Fraction rows and share no code with it, so the tests can
compare the two bit for bit.  compose_oracle substitutes term by term
with a power cache and a full expansion, where Polynomial.compose runs on
one capped, shared monomial table.  The dense_ad_* routines give the
adjoint matrices of a Lie algebra as dense Fraction rows (commutator
coordinates by Matrix.solve), the oracle for the sparse structure
constants of LieAlgebra.  dense_det and dense_definiteness are the
Fraction Gaussian elimination and the minor-by-minor Sylvester test that
liealg.det and liealg.definiteness replaced with one Bareiss elimination;
bracket_into_per_pair is the pair-by-pair Subspace.contains check that
one rank test replaced.  view_route_involutive_index is the involutive
index search that builds the view tableau of every order and prolongs
it, the oracle for the search on the prolongation tower.
"""

from __future__ import annotations

import random
from fractions import Fraction

from involutive.errors import CapExceeded, DimensionMismatch, UnstableGenericity
from involutive.linalg import Matrix
from involutive.poly import Polynomial
from involutive.tableau import DEFAULT_MAX_DIM, cartan_test


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
