"""Slow textbook routines, the oracles for linalg and poly.

Matrix.rref eliminates over sparse integer rows; the dense_* routines
work on dense Fraction rows and share no code with it, so the tests can
compare the two bit for bit.  compose_oracle substitutes term by term
with a power cache and a full expansion, where Polynomial.compose runs on
one capped, shared monomial table.  The dense_ad_* routines give the
adjoint matrices of a Lie algebra as dense Fraction rows (commutator
coordinates by Matrix.solve), the oracle for the sparse structure
constants of LieAlgebra.
"""

from __future__ import annotations

from fractions import Fraction

from involutive.errors import DimensionMismatch
from involutive.linalg import Matrix
from involutive.poly import Polynomial


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
