"""Metamorphic oracle: every number the tableau layer reports is
invariant under a change of coordinates.

A tableau A inside Hom(a, b) and its image Q A P^-1, for invertible P on
a and Q on b, are the same tableau written in other bases, so the
dimensions of the prolongations, the Cartan characters and verdict, the
involutive index and the Spencer cohomology must agree.  Unlike the
dense oracles this needs no second implementation, so it checks the
answers themselves: the canonical bases, the pivot-read coordinates of
the contractions and the inverses behind them all change with the
coordinates, and the invariants must not.

The same holds for a matrix Lie algebra: conjugating every basis matrix
by P keeps every commutator's coordinates, so the structure constants
must not change, while the pivots of the flattened span do.
"""

from __future__ import annotations

import random

from involutive.errors import CapExceeded, InputError
from involutive.liealg import LieAlgebra, sl2_matrices, sl3_matrices
from involutive.linalg import Matrix, Subspace
from involutive.spencer import cohomology_dim
from involutive.tableau import Tableau, cartan_test, involutive_index


def random_tableau(rng):
    """A tableau with n, r <= 3 and independent generators with entries
    in [-3, 3]."""
    while True:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        gens = [
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
            for _ in range(rng.randint(1, n * r))
        ]
        try:
            return Tableau(n, r, gens)
        except InputError:
            continue


def unimodular(rng, n):
    """A random integer n x n matrix of determinant +-1: the identity
    under a few row additions, a row permutation and a sign."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    if rng.random() < 0.5:
        rows[0] = [-x for x in rows[0]]
    return Matrix(rows)


def invariants(t):
    """The coordinate-free numbers of a tableau."""
    res = cartan_test(t, seed=0)
    try:
        index = involutive_index(t, h_max=2)
        index = (index["k"], index["trajectory"])
    except CapExceeded:
        index = "no involutive order up to 2"
    return {
        "dims": [t.dim_at(h) for h in range(3)],
        "cartan": (res["characters"].s, res["involutive"], res["bound"]),
        "index": index,
        "cohomology": [
            [cohomology_dim(t, q, p) for p in range(t.a_dim + 1)] for q in range(3)
        ],
    }


def test_tableau_invariants_under_change_of_coordinates():
    rng = random.Random(2031)
    for _ in range(120):
        t = random_tableau(rng)
        p = unimodular(rng, t.a_dim)
        q = unimodular(rng, t.b_dim)
        p_inv = p.inverse()
        assert p.matmul(p_inv) == Matrix.identity(t.a_dim)
        image = Tableau(t.a_dim, t.b_dim, [q.matmul(g).matmul(p_inv) for g in t.generators])
        assert invariants(image) == invariants(t), t.to_json_dict()


def test_lie_algebra_under_conjugation():
    # sl(2) and sl(3) span conjugation-invariant subspaces, so their pivots
    # stay and the basis block on them changes; the upper triangular
    # matrices of gl(3) move their span, and so the pivots too
    rng = random.Random(2032)
    borel = [Matrix([[int((r, c) == cell) for c in range(3)] for r in range(3)])
             for cell in [(r, c) for r in range(3) for c in range(r, 3)]]
    blocks = moved = 0
    for mats in (sl2_matrices(), sl3_matrices(), borel):
        sz = mats[0].nrows
        want = LieAlgebra.from_matrices(mats).to_json_dict()
        span = Subspace(sz * sz, [sum(m.rows, []) for m in mats])
        block = [[sum(m.rows, [])[p] for m in mats] for p in span.pivots]
        for _ in range(15):
            p = unimodular(rng, sz)
            p_inv = p.inverse()
            assert all(x.denominator == 1 for row in p_inv.rows for x in row)
            image = [p.matmul(m).matmul(p_inv) for m in mats]
            assert LieAlgebra.from_matrices(image).to_json_dict() == want
            pivots = Subspace(sz * sz, [sum(m.rows, []) for m in image]).pivots
            moved += pivots != span.pivots
            blocks += [[sum(m.rows, [])[p] for m in image] for p in pivots] != block
    assert blocks >= 40 and moved >= 10
