from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from involutive.bases import (
    contract_vector,
    contraction_matrix,
    ext_basis,
    full_space_dim,
    gram_diagonal,
    koszul_delta_full,
    multiindex_remove,
    sym_basis,
    sym_raise,
    wedge_insert,
)
from involutive.linalg import Matrix, vec


def test_basis_sizes_exhaustive():
    for n in range(1, 7):
        for h in range(0, 7):
            assert sym_basis(n, h).size == comb(n + h - 1, h)
        for p in range(0, 7):
            assert ext_basis(n, p).size == (comb(n, p) if p <= n else 0)


def test_basis_order_deterministic():
    sb = sym_basis(2, 2)
    assert sb.indices == [(0, 0), (0, 1), (1, 1)]
    eb = ext_basis(3, 2)
    assert eb.indices == [(0, 1), (0, 2), (1, 2)]


def test_contract_square_monomial():
    # b (x) S^2 for n = 2, b_dim = 1; element e0 . e0
    t = [Fraction(0)] * sym_basis(2, 2).size
    t[sym_basis(2, 2).index_of[(0, 0)]] = Fraction(1)
    out = contract_vector(2, 1, 2, t, vec([1, 0]))
    assert out[sym_basis(2, 1).index_of[(0,)]] == 1
    assert out[sym_basis(2, 1).index_of[(1,)]] == 0
    # contracting the same monomial along e1 kills it
    assert contract_vector(2, 1, 2, t, vec([0, 1])) == [Fraction(0), Fraction(0)]


def test_contract_mixed_monomial():
    t = [Fraction(0)] * sym_basis(2, 2).size
    t[sym_basis(2, 2).index_of[(0, 1)]] = Fraction(1)
    out = contract_vector(2, 1, 2, t, vec([1, 1]))
    # i(e0 + e1) m_{01} = m_1 + m_0, both with coefficient exactly 1
    assert out[sym_basis(2, 1).index_of[(0,)]] == 1
    assert out[sym_basis(2, 1).index_of[(1,)]] == 1


def dense_contract(n, b_dim, h, t, x):
    """sum_k x_k i(e_k) t through the dense contraction matrices."""
    out = [Fraction(0)] * (b_dim * sym_basis(n, h - 1).size)
    for k in range(n):
        piece = contraction_matrix(n, b_dim, h, k).matvec(t)
        out = [a + x[k] * b for a, b in zip(out, piece)]
    return out


def test_contract_bilinear_random():
    rng = random.Random(31)
    for n in (1, 2, 3):
        for b_dim in (1, 2, 3):
            for h in (1, 2, 3):
                dim = b_dim * sym_basis(n, h).size
                t = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                got = contract_vector(n, b_dim, h, t, x)
                assert got == dense_contract(n, b_dim, h, t, x)
    n, b_dim, h = 3, 2, 3
    dim = b_dim * sym_basis(n, h).size
    for _ in range(15):
        t = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        s = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
        x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        assert contract_vector(n, b_dim, h, t, x) == dense_contract(n, b_dim, h, t, x)
        lhs = contract_vector(n, b_dim, h, [a + b for a, b in zip(t, s)], x)
        rhs = [a + b for a, b in zip(contract_vector(n, b_dim, h, t, x), contract_vector(n, b_dim, h, s, x))]
        assert lhs == rhs
        lhs2 = contract_vector(n, b_dim, h, t, [a + b for a, b in zip(x, y)])
        rhs2 = [a + b for a, b in zip(contract_vector(n, b_dim, h, t, x), contract_vector(n, b_dim, h, t, y))]
        assert lhs2 == rhs2


def test_contractions_commute():
    n, b_dim, h = 3, 2, 3
    for j in range(n):
        for k in range(n):
            a = contraction_matrix(n, b_dim, h - 1, j).matmul(contraction_matrix(n, b_dim, h, k))
            b = contraction_matrix(n, b_dim, h - 1, k).matmul(contraction_matrix(n, b_dim, h, j))
            assert a == b


def test_wedge_insert_signs():
    assert wedge_insert(0, (1,)) == (1, (0, 1))
    assert wedge_insert(1, (0,)) == (-1, (0, 1))
    assert wedge_insert(1, (0, 2)) == (-1, (0, 1, 2))
    assert wedge_insert(2, (0, 1)) == (1, (0, 1, 2))
    assert wedge_insert(0, (0, 1)) is None
    assert multiindex_remove((0, 1, 2), 1) == (0, 2)
    assert multiindex_remove((0, 2), 1) is None


def test_delta_one_by_one():
    d = koszul_delta_full(1, 1, 1, 0)
    assert d.nrows == 1 and d.ncols == 1 and d.rows[0][0] == 1


def test_delta_hand_signs():
    # n = 2, b_dim = 1, q = 1, p = 1: check both sign cases of the wedge
    d = koszul_delta_full(2, 1, 1, 1)
    sb = sym_basis(2, 1)
    eb1 = ext_basis(2, 1)
    eb2 = ext_basis(2, 2)
    col_a = sb.index_of[(0,)] * eb1.size + eb1.index_of[(1,)]
    col_b = sb.index_of[(1,)] * eb1.size + eb1.index_of[(0,)]
    row = eb2.index_of[(0, 1)]
    assert d.rows[row][col_a] == 1
    assert d.rows[row][col_b] == -1


def test_delta_squared_zero():
    for n in range(1, 4):
        for b_dim in (1, 2):
            for q in range(1, 4):
                for p in range(0, n):
                    d1 = koszul_delta_full(n, b_dim, q, p)
                    d2 = koszul_delta_full(n, b_dim, q - 1, p + 1)
                    prod = d2.matmul(d1)
                    assert all(x == 0 for row in prod.rows for x in row)


def test_full_complex_exact_away_from_origin():
    for n in range(1, 4):
        for b_dim in (1, 2):
            for q in range(0, 4):
                for p in range(0, n + 1):
                    if (q, p) == (0, 0):
                        continue
                    r_out = koszul_delta_full(n, b_dim, q, p).rank()
                    r_in = koszul_delta_full(n, b_dim, q + 1, p - 1).rank() if p >= 1 else 0
                    assert r_out + r_in == full_space_dim(n, b_dim, q, p), (n, b_dim, q, p)


def test_gram_diagonal_values():
    g = gram_diagonal(2, 1, 2, 0)
    sb = sym_basis(2, 2)
    assert g[sb.index_of[(0, 0)]] == 1
    assert g[sb.index_of[(0, 1)]] == 2
    assert g[sb.index_of[(1, 1)]] == 1
    g2 = gram_diagonal(2, 1, 0, 2)
    assert g2 == (Fraction(factorial(2)),)
    g3 = gram_diagonal(3, 2, 1, 1)
    assert len(g3) == full_space_dim(3, 2, 1, 1)
    assert all(x == 1 for x in g3)


def test_delta_matches_contraction_route():
    # independent cross-check: build delta^{q,1} entries from contraction
    # matrices and wedge signs rather than the direct basis walk
    n, b_dim, q = 3, 2, 2
    d = koszul_delta_full(n, b_dim, q, 0)
    rebuilt = [[Fraction(0)] * d.ncols for _ in range(d.nrows)]
    for k in range(n):
        ck = contraction_matrix(n, b_dim, q, k)
        for i in range(ck.nrows):
            for j in range(ck.ncols):
                if ck.rows[i][j] != 0:
                    rebuilt[i * n + k][j] += ck.rows[i][j]
    assert Matrix(rebuilt, ncols=d.ncols) == d
