"""Tests for Lie algebras and Cartan decompositions."""

import random
from fractions import Fraction

import pytest

from dense_oracles import (
    bracket_into_per_pair,
    dense_ad_from_brackets,
    dense_ad_from_matrices,
    dense_definiteness,
    dense_det,
    dense_jacobi_holds,
    dense_killing,
)
from involutive.errors import (
    BadDecomposition,
    InputError,
    JacobiViolation,
    NotRegular,
)
from involutive.liealg import (
    CartanDecomposition,
    _bracket_into,
    LieAlgebra,
    abelian_algebra,
    definiteness,
    sl2_decomposition,
    sl2_matrices,
    sl3_decomposition,
    sl3_matrices,
    su2_algebra,
)
from involutive.linalg import Matrix, Subspace


def test_det_examples():
    # hand-computed determinants, checks of the oracle behind definiteness
    assert dense_det(Matrix([[2]])) == 2
    assert dense_det(Matrix([[1, 2], [3, 4]])) == -2
    assert dense_det(Matrix([[0, 1], [1, 0]])) == -1
    assert dense_det(Matrix([[1, 2], [2, 4]])) == 0
    assert dense_det(Matrix.identity(5)) == 1


def test_definiteness():
    assert definiteness(Matrix.identity(3)) == "positive"
    assert definiteness(Matrix.identity(3) * Fraction(-1)) == "negative"
    assert definiteness(Matrix([[1, 0], [0, -1]])) == "indefinite_or_degenerate"
    assert definiteness(Matrix([[1, 1], [1, 1]])) == "indefinite_or_degenerate"


def seeded_symmetric(rng, n):
    """A symmetric n x n matrix: definite, indefinite, singular, with a
    zero leading minor, or with rational entries, by the draw."""
    kind = rng.randrange(5)
    if n == 0:
        return Matrix([], ncols=0)
    if kind == 3:
        # a zero leading minor in a nonsingular matrix when n >= 2
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
        m[0][0] = Fraction(0)
        return Matrix(m, ncols=n)
    k = n - 1 if kind == 2 else n  # B^T D B has rank <= k
    b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3) if kind == 4 else 1)
          for _ in range(n)] for _ in range(max(k, 0))]
    signs = [1] * k if kind == 0 else [-1] * k if kind == 1 else \
        [rng.choice((-1, 1)) for _ in range(k)]
    return Matrix(
        [[sum(signs[t] * b[t][i] * b[t][j] for t in range(k)) for j in range(n)]
         for i in range(n)],
        ncols=n,
    )


def test_definiteness_matches_dense_oracle():
    rng = random.Random(4112)
    seen = set()
    for _ in range(300):
        m = seeded_symmetric(rng, rng.randint(0, 6))
        verdict = definiteness(m)
        assert verdict == dense_definiteness(m)
        seen.add(verdict)
    assert seen == {"zero", "positive", "negative", "indefinite_or_degenerate"}


def test_bracket_inclusion_matches_per_pair_oracle():
    # Targets spanned by every bracket but one: exactly one bracket leaves
    # its target, at each position of the pair order in turn.
    alg = LieAlgebra.from_matrices(sl3_matrices())
    rng = random.Random(4113)
    checked = 0
    for _ in range(12):
        basis1 = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(rng.randint(1, 3))]
        basis2 = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(rng.randint(1, 3))]
        pairs = [(x, y) for x in basis1 for y in basis2]
        for skip in range(len(pairs)):
            others = [alg.bracket(x, y) for i, (x, y) in enumerate(pairs) if i != skip]
            target = Subspace(8, others)
            expected = bracket_into_per_pair(alg, basis1, basis2, target)
            assert _bracket_into(alg, basis1, basis2, target) == expected
            if not expected:
                checked += 1
        full = Subspace(8, [alg.bracket(x, y) for x, y in pairs])
        assert _bracket_into(alg, basis1, basis2, full)
        assert bracket_into_per_pair(alg, basis1, basis2, full)
    assert checked >= 20


def test_decomposition_with_one_bracket_outside_g0():
    # su(2) + su(2) with g0 = span{e_1, e_2, e_3, f_1, f_2}: the Killing
    # form splits g = g0 + span{f_3}, and [f_1, f_2] = f_3 is the only
    # bracket of g0 that leaves g0.
    brackets = SU2_BRACKETS + [(i + 3, j + 3, k + 3, c) for i, j, k, c in SU2_BRACKETS]
    alg = LieAlgebra(6, brackets)
    g0 = [[int(i == j) for i in range(6)] for j in range(5)]
    with pytest.raises(BadDecomposition, match=r"\[g0, g0\] is not contained in g0"):
        CartanDecomposition(alg, g0, [[0, 0, 0, 0, 0, 1]])


def test_su2_brackets():
    g = su2_algebra()
    assert g.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert g.bracket([0, 1, 0], [0, 0, 1]) == [1, 0, 0]
    assert g.bracket([0, 0, 1], [1, 0, 0]) == [0, 1, 0]
    assert g.bracket([0, 1, 0], [1, 0, 0]) == [0, 0, -1]


def test_su2_killing():
    k = su2_algebra().killing_form()
    assert k == Matrix.identity(3) * Fraction(-2)
    assert definiteness(k) == "negative"


def test_jacobi_violation_detected():
    # cyclic sum on (e0, e1, e2) equals [e0, e1] = e2, nonzero
    with pytest.raises(JacobiViolation):
        LieAlgebra(3, [(0, 1, 2, 1), (1, 2, 1, 1)])


def test_antisymmetry_conflict_detected():
    with pytest.raises(InputError):
        LieAlgebra(2, [(0, 1, 0, 1), (1, 0, 0, 1)])
    with pytest.raises(InputError):
        LieAlgebra(2, [(0, 0, 1, 1)])


def test_killing_invariance_random():
    g = LieAlgebra.from_matrices(sl3_matrices())
    k = g.killing_form()
    rng = random.Random(5)
    for _ in range(8):
        x = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        z = [Fraction(rng.randint(-3, 3)) for _ in range(8)]
        lhs = k.matvec(z)
        bxy = g.bracket(x, y)
        left = sum(a * b for a, b in zip(bxy, lhs))
        byz = g.bracket(y, z)
        kx = k.matvec(x)
        right = sum(a * b for a, b in zip(kx, byz))
        assert left == right


def test_from_matrices_roundtrip_brackets():
    mats = sl3_matrices()
    g = LieAlgebra.from_matrices(mats)
    # [E12, E21] = H1 in the chosen basis
    e12 = [1, 0, 0, 0, 0, 0, 0, 0]
    e21 = [0, 0, 0, 1, 0, 0, 0, 0]
    assert g.bracket(e12, e21) == [0, 0, 0, 0, 0, 0, 1, 0]
    # [H1, E12] = 2 E12
    h1 = [0, 0, 0, 0, 0, 0, 1, 0]
    assert g.bracket(h1, e12) == [2, 0, 0, 0, 0, 0, 0, 0]


def test_from_matrices_not_closed():
    # E12 and E13 alone close, but E12 with H1 generates E12 only... use a
    # genuinely non-closed pair: E12 and E23 have bracket E13 outside.
    bad = [sl3_matrices()[0], sl3_matrices()[2]]
    with pytest.raises(InputError):
        LieAlgebra.from_matrices(bad)


def test_json_round_trip():
    g = su2_algebra()
    h = LieAlgebra.from_json_dict(g.to_json_dict())
    assert h.bracket([1, 0, 0], [0, 1, 0]) == [0, 0, 1]
    assert h.killing_form() == g.killing_form()


def test_sl3_decomposition_dimensions():
    cd = sl3_decomposition()
    assert cd.g0.dim == 3
    assert cd.m.dim == 5
    assert cd.a.dim == 2
    assert cd.b.dim == 3
    assert cd.p.dim == 3
    assert cd.g_a.dim == 0
    assert cd.n == 2


def test_sl3_definiteness():
    cd = sl3_decomposition()
    from involutive.liealg import _gram

    assert definiteness(_gram(cd.killing, cd.g0.basis)) == "negative"
    assert definiteness(_gram(cd.killing, cd.m.basis)) == "positive"


def test_sl3_regular_basis():
    cd = sl3_decomposition()
    cd.require_regular_basis()
    # diag(1,1,-2) = (H1 + H2) + H2 in the stored a coordinates is singular
    singular = [0, 0, 0, 0, 0, 0, 1, 2]
    assert not cd.is_regular(singular)


def test_sl2_decomposition():
    cd = sl2_decomposition()
    assert cd.g0.dim == 1
    assert cd.m.dim == 2
    assert cd.a.dim == 1
    assert cd.b.dim == 1
    assert cd.p.dim == 1
    assert cd.g_a.dim == 0
    cd.require_regular_basis()


def test_not_maximal_abelian_rejected():
    alg = LieAlgebra.from_matrices(sl3_matrices())
    so3 = [
        [1, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0, -1, 0, 0],
    ]
    with pytest.raises(BadDecomposition):
        CartanDecomposition(alg, so3, [[0, 0, 0, 0, 0, 0, 1, 1]])


def test_bad_g0_rejected():
    alg = LieAlgebra.from_matrices(sl3_matrices())
    # span{E12 - E21, E13 - E31} is not closed under the bracket
    g0 = [
        [1, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0],
    ]
    with pytest.raises(BadDecomposition):
        CartanDecomposition(alg, g0, [[0, 0, 0, 0, 0, 0, 1, 1]])


def test_a_not_abelian_rejected():
    alg = LieAlgebra.from_matrices(sl3_matrices())
    so3 = [
        [1, 0, 0, -1, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0, 0, 0],
        [0, 0, 1, 0, 0, -1, 0, 0],
    ]
    # symmetric off-diagonal pair does not commute
    bad_a = [
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 0, 0],
    ]
    with pytest.raises(BadDecomposition):
        CartanDecomposition(alg, so3, bad_a)


def test_abelian_algebra():
    g = abelian_algebra(4)
    assert g.bracket([1, 2, 3, 4], [4, 3, 2, 1]) == [0, 0, 0, 0]
    assert g.killing_form() == Matrix.zeros(4, 4)


SU2_BRACKETS = [(0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)]


def unit_matrices(sz, cells):
    return [
        Matrix([[int((r, c) == cell) for c in range(sz)] for r in range(sz)])
        for cell in cells
    ]


def random_invertible(rng, n):
    while True:
        m = Matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if m.rank() == n:
            return m


def random_matrix_algebras(rng):
    """Closed matrix bases in random coordinates: a classical basis, mixed
    by a random invertible change of basis and conjugated by a random
    invertible matrix."""
    so3 = [
        Matrix([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]),
        Matrix([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
        Matrix([[0, 0, 0], [0, 0, 1], [0, -1, 0]]),
    ]
    borel3 = unit_matrices(3, [(r, c) for r in range(3) for c in range(r, 3)])
    heisenberg = unit_matrices(3, [(0, 1), (0, 2), (1, 2)])
    gl2 = unit_matrices(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    out = []
    for basis in (sl2_matrices(), so3, borel3, heisenberg, gl2, sl3_matrices()):
        n, sz = len(basis), basis[0].nrows
        mix = random_invertible(rng, n)
        p = random_invertible(rng, sz)
        p_inv = p.inverse()
        mixed = []
        for row in mix.rows:
            m = Matrix.zeros(sz, sz)
            for c, b in zip(row, basis):
                m = m.add(b * c)
            mixed.append(p.matmul(m).matmul(p_inv))
        out.append(mixed)
    return out


def assert_matches_dense(g, ads, rng):
    d = g.dim
    assert [g.ad(e).rows for e in Matrix.identity(d).rows] == ads
    for _ in range(4):
        x = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        y = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
        ad_x = [[sum(x[i] * ads[i][k][j] for i in range(d)) for j in range(d)]
                for k in range(d)]
        assert g.ad(x).rows == ad_x
        assert g.bracket(x, y) == [sum(a * b for a, b in zip(row, y)) for row in ad_x]
    assert g.killing_form().rows == dense_killing(ads)
    # the old dense serialisation: pairs i < j in order, then k ascending
    assert g.to_json_dict() == {
        "dim": d,
        "brackets": [
            [i, j, k, str(ads[i][k][j])]
            for i in range(d)
            for j in range(i + 1, d)
            for k in range(d)
            if ads[i][k][j]
        ],
    }
    h = LieAlgebra.from_json_dict(g.to_json_dict())
    assert [h.ad(e).rows for e in Matrix.identity(d).rows] == ads


def test_sparse_table_matches_dense_oracle():
    rng = random.Random(2024)
    assert_matches_dense(su2_algebra(), dense_ad_from_brackets(3, SU2_BRACKETS), rng)
    for d in (1, 2, 4):
        assert_matches_dense(abelian_algebra(d), dense_ad_from_brackets(d, []), rng)
    bases = [sl2_matrices(), sl3_matrices()] + random_matrix_algebras(rng)
    for mats in bases:
        assert_matches_dense(
            LieAlgebra.from_matrices(mats), dense_ad_from_matrices(mats), rng
        )


def test_from_matrices_rejects_dependent_basis():
    h, e, f = sl2_matrices()
    with pytest.raises(InputError, match="dependent"):
        LieAlgebra.from_matrices([h, e, f, e.add(f)])


def test_corrupted_table_raises_jacobi_violation():
    # [e0, e1] = e2 + e0 in su(2): the cyclic sum on (0, 1, 2) is e1
    g = su2_algebra()
    g._table[0, 1] = {2: Fraction(1), 0: Fraction(1)}
    g._table[1, 0] = {2: Fraction(-1), 0: Fraction(-1)}
    with pytest.raises(JacobiViolation):
        g._check_jacobi()
    # one constant of sl(3) changed at a time: the sparse check rejects
    # exactly the tables that fail the dense Jacobi identity
    base = LieAlgebra.from_matrices(sl3_matrices()).to_json_dict()
    rng = random.Random(17)
    violations = 0
    for _ in range(12):
        brackets = [list(b) for b in base["brackets"]]
        i, j = sorted(rng.sample(range(8), 2))
        k = rng.randrange(8)
        entry = next((b for b in brackets if b[:3] == [i, j, k]), None)
        if entry is None:
            brackets.append([i, j, k, "1"])
        else:
            entry[3] = str(Fraction(entry[3]) + rng.choice((-1, 1)))
        ads = dense_ad_from_brackets(8, [(a, b, c, Fraction(v)) for a, b, c, v in brackets])
        data = {"dim": 8, "brackets": brackets}
        if dense_jacobi_holds(ads):
            LieAlgebra.from_json_dict(data)
        else:
            violations += 1
            with pytest.raises(JacobiViolation):
                LieAlgebra.from_json_dict(data)
    assert violations >= 6
