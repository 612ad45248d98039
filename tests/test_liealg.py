"""Tests for Lie algebras and Cartan decompositions."""

import random
from fractions import Fraction
from math import lcm

import pytest

from dense_oracles import (
    FractionLieAlgebra,
    bracket_into_per_pair,
    dense_ad_from_brackets,
    dense_ad_from_matrices,
    dense_definiteness,
    dense_det,
    dense_jacobi_holds,
    dense_killing,
    fraction_cartan,
    fraction_gg0_system,
    fraction_gram,
    fraction_is_regular,
)
from involutive.errors import (
    BadDecomposition,
    InputError,
    JacobiViolation,
    NotInImage,
    NotRegular,
)
from involutive.liealg import (
    CartanDecomposition,
    _bracket_into,
    _gram,
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
from involutive.systems import build_gg0_system


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
    # the Gram matrices on integer rows under den^2 K, and the Fraction
    # Gram matrices on the canonical bases, have the same verdicts
    cd = sl3_decomposition()
    killing = cd.algebra._killing_numerators()
    for space, verdict in ((cd.g0, "negative"), (cd.m, "positive")):
        rows = space.integer_rows
        assert definiteness(_gram(killing, rows, rows)) == verdict
        assert definiteness(fraction_gram(cd.algebra.killing_form(), space.basis)) == verdict


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
    g._table[0, 1] = {2: 1, 0: 1}
    g._table[1, 0] = {2: -1, 0: -1}
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


@pytest.mark.parametrize("data", [
    {"dim": 3.7, "brackets": []},
    {"dim": True, "brackets": []},
    {"dim": "3", "brackets": []},
    {"dim": 3, "brackets": [[0.9, 1, 2, "1"]]},
    {"dim": 3, "brackets": [[0, True, 2, "1"]]},
])
def test_json_takes_dimension_and_indices_only_as_integers(data):
    with pytest.raises(InputError, match="must be an integer|must be integers"):
        LieAlgebra.from_json_dict(data)


SL2_G0, SL2_A = [[0, 1, -1]], [[1, 0, 0]]
SL3_G0 = [[1, 0, 0, -1, 0, 0, 0, 0], [0, 1, 0, 0, -1, 0, 0, 0], [0, 0, 1, 0, 0, -1, 0, 0]]
SL3_A = [[0, 0, 0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 0, 0, 1]]


def rescaled_decompositions(rng, count):
    """sl(2) and sl(3) on the bases s_k M_k, with nonzero rational s_k,
    and the same g0 and a written in the rescaled coordinates v_k / s_k."""
    out = []
    for t in range(count):
        mats, g0, a = ((sl2_matrices(), SL2_G0, SL2_A) if t % 2 else
                       (sl3_matrices(), SL3_G0, SL3_A))
        scales = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))
                  for _ in mats]
        out.append(([m * s for m, s in zip(mats, scales)],
                    [[Fraction(x) / s for x, s in zip(v, scales)] for v in g0],
                    [[Fraction(x) / s for x, s in zip(v, scales)] for v in a]))
    return out


def test_integer_route_matches_fraction_route():
    # structure constants, Killing form, every canonical basis, regularity
    # and the gg0 system agree bit for bit with the Fraction route
    rng = random.Random(3203)
    cases = [(sl2_matrices(), SL2_G0, SL2_A), (sl3_matrices(), SL3_G0, SL3_A)]
    cases += rescaled_decompositions(rng, 30)
    fractional = regular = singular = outside = 0
    for mats, g0, a in cases:
        alg = LieAlgebra.from_matrices(mats)
        oracle = FractionLieAlgebra.from_matrices(mats)
        assert alg.to_json_dict() == oracle.to_json_dict()
        assert alg.killing_form() == oracle.killing_form()
        assert alg.den == lcm(*(c.denominator for col in oracle.table.values()
                                for c in col.values()))
        fractional += alg.den > 1
        cd = CartanDecomposition(alg, g0, a)
        spaces = fraction_cartan(oracle, g0, a)
        for name in ("g0", "m", "a", "b", "g_a", "p"):
            space = getattr(cd, name)
            assert space == spaces[name]
            assert space.pivots == spaces[name].pivots
            assert space.integer_rows == spaces[name].integer_rows
        assert spaces["centralizer"] == cd.a
        assert spaces["definiteness"] == ["negative", "positive"]
        for _ in range(4):
            c = [rng.randint(-2, 2) for _ in a]
            elem = [sum(ci * Fraction(v[k]) for ci, v in zip(c, a)) for k in range(alg.dim)]
            verdict = cd.is_regular(elem)
            assert verdict == fraction_is_regular(oracle, spaces, elem)
            regular += verdict
            singular += not verdict
        assert (build_gg0_system(cd).to_json_dict()
                == fraction_gg0_system(oracle, spaces, cd.a_basis).to_json_dict())
        # integer p-coordinates: inside p as Subspace.coordinates, outside refused
        for x in cd.p.integer_rows + [[rng.randint(-2, 2) for _ in range(alg.dim)]]:
            v = [sum(3 * y for y in col) for col in zip(x, *cd.p.integer_rows)]
            for w in (v, [c + (k == rng.randrange(alg.dim)) for k, c in enumerate(v)]):
                expected = cd.p.coordinates(w)
                if expected is None:
                    outside += 1
                    with pytest.raises(NotInImage):
                        cd.integer_coords_p(w)
                else:
                    assert cd.integer_coords_p(w) == expected
    assert fractional >= 20 and regular >= 20 and singular >= 20 and outside >= 60
    for alg, brackets in ((su2_algebra(), SU2_BRACKETS), (abelian_algebra(2), [])):
        oracle = FractionLieAlgebra(alg.dim, brackets)
        assert alg.to_json_dict() == oracle.to_json_dict()
        assert alg.killing_form() == oracle.killing_form()


def test_negative_cases_keep_type_and_text():
    h, e, f = sl2_matrices()
    sl3 = LieAlgebra.from_matrices(sl3_matrices())
    sl2 = LieAlgebra.from_matrices(sl2_matrices())
    bad = [
        ([h, e, f, e.add(f)], InputError, "basis matrices are linearly dependent"),
        ([sl3_matrices()[0], sl3_matrices()[2]], InputError,
         "matrices are not closed under the commutator (failure at pair (0, 1))"),
    ]
    for mats, kind, text in bad:
        for route in (LieAlgebra.from_matrices, FractionLieAlgebra.from_matrices):
            with pytest.raises(kind) as info:
                route(mats)
            assert str(info.value) == text
    with pytest.raises(BadDecomposition, match=r"^a is not maximal abelian in m$"):
        CartanDecomposition(sl3, SL3_G0, SL3_A[:1])
    # g0 = span(H): the Killing form is positive there
    with pytest.raises(BadDecomposition,
                       match=r"^Killing form is not negative definite on g0$"):
        CartanDecomposition(sl2, [[1, 0, 0]], [[0, 1, 1]])
    with pytest.raises(JacobiViolation,
                       match=r"^Jacobi identity fails on basis triple \(0, 1, 2\)$"):
        LieAlgebra(3, [(0, 1, 2, 1), (1, 2, 1, 1)])
