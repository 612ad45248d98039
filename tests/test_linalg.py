from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dense_oracles import dense_kernel, dense_rref, dense_span, is_subspace_of, solve_affine
from involutive.errors import DimensionMismatch, Inconsistent, InputError
from involutive.linalg import (
    IntegerEchelon,
    Matrix,
    Subspace,
    clear_denominators,
    frac,
    kernel,
    vec,
)


def rand_matrix(rng: random.Random, m: int, n: int, span: int = 5) -> Matrix:
    return Matrix([[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(m)], ncols=n)


def test_kernel_identity_is_zero():
    ker = kernel(Matrix.identity(2))
    assert ker.dim == 0


def test_kernel_one_equation():
    ker = kernel(Matrix([[1, 1]]))
    assert ker.dim == 1
    assert ker.contains(vec([1, -1]))


def test_kernel_rank_two_example():
    m = Matrix([
        [1, 0, 1, 0, 1],
        [0, 1, 0, 1, 0],
        [1, 1, 1, 1, 1],
    ])
    assert m.rank() == 2
    ker = kernel(m)
    assert ker.dim == 3
    for v in ker.basis:
        assert all(x == 0 for x in m.matvec(v))


def test_rank_nullity_random():
    rng = random.Random(7)
    for _ in range(50):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert m.rank() + len(m.kernel()) == m.ncols
        for v in m.kernel():
            assert all(x == 0 for x in m.matvec(v))


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_matrix(rng, 4, 5)
        red, pivots = m.rref()
        red2, pivots2 = red.rref()
        assert red == red2 and pivots == pivots2
        for i, p in enumerate(pivots):
            assert red.rows[i][p] == 1
            assert all(red.rows[j][p] == 0 for j in range(red.nrows) if j != i)


def test_subspace_canonical_under_shuffle():
    rng = random.Random(11)
    for _ in range(30):
        gens = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        s1 = Subspace(4, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        # mixing in linear combinations must not change the stored basis
        if len(shuffled) >= 2:
            shuffled.append([a + b for a, b in zip(shuffled[0], shuffled[1])])
        s2 = Subspace(4, shuffled)
        assert s1 == s2


def test_intersect_self():
    s = Subspace(3, [[1, 2, 3], [0, 1, 1]])
    assert s.intersect(s) == s


def test_intersect_transverse_lines():
    u = Subspace(2, [[1, 0]])
    v = Subspace(2, [[0, 1]])
    assert u.intersect(v).dim == 0


def test_intersect_planes():
    u = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace(3, [[0, 1, 0], [0, 0, 1]])
    w = u.intersect(v)
    assert w == Subspace(3, [[0, 1, 0]])


def test_intersect_dimension_formula_random():
    rng = random.Random(23)
    for _ in range(40):
        amb = rng.randint(1, 6)
        u = Subspace(amb, [[Fraction(rng.randint(-3, 3)) for _ in range(amb)] for _ in range(rng.randint(0, amb))])
        v = Subspace(amb, [[Fraction(rng.randint(-3, 3)) for _ in range(amb)] for _ in range(rng.randint(0, amb))])
        inter = u.intersect(v)
        assert is_subspace_of(inter, u) and is_subspace_of(inter, v)
        assert u.dim + v.dim - u.sum(v).dim == inter.dim


def test_intersect_ambient_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0]]).intersect(Subspace(3, [[1, 0, 0]]))


def test_solve_identity():
    x, ker = solve_affine(Matrix.identity(2), vec([1, 2]))
    assert x == vec([1, 2]) and ker == []


def test_solve_zero_matrix():
    x, ker = solve_affine(Matrix.zeros(2, 3), vec([0, 0]))
    assert x == vec([0, 0, 0]) and len(ker) == 3


def test_solve_underdetermined():
    x, ker = solve_affine(Matrix([[1, 1]]), vec([3]))
    assert x == vec([3, 0])
    assert len(ker) == 1 and ker[0] in ([Fraction(-1), Fraction(1)], [Fraction(1), Fraction(-1)])


def test_solve_inconsistent():
    with pytest.raises(Inconsistent):
        Matrix([[1, 1], [1, 1]]).solve(vec([0, 1]))


def test_solution_set_structure_random():
    rng = random.Random(5)
    for _ in range(30):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        target = [Fraction(rng.randint(-3, 3)) for _ in range(m.ncols)]
        rhs = m.matvec(target)
        x, ker = solve_affine(m, rhs)
        assert m.matvec(x) == rhs
        # target - x must be a kernel element
        diff = [a - b for a, b in zip(target, x)]
        assert Subspace(m.ncols, ker).contains(diff)


def test_solve_affine_matches_dense_oracle():
    # one rref of [m | rhs] gives the solution with free variables 0 and
    # the canonical kernel, the same as a dense solve and a dense kernel
    rng = random.Random(1904)
    consistent = 0
    for _ in range(60):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), span=3)
        if rng.random() < 0.3:
            rhs = [Fraction(rng.randint(-3, 3)) for _ in range(m.nrows)]
        else:
            rhs = m.matvec([Fraction(rng.randint(-3, 3)) for _ in range(m.ncols)])
        red, pivots = dense_rref([row + [b] for row, b in zip(m.rows, rhs)], m.ncols + 1)
        if m.ncols in pivots:
            with pytest.raises(Inconsistent):
                solve_affine(m, rhs)
            continue
        x = [Fraction(0)] * m.ncols
        for i, p in enumerate(pivots):
            x[p] = red[i][m.ncols]
        assert solve_affine(m, rhs) == (x, dense_kernel(m.rows, m.ncols))
        consistent += 1
    assert consistent >= 40
    with pytest.raises(DimensionMismatch):
        solve_affine(Matrix.identity(2), vec([1]))


def test_inverse_round_trip():
    rng = random.Random(17)
    found = 0
    while found < 10:
        m = rand_matrix(rng, 4, 4)
        if m.rank() < 4:
            continue
        found += 1
        assert m.matmul(m.inverse()) == Matrix.identity(4)


def dense_product(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Textbook triple loop, the oracle for Matrix.matmul."""
    return [
        [sum((a.rows[i][k] * b.rows[k][j] for k in range(a.ncols)), Fraction(0))
         for j in range(b.ncols)]
        for i in range(a.nrows)
    ]


def sparse_rational_matrix(rng: random.Random, m: int, n: int) -> Matrix:
    def entry():
        if rng.random() < 0.7:
            return Fraction(0)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m and n and rng.random() < 0.5:
        rows[rng.randrange(m)] = [Fraction(0)] * n
    if m and n and rng.random() < 0.5:
        j = rng.randrange(n)
        for row in rows:
            row[j] = Fraction(0)
    return Matrix(rows, ncols=n)


def test_matmul_matches_dense_oracle():
    rng = random.Random(2006)
    shapes = [(0, 3, 4), (4, 3, 0), (3, 0, 4), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 7) for _ in range(3)) for _ in range(60)]
    for m, k, n in shapes:
        a = sparse_rational_matrix(rng, m, k)
        b = sparse_rational_matrix(rng, k, n)
        product = a.matmul(b)
        assert (product.nrows, product.ncols) == (m, n)
        assert product.rows == dense_product(a, b)
        assert all(isinstance(x, Fraction) for row in product.rows for x in row)
    assert Matrix.zeros(3, 4).matmul(Matrix.zeros(4, 2)) == Matrix.zeros(3, 2)


def test_matvec_matches_dense_oracle():
    rng = random.Random(2007)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(60)]
    for m, k in shapes:
        a = sparse_rational_matrix(rng, m, k)
        v = sparse_rational_matrix(rng, k, 1).rows
        product = a.matvec([row[0] for row in v])
        assert product == [row[0] for row in dense_product(a, Matrix(v, ncols=1))]
        assert all(isinstance(x, Fraction) for x in product)
    assert Matrix([[1, 2]]).matvec([3, 4]) == [Fraction(11)]
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3).matvec([Fraction(0)] * 2)


def test_subspace_coordinates_match_solve():
    # coordinates read off the pivots and proved by one product agree with
    # Matrix.solve on the transposed basis: inside the span, outside it,
    # and on plain int vectors, as the B^{0,2} membership check sends them
    rng = random.Random(2008)
    for m in oracle_cases(rng, 120):
        s = Subspace(m.ncols, m.rows)
        basis_t = Matrix.from_columns(s.basis, nrows=m.ncols)
        inside = m.transpose().matvec([Fraction(rng.randint(-5, 5)) for _ in range(m.nrows)])
        outside = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m.ncols)]
        ints = [rng.randint(-5, 5) for _ in range(m.ncols)]
        for v in (inside, outside, ints, *s.basis[:1]):
            try:
                expected = basis_t.solve(v)
            except Inconsistent:
                assert s.coordinates(v) is None and not s.contains(v)
            else:
                assert s.coordinates(v) == expected and s.contains(v)
                assert all(type(x) is Fraction for x in s.coordinates(v))
        assert s.coordinates(inside) is not None
    with pytest.raises(DimensionMismatch):
        Subspace(2, [[1, 0]]).coordinates([Fraction(1)])
    with pytest.raises(InputError):
        Subspace(2, [[1, 0]]).coordinates(["1/0", 0])


def test_matmul_shape_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(2, 3).matmul(Matrix.zeros(2, 3))
    with pytest.raises(DimensionMismatch):
        Matrix.zeros(0, 1).matmul(Matrix.zeros(0, 1))


def test_inverse_singular_raises():
    with pytest.raises(Inconsistent):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_inverse_and_kernel_shapes():
    # the integer routes behind Matrix.inverse and Matrix.kernel keep the
    # degenerate shapes, the messages and the Fraction entries
    assert Matrix.zeros(0, 0).inverse() == Matrix.zeros(0, 0)
    for m in (Matrix.zeros(2, 3), Matrix.zeros(0, 2)):
        with pytest.raises(DimensionMismatch, match="only square matrices can be inverted"):
            m.inverse()
    with pytest.raises(Inconsistent, match="matrix is singular"):
        Matrix([["1/2", 1], [1, 2]]).inverse()
    inv = Matrix([["1/2", 0], [3, "-2/3"]]).inverse()
    assert inv.rows == [[2, 0], [9, Fraction(-3, 2)]]
    assert all(type(x) is Fraction for row in inv.rows for x in row)
    assert Matrix.zeros(0, 2).kernel() == [vec([1, 0]), vec([0, 1])]
    assert Matrix.zeros(2, 0).kernel() == []
    ker = Matrix([[2, 4, 0, 6], [0, 3, 1, 2]]).kernel()
    assert ker == [vec(["2/3", "-1/3", 1, 0]), vec(["-5/3", "-2/3", 0, 1])]
    assert all(type(x) is Fraction for v in ker for x in v)


def test_coordinates_and_contains():
    s = Subspace(3, [[1, 1, 0], [0, 0, 1]])
    c = s.coordinates(vec([2, 2, 5]))
    assert c is not None
    rebuilt = [Fraction(0)] * 3
    for co, row in zip(c, s.basis):
        rebuilt = [r + co * x for r, x in zip(rebuilt, row)]
    assert rebuilt == vec([2, 2, 5])
    assert not s.contains(vec([1, 0, 0]))


def test_fraction_strings_parse():
    m = Matrix([["1/2", "-3"], ["0", "7/5"]])
    assert m.rows[0][0] == Fraction(1, 2)
    assert m.rows[1][1] == Fraction(7, 5)


@pytest.mark.parametrize("text", [
    "0", "7", "-7", "007", "-0", "123456789012345678901234567890", "\u0663",
    "-\u0663", "", "-", "--7", "1_0", " 7", "7 ", "+7", "3/4", "-3/4", "1.5",
    "1e3", "\u00b2", "x", "1/0",
])
def test_frac_reads_strings_as_fraction_does(text):
    # plain integer strings take a faster route; every string must still
    # give Fraction(text), or be rejected exactly when Fraction rejects it
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError):
            frac(text)
    else:
        value = frac(text)
        assert type(value) is Fraction and value == expected


def test_subspace_integer_rows_clear_the_basis():
    # a Subspace built from generators and one built from_echelon over the
    # same rows cleared of denominators agree on basis, pivots and
    # integer_rows, and the integer rows are the ones clear_denominators
    # gives for the canonical basis
    for m in oracle_cases(random.Random(2011), 200):
        from_gens = Subspace(m.ncols, m.rows)
        echelon = IntegerEchelon(clear_denominators(row) for row in m.rows)
        from_ints = Subspace.from_echelon(m.ncols, echelon)
        assert from_gens.basis == from_ints.basis == dense_span(m.rows, m.ncols)
        assert from_gens.pivots == from_ints.pivots
        expected = [clear_denominators(v) for v in from_gens.basis]
        assert from_gens.integer_rows == expected == from_ints.integer_rows
        assert all(type(x) is int for row in expected for x in row)
        assert all(type(x) is Fraction for row in from_gens.basis for x in row)
        assert all(row[p] > 0 for row, p in zip(expected, from_gens.pivots))


def oracle_cases(rng, count):
    """Seeded sparse rational matrices with zero, repeated and combined
    rows and entries up to 10^30, after the degenerate shapes."""
    cases = [Matrix.zeros(0, 3), Matrix.zeros(3, 0), Matrix.zeros(0, 0),
             Matrix([[0]]), Matrix([["-7/3"]]), Matrix.identity(5)]
    for _ in range(count):
        m = sparse_rational_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        rows = [row[:] for row in m.rows]
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), rows[rng.randrange(len(rows))][:])
        if rng.random() < 0.3:
            big = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20))
            rows[rng.randrange(len(rows))][rng.randrange(m.ncols)] = big
        if rng.random() < 0.3:
            c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
            rows.append([c * a - b for a, b in zip(rows[0], rows[-1])])
        cases.append(Matrix(rows, ncols=m.ncols))
    return cases


def test_rank_matches_rref_oracle():
    for m in oracle_cases(random.Random(2009), 200):
        assert m.rank() == len(dense_rref(m.rows, m.ncols)[1])
        assert m.transpose().rank() == m.rank()


def test_rref_matches_dense_oracle():
    rng = random.Random(2010)
    for m in oracle_cases(rng, 300):
        red, pivots = m.rref()
        expected, expected_pivots = dense_rref(m.rows, m.ncols)
        assert (red.nrows, red.ncols) == (m.nrows, m.ncols)
        assert red.rows == expected and pivots == expected_pivots
        assert all(type(x) is Fraction for row in red.rows for x in row)
        assert m.kernel() == dense_kernel(m.rows, m.ncols)
        ints = IntegerEchelon(clear_denominators(row) for row in m.rows)
        assert Subspace(m.ncols, ints.kernel(m.ncols)) == Subspace(m.ncols, m.kernel())
        assert Subspace.from_echelon(m.ncols, ints) == Subspace(m.ncols, m.rows)
        rhs = m.matvec([Fraction(rng.randint(-5, 5)) for _ in range(m.ncols)])
        rhs_red, rhs_pivots = dense_rref(
            [row + [b] for row, b in zip(m.rows, rhs)], m.ncols + 1)
        solution = [Fraction(0)] * m.ncols
        for i, p in enumerate(rhs_pivots):
            solution[p] = rhs_red[i][m.ncols]
        assert m.solve(rhs) == solution
        if m.nrows == m.ncols and len(expected_pivots) == m.ncols:
            n = m.ncols
            identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            inv_red, _ = dense_rref([row + e for row, e in zip(m.rows, identity)], 2 * n)
            assert m.inverse().rows == [row[n:] for row in inv_red]


def test_integer_echelon_keeps_primitive_rows():
    assert clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == [3, -4, 24]
    assert clear_denominators([]) == []
    echelon = IntegerEchelon()
    assert echelon.add([0, -4, 6])
    assert not echelon.add([0, 2, -3])
    assert echelon.add([3, 1, 1])
    assert not echelon.add({0: 6, 2: 5})
    assert not echelon.add([0, 0, 0])
    assert echelon.add([0, 0, 7])
    assert len(echelon) == 3
    assert echelon._rows == {1: {1: 2, 2: -3}, 0: {0: 3, 1: 1, 2: 1}, 2: {2: 1}}
    assert echelon.reduced() == ([{0: 1}, {1: 1}, {2: 1}], [0, 1, 2])
    assert len(IntegerEchelon([[1, 2], [2, 4], [0, 0]])) == 1


def test_integer_echelon_back_substitutes_and_reads_kernels():
    echelon = IntegerEchelon([[2, 4, 0, 6], [0, 3, 1, 2], [4, 11, 1, 14]])
    assert echelon.reduced() == ([{0: 3, 2: -2, 3: 5}, {1: 3, 2: 1, 3: 2}], [0, 1])
    assert echelon.kernel(4) == [[2, -1, 3, 0], [-5, -2, 0, 3]]
    assert IntegerEchelon().kernel(2) == [[1, 0], [0, 1]]
    assert IntegerEchelon([[0, 5]]).kernel(2) == [[1, 0]]
