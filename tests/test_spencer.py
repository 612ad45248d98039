from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest

from involutive.bases import GradedCoords, koszul_delta_full
from involutive.errors import DimensionMismatch, Inconsistent, NotInImage, StructureViolation
from involutive.linalg import Matrix, Subspace
from involutive.spencer import (
    HarmonicSplit,
    SpencerCell,
    codifferential,
    cohomology_dim,
    delta,
    harmonic_split,
    is_two_acyclic,
    sigma,
    spencer_table,
    two_acyclicity_report,
)
from involutive.tableau import Tableau, cartan_test


def full_tableau(n, r):
    gens = []
    for b in range(r):
        for i in range(n):
            m = [[Fraction(0)] * n for _ in range(r)]
            m[b][i] = Fraction(1)
            gens.append(m)
    return Tableau(n, r, gens)


def wavemap1_tableau():
    # one-dimensional fiber pair: A = span{f_0 (x) e_1*, f_1 (x) e_0*}
    return Tableau(2, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])


def diag_tableau():
    return Tableau(2, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def skew_tableau():
    return Tableau(2, 2, [[[0, 1], [-1, 0]]])


def random_tableau(rng, n, r, want):
    raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n * r)] for _ in range(want)]
    span = Subspace(n * r, raw)
    return Tableau.from_vectors(n, r, span.basis) if span.dim else Tableau(n, r, [])


def test_cell_dimensions():
    t = wavemap1_tableau()
    for q in range(4):
        prev = t.b_dim if q == 0 else t.level(q - 1).dim
        for p in range(3):
            assert SpencerCell(t, q, p).dim == prev * comb(2, p)


def test_cell_coordinates_match_solve_oracle():
    # pivot-read coordinates against a fresh elimination of the embedding
    rng = random.Random(2010)
    cases = [full_tableau(2, 1), wavemap1_tableau(), skew_tableau(), Tableau(2, 2, [])]
    while len(cases) < 16:
        # unreduced generators, so the q = 1 cells need a nontrivial inverse
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n * r)]
               for _ in range(rng.randint(1, n * r))]
        if Subspace(n * r, raw).dim == len(raw):
            cases.append(Tableau.from_vectors(n, r, raw))
    for t in cases:
        for q in range(3):
            for p in range(t.a_dim + 1):
                cell = SpencerCell(t, q, p)
                coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cell.dim)]
                inside = cell.embed_coords(coeffs)
                assert cell.coordinates_of(inside) == cell.embed.solve(inside) == coeffs
                outside = [Fraction(rng.randint(-2, 2)) for _ in range(cell.embed.nrows)]
                try:
                    expected = cell.embed.solve(outside)
                except Inconsistent:
                    with pytest.raises(NotInImage):
                        cell.coordinates_of(outside)
                else:
                    assert cell.coordinates_of(outside) == expected
                if q == 0 or p == t.a_dim:
                    continue
                target = SpencerCell(t, q - 1, p + 1)
                image = koszul_delta_full(t.a_dim, t.b_dim, q, p).matmul(cell.embed)
                oracle = [target.embed.solve(col) for col in image.transpose().rows]
                d = delta(cell)
                assert d.transpose().rows == oracle
                split = HarmonicSplit(t, q, p)
                if split.b_down.dim:
                    bd = Matrix.from_columns(split.b_down.basis, nrows=cell.dim)
                    restricted = d.matmul(bd)
                    image_basis = Subspace(target.dim, d.transpose().rows).basis
                    assert split.sigma_matrix.transpose().rows == [
                        restricted.solve(w) for w in image_basis
                    ]
                    assert split.sigma_on_cell_coords(image_basis[0]) == bd.matvec(
                        restricted.solve(image_basis[0])
                    )


def test_complex_lines_euler_characteristic_and_delta_squared():
    # each line q + p = m is a finite complex C^{m,0} -> ... -> C^{0,m}
    # (cells with p > n are zero): its alternating sum of cell dimensions
    # equals that of its cohomology, and consecutive differentials compose
    # to zero
    rng = random.Random(1992)
    cases = [Tableau(1, 1, []), Tableau(3, 2, [])]
    while len(cases) < 32:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(random_tableau(rng, n, r, rng.randint(1, 3)))
    for t in cases:
        for m in range(4):
            cells = [SpencerCell(t, m - p, p) for p in range(m + 1)]
            deltas = [delta(cell) for cell in cells]
            assert sum((-1) ** p * cell.dim for p, cell in enumerate(cells)) == sum(
                (-1) ** p * cohomology_dim(t, m - p, p) for p in range(m + 1)
            )
            for p in range(m):
                assert deltas[p].nrows == cells[p + 1].dim
                composed = deltas[p + 1].matmul(deltas[p])
                assert all(x == 0 for row in composed.rows for x in row)


def test_delta_leaving_target_cell_raises():
    # a corrupted A^(1) (all of b (x) S^2) is not the prolongation of A
    t = Tableau(2, 2, [[[1, 0], [0, 0]]])
    t._levels.append(Subspace.full(2 * 3))
    with pytest.raises(StructureViolation):
        delta(SpencerCell(t, 2, 0))


def test_delta_squared_zero_wavemap():
    t = wavemap1_tableau()
    for q in range(1, 4):
        for p in range(0, 2):
            d1 = delta(SpencerCell(t, q, p))
            if q == 1 or p + 1 > 2:
                continue
            d2 = delta(SpencerCell(t, q - 1, p + 1))
            prod = d2.matmul(d1)
            assert all(x == 0 for row in prod.rows for x in row)


def test_delta_injective_at_p_zero():
    rng = random.Random(5)
    cases = [full_tableau(2, 1), wavemap1_tableau(), skew_tableau()]
    cases += [random_tableau(rng, 2, 2, 2) for _ in range(5)]
    for t in cases:
        cell = SpencerCell(t, 1, 0)
        assert delta(cell).rank() == cell.dim


def test_zero_tableau_cells():
    t = Tableau(2, 2, [])
    for q in range(1, 4):
        cell = SpencerCell(t, q, 1)
        assert cell.dim == 0
        assert delta(cell).rank() == 0
        assert cohomology_dim(t, q, 1) == 0


def test_involutive_tableau_has_zero_cohomology():
    for t in [full_tableau(2, 1), diag_tableau()]:
        assert cartan_test(t, seed=2)["involutive"]
        for q in range(1, 4):
            for p in range(0, 3):
                assert cohomology_dim(t, q, p) == 0


def test_wavemap_surjectivity_cohomology():
    t = wavemap1_tableau()
    assert cohomology_dim(t, 0, 2) == 0
    assert cohomology_dim(t, 1, 2) == 0


def test_kernel_of_delta_q1_is_prolongation():
    rng = random.Random(6)
    cases = [wavemap1_tableau(), diag_tableau()]
    cases += [random_tableau(rng, 2, 2, rng.randint(1, 3)) for _ in range(4)]
    for t in cases:
        for q in range(1, 4):
            cell = SpencerCell(t, q, 1)
            ker_dim = cell.dim - delta(cell).rank()
            assert ker_dim == t.level(q).dim


def test_two_acyclic_examples():
    assert is_two_acyclic(wavemap1_tableau(), q_cap=3)
    assert is_two_acyclic(full_tableau(2, 2), q_cap=3)
    rep = two_acyclicity_report(diag_tableau(), q_cap=3, seed=4)
    assert rep["two_acyclic"]
    assert rep["involutive_index"] == 0
    # regression baseline for the diagonal tableau: all H^{q,2} vanish
    assert rep["H_q2_dims"] == {1: 0, 2: 0, 3: 0}
    assert rep["checked_q_range"][0] == 1


def test_harmonic_split_full_tableau_cell_11():
    split = harmonic_split(full_tableau(2, 1), 1, 1)
    assert split.dims() == (3, 0, 1)


def test_harmonic_split_cell_00():
    split = harmonic_split(wavemap1_tableau(), 0, 0)
    assert split.dims() == (0, 2, 0)
    assert split.harmonic == Subspace(2, Matrix.identity(2).rows)


def test_harmonic_split_dims_sum_and_match_cohomology():
    rng = random.Random(7)
    cases = [full_tableau(2, 1), wavemap1_tableau(), skew_tableau(), diag_tableau()]
    cases += [random_tableau(rng, rng.randint(1, 3), rng.randint(1, 3), 2) for _ in range(4)]
    for t in cases:
        for q in range(0, 3):
            for p in range(0, t.a_dim + 1):
                split = harmonic_split(t, q, p)
                b, h, bd = split.dims()
                assert b + h + bd == split.cell.dim
                assert h == cohomology_dim(t, q, p)


def test_adjointness_exact():
    rng = random.Random(8)
    for t in [wavemap1_tableau(), full_tableau(2, 2), skew_tableau()]:
        for (q, p) in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            cell = SpencerCell(t, q, p)
            dst = SpencerCell(t, q - 1, p + 1)
            if cell.dim == 0 or dst.dim == 0:
                continue
            d = delta(cell)
            dstar = codifferential(t, q, p)
            for _ in range(5):
                zeta = [Fraction(rng.randint(-4, 4)) for _ in range(dst.dim)]
                rho = [Fraction(rng.randint(-4, 4)) for _ in range(cell.dim)]
                left = sum(
                    a * b
                    for a, b in zip(cell.gram.matvec(dstar.matvec(zeta)), rho)
                )
                right = sum(
                    a * b for a, b in zip(dst.gram.matvec(zeta), d.matvec(rho))
                )
                assert left == right


def test_involutivity_iff_vanishing_cohomology_corpus():
    rng = random.Random(9)
    corpus = [
        full_tableau(2, 1),
        full_tableau(2, 2),
        full_tableau(3, 1),
        wavemap1_tableau(),
        diag_tableau(),
        skew_tableau(),
        Tableau(2, 2, [[[1, 0], [0, 0]]]),
    ]
    while len(corpus) < 22:
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        corpus.append(random_tableau(rng, n, r, rng.randint(0, min(4, n * r))))
    for t in corpus:
        involutive = cartan_test(t, seed=rng.randrange(10**6))["involutive"]
        all_zero = all(
            cohomology_dim(t, q, p) == 0
            for q in range(1, 4)
            for p in range(0, t.a_dim + 1)
        )
        assert involutive == all_zero, (t.a_dim, t.b_dim, t.dim)


def test_sigma_round_trip_and_zero():
    t = full_tableau(2, 1)
    s = sigma(t, 2, 0)
    cell = SpencerCell(t, 2, 0)
    split = harmonic_split(t, 2, 0)
    d = delta(cell)
    rng = random.Random(10)
    zero = GradedCoords(1, 1, [Fraction(0)] * 4)
    assert all(x == 0 for x in s(zero).coords)
    for _ in range(6):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(split.b_down.dim)]
        v = [
            sum(c * bv[i] for c, bv in zip(coeffs, split.b_down.basis))
            for i in range(cell.dim)
        ]
        w = d.matvec(v)
        dst = SpencerCell(t, 1, 1)
        target = GradedCoords(1, 1, dst.embed_coords(w))
        back = s(target)
        assert back.coords == cell.embed_coords(v)


def test_sigma_membership_errors():
    t = full_tableau(2, 1)
    s = sigma(t, 2, 0)
    split = harmonic_split(t, 1, 1)
    dst = SpencerCell(t, 1, 1)
    bad = split.b_down.basis[0]
    with pytest.raises(NotInImage):
        s(GradedCoords(1, 1, dst.embed_coords(bad)))
    with pytest.raises(DimensionMismatch):
        s(GradedCoords(0, 1, [Fraction(0)] * 2))
    t2 = Tableau(2, 2, [[[1, 0], [0, 0]]])
    s2 = sigma(t2, 2, 0)
    outside = [Fraction(0)] * 8
    outside[(1 * 2 + 0) * 2 + 1] = Fraction(1)  # f_1 (x) e_0* (x) e_1*: not in the cell
    with pytest.raises(NotInImage):
        s2(GradedCoords(1, 1, outside))


def test_sigma_delta_identity_on_split():
    # delta o sigma = id on B^{q-1,p+1}, via the stored square matrix
    t = wavemap1_tableau()
    split = harmonic_split(t, 1, 1)
    assert split.sigma_matrix.nrows == split.b_down.dim


def test_spencer_table():
    t = full_tableau(2, 1)
    table = spencer_table(t, 2)
    assert table["0,0"] == {"dim_cell": 1, "rank_delta": 0, "H_dim": 1}
    assert table["1,1"]["dim_cell"] == 4
    assert table["1,1"]["H_dim"] == 0
    assert set(table.keys()) == {"%d,%d" % (q, p) for q in range(3) for p in range(3)}


def test_cells_computable_concurrently():
    t = wavemap1_tableau()
    grid = [(q, p) for q in range(3) for p in range(3)]
    serial = [cohomology_dim(t, q, p) for q, p in grid]
    with ThreadPoolExecutor(max_workers=6) as ex:
        parallel = list(ex.map(lambda qp: cohomology_dim(t, *qp), grid))
    assert serial == parallel
