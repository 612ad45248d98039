from __future__ import annotations

import random
import re
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
import math
from math import comb

import pytest

from dense_oracles import (
    AdjointHarmonicSplit,
    _adjoint,
    adjoint_sigma,
    dense_cohomology_dim,
    tableau_from_vectors,
)
from involutive.bases import GradedCoords, koszul_delta_full
from involutive.errors import (
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InputError,
    NotInImage,
    StructureViolation,
)
from involutive.cli import EXAMPLE_NAMES, build_example
from involutive.linalg import (
    Matrix,
    Subspace,
    clear_denominators,
    cleared,
    integer_columns,
)
from involutive.spencer import (
    HarmonicSplit,
    SpencerCell,
    _delta_rank,
    _orthogonal,
    codifferential,
    cohomology_dim,
    delta,
    harmonic_split,
    sigma,
    two_acyclicity_report,
)
from involutive.tableau import DEFAULT_MAX_DIM, Tableau, cartan_test


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


def infinite_type_tableau():
    """The first-order reduction of the Gorenstein algebra k[x,y,z]/I with
    Hilbert function (1, 3, 1), I the quadrics apolar to x^2 + y^2 + z^2,
    with a free fourth variable: n = r = 4 and generators diag(1,1,1,0),
    E_i3 + E_3i (i = 0, 1, 2) and E_33.  Characters (4, 1, 0, 0) at order
    0 and (5, 0, 0, 0) from order 1, so k = 1 with s != 0 at k."""
    def unit(i, j):
        m = [[0] * 4 for _ in range(4)]
        m[i][j] = m[j][i] = 1
        return m

    diag = [[1 if a == b < 3 else 0 for b in range(4)] for a in range(4)]
    return Tableau(4, 4, [diag] + [unit(i, 3) for i in range(4)])


def third_derivative_tableau(cubic):
    """The tableau of a cubic form F, given as {sorted index triple:
    coefficient}, in N variables: n = r = N, and generator i is the
    matrix (d_i d_a d_b F)_{a,b}.  A is the degree-2 part of the inverse
    system of F, A^(1) is spanned by F and A^(2) = 0, so the index k is 2
    when A^(1) is not involutive."""
    num = 1 + max(max(key) for key in cubic)

    def third(*idx):
        key = tuple(sorted(idx))
        return cubic.get(key, 0) * math.prod(
            math.factorial(key.count(v)) for v in set(key)
        )

    return Tableau(num, num, [
        [[third(i, a, b) for b in range(num)] for a in range(num)]
        for i in range(num)
    ])


# F = x2 x3^2 + x1 x3 x4 + x0 x4^2 + x0 x2 x4 + x0 x1 x2: dim A^(h) = 5, 1,
# 0, and 2-acyclic for q <= 3, so the Cauchy problem sits at k = 2
INDEX_TWO_CUBIC = {(2, 3, 3): 1, (1, 3, 4): 1, (0, 4, 4): 1, (0, 2, 4): 1,
                   (0, 1, 2): 1}


def random_tableau(rng, n, r, want):
    raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n * r)] for _ in range(want)]
    span = Subspace(n * r, raw)
    return tableau_from_vectors(n, r, span.basis) if span.dim else Tableau(n, r, [])


def test_cell_dimensions():
    t = wavemap1_tableau()
    for q in range(4):
        prev = t.b_dim if q == 0 else t.level(q - 1).dim
        for p in range(3):
            assert SpencerCell(t, q, p).dim == prev * comb(2, p)


def test_cell_coordinates_match_solve_oracle():
    # jet-coordinate cells and contraction-built delta against a fresh
    # elimination of the embedding and the dense Koszul differential
    rng = random.Random(2010)
    cases = [full_tableau(2, 1), wavemap1_tableau(), skew_tableau(), Tableau(2, 2, [])]
    while len(cases) < 16:
        # unreduced generators, so the q = 1 cells need a nontrivial inverse
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n * r)]
               for _ in range(rng.randint(1, n * r))]
        if Subspace(n * r, raw).dim == len(raw):
            cases.append(tableau_from_vectors(n, r, raw))
    for t in cases:
        for q in range(4):
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
                    assert _preimages(split, image_basis) == [
                        bd.matvec(restricted.solve(w)) for w in image_basis
                    ]


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
    assert two_acyclicity_report(wavemap1_tableau(), q_cap=3)["two_acyclic"]
    assert two_acyclicity_report(full_tableau(2, 2), q_cap=3)["two_acyclic"]
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
                assert b + h + bd == split.dim
                assert h == cohomology_dim(t, q, p)


def memoised(t, name):
    """The arguments of every value that the tableau's memo holds for
    the function name."""
    return {key[1:] for key in t._memo if key[0] == name}


def _outcome(build):
    """The result of build(), or the type of the error it raised."""
    try:
        return build()
    except Exception as exc:  # the type is what the routes must agree on
        return type(exc)


def _preimages(split, targets):
    """split.sigma_on_columns on targets, vectors in C^{q-1,p+1}
    coordinates taken as the columns of one matrix: one preimage vector
    in C^{q,p} per target."""
    m = split.d_out.nrows
    rows, den = cleared(Matrix(targets, m))
    x, x_den = split.sigma_on_columns(integer_columns(rows, m), den, len(targets))
    return [[Fraction(v, x_den) for v in column]
            for column in integer_columns(x, len(targets))]


def _image_basis(split):
    """The canonical basis of the image of delta out of the split's cell."""
    d = split.d_out
    return Subspace(d.nrows, d.transpose().rows).basis


def _split_record(split):
    return (
        split.dims(),
        split.b_up.basis,
        split.harmonic.basis,
        split.b_down.basis,
        _preimages(split, _image_basis(split)),
        (split.d_out.nrows, split.d_out.ncols, split.d_out.rows),
    )


def test_gram_complement_split_matches_the_adjoint_route():
    # the split read off its own cell's Gram matrix against the three-cell
    # adjoint route, bit for bit; each route runs on its own copy of the
    # tableau, so a small cap fails at the same cell on both
    rng = random.Random(2006)
    cases = [Tableau(1, 1, [[[1]]]), Tableau(1, 2, []), Tableau(2, 2, []),
             Tableau(3, 1, []), full_tableau(2, 1), wavemap1_tableau(),
             skew_tableau(), diag_tableau()]
    while len(cases) < 44:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(random_tableau(rng, n, r, rng.randint(0, min(4, n * r))))
    seen = {"records": 0, "errors": set(), "sigma": 0}
    for t in cases:
        blob = t.to_json_dict()
        max_dim = rng.choice((DEFAULT_MAX_DIM, 12))
        fresh = Tableau.from_json_dict(blob, max_dim)
        old = Tableau.from_json_dict(blob, max_dim)
        n = t.a_dim
        for q in range(-1, 4):
            for p in range(-1, n + 2):
                got = _outcome(lambda: HarmonicSplit(fresh, q, p))
                want = _outcome(lambda: AdjointHarmonicSplit(old, q, p))
                seen["records"] += 1
                if isinstance(want, type):
                    assert got is want, (blob, q, p)
                    seen["errors"].add(want)
                    continue
                assert _split_record(got) == _split_record(want), (blob, q, p)
                s_new = _outcome(lambda: sigma(fresh, q, p))
                s_old = _outcome(lambda: adjoint_sigma(old, q, p))
                if isinstance(s_old, type):
                    assert s_new is s_old, (blob, q, p)
                    continue
                target = SpencerCell(fresh, q - 1, p + 1)
                for _ in range(3):
                    v = [Fraction(rng.randint(-3, 3)) for _ in range(got.dim)]
                    image = GradedCoords(
                        q - 1, p + 1, target.embed_coords(got.d_out.matvec(v))
                    )
                    assert s_new(image).coords == s_old(image).coords
                    seen["sigma"] += 1
                stray = GradedCoords(q - 1, p + 1, [
                    Fraction(rng.randint(-2, 2)) for _ in range(target.embed.nrows)
                ])
                a, b = _outcome(lambda: s_new(stray)), _outcome(lambda: s_old(stray))
                assert a is b if isinstance(b, type) else a.coords == b.coords
    assert seen["records"] >= 600 and seen["sigma"] >= 100, seen
    assert {InputError, CapExceeded} <= seen["errors"], seen


def _throwaway_split():
    """A fresh split of C^{1,3} of the infinite-type tableau, where B, H
    and B_ are all nonzero (dims 15, 1, 4), with the integer rows of its
    incoming differential, dim Ker delta and the Gram matrix of the
    reference cell."""
    t = infinite_type_tableau()
    split = HarmonicSplit(t, 1, 3)
    assert all(split.dims())
    d_in = cleared(delta(SpencerCell(t, 2, 2)))[0]
    return split, d_in, split.dim - split.d_out.rank(), SpencerCell(t, 1, 3).gram


def _functional(gram, v):
    """The integer row (G v)^T up to a positive factor, pairing a cell
    vector with v."""
    return clear_denominators(gram.matvec(v))


@pytest.mark.parametrize("premise", [
    "b_down_not_orthogonal_to_b", "harmonic_missing_a_vector",
    "delta_squared_nonzero", "harmonic_outside_ker_delta", "ker_delta_dim",
])
def test_each_split_certificate_check_fails_on_its_own(premise):
    split, d_in, ker_dim, gram = _throwaway_split()
    split._verify(d_in, ker_dim)
    dim = split.dim
    if premise == "b_down_not_orthogonal_to_b":
        first = [a + b for a, b in zip(split.b_down.basis[0], split.b_up.basis[0])]
        split.b_down = Subspace(dim, [first] + split.b_down.basis[1:])
        message = "are not orthogonal"
    elif premise == "harmonic_missing_a_vector":
        split.harmonic = Subspace(dim, split.harmonic.basis[1:])
        message = "do not sum to the cell"
    elif premise == "delta_squared_nonzero":
        # <b, .> with b in B kills H but not Im delta_in
        split._d_out_rows = split._d_out_rows + [_functional(gram, split.b_up.basis[0])]
        message = "Ker delta != B (+) H"
    elif premise == "harmonic_outside_ker_delta":
        # <h, .> with h in H kills Im delta_in but not H
        split._d_out_rows = split._d_out_rows + [
            _functional(gram, split.harmonic.basis[0])]
        message = "Ker delta != B (+) H"
    else:
        ker_dim += 1
        message = "Ker delta != B (+) H"
    with pytest.raises(StructureViolation, match=re.escape(message)):
        split._verify(d_in, ker_dim)


def test_sigma_check_refuses_a_b_down_that_meets_ker_delta():
    # delta is injective on B_{q,p} only because B_ misses Ker delta; a
    # b_down with a vector of H in it leaves R = D_out B_down^T singular
    split = _throwaway_split()[0]
    h = split.harmonic.basis[0]
    split.b_down = Subspace(split.dim, [h] + split.b_down.basis[1:])
    with pytest.raises(StructureViolation,
                       match=re.escape("sigma failed to invert delta at (q,p)=(1,3)")):
        split._build_sigma()


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


def test_codifferential_matches_the_dense_adjoint():
    # G_src^{-1} D^T G_dst from the integer jet Gram matrices against the
    # adjoint formed with the Gram matrices of the dense cells, bit for bit
    rng = random.Random(2035)
    cases = [full_tableau(2, 2), wavemap1_tableau(), skew_tableau(),
             Tableau(2, 2, []), Tableau(1, 1, [[[1]]]), full_tableau(3, 1)]
    while len(cases) < 24:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(random_tableau(rng, n, r, rng.randint(0, min(4, n * r))))
    nonzero = 0
    for t in cases:
        for q in range(1, 4):
            for p in range(t.a_dim):
                cell, dst = SpencerCell(t, q, p), SpencerCell(t, q - 1, p + 1)
                got = codifferential(t, q, p)
                assert got == _adjoint(delta(cell), cell.gram, dst.gram), (
                    t.to_json_dict(), q, p)
                nonzero += any(map(any, got.rows))
    assert nonzero >= 60, nonzero


@pytest.mark.parametrize("q, p, error", [
    (0, 0, "codifferential needs q >= 1, got 0"),
    (0, -1, "codifferential needs q >= 1, got 0"),
    (1, 2, "codifferential needs p < a_dim, got p = 2"),
    (2, 3, "codifferential needs p < a_dim, got p = 3"),
    (1, -1, "codifferential needs p >= 0, got -1"),
])
def test_codifferential_errors(q, p, error):
    with pytest.raises(InputError) as info:
        codifferential(full_tableau(2, 2), q, p)
    assert str(info.value) == error


@pytest.mark.parametrize("build, q, p, error", [
    (SpencerCell, -1, 0, "SpencerCell needs q >= 0, got -1"),
    (SpencerCell, 1, -1, "SpencerCell needs p >= 0, got -1"),
    (cohomology_dim, -1, 0, "cohomology_dim needs q >= 0, got -1"),
    (cohomology_dim, 1, -1, "cohomology_dim needs p >= 0, got -1"),
    (harmonic_split, 0, -1, "harmonic_split needs p >= 0, got -1"),
    (sigma, 0, 0, "sigma needs q >= 1, got 0"),
    (sigma, 1, -1, "sigma needs p >= 0, got -1"),
    (sigma, 1, 2, "sigma needs p < a_dim, got p = 2"),
    (adjoint_sigma, 1, -1, "sigma needs p >= 0, got -1"),
])
def test_bidegree_errors_name_the_entry_point(build, q, p, error):
    # every (q, p) check of the spencer layer has one text, naming the
    # function that refused the bidegree; the oracle sigma shares it
    with pytest.raises(InputError) as info:
        build(full_tableau(2, 2), q, p)
    assert str(info.value) == error


def test_splits_sigma_and_codifferential_build_no_cell(monkeypatch):
    # a harmonic split, its sigma_on_columns and the codifferential read
    # the jet Gram matrices and the contractions; the dense SpencerCell is
    # only the reference the tests compare against
    def refuse(*args):
        raise AssertionError("a dense Spencer cell was built")

    tableaux = [build_example(name).tableau for name in EXAMPLE_NAMES]
    tableaux.append(full_tableau(2, 2))
    monkeypatch.setattr(SpencerCell, "__init__", refuse)
    solved = 0
    for t in tableaux:
        for q in range(4):
            for p in range(t.a_dim + 1):
                split = harmonic_split(t, q, p)
                targets = _image_basis(split)
                for w, x in zip(targets, _preimages(split, targets)):
                    assert split.d_out.matvec(x) == w
                    solved += 1
                if q >= 1 and p < t.a_dim:
                    d_star = codifferential(t, q, p)
                    shape = (d_star.nrows, d_star.ncols)
                    assert shape == (split.dim, split.d_out.nrows)
    assert solved >= 100, solved


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
    # delta o sigma = id on B^{q-1,p+1}, and sigma lands in B_{q,p}
    for t in (wavemap1_tableau(), full_tableau(2, 2), infinite_type_tableau()):
        for q, p in ((1, 0), (1, 1), (2, 1)):
            split = harmonic_split(t, q, p)
            targets = _image_basis(split)
            assert len(targets) == split.b_down.dim
            for w, x in zip(targets, _preimages(split, targets)):
                assert split.d_out.matvec(x) == w
                assert split.b_down.contains(x)


def test_spencer_table():
    t = full_tableau(2, 1)
    cell = SpencerCell(t, 0, 0)
    assert (cell.dim, delta(cell).rank(), cohomology_dim(t, 0, 0)) == (1, 0, 1)
    assert SpencerCell(t, 1, 1).dim == 4
    assert cohomology_dim(t, 1, 1) == 0
    for q in range(3):
        for p in range(3):
            cell = SpencerCell(t, q, p)
            assert cell.dim - delta(cell).rank() >= cohomology_dim(t, q, p) >= 0


def test_cells_computable_concurrently():
    # the parallel pass runs on a fresh tableau, so its threads race the
    # write paths of the levels, contractions and rank memo
    grid = [(q, p) for q in range(3) for p in range(3)]
    serial = [cohomology_dim(wavemap1_tableau(), q, p) for q, p in grid]
    t = wavemap1_tableau()
    with ThreadPoolExecutor(max_workers=6) as ex:
        parallel = list(ex.map(lambda qp: cohomology_dim(t, *qp), grid))
    assert serial == parallel


def test_cohomology_from_memoised_ranks_matches_the_dense_oracle():
    # any query order, on a fresh tableau and again on the warm one,
    # gives the dense count of dim Ker delta - rank of the incoming delta
    rng = random.Random(2024)
    cases = [full_tableau(2, 2), wavemap1_tableau(), Tableau(3, 1, [])]
    for _ in range(6):
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        cases.append(random_tableau(rng, n, r, rng.randint(1, min(3, n * r))))
    for t in cases:
        n = t.a_dim
        grid = [(q, p) for q in range(4) for p in range(n + 1)]
        oracle = Tableau(n, t.b_dim, t.generators)
        want = {qp: dense_cohomology_dim(oracle, *qp) for qp in grid}
        fresh = Tableau(n, t.b_dim, t.generators)
        for _ in range(2):
            rng.shuffle(grid)
            assert {qp: cohomology_dim(fresh, *qp) for qp in grid} == want
        # the grid reads every nonzero delta^{q,p} with q <= 4 exactly
        assert memoised(fresh, "delta_rank") == {
            (q, p) for q in range(1, 5) for p in range(n)
        }


def test_zero_differentials_build_no_cell_and_store_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a zero differential built a cell")

    t = full_tableau(2, 2)
    monkeypatch.setattr(SpencerCell, "__init__", refuse)
    assert [_delta_rank(t, 0, p) for p in range(4)] == [0] * 4
    assert [_delta_rank(t, q, p) for q in range(1, 4) for p in (2, 3)] == [0] * 6
    assert cohomology_dim(t, 0, 0) == 2
    assert [cohomology_dim(t, q, 4) for q in range(4)] == [0] * 4
    assert memoised(t, "delta_rank") == set()


def test_orthogonality_is_read_through_the_gram_matrix():
    g = [[2, 1], [1, 1]]
    u = Subspace(2, [[1, 0]])
    assert _orthogonal(u, Subspace(2, [[1, -2]]), g)
    assert not _orthogonal(u, Subspace(2, [[0, 1]]), g)
    assert not _orthogonal(Subspace(2, [[1, -2], [0, 1]]), u, g)
    # Euclidean orthogonality is not enough
    assert not _orthogonal(u, Subspace(2, [[0, 3]]), g)
    assert _orthogonal(Subspace(2, []), u, g) and _orthogonal(u, Subspace(2, []), g)
