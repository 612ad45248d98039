from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb

import pytest

from dense_oracles import (
    dense_kernel,
    dense_rref,
    dense_span,
    view_route_involutive_index,
)
from involutive import tableau as tableau_module
from involutive.bases import contraction_matrix, multiindex_remove, sym_basis
from involutive.errors import (
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InputError,
    NotInImage,
    StructureViolation,
    UnstableGenericity,
)
from involutive.linalg import Matrix, Subspace
from involutive.tableau import (
    CharacterVector,
    Tableau,
    cartan_test,
    character_partial_sums,
    flatten_generator,
    _sample_flag,
    characters,
    involutive_index,
    prolong_via_intersection,
)


def full_tableau(n, r):
    gens = []
    for b in range(r):
        for i in range(n):
            m = [[Fraction(0)] * n for _ in range(r)]
            m[b][i] = Fraction(1)
            gens.append(m)
    return Tableau(n, r, gens)


def rank_one_tableau():
    # span{f_0 (x) e_0*} inside Hom(Q^2, Q^2)
    return Tableau(2, 2, [[[1, 0], [0, 0]]])


def skew_tableau():
    # span{f_0 (x) e_1* - f_1 (x) e_0*}: not involutive, prolongs to zero
    return Tableau(2, 2, [[[0, 1], [-1, 0]]])


def random_tableau(rng, n, r, want):
    raw = [
        [Fraction(rng.randint(-3, 3)) for _ in range(n * r)] for _ in range(want)
    ]
    span = Subspace(n * r, raw)
    return Tableau.from_vectors(n, r, span.basis) if span.dim else Tableau(n, r, [])


def test_character_vector_invariants():
    cv = CharacterVector([2, 1, 0], b_dim=3)
    assert cv.nu == 2 and cv.principal == 1 and cv.cartan_bound() == 4
    zero = CharacterVector([0, 0], b_dim=2)
    assert zero.nu == 0 and zero.principal == 0
    with pytest.raises(InputError):
        CharacterVector([1, 2], b_dim=3)
    with pytest.raises(InputError):
        CharacterVector([4, 0], b_dim=3)
    with pytest.raises(InputError):
        CharacterVector([1, -1], b_dim=3)


def test_constructor_validation():
    with pytest.raises(InputError):
        Tableau(2, 2, [[[1, 0], [0, 0]], [[2, 0], [0, 0]]])
    with pytest.raises(DimensionMismatch):
        Tableau(2, 2, [[[1, 0, 0], [0, 0, 0]]])
    with pytest.raises(InputError):
        Tableau(0, 2, [])


def test_zero_tableau():
    t = Tableau(2, 2, [])
    assert t.dim == 0
    assert t.prolong().dim == 0
    res = cartan_test(t, seed=5)
    assert res["involutive"] and res["bound"] == 0 and res["dim_A1"] == 0
    assert characters(t, seed=5).s == (0, 0)


def test_full_tableau_prolongations():
    t = full_tableau(2, 1)
    assert t.prolong().dim == 3
    for h in range(4):
        assert t.level(h).dim == comb(2 + h, h + 1)
    t2 = full_tableau(3, 2)
    for h in range(3):
        assert t2.level(h).dim == 2 * comb(3 + h, h + 1)


def test_full_tableau_characters_and_test():
    for n, r in [(2, 1), (2, 2), (3, 2)]:
        cv = characters(full_tableau(n, r), seed=11)
        assert cv.s == tuple([r] * n)
        res = cartan_test(full_tableau(n, r), seed=11)
        assert res["involutive"]


def test_rank_one_tableau():
    t = rank_one_tableau()
    assert t.prolong().dim == 1
    assert t.level(2).dim == 1
    cv = characters(t, seed=3)
    assert cv.s == (1, 0) and cv.nu == 1 and cv.principal == 1
    res = cartan_test(t, seed=3)
    assert res["involutive"] and res["bound"] == 1


def test_skew_tableau_not_involutive_then_stabilizes():
    t = skew_tableau()
    assert t.prolong().dim == 0
    res = cartan_test(t, seed=7)
    assert not res["involutive"]
    assert res["bound"] == 1 and res["dim_A1"] == 0
    out = involutive_index(t, h_max=3, seed=7)
    assert out["k"] == 1
    assert out["involutive_characters"].s == (0, 0)
    with pytest.raises(CapExceeded):
        involutive_index(t, h_max=0, seed=7)


def test_prolong_matches_intersection_route():
    rng = random.Random(20)
    cases = [full_tableau(2, 1), rank_one_tableau(), skew_tableau()]
    for _ in range(12):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        cases.append(random_tableau(rng, n, r, rng.randint(0, n * r)))
    for t in cases:
        assert t.level(1) == prolong_via_intersection(t, 1)
    for t in cases[:6]:
        assert t.level(2) == prolong_via_intersection(t, 2)


def dense_prolong_once(n, r, prev_basis, prev_h):
    """The dense Fraction route from A^(prev_h) to A^(prev_h + 1), kept as
    the oracle: symmetry constraints over the canonical Fraction basis,
    their kernel and the canonical span, all by dense Gauss-Jordan."""
    sb_next = sym_basis(n, prev_h + 2)
    sb_prev = sym_basis(n, prev_h + 1)
    ambient = r * sb_next.size
    d = len(prev_basis)
    if d == 0:
        return []
    unknowns = n * d
    rows = []
    for b in range(r):
        for mono in sb_next.indices:
            distinct = sorted(set(mono))
            for a_pos in range(len(distinct)):
                for b_pos in range(a_pos + 1, len(distinct)):
                    i, j = distinct[a_pos], distinct[b_pos]
                    row = [Fraction(0)] * unknowns
                    red_i = sb_prev.index_of[multiindex_remove(mono, i)]
                    red_j = sb_prev.index_of[multiindex_remove(mono, j)]
                    for beta in range(d):
                        row[i * d + beta] += prev_basis[beta][b * sb_prev.size + red_i]
                        row[j * d + beta] -= prev_basis[beta][b * sb_prev.size + red_j]
                    if any(x != 0 for x in row):
                        rows.append(row)
    out = []
    for q in dense_kernel(rows, unknowns):
        t = [Fraction(0)] * ambient
        for b in range(r):
            for m_idx, mono in enumerate(sb_next.indices):
                i0 = mono[0]
                red = sb_prev.index_of[multiindex_remove(mono, i0)]
                t[b * sb_next.size + m_idx] = sum(
                    (q[i0 * d + beta] * prev_basis[beta][b * sb_prev.size + red]
                     for beta in range(d)), Fraction(0))
        out.append(t)
    return dense_span(out, ambient)


def test_prolong_matches_dense_oracle():
    rng = random.Random(2707)
    pool = [Tableau(1, 1, []), Tableau(3, 2, []), full_tableau(3, 1),
            rank_one_tableau(), skew_tableau()]
    pool += [rational_tableau(rng, 1, r, rng.randint(1, r)) for r in (1, 2, 3)]
    while len(pool) < 30:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        pool.append(rational_tableau(rng, n, r, rng.randint(0, n * r)))
    for t in pool:
        n, r = t.a_dim, t.b_dim
        basis = dense_span([flatten_generator(g) for g in t.generators], n * r)
        assert t.level(0).basis == basis
        for h in range(3):
            basis = dense_prolong_once(n, r, basis, h)
            assert t.level(h + 1).basis == basis


def test_view_at_level_matches_contraction_route():
    rng = random.Random(2708)
    pool = [Tableau(2, 2, []), full_tableau(2, 2), rank_one_tableau(), skew_tableau()]
    while len(pool) < 16:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        pool.append(rational_tableau(rng, n, r, rng.randint(0, n * r)))
    for t in pool:
        n, r = t.a_dim, t.b_dim
        for h in range(1, 3):
            contractions = [contraction_matrix(n, r, h + 1, i) for i in range(n)]
            expected = []
            for v in t.level(h).basis:
                cols = [c.matvec(v) for c in contractions]
                expected.append(Matrix(
                    [[cols[i][beta] for i in range(n)] for beta in range(len(cols[0]))],
                    ncols=n))
            view = t.view_at_level(h)
            assert (view.a_dim, view.b_dim) == (n, r * sym_basis(n, h).size)
            assert list(view.generators) == expected


def test_contraction_matches_dense_route():
    rng = random.Random(4242)
    pool = [Tableau(2, 2, []), Tableau(1, 2, []), full_tableau(1, 3),
            rank_one_tableau(), skew_tableau()]
    pool += [random_tableau(rng, 1, r, rng.randint(1, r)) for r in (1, 2, 3)]
    while len(pool) < 16:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        pool.append(random_tableau(rng, n, r, rng.randint(1, n * r)))
    for t in pool:
        n, r = t.a_dim, t.b_dim
        for h in (1, 2, 3):
            for i in range(n):
                dense = contraction_matrix(n, r, h + 1, i)
                cols = [t.jet_coordinates(h - 1, dense.matvec(v))
                        for v in t.level(h).basis]
                expected = Matrix.from_columns(cols, nrows=t.dim_at(h - 1))
                assert t.contraction(h, i) == expected
                assert t.contraction(h, i) is t.contraction(h, i)
    t = rank_one_tableau()
    with pytest.raises(InputError):
        t.contraction(0, 0)
    with pytest.raises(InputError):
        t.contraction(1, 2)
    # a level 1 that is not the prolongation: its contractions leave A^(0)
    t._levels.append(Subspace.full(2 * sym_basis(2, 2).size))
    with pytest.raises(StructureViolation):
        t.contraction(1, 0)


def test_prolongation_contracts_into_previous_level():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        t = random_tableau(rng, n, r, rng.randint(1, n * r))
        for h in (1, 2):
            lvl = t.level(h)
            prev = t.level(h - 1)
            for v in lvl.basis:
                for i in range(n):
                    c = contraction_matrix(n, r, h + 1, i).matvec(v)
                    assert prev.contains(c)


def test_jet_coordinates_match_solve_oracle():
    # pivot-read coordinates against a fresh elimination over jet_basis(h)
    rng = random.Random(2020)
    cases = [Tableau(2, 3, []), full_tableau(2, 1), skew_tableau()]
    while len(cases) < 16:
        # unreduced generators, so level 0 needs a nontrivial inverse
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        raw = [[Fraction(rng.randint(-3, 3)) for _ in range(n * r)]
               for _ in range(rng.randint(1, n * r))]
        if Subspace(n * r, raw).dim == len(raw):
            t = Tableau.from_vectors(n, r, raw)
            assert t.jet_basis(0) == raw
            cases.append(t)
    outside_seen = 0
    for t in cases:
        for h in range(3):
            ambient = t.b_dim * sym_basis(t.a_dim, h + 1).size
            basis = Matrix.from_columns(t.jet_basis(h), nrows=ambient)
            assert basis.ncols == t.dim_at(h)
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(basis.ncols)]
            inside = basis.matvec(coeffs)
            assert t.jet_coordinates(h, inside) == basis.solve(inside) == coeffs
            outside = [Fraction(rng.randint(-2, 2)) for _ in range(ambient)]
            try:
                expected = basis.solve(outside)
            except Inconsistent:
                outside_seen += 1
                with pytest.raises(NotInImage):
                    t.jet_coordinates(h, outside)
            else:
                assert t.jet_coordinates(h, outside) == expected
    assert outside_seen > 0


def test_cartan_bound_random():
    rng = random.Random(22)
    for _ in range(100):
        n = rng.randint(1, 3)
        r = rng.randint(1, 4)
        t = random_tableau(rng, n, r, rng.randint(0, n * r))
        res = cartan_test(t, seed=rng.randrange(10**6))
        assert res["dim_A1"] <= res["bound"]


def test_involutive_prolongation_character_formula():
    rng = random.Random(23)
    checked = 0
    pool = [full_tableau(2, 2), full_tableau(3, 1), rank_one_tableau()]
    for _ in range(40):
        n = rng.randint(1, 3)
        r = rng.randint(1, 3)
        pool.append(random_tableau(rng, n, r, rng.randint(0, n * r)))
    for t in pool:
        res = cartan_test(t, seed=101)
        if not res["involutive"]:
            continue
        s = res["characters"].s
        n = t.a_dim
        view = t.view_at_level(1)
        s1 = characters(view, seed=102).s
        expected = tuple(sum(s[j:]) for j in range(n))
        assert s1 == expected
        if res["characters"].nu > 0:
            cv1 = CharacterVector(s1, view.b_dim)
            assert cv1.nu == res["characters"].nu
            assert cv1.principal == res["characters"].principal
        checked += 1
    assert checked >= 3


def test_coordinate_flag_can_be_non_generic():
    # A = span{f_0 (x) e_1*, f_1 (x) e_0*}: the coordinate flag sees
    # codimensions (1, 2) but generic lines already see codimension 2
    t = Tableau(2, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    assert character_partial_sums(t, Matrix.identity(2)) == [1, 2]
    assert characters(t, seed=9).s == (2, 0)


def test_view_at_level_consistency():
    for t in [rank_one_tableau(), full_tableau(2, 2), skew_tableau()]:
        for h in (0, 1):
            view = t.view_at_level(h)
            assert view.dim == t.dim_at(h)
            assert view.prolong().dim == t.dim_at(h + 1)


def test_prolongation_cache_concurrent():
    t = full_tableau(2, 2)
    with ThreadPoolExecutor(max_workers=8) as ex:
        results = list(ex.map(lambda _: t.level(2), range(16)))
    assert all(r is results[0] for r in results)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        full_tableau(3, 3).level(4, max_dim=10)


def test_json_round_trip():
    t = Tableau(2, 2, [[["1/2", 0], [0, 1]]])
    d = t.to_json_dict()
    t2 = Tableau.from_json_dict(d)
    assert t2.a_dim == 2 and t2.b_dim == 2
    assert t2.level(0) == t.level(0)
    with pytest.raises(InputError):
        Tableau.from_json_dict({"a_dim": 2})


def test_character_errors():
    with pytest.raises(InputError):
        characters(full_tableau(2, 1), samples=0)
    with pytest.raises(InputError):
        full_tableau(2, 1).level(-1)


def test_character_partial_sums_shape():
    t = full_tableau(3, 2)
    sums = character_partial_sums(t, Matrix.identity(3))
    assert sums == [2, 4, 6]
    with pytest.raises(DimensionMismatch):
        character_partial_sums(t, Matrix.identity(2))


def rank_per_step_partial_sums(tab, flag):
    """The dense Fraction route to the partial sums, kept as the oracle:
    at every flag step, a fresh rref of all evaluation rows so far."""
    n, r = tab.a_dim, tab.b_dim
    basis = tab.level(0).basis
    d = len(basis)
    sums = []
    rows = []
    for j in range(n):
        v = flag.rows[j]
        for b in range(r):
            rows.append([sum(bv[b * n + i] * v[i] for i in range(n)) for bv in basis])
        sums.append(len(dense_rref(rows, d)[1]) if d else 0)
    return sums


def rational_tableau(rng, n, r, want):
    """Unreduced rational generators; the canonical basis when the draw
    happens to be dependent."""
    raw = [
        [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n * r)]
        for _ in range(want)
    ]
    span = Subspace(n * r, raw)
    gens = raw if span.dim == want else span.basis
    return Tableau.from_vectors(n, r, gens) if gens else Tableau(n, r, [])


def oracle_flags(rng, n):
    """A sampled flag, a rational non-integer flag, singular flags with a
    zero or a repeated row, and the identity."""
    sampled = Matrix(_sample_flag(rng, n, 8), ncols=n)
    rational = Matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(2, 5)) for _ in range(n)]
         for _ in range(n)],
        ncols=n,
    )
    zero_row = [row[:] for row in sampled.rows]
    zero_row[rng.randrange(n)] = [Fraction(0)] * n
    flags = [sampled, rational, Matrix(zero_row, ncols=n), Matrix.identity(n)]
    if n > 1:
        repeated = [row[:] for row in rational.rows]
        j = rng.randrange(1, n)
        repeated[j] = repeated[rng.randrange(j)][:]
        flags.append(Matrix(repeated, ncols=n))
    return flags


def test_partial_sums_match_rank_per_step_oracle():
    rng = random.Random(2606)
    pool = [Tableau(n, r, []) for n, r in ((1, 1), (1, 3), (3, 2), (4, 4))]
    pool += [rational_tableau(rng, 1, r, rng.randint(1, r)) for r in (1, 2, 3, 4)]
    pool += [full_tableau(4, 2), rank_one_tableau(), skew_tableau()]
    while len(pool) < 120:
        n = rng.randint(1, 4)
        r = rng.randint(1, 4)
        pool.append(rational_tableau(rng, n, r, rng.randint(0, n * r)))
    for t in pool:
        for flag in oracle_flags(rng, t.a_dim):
            assert character_partial_sums(t, flag) == rank_per_step_partial_sums(t, flag)
        assert characters(t, seed=rng.randrange(10**6)).total() == t.dim
        assert t.integer_basis() is t.integer_basis()
        for v, w in zip(t.integer_basis(), t.level(0).basis):
            assert all(isinstance(x, int) for x in v)
            assert Subspace(len(v), [v]) == Subspace(len(w), [w])


def test_sample_flag_keeps_its_random_stream():
    # The same draws as the dense route: n^2 integers, row by row, until
    # the matrix has full rank, returned as lists of ints.
    for seed in range(40):
        n = 1 + seed % 4
        bound = 1 if seed % 3 == 0 else 8
        rng = random.Random(seed)
        while True:
            rows = [[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                    for _ in range(n)]
            if len(Matrix(rows, ncols=n).rref()[1]) == n:
                break
        rng_after = rng.random()
        sampler = random.Random(seed)
        flag = _sample_flag(sampler, n, bound)
        assert flag == rows
        assert all(type(x) is int for row in flag for x in row)
        assert sampler.random() == rng_after


def tower_pool(rng, size=36):
    """Structured and seeded rational tableaux with n, r <= 3."""
    pool = [Tableau(1, 1, []), Tableau(3, 2, []), full_tableau(2, 3),
            full_tableau(3, 1), rank_one_tableau(), skew_tableau()]
    while len(pool) < size:
        n, r = rng.randint(1, 3), rng.randint(1, 3)
        pool.append(rational_tableau(rng, n, r, rng.randint(0, n * r)))
    return pool


def test_tower_route_matches_view_route():
    # The Cartan test of A^(h) off the tower against the test of the view
    # tableau of A^(h), which builds and prolongs it.
    rng = random.Random(3110)
    for t in tower_pool(rng):
        n = t.a_dim
        for h in range(4):
            view = t.view_at_level(h)
            seed = rng.randrange(2**32)
            tower = cartan_test(t, seed=seed, h=h)
            oracle = cartan_test(view, seed=seed)
            for key in ("characters", "bound", "dim_A1", "involutive"):
                assert tower[key] == oracle[key], (t.to_json_dict(), h, key)
            assert view.prolong().dim == t.dim_at(h + 1)
            width = view.b_dim * n
            assert Subspace(width, t.integer_basis(h)) == view.level(0)
            for flag in oracle_flags(rng, n):
                assert character_partial_sums(t, flag, h) == \
                    character_partial_sums(view, flag)


def test_involutive_index_matches_view_route():
    rng = random.Random(3111)
    found = capped = 0
    for t in tower_pool(rng):
        seed = rng.randrange(2**32)
        for h_max in (0, 3):
            fresh = Tableau.from_json_dict(t.to_json_dict())
            try:
                expected = view_route_involutive_index(t, h_max, seed=seed)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    involutive_index(fresh, h_max, seed=seed)
                capped += 1
                continue
            assert involutive_index(fresh, h_max, seed=seed) == expected
            found += 1
    assert found >= 30 and capped >= 3


def test_characters_memo(monkeypatch):
    evaluated = []
    original = tableau_module.character_partial_sums

    def counting(tab, flag, h=0):
        evaluated.append(h)
        return original(tab, flag, h)

    monkeypatch.setattr(tableau_module, "character_partial_sums", counting)
    t = full_tableau(2, 2)
    first = characters(t, seed=3)
    assert len(evaluated) == 5
    assert characters(t, seed=3) is first
    assert cartan_test(t, seed=3)["characters"] is first
    assert len(evaluated) == 5
    # each other key is certified once and kept apart from the rest
    results = {}
    for key in ((0, 4, 3), (0, 5, 4), (1, 5, 3), (2, 5, 3)):
        h, samples, seed = key
        before = len(evaluated)
        results[key] = characters(t, samples=samples, seed=seed, h=h)
        assert len(evaluated) - before == samples
        assert set(evaluated[before:]) == {h}
    for (h, samples, seed), cv in results.items():
        assert characters(t, samples=samples, seed=seed, h=h) is cv
        assert cv is not first
        fresh = Tableau.from_json_dict(t.to_json_dict())
        assert cv == characters(fresh, samples=samples, seed=seed, h=h)
    assert results[(1, 5, 3)].s == (4, 2) and first.s == (2, 2)
    assert results[(2, 5, 3)].s == (6, 2)
    # a fresh tableau certifies again
    before = len(evaluated)
    fresh = Tableau.from_json_dict(t.to_json_dict())
    assert characters(fresh, seed=3) == first
    assert len(evaluated) - before == 5


def test_failed_certification_is_not_memoised(monkeypatch):
    original = tableau_module.character_partial_sums
    t = rank_one_tableau()
    draws = iter(range(10**6))

    def disagreeing(tab, flag, h=0):
        return [next(draws) % 2] * tab.a_dim

    def wrong_total(tab, flag, h=0):
        return [0] * tab.a_dim

    for fake in (disagreeing, wrong_total):
        monkeypatch.setattr(tableau_module, "character_partial_sums", fake)
        with pytest.raises(UnstableGenericity):
            characters(t, seed=5)
        with pytest.raises(UnstableGenericity):
            cartan_test(t, seed=5)
    monkeypatch.setattr(tableau_module, "character_partial_sums", original)
    assert characters(t, seed=5).s == (1, 0)
