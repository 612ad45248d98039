"""Formal Cauchy solutions, residual verification, and polar counts."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from dense_oracles import (
    compose_oracle,
    polymap_linear,
    section_polar_counts,
    solve_affine,
)
from involutive import cauchy
from involutive.bases import sym_basis
from involutive.cauchy import (
    CauchyData,
    _solve_slice,
    solve_formal,
    verify_solution,
    polar_dims,
    restricted_polar_check,
)
from involutive.errors import (
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InconsistentData,
    InputError,
    UnstableGenericity,
)
from involutive.cli import EXAMPLE_NAMES, build_example
from involutive.guillemin import NormalForm, normal_form
from involutive.liealg import abelian_algebra, sl3_decomposition, su2_algebra
from involutive.linalg import Matrix, clear_denominators
from involutive.poly import Polynomial, PolyMap
from involutive.systems import (
    System,
    TowerData,
    build_gg0_system,
    build_s_chain,
    build_wavemap_system,
)
from involutive.tableau import Tableau, involutive_index
from test_spencer import (
    INDEX_TWO_CUBIC,
    infinite_type_tableau,
    third_derivative_tableau,
)


# Independent oracle for the harmonic-map system: the classical double
# recursion for d_y u = [u, v], d_x v = -[u, v] with data u(x, 0), v(0, y).
# It shares nothing with the solver except the algebra bracket.

def wavemap_oracle(alg, u_line, v_line, degree):
    m = alg.dim
    u = [dict() for _ in range(m)]
    v = [dict() for _ in range(m)]
    for c in range(m):
        for e, coeff in u_line[c].terms.items():
            if e[0] <= degree:
                u[c][(e[0], 0)] = coeff
        for e, coeff in v_line[c].terms.items():
            if e[0] <= degree:
                v[c][(0, e[0])] = coeff

    def bracket_at(p, q):
        out = [Fraction(0)] * m
        for p1 in range(p + 1):
            for q1 in range(q + 1):
                a = [u[c].get((p1, q1), Fraction(0)) for c in range(m)]
                b = [v[c].get((p - p1, q - q1), Fraction(0)) for c in range(m)]
                if any(a) and any(b):
                    w = alg.bracket(a, b)
                    out = [x + y for x, y in zip(out, w)]
        return out

    for d in range(1, degree + 1):
        new_u = {}
        new_v = {}
        for p in range(d + 1):
            q = d - p
            if q >= 1:
                w = bracket_at(p, q - 1)
                for c in range(m):
                    if w[c]:
                        new_u[(c, (p, q))] = w[c] / q
            if p >= 1:
                w = bracket_at(p - 1, q)
                for c in range(m):
                    if w[c]:
                        new_v[(c, (p, q))] = -w[c] / p
        for (c, e), val in new_u.items():
            u[c][e] = val
        for (c, e), val in new_v.items():
            v[c][e] = val
    u_maps = [Polynomial(2, u[c]) for c in range(m)]
    v_maps = [Polynomial(2, v[c]) for c in range(m)]
    return u_maps, v_maps


def bracket_polys(alg, u_comps, v_comps):
    """[u, v] componentwise for polynomial-valued u, v."""
    m = alg.dim
    nv = u_comps[0].num_vars
    out = [Polynomial.zero(nv) for _ in range(m)]
    for d in range(m):
        ed = [Fraction(0)] * m
        ed[d] = Fraction(1)
        for e in range(m):
            ee = [Fraction(0)] * m
            ee[e] = Fraction(1)
            w = alg.bracket(ed, ee)
            if any(w):
                prod = u_comps[d].mul(v_comps[e])
                for c in range(m):
                    if w[c]:
                        out[c] = out[c].add(prod.scale(w[c]))
    return out


def random_poly(rng, num_vars, degree):
    terms = {}
    for d in range(degree + 1):
        for exp in _exponents(num_vars, d):
            if rng.random() < 0.6:
                terms[exp] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Polynomial(num_vars, terms)


def _exponents(num_vars, d):
    if num_vars == 1:
        return [(d,)]
    out = []
    for i in range(d + 1):
        for rest in _exponents(num_vars - 1, d - i):
            out.append((i,) + rest)
    return out


def _flatten(mat):
    flat = []
    for row in mat.rows:
        flat.extend(row)
    return flat


def wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, degree):
    """Cauchy data induced by an oracle solution: restrict the dependent
    variables to the first flag line and express them over the normal
    generator basis."""
    t = sys_.tableau
    gen_mat = Matrix.from_columns(
        [_flatten(g) for g in t.generators], nrows=t.b_dim * t.a_dim
    )
    cols = []
    for block in nf.blocks:
        for q in block:
            cols.append(gen_mat.solve(_flatten(q)))
    big_n = Matrix.from_columns(cols, nrows=t.dim)
    n_inv = big_n.inverse()
    line = [
        Polynomial(1, {(1,): nf.basis_a.rows[i][0]}) for i in range(t.a_dim)
    ]
    f_line = [
        p.compose(line).truncate(degree) for p in list(u_maps) + list(v_maps)
    ]
    blocks = []
    idx = 0
    for block in nf.blocks:
        polys = []
        for _ in block:
            acc = Polynomial.zero(1)
            for b in range(t.dim):
                c = n_inv.rows[idx][b]
                if c:
                    acc = acc.add(f_line[b].scale(c))
            polys.append(acc)
            idx += 1
        blocks.append(polys)
    return CauchyData([0, 0], [], blocks)


@pytest.fixture(scope="module")
def su2_setup():
    sys_ = build_wavemap_system(su2_algebra())
    tower = build_s_chain(sys_, 1)
    nf = normal_form(sys_.tableau, seed=0)
    return sys_, tower, nf


@pytest.fixture(scope="module")
def sl3_setup():
    sys_ = build_gg0_system(sl3_decomposition())
    tower = build_s_chain(sys_, 0)
    nf = normal_form(sys_.tableau, seed=0)
    return sys_, tower, nf


@pytest.fixture(scope="module")
def hom21_setup():
    t = Tableau(2, 1, [[[1, 0]], [[0, 1]]])
    phi = {(0, 0, 1): Polynomial(4, {(0, 0, 1, 0): Fraction(1)})}
    sys_ = System(t, phi)
    tower = build_s_chain(sys_, 0)
    nf = normal_form(t, seed=0)
    return sys_, tower, nf


def test_oracle_satisfies_its_equations():
    alg = su2_algebra()
    rng = random.Random(11)
    u_line = [random_poly(rng, 1, 3) for _ in range(3)]
    v_line = [random_poly(rng, 1, 3) for _ in range(3)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 6)
    br = bracket_polys(alg, u_maps, v_maps)
    for c in range(3):
        res_u = u_maps[c].partial(1).sub(br[c]).truncate(5)
        res_v = v_maps[c].partial(0).add(br[c]).truncate(5)
        assert res_u.is_zero()
        assert res_v.is_zero()
    # the data lines are reproduced on the axes
    for c in range(3):
        axis = [Polynomial.variable(1, 0), Polynomial.zero(1)]
        assert u_maps[c].compose(axis) == u_line[c]


def test_solver_matches_oracle_on_random_data(su2_setup):
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    degree = 6
    for seed in range(5):
        rng = random.Random(100 + seed)
        u_line = [random_poly(rng, 1, degree) for _ in range(3)]
        v_line = [random_poly(rng, 1, degree) for _ in range(3)]
        u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, degree)
        data = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, degree)
        sol = solve_formal(sys_, tower, nf, data, degree)
        assert sol.k == 0
        expected = [p.truncate(degree) for p in list(u_maps) + list(v_maps)]
        got = sol.q_maps[0].components
        assert list(got) == expected


def test_solution_residual_is_clean(su2_setup):
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    rng = random.Random(7)
    u_line = [random_poly(rng, 1, 4) for _ in range(3)]
    v_line = [random_poly(rng, 1, 4) for _ in range(3)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 5)
    data = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, 5)
    sol = solve_formal(sys_, tower, nf, data, 5)
    report = verify_solution(sys_, sol)
    assert report["clean"]
    assert report["clean_through_degree"] == 4
    # truncation noise may appear at the cut degree, never below it
    leftover = report["first_failure"]
    assert leftover is None or leftover["degree"] >= 5


def test_solution_restricted_to_line_reproduces_data(su2_setup):
    sys_, tower, nf = su2_setup
    rng = random.Random(23)
    blocks = [[random_poly(rng, 1, 4) for _ in range(6)]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 4)
    slice_subs = [Polynomial.variable(1, 0), Polynomial.zero(1)]
    for m in range(6):
        assert sol.normal_series[m].compose(slice_subs) == blocks[0][m]
    # the literal constancy along u^2 fails for generic data; the solver
    # reports it instead of enforcing it
    assert sol.composition_identity == {1: False}


def test_solver_is_deterministic(su2_setup):
    sys_, tower, nf = su2_setup
    rng = random.Random(5)
    blocks = [[random_poly(rng, 1, 3) for _ in range(6)]]
    data = CauchyData([0, 0], [], blocks)
    one = solve_formal(sys_, tower, nf, data, 4)
    two = solve_formal(sys_, tower, nf, data, 4)
    assert one.to_json_dict() == two.to_json_dict()


def test_solver_with_shifted_base_point(su2_setup):
    sys_, tower, nf = su2_setup
    rng = random.Random(31)
    blocks = [[random_poly(rng, 1, 3) for _ in range(6)]]
    data = CauchyData([1, Fraction(-1, 2)], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 4)
    report = verify_solution(sys_, sol)
    assert report["clean"]
    # initial values at the base point come straight from the data
    x0 = [Fraction(1), Fraction(-1, 2)]
    at_zero = [p.eval(x0) for p in sol.q_maps[0].components]
    assert at_zero == [p.coefficient([0] * 2) for p in sol.u_maps[0].components]


def test_gg0_sl3_solution_residual(sl3_setup):
    sys_, tower, nf = sl3_setup
    rng = random.Random(9)
    blocks = [[random_poly(rng, 1, 2) for _ in range(3)]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 4)
    report = verify_solution(sys_, sol)
    assert report["clean"]
    assert report["max_degree_checked"] == 3


def test_hom21_two_block_data(hom21_setup):
    sys_, tower, nf = hom21_setup
    assert nf.s == (1, 1)
    rng = random.Random(13)
    blocks = [[random_poly(rng, 1, 3)], [random_poly(rng, 2, 3)]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 5)
    report = verify_solution(sys_, sol)
    assert report["clean"]
    # block 2 fills the whole plane, so its data are final
    assert sol.composition_identity[2] is True


def test_abelian_wavemap_is_curl_free():
    sys_ = build_wavemap_system(abelian_algebra(2))
    tower = build_s_chain(sys_, 0)
    nf = normal_form(sys_.tableau, seed=0)
    consts = [[Fraction(1), Fraction(2), Fraction(3), Fraction(-1)]]
    blocks = [[Polynomial.constant(1, c) for c in consts[0]]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 4)
    for p in sol.q_maps[0].components:
        assert p.total_degree() <= 0
    assert sol.composition_identity == {1: True}
    assert verify_solution(sys_, sol)["clean"]


def corrupt(sol, alpha, bump):
    """Add bump, a polynomial in y = x - x0, to component alpha of F in
    both of its forms: Q_(0) in x and the adapted series in u (y = a u)."""
    n = bump.num_vars
    back = [
        Polynomial(n, {tuple(int(k == i) for k in range(n)): 1, (0,) * n: -sol.x0[i]})
        for i in range(n)
    ]
    adapted = polymap_linear(sol.nf.basis_a.rows, n).components
    for maps, subs in ((sol.q_maps, back), (sol.u_maps, adapted)):
        comps = list(maps[0].components)
        comps[alpha] = comps[alpha].add(bump.compose(subs))
        maps[0] = PolyMap(n, comps)


def test_corrupted_solution_is_pinpointed(su2_setup):
    sys_, tower, nf = su2_setup
    rng = random.Random(3)
    blocks = [[random_poly(rng, 1, 3) for _ in range(6)]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 5)
    corrupt(sol, 2, Polynomial(2, {(1, 2): Fraction(1, 3)}))
    report = verify_solution(sys_, sol)
    assert not report["clean"]
    assert report["first_failure"]["degree"] == 2


def verify_solution_oracle(sys_, sol):
    """The residual report by full expansion: Phi(x, F) expanded in x to
    degree 2d and more, then translated to the base point; every term
    counts, whatever its degree."""
    t = sys_.tableau
    n, r = t.a_dim, t.b_dim
    f = sol.q_maps[0]
    subs = [Polynomial.variable(n, i) for i in range(n)] + list(f.components)
    shift = [
        Polynomial(n, {tuple(int(k == i) for k in range(n)): 1, (0,) * n: sol.x0[i]})
        for i in range(n)
    ]
    worst = None
    for i in range(n):
        for j in range(i + 1, n):
            for b in range(r):
                lhs = Polynomial.zero(n)
                for alpha, gmat in enumerate(t.generators):
                    ci, cj = gmat.rows[b][i], gmat.rows[b][j]
                    if ci:
                        lhs = lhs.add(f.components[alpha].partial(j).scale(ci))
                    if cj:
                        lhs = lhs.sub(f.components[alpha].partial(i).scale(cj))
                phi = compose_oracle(sys_.phi_component(b, i, j), subs)
                res = compose_oracle(lhs.sub(phi), shift)
                if not res.is_zero():
                    low = res.lowest_degree()
                    if worst is None or low < worst["degree"]:
                        exp = min(e for e in res.terms if sum(e) == low)
                        worst = {"component": (b, i, j), "degree": low,
                                 "monomial": list(exp)}
    d = sol.degree
    return {
        "max_degree_checked": d - 1,
        "clean": worst is None or worst["degree"] > d - 1,
        "clean_through_degree": d - 1 if worst is None else min(worst["degree"] - 1, d - 1),
        "first_failure": worst,
    }


def test_residual_matches_full_expansion_oracle():
    # Data drawn as the system-cli benchmark draws them: x0 in [-2, 2]^n and
    # one block of dim A series in one variable.  Seed 5 gives gg0:sl3 at
    # degree 2 a residual whose only terms lie above d.
    cases = []
    for name in EXAMPLE_NAMES:
        sys_ = build_example(name)
        tower = build_s_chain(sys_, 0)
        nf = normal_form(sys_.tableau, seed=0)
        for seed in (0, 5):
            for degree in (2, 4, 6):
                rng = random.Random(seed)
                x0 = [rng.randint(-2, 2) for _ in range(sys_.tableau.a_dim)]
                block = [random_poly(rng, 1, degree) for _ in range(sys_.tableau.dim)]
                data = CauchyData(x0, [], [block])
                cases.append((name, sys_, solve_formal(sys_, tower, nf, data, degree)))
    # A solution corrupted by a term of degree d + 2 at its base point: the
    # full expansion finds it at degree d + 1, above what the check forms.
    name, sys_, sol = cases[-1]
    assert name == "wavemap:abelian" and sol.degree == 6 and any(sol.x0)
    corrupt(sol, 0, Polynomial(2, {(5, 3): Fraction(1, 5)}))
    assert verify_solution_oracle(sys_, sol)["first_failure"]["degree"] == 7
    assert verify_solution(sys_, sol)["first_failure"] is None
    above = 0
    for _, sys_, sol in cases:
        got, want = verify_solution(sys_, sol), verify_solution_oracle(sys_, sol)
        for key in ("clean", "clean_through_degree", "max_degree_checked"):
            assert got[key] == want[key]
        failure = want["first_failure"]
        if failure is not None and failure["degree"] > sol.degree:
            above += 1
            assert got["first_failure"] is None
        else:
            assert got["first_failure"] == failure
    assert above >= 2


def test_adapted_series_is_the_translated_solution():
    # verify_solution reads F off u_maps[0] at u = a^-1 y; that must be
    # q_maps[0] at x = x0 + y, term for term.
    for name in EXAMPLE_NAMES:
        sys_ = build_example(name)
        n = sys_.tableau.a_dim
        tower = build_s_chain(sys_, 0)
        nf = normal_form(sys_.tableau, seed=0)
        a_inv = nf.basis_a.inverse()
        for seed in (0, 5, 7919):
            rng = random.Random(seed)
            degree = rng.choice((2, 4, 6))
            x0 = [rng.randint(-2, 2) for _ in range(n)]
            block = [random_poly(rng, 1, degree) for _ in range(sys_.tableau.dim)]
            sol = solve_formal(sys_, tower, nf, CauchyData(x0, [], [block]), degree)
            shift = [
                Polynomial(n, {tuple(int(k == i) for k in range(n)): 1, (0,) * n: x0[i]})
                for i in range(n)
            ]
            translated = sol.q_maps[0].compose(shift)
            adapted = sol.u_maps[0].compose(polymap_linear(a_inv.rows, n).components, degree)
            assert adapted == translated, (name, seed)


def test_data_validation_errors(su2_setup):
    sys_, tower, nf = su2_setup
    good = [[Polynomial.zero(1) for _ in range(6)]]
    with pytest.raises(InputError):
        solve_formal(sys_, tower, nf, CauchyData([0], [], good), 3)
    with pytest.raises(InputError):
        solve_formal(sys_, tower, nf, CauchyData([0, 0], [], []), 3)
    with pytest.raises(InputError):
        short = [[Polynomial.zero(1) for _ in range(5)]]
        solve_formal(sys_, tower, nf, CauchyData([0, 0], [], short), 3)
    with pytest.raises(DimensionMismatch):
        CauchyData([0, 0], [], [[Polynomial.zero(2) for _ in range(6)]])
    deep = [[Polynomial(1, {(4,): Fraction(1)})] + [Polynomial.zero(1)] * 5]
    with pytest.raises(InputError):
        solve_formal(sys_, tower, nf, CauchyData([0, 0], [], deep), 3)


def test_degree_cap(su2_setup):
    sys_, tower, nf = su2_setup
    data = CauchyData([0, 0], [], [[Polynomial.zero(1) for _ in range(6)]])
    with pytest.raises(CapExceeded):
        solve_formal(sys_, tower, nf, data, 13)


def test_data_json_round_trip():
    rng = random.Random(17)
    data = CauchyData(
        [Fraction(1, 2), -2],
        [[Fraction(3), Fraction(-1, 4)]],
        [[random_poly(rng, 1, 3)], [random_poly(rng, 2, 2)]],
    )
    back = CauchyData.from_json_dict(data.to_json_dict())
    assert back.x0 == data.x0
    assert back.constants == data.constants
    assert back.blocks == data.blocks
    with pytest.raises(InputError):
        CauchyData.from_json_dict({"P_blocks": {}})


def test_solution_json_shape(su2_setup):
    sys_, tower, nf = su2_setup
    data = CauchyData(
        [0, 0], [], [[Polynomial.constant(1, i + 1) for i in range(6)]]
    )
    sol = solve_formal(sys_, tower, nf, data, 3)
    blob = sol.to_json_dict()
    assert blob["degree"] == 3
    assert blob["k"] == 0
    assert len(blob["Q"]) == 1
    assert len(blob["Q"][0]) == 6
    assert "1" in blob["composition_identity"]


def test_free_coefficient_count_matches_prolongation_dims(
    su2_setup, sl3_setup, hom21_setup
):
    # the number of data slots at each Taylor degree equals the dimension
    # of the corresponding prolongation
    for sys_, tower, nf in (su2_setup, sl3_setup, hom21_setup):
        t = sys_.tableau
        for d in range(5):
            slots = sum(
                s_j * math.comb(j - 1 + d, d)
                for j, s_j in enumerate(nf.s, start=1)
            )
            assert slots == t.dim_at(d)


def level_one_series(sys_, tower, sol, degree):
    """Recover the level-1 coordinates of a solved system from the
    gradient relation d Q_(0) = (S_(1) + iota Q_(1)) dx."""
    t = sys_.tableau
    n = t.a_dim
    ios = [t.contraction(1, j) for j in range(n)]
    stacked = Matrix(
        [list(row) for io in ios for row in io.rows], ncols=ios[0].ncols
    )
    subs = [Polynomial.variable(n, i) for i in range(n)] + list(
        sol.q_maps[0].components
    )
    subs += [Polynomial.zero(n)] * (tower.jet.num_vars - len(subs))
    rhs = []
    for j in range(n):
        for alpha in range(t.dim):
            s_part = tower.s_chain[0].components[alpha * n + j]
            rhs.append(
                sol.q_maps[0].components[alpha]
                .partial(j)
                .sub(s_part.compose(subs))
                .truncate(degree)
            )
    exps = set()
    for p in rhs:
        exps.update(p.terms)
    series = [dict() for _ in range(ios[0].ncols)]
    for exp in sorted(exps):
        vec = [p.coefficient(list(exp)) for p in rhs]
        coords = stacked.solve(vec)
        for beta, c in enumerate(coords):
            if c:
                series[beta][exp] = c
    return [Polynomial(n, s) for s in series]


def test_solve_at_level_one_agrees_with_base_solve(su2_setup):
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    t = sys_.tableau
    rng = random.Random(41)
    u_line = [random_poly(rng, 1, 4) for _ in range(3)]
    v_line = [random_poly(rng, 1, 4) for _ in range(3)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 5)
    data0 = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, 5)
    sol0 = solve_formal(sys_, tower, nf, data0, 5)
    q1 = level_one_series(sys_, tower, sol0, 4)

    view = t.view_at_level(1)
    nf1 = normal_form(view, seed=0)
    # level-1 coordinates of the normal generators of the view
    view_gens = Matrix.from_columns(
        [_flatten(g) for g in view.generators], nrows=view.b_dim * view.a_dim
    )
    cols = []
    for block in nf1.blocks:
        for q in block:
            cols.append(view_gens.solve(_flatten(q)))
    big_n = Matrix.from_columns(cols, nrows=len(cols))
    n_inv = big_n.inverse()
    line = [Polynomial(1, {(1,): nf1.basis_a.rows[i][0]}) for i in range(2)]
    q1_line = [p.compose(line).truncate(4) for p in q1]
    blocks = []
    idx = 0
    for block in nf1.blocks:
        polys = []
        for _ in block:
            acc = Polynomial.zero(1)
            for b in range(len(q1_line)):
                c = n_inv.rows[idx][b]
                if c:
                    acc = acc.add(q1_line[b].scale(c))
            polys.append(acc)
            idx += 1
        blocks.append(polys)
    consts = [[p.coefficient([0, 0]) for p in sol0.q_maps[0].components]]
    data1 = CauchyData([0, 0], consts, blocks)
    sol1 = solve_formal(sys_, tower, nf1, data1, 4)
    assert sol1.k == 1
    for p, q in zip(sol1.q_maps[0].components, sol0.q_maps[0].components):
        assert p.truncate(4) == q.truncate(4)
    for p, q in zip(sol1.q_maps[1].components, q1):
        assert p.truncate(3) == q.truncate(3)
    # jet compatibility at the base point
    assert [
        p.coefficient([0, 0]) for p in sol1.q_maps[0].components
    ] == consts[0]


def test_tampered_tower_breaks_mixed_partials(su2_setup):
    sys_, tower, nf = su2_setup
    t = sys_.tableau
    view = t.view_at_level(1)
    nf1 = normal_form(view, seed=0)
    bad_top = tower.s_chain[1].components[0].add(
        Polynomial.constant(tower.jet.num_vars, 1)
    )
    comps = [bad_top] + list(tower.s_chain[1].components[1:])
    bad_chain = [tower.s_chain[0], PolyMap(tower.jet.num_vars, comps)]
    bad_tower = TowerData(t, 1, bad_chain)
    blocks = [[Polynomial.zero(1) for _ in range(6)]]
    data = CauchyData([0, 0], [[Fraction(0)] * 6], blocks)
    with pytest.raises(InconsistentData):
        solve_formal(sys_, bad_tower, nf1, data, 3)


def maurer_cartan_residual(alg, u_comps, v_comps, degree):
    """d theta + 1/2 [theta /\\ theta] on (d_x, d_y) for
    theta = u dx + v dy, truncated."""
    br = bracket_polys(alg, u_comps, v_comps)
    out = []
    for c in range(alg.dim):
        out.append(
            v_comps[c].partial(0).sub(u_comps[c].partial(1)).add(br[c])
            .truncate(degree)
        )
    return out


@pytest.mark.xfail(
    strict=True,
    reason="solutions solve the doubled form; theta itself misses by a factor",
)
def test_maurer_cartan_literal_form(su2_setup):
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    u_line = [Polynomial.constant(1, 1), Polynomial.zero(1), Polynomial.zero(1)]
    v_line = [Polynomial.zero(1), Polynomial.constant(1, 1), Polynomial.zero(1)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 5)
    data = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, 5)
    sol = solve_formal(sys_, tower, nf, data, 5)
    u_comps = sol.q_maps[0].components[:3]
    v_comps = sol.q_maps[0].components[3:]
    residual = maurer_cartan_residual(alg, u_comps, v_comps, 4)
    assert all(p.is_zero() for p in residual)


def test_maurer_cartan_doubled_form(su2_setup):
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    u_line = [Polynomial.constant(1, 1), Polynomial.zero(1), Polynomial.zero(1)]
    v_line = [Polynomial.zero(1), Polynomial.constant(1, 1), Polynomial.zero(1)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 5)
    data = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, 5)
    sol = solve_formal(sys_, tower, nf, data, 5)
    u_comps = [p.scale(2) for p in sol.q_maps[0].components[:3]]
    v_comps = [p.scale(2) for p in sol.q_maps[0].components[3:]]
    residual = maurer_cartan_residual(alg, u_comps, v_comps, 4)
    assert all(p.is_zero() for p in residual)


def test_maurer_cartan_literal_residual_is_minus_the_bracket(su2_setup):
    # the system encodes d_y u = [u, v] and d_x v = -[u, v], so for theta
    # = u dx + v dy the literal residual d_x v - d_y u + [u, v] is -[u, v],
    # and 2 theta is the flat form (the doubled test above)
    sys_, tower, nf = su2_setup
    alg = su2_algebra()
    u_line = [Polynomial.constant(1, 1), Polynomial.zero(1), Polynomial.zero(1)]
    v_line = [Polynomial.zero(1), Polynomial.constant(1, 1), Polynomial.zero(1)]
    u_maps, v_maps = wavemap_oracle(alg, u_line, v_line, 5)
    data = wavemap_data_from_oracle(sys_, nf, u_maps, v_maps, 5)
    sol = solve_formal(sys_, tower, nf, data, 5)
    u_comps = sol.q_maps[0].components[:3]
    v_comps = sol.q_maps[0].components[3:]
    residual = maurer_cartan_residual(alg, u_comps, v_comps, 4)
    bracket = bracket_polys(alg, u_comps, v_comps)
    assert residual == [p.truncate(4).neg() for p in bracket]
    assert not all(p.is_zero() for p in residual)


def test_polar_dims_wavemap(su2_setup):
    sys_, tower, nf = su2_setup
    assert polar_dims(sys_.tableau, nf) == [8, 2, 2]


def test_polar_dims_at_solved_point(su2_setup):
    sys_, tower, nf = su2_setup
    rng = random.Random(77)
    blocks = [[random_poly(rng, 1, 2) for _ in range(6)]]
    data = CauchyData([0, 0], [], blocks)
    sol = solve_formal(sys_, tower, nf, data, 3)
    # (x0, Q_(0..k)(x0)), padded with zeros above level k
    point = list(sol.x0) + [
        p.coefficient([0] * p.num_vars)
        for q in sol.q_maps
        for p in q.components
    ]
    point += [Fraction(0)] * (tower.jet.num_vars - len(point))
    dims, _ = section_polar_counts(sys_, tower, nf, 0, point)
    assert dims == polar_dims(sys_.tableau, nf) == [8, 2, 2]


def test_polar_dims_gg0_sl3(sl3_setup):
    sys_, tower, nf = sl3_setup
    assert polar_dims(sys_.tableau, nf) == [5, 2, 2]


def test_polar_dims_hom21(hom21_setup):
    sys_, tower, nf = hom21_setup
    assert polar_dims(sys_.tableau, nf) == [4, 3, 2]


def test_polar_dims_zero_tableau():
    t = Tableau(2, 3, [])
    nf = normal_form(t, seed=0)
    assert polar_dims(t, nf) == [2, 2, 2]
    assert restricted_polar_check(t, nf) == [True, True]


def test_restricted_polar_counts(su2_setup, sl3_setup, hom21_setup):
    for sys_, tower, nf in (su2_setup, sl3_setup, hom21_setup):
        t = sys_.tableau
        assert restricted_polar_check(t, nf) == [True] * t.a_dim


def polar_case(name):
    """System, tower, normal form and level k for a polar-count case:
    a built-in example, the infinite-type or index-one tableau (k = 1),
    the zero tableau, or all of Hom(Q^3, Q), whose characters (1, 1, 1)
    make the restricted counts at h = 2 stack two different contractions;
    Phi = 0 for the last four."""
    if name == "full-3-1":
        sys_ = System(Tableau(3, 1, [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]), {})
    elif name == "infinite-type":
        sys_ = System(infinite_type_tableau(), {})
    elif name == "index-one":
        sys_ = System(Tableau(3, 3, [[[0, 2, -1], [2, 0, 0], [2, 0, 1]]]), {})
    elif name == "zero":
        sys_ = System(Tableau(2, 3, []), {})
    else:
        sys_ = build_example(name)
    k = involutive_index(sys_.tableau, h_max=2)["k"]
    tower = build_s_chain(sys_, k, k=k)
    return sys_, tower, normal_form(sys_.tableau, seed=0, h=k), k


def polar_counts_or_errors(t, nf):
    """polar_dims and restricted_polar_check, an UnstableGenericity
    message standing in for the value it rejects."""
    def run(check):
        try:
            return check(t, nf)
        except UnstableGenericity as exc:
            return str(exc)

    return [run(polar_dims), run(restricted_polar_check)]


def expected_polar_report(nf, dims, restricted):
    """What polar_dims and restricted_polar_check report for raw counts:
    the dims, or the message at the first step off the involutive count;
    [True] * n, or the message at the first restricted count that is not
    h + 1."""
    n = len(dims) - 1
    want = [n + sum(nf.s[h:]) for h in range(n + 1)]
    bad = [h for h in range(n + 1) if dims[h] != want[h]]
    out = [dims if not bad else
           "polar space at step %d has dimension %d, expected %d"
           % (bad[0], dims[bad[0]], want[bad[0]])]
    bad = [h for h, dim in enumerate(restricted) if dim != h + 1]
    out.append([True] * n if not bad else
               "restricted polar space at h = %d has dimension %d, "
               "expected %d" % (bad[0], restricted[bad[0]], bad[0] + 1))
    return out


def test_polar_counts_match_the_section_oracle():
    # The rank route drops S: on the section X_l = S(a_l), and
    # (xi, X) -> (xi, X - S xi) is invertible.  The oracle keeps S and
    # the jet point, so the raw counts must agree at any point and on any
    # flag, degenerate ones included, where both sides reject.
    rng = random.Random(2006)
    seen = {"normal": 0, "generic": 0, "degenerate": 0, "rejected": 0}
    for name in EXAMPLE_NAMES + ("infinite-type", "index-one", "zero", "full-3-1"):
        sys_, tower, nf, k = polar_case(name)
        n = sys_.tableau.a_dim
        for kind in ("normal", "generic", "generic", "degenerate"):
            trial = nf
            if kind != "normal":
                cols = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                if kind == "degenerate":
                    # a zero direction, or one repeating an earlier one
                    l = rng.randrange(n)
                    cols[l] = [0] * n if l == 0 or rng.random() < 0.5 else cols[0]
                trial = NormalForm(Matrix.from_columns(cols), nf.basis_b, nf.s,
                                   nf.blocks, nf.coeffs)
            point = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(tower.jet.num_vars)]
            dims, restricted = section_polar_counts(sys_, tower, trial, k, point)
            want = expected_polar_report(nf, dims, restricted)
            assert polar_counts_or_errors(sys_.tableau, trial) == want, (name, kind)
            seen[kind] += 1
            seen["rejected"] += any(isinstance(x, str) for x in want)
    assert seen["rejected"] >= 3, seen


def test_degenerate_flag_raises_unstable_genericity(su2_setup):
    sys_, tower, nf = su2_setup
    trial = NormalForm(
        Matrix([[0] + row[1:] for row in nf.basis_a.rows], ncols=2),
        nf.basis_b, nf.s, nf.blocks, nf.coeffs,
    )
    with pytest.raises(
        UnstableGenericity,
        match="^polar space at step 1 has dimension 8, expected 2$",
    ):
        polar_dims(sys_.tableau, trial)
    # h = 0 passes, so the check stops at h = 1
    with pytest.raises(
        UnstableGenericity,
        match="^restricted polar space at h = 1 has dimension 8, expected 2$",
    ):
        restricted_polar_check(sys_.tableau, trial)


def test_solve_needs_the_tower_to_reach_k():
    sys_ = System(infinite_type_tableau(), {})
    tower = build_s_chain(sys_, 0, k=1)
    nf = normal_form(sys_.tableau, seed=0, h=1)
    data = CauchyData([0] * 4, [[0] * 5], [[Polynomial.zero(1)] * 5])
    with pytest.raises(
        InputError, match="^tower of order 0 cannot solve at level k = 1$"
    ):
        solve_formal(sys_, tower, nf, data, 2)


def test_solver_composes_the_tower_once_per_degree(monkeypatch, su2_setup):
    # one composition of g_(0..k), capped at d - 1, serves the curl slice
    # and every lower level at degree d, and each of the k + 1 series goes
    # back to x once: d + k + 1 calls in all
    calls = []
    compose = PolyMap.compose

    def counting_compose(self, *args, **kwargs):
        calls.append(1)
        return compose(self, *args, **kwargs)

    sys_ = System(infinite_type_tableau(), {})
    tower = build_s_chain(sys_, 1, k=1)
    nf = normal_form(sys_.tableau, seed=0, h=1)
    block = [Polynomial(1, {(0,): Fraction(i + 1), (1,): Fraction(1, i + 2)})
             for i in range(5)]
    data = CauchyData([0] * 4, [[1, 0, 2, 0, -1]], [block])
    monkeypatch.setattr(PolyMap, "compose", counting_compose)
    for degree in (3, 6):
        calls.clear()
        solve_formal(sys_, tower, nf, data, degree)
        assert len(calls) == degree + 2
    # wavemap:su2 is at k = 0, under a tower of order 1
    sys_, tower, nf = su2_setup
    data = CauchyData([0, 0], [], [[Polynomial(1, {(1,): Fraction(1)})] * 6])
    calls.clear()
    solve_formal(sys_, tower, nf, data, 4)
    assert len(calls) == 5


def test_normal_form_matching_no_level_is_input_error(su2_setup):
    # wavemap:su2 has b_dim 6 and n = 2, so basis_b has 6 (k + 1) rows
    sys_, tower, nf = su2_setup
    trial = NormalForm(nf.basis_a, Matrix.identity(9), nf.s, nf.blocks, nf.coeffs)
    data = CauchyData([0, 0], [], [[Polynomial.zero(1)] * 6])
    message = "^a normal form with 9 rows in basis_b matches no level"
    with pytest.raises(InputError, match=message):
        solve_formal(sys_, tower, trial, data, 2)
    with pytest.raises(InputError, match=message):
        polar_dims(sys_.tableau, trial)
    with pytest.raises(InputError, match=message):
        restricted_polar_check(sys_.tableau, trial)


def test_one_variable_normal_forms_are_level_zero():
    # for n = 1 every prolongation is the same subspace of Hom(a, b), so
    # normal forms built at h = 0, 1, 2 all read as level 0
    t = Tableau(1, 3, [[[1], [0], [2]], [[0], [1], [0]]])
    for h in range(3):
        nf = normal_form(t, seed=0, h=h)
        assert cauchy._frame(t, nf).k == 0
        assert polar_dims(t, nf) == [3, 1]
        assert restricted_polar_check(t, nf) == [True]
    # no level has 4 rows, and the search stops although |S^k| = 1
    nf = NormalForm(nf.basis_a, Matrix.identity(4), nf.s, nf.blocks, nf.coeffs)
    with pytest.raises(InputError, match="^a normal form with 4 rows"):
        polar_dims(t, nf)


def test_slice_solve_matches_the_affine_oracle():
    # sparse slices, consistent, inconsistent and underdetermined: the
    # integer-echelon solve gives solve_affine's solution, or the error
    # that its verdict calls for, with the same count of free directions;
    # nu = 0 is a slice with no unknowns, solved by [] when every
    # right-hand side is zero and inconsistent otherwise
    rng = random.Random(1883)
    seen = {"solved": 0, "inconsistent": 0, "underdetermined": 0}
    for _ in range(200):
        nu, nrows = rng.randint(0, 6), rng.randint(1, 12)
        dense = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                  if rng.random() < 0.35 else Fraction(0) for _ in range(nu)]
                 for _ in range(nrows)]
        m = Matrix(dense, ncols=nu)
        if rng.random() < 0.25:
            rhs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(nrows)]
        else:
            rhs = m.matvec([Fraction(rng.randint(-3, 3)) for _ in range(nu)])
        # each row cleared to integers, which keeps its solutions
        rows = []
        for row, b in zip(dense, rhs):
            *ints, rhs_int = clear_denominators(row + [b])
            rows.append({j: x for j, x in enumerate(ints) if x} | {nu: rhs_int})
        try:
            x, homogeneous = solve_affine(m, rhs)
        except Inconsistent:
            with pytest.raises(InconsistentData, match="degree-4 slice .* inconsistent$"):
                _solve_slice(rows, nu, 4)
            seen["inconsistent"] += 1
            continue
        if homogeneous:
            with pytest.raises(
                InconsistentData,
                match=r"underdetermined \(%d free directions\)" % len(homogeneous),
            ):
                _solve_slice(rows, nu, 4)
            seen["underdetermined"] += 1
            continue
        assert _solve_slice(rows, nu, 4) == x
        seen["solved"] += 1
    assert min(seen.values()) >= 30, seen


# Cauchy data of the k = 2 fixture: Q_(0) and Q_(1) at x0 = 0, no blocks
INDEX_TWO_CONSTANTS = [[1, 0, 2, 0, -1], [3]]


def index_two_problem():
    t = third_derivative_tableau(INDEX_TWO_CUBIC)
    sys_ = System(t, {})
    tower = build_s_chain(sys_, 2, k=2)
    nf = normal_form(t, seed=0, h=2)
    return sys_, tower, nf, CauchyData([0] * t.a_dim, INDEX_TWO_CONSTANTS)


def test_index_two_solution_matches_the_affine_oracle():
    # With Phi = 0 the equations are linear with constant coefficients, so
    # the Taylor coefficients of F = Q_(0) through degree d solve one
    # affine system: the coefficients of degree < d of the equations,
    # F(0) = P_(0), and the 1-jet of F at 0 equal to the element T of
    # A^(1) with coordinates P_(1): entry (b, j) of sum_alpha d_i F^alpha
    # Q_alpha is the coordinate (b, e_i + e_j) of T.  No contraction,
    # normal form or tower enters it.
    sys_, tower, nf, data = index_two_problem()
    t = sys_.tableau
    n, r, degree = t.a_dim, t.b_dim, 3
    sol = solve_formal(sys_, tower, nf, data, degree)
    assert sol.k == 2
    monos = [e for e in itertools.product(range(degree + 1), repeat=n)
             if sum(e) <= degree]
    unknowns = list(itertools.product(range(t.dim), monos))
    col = {key: j for j, key in enumerate(unknowns)}

    def bump(e, i):
        return e[:i] + (e[i] + 1,) + e[i + 1:]

    unit = [bump((0,) * n, i) for i in range(n)]
    rows, rhs = [], []

    def add_row(entries, value):
        row = [Fraction(0)] * len(unknowns)
        for key, c in entries:
            row[col[key]] += c
        rows.append(row)
        rhs.append(Fraction(value))

    gens = list(enumerate(t.generators))
    pairs = itertools.combinations(range(n), 2)
    for b, (i, j), e in itertools.product(range(r), pairs, monos):
        if sum(e) < degree:
            add_row([entry for alpha, g in gens for entry in (
                ((alpha, bump(e, j)), g.rows[b][i] * (e[j] + 1)),
                ((alpha, bump(e, i)), -g.rows[b][j] * (e[i] + 1)),
            )], 0)
    for alpha, value in enumerate(data.constants[0]):
        add_row([((alpha, (0,) * n), 1)], value)
    top = [sum(c * v for c, v in zip(data.constants[1], entry))
           for entry in zip(*t.level(1).basis)]
    sym2 = sym_basis(n, 2)
    for b, i, j in itertools.product(range(r), range(n), range(n)):
        add_row([((alpha, unit[i]), g.rows[b][j]) for alpha, g in gens],
                top[b * sym2.size + sym2.index_of[tuple(sorted((i, j)))]])
    x, homogeneous = solve_affine(Matrix(rows, ncols=len(unknowns)), rhs)
    assert homogeneous == []
    want = [Polynomial(n, {e: x[col[alpha, e]] for e in monos if x[col[alpha, e]]})
            for alpha in range(t.dim)]
    assert list(sol.q_maps[0].components) == want
    # F is affine, as A^(2) = 0, and Q_(1) is the constant P_(1)
    assert max(p.total_degree() for p in want) == 1
    assert sol.q_maps[1].components == (Polynomial.constant(n, 3),)


def test_one_frame_serves_the_solver_the_residual_and_the_polar_counts(monkeypatch):
    # the frame of one (t, nf) is built on the first call and read by the
    # rest: one view of A^(k) for the normal generators, one inversion of
    # basis_a
    sys_, tower, nf, data = index_two_problem()
    t = sys_.tableau
    views, inverted = [], []
    view_at_level, inverse = Tableau.view_at_level, Matrix.inverse
    monkeypatch.setattr(Tableau, "view_at_level",
                        lambda self, h: views.append(h) or view_at_level(self, h))
    monkeypatch.setattr(Matrix, "inverse",
                        lambda self: inverted.append(self) or inverse(self))
    sol = solve_formal(sys_, tower, nf, data, 3)
    assert verify_solution(sys_, sol)["clean"]
    assert polar_dims(t, nf) == [5] * 6
    assert restricted_polar_check(t, nf) == [True] * 5
    assert views == [2]
    assert sum(m is nf.basis_a for m in inverted) == 1
