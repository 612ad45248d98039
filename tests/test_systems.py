import json
import random

import pytest
from fractions import Fraction

from involutive.errors import (
    DimensionMismatch,
    InputError,
    NotInImage,
    NotRegular,
    NotTwoAcyclic,
    StructureViolation,
)
from involutive.liealg import (
    CartanDecomposition,
    abelian_algebra,
    sl2_decomposition,
    sl3_decomposition,
    sl3_matrices,
    su2_algebra,
)
from involutive.linalg import Matrix
from involutive.poly import Polynomial, PolyMap
from involutive.spencer import HarmonicSplit, SpencerCell, delta
from involutive.systems import (
    JetVars,
    System,
    TowerData,
    build_gg0_system,
    build_s_chain,
    build_wavemap_system,
    check_phi_in_B02,
    check_torsion_condition,
    verify_structure_equations,
)
from involutive.tableau import Tableau, cartan_test, characters


def full3_tableau():
    """All of Hom(R^3, R^1)."""
    return Tableau(3, 1, [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]])


def wavemap_su2():
    return build_wavemap_system(su2_algebra())


# ---------------------------------------------------------------- System


def test_system_validates_phi():
    t = full3_tableau()
    nv = 6
    with pytest.raises(InputError):
        System(t, {(0, 1, 0): Polynomial.variable(nv, 0)})
    with pytest.raises(InputError):
        System(t, {(1, 0, 1): Polynomial.variable(nv, 0)})
    with pytest.raises(DimensionMismatch):
        System(t, {(0, 0, 1): Polynomial.variable(4, 0)})


def test_phi_component_is_antisymmetric():
    t = full3_tableau()
    p = Polynomial.variable(6, 3)
    sys = System(t, {(0, 0, 1): p})
    assert sys.phi_component(0, 0, 1) == p
    assert sys.phi_component(0, 1, 0) == p.neg()
    assert sys.phi_component(0, 2, 2).is_zero()
    assert sys.phi_component(0, 1, 2).is_zero()


def test_system_json_round_trip():
    sys = wavemap_su2()
    blob = json.dumps(sys.to_json_dict())
    back = System.from_json_dict(json.loads(blob))
    assert back.tableau.a_dim == sys.tableau.a_dim
    assert back.tableau.generators == sys.tableau.generators
    assert back.phi == sys.phi
    assert back.var_names == sys.var_names


def test_system_json_malformed():
    data = wavemap_su2().to_json_dict()
    data["phi"] = {"0,1": [[1, [0] * 8]]}
    with pytest.raises(InputError):
        System.from_json_dict(data)


# ------------------------------------------------------ example families


def test_wavemap_su2_shape():
    sys = wavemap_su2()
    t = sys.tableau
    assert (t.a_dim, t.b_dim, t.dim) == (2, 6, 6)
    assert [t.dim_at(h) for h in (0, 1, 2)] == [6, 6, 6]
    assert characters(t).s == (6, 0)
    assert cartan_test(t)["involutive"]


def test_wavemap_phi_blocks_agree():
    # both rows of the harmonic map equation carry the same bracket term
    sys = wavemap_su2()
    for c in range(3):
        assert sys.phi[(c, 0, 1)] == sys.phi[(3 + c, 0, 1)]
    # [e1, e2] = e3 for su(2): the c = 2 component contains +A^1 B^2
    term = sys.phi[(2, 0, 1)].coefficient([0, 0, 1, 0, 0, 0, 1, 0])
    assert term == 1


def test_wavemap_phi_matches_bracket_oracle():
    sys = wavemap_su2()
    alg = su2_algebra()
    rng = random.Random(11)
    for _ in range(5):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        point = [Fraction(rng.randint(-2, 2)), Fraction(0)] + a + b
        br = alg.bracket(a, b)
        for c in range(3):
            assert sys.phi_component(c, 0, 1).eval(point) == br[c]
            assert sys.phi_component(3 + c, 0, 1).eval(point) == br[c]


def test_wavemap_abelian_is_homogeneous():
    sys = build_wavemap_system(abelian_algebra(2))
    assert sys.tableau.dim == 4
    assert sys.is_quasilinear_homogeneous()


def test_gg0_sl3_shape():
    sys = build_gg0_system(sl3_decomposition())
    t = sys.tableau
    assert (t.a_dim, t.b_dim, t.dim) == (2, 3, 3)
    assert t.dim_at(1) == 3
    assert characters(t).s == (3, 0)
    assert cartan_test(t)["involutive"]
    # phi is homogeneous quadratic in the dependent variables only
    for poly in sys.phi.values():
        for exp in poly.terms:
            assert sum(exp) == 2
            assert exp[0] == exp[1] == 0


def test_gg0_sl3_phi_matches_bracket_oracle():
    cd = sl3_decomposition()
    sys = build_gg0_system(cd)
    alg = cd.algebra
    rng = random.Random(7)
    for _ in range(5):
        q = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
        f = [Fraction(0)] * alg.dim
        for c, bv in zip(q, cd.b.basis):
            f = [x + c * y for x, y in zip(f, bv)]
        v = alg.bracket(
            alg.bracket(cd.a_basis[0], f), alg.bracket(cd.a_basis[1], f)
        )
        expected = [-x for x in cd.coords_p(v)]
        point = [Fraction(0), Fraction(0)] + q
        for a in range(3):
            assert sys.phi_component(a, 0, 1).eval(point) == expected[a]


def test_gg0_sl2_is_degenerate():
    sys = build_gg0_system(sl2_decomposition())
    assert sys.tableau.a_dim == 1
    assert sys.tableau.dim == 1
    assert not sys.phi


def test_gg0_rejects_singular_basis():
    alg, g0 = sl3_decomposition().algebra, sl3_decomposition().g0
    # diag(1,1,-2) annihilates a root pair, so this basis is not regular
    singular = [Fraction(0)] * 6 + [Fraction(1), Fraction(2)]
    h2 = [Fraction(0)] * 7 + [Fraction(1)]
    cd = CartanDecomposition(alg, [list(v) for v in g0.basis], [singular, h2])
    with pytest.raises(NotRegular):
        build_gg0_system(cd)


# ---------------------------------------------------------- phi in B^{0,2}


def test_phi_in_b02_wavemap():
    cert = check_phi_in_B02(wavemap_su2())
    assert cert["passed"]
    assert cert["method"] == "expansion"
    assert cert["b02_dim"] == 6


def test_phi_in_b02_gg0():
    cert = check_phi_in_B02(build_gg0_system(sl3_decomposition()))
    assert cert["passed"]
    assert cert["b02_dim"] == 3


def test_phi_outside_b02_is_rejected():
    # span of e11 in Hom(R^2, R^2): delta image only covers the first row
    t = Tableau(2, 2, [[[1, 0], [0, 0]]])
    bad = System(t, {(1, 0, 1): Polynomial.variable(3, 0)})
    with pytest.raises(StructureViolation):
        check_phi_in_B02(bad)
    good = System(t, {(0, 0, 1): Polynomial.variable(3, 0)})
    assert check_phi_in_B02(good)["passed"]


# ------------------------------------------------------- torsion condition


def test_torsion_trivial_for_two_variables():
    cert = check_torsion_condition(wavemap_su2())
    assert cert["passed"]
    assert cert["method"] == "trivial_n_lt_3"


def test_torsion_passes_with_base_dependence():
    t = full3_tableau()
    x1 = Polynomial.variable(6, 0)
    x2 = Polynomial.variable(6, 1)
    x3 = Polynomial.variable(6, 2)
    sys = System(t, {(0, 0, 1): x1.mul(x3), (0, 0, 2): x1.mul(x2)})
    cert = check_torsion_condition(sys)
    assert cert["passed"]
    assert cert["identities_checked"] == 6


def test_torsion_passes_with_fiber_dependence():
    t = full3_tableau()
    q1 = Polynomial.variable(6, 3)
    q2 = Polynomial.variable(6, 4)
    q3 = Polynomial.variable(6, 5)
    sys = System(t, {(0, 0, 1): q1.neg(), (0, 0, 2): q1, (0, 1, 2): q2.add(q3)})
    assert check_torsion_condition(sys)["passed"]


def test_torsion_violation_is_pinpointed():
    t = full3_tableau()
    sys = System(t, {(0, 0, 1): Polynomial.variable(6, 2)})
    with pytest.raises(StructureViolation) as err:
        check_torsion_condition(sys)
    assert "cyclic compatibility" in str(err.value)
    assert "directions (0,1,2)" in str(err.value)


# ------------------------------------------------------------ prolongation
# tower


def test_s_chain_su2_first_element_matches_equations():
    """The canonical S_(1) reproduces the right hand sides of the system:
    the dy component of every A row is [A,B], the dx component of every
    B row is -[A,B], and the other slots vanish."""
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=1)
    s1 = tower.s_chain[0]
    nv = tower.jet.num_vars
    alg = su2_algebra()
    rng = random.Random(3)
    for _ in range(4):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(3)]
        point = [Fraction(0)] * 2 + a + b + [Fraction(0)] * (nv - 8)
        br = alg.bracket(a, b)
        for c in range(3):
            assert s1.components[(c) * 2 + 0].eval(point) == 0
            assert s1.components[(c) * 2 + 1].eval(point) == br[c]
            assert s1.components[(3 + c) * 2 + 0].eval(point) == -br[c]
            assert s1.components[(3 + c) * 2 + 1].eval(point) == 0


def test_s_chain_su2_verifies_to_order_two():
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=2)
    assert len(tower.s_chain) == 3
    report = verify_structure_equations(sys, tower)
    assert report["all_passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "delta_S1_equals_phi",
        "S1_valued_in_B_11",
        "delta_S2_equals_minus_dbar_S1",
        "S2_valued_in_B_21",
        "delta_S3_equals_minus_dbar_S2",
        "S3_valued_in_B_31",
        "structure_equation_r0",
        "structure_equation_r1",
    ]
    degrees = [
        max(p.total_degree() for p in s.components if not p.is_zero())
        for s in tower.s_chain
    ]
    assert degrees == [2, 3, 4]


def test_s_chain_gg0_sl3():
    sys = build_gg0_system(sl3_decomposition())
    tower = build_s_chain(sys, h=1)
    report = verify_structure_equations(sys, tower)
    assert report["all_passed"]
    assert len(report["checks"]) == 5


def test_s_chain_zero_phi_is_zero():
    sys = build_wavemap_system(abelian_algebra(2))
    tower = build_s_chain(sys, h=2)
    for s_map in tower.s_chain:
        assert s_map.is_zero()
    assert verify_structure_equations(sys, tower)["all_passed"]


def test_s_chain_is_deterministic():
    sys = wavemap_su2()
    t1 = build_s_chain(sys, h=2)
    t2 = build_s_chain(sys, h=2)
    for a, b in zip(t1.s_chain, t2.s_chain):
        assert a == b


def test_s_chain_solution_is_unique_in_its_slice():
    # delta restricted to B_{r,1} is injective, so the chain is pinned
    for sys in (wavemap_su2(), build_gg0_system(sl3_decomposition())):
        t = sys.tableau
        for r in (1, 2):
            split = HarmonicSplit(t, r, 1)
            if split.b_down.dim == 0:
                continue
            bd = Matrix.from_columns(split.b_down.basis, nrows=split.cell.dim)
            restricted = delta(split.cell).matmul(bd)
            assert restricted.kernel() == []


def test_s_chain_needs_two_acyclicity():
    t = Tableau(2, 2, [[[1, 0], [0, 1]]])
    sys = System(t, {})
    with pytest.raises(NotTwoAcyclic):
        build_s_chain(sys, h=1)


def test_s_chain_rejects_unsolvable_phi():
    t = Tableau(2, 2, [[[1, 0], [0, 0]]])
    sys = System(t, {(1, 0, 1): Polynomial.variable(3, 0)})
    with pytest.raises(NotInImage):
        build_s_chain(sys, h=0)


def test_tampered_tower_is_caught():
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=1)
    bad_top = tower.s_chain[1].add(
        PolyMap(
            tower.jet.num_vars,
            [Polynomial.constant(tower.jet.num_vars, 1)]
            + [Polynomial.zero(tower.jet.num_vars)] * (tower.s_chain[1].dim - 1),
        )
    )
    bad = TowerData(sys.tableau, 1, [tower.s_chain[0], bad_top])
    with pytest.raises(StructureViolation):
        verify_structure_equations(sys, bad)


def test_tower_builds_its_splits_and_contractions_once(monkeypatch):
    # order 2: splits of C^{1,1}, C^{2,1}, C^{3,1} and the contractions
    # of levels 1 and 2 in both directions, shared by the chain, both
    # runs of the delta identities and the structure equations; the
    # contractions live on the tableau, so a second tower over it builds
    # none of them again
    counts = {"splits": 0, "contractions": 0}
    split_init, contraction = HarmonicSplit.__init__, Tableau.contraction

    def counting_init(self, *args, **kwargs):
        counts["splits"] += 1
        split_init(self, *args, **kwargs)

    def counting_contraction(self, h, i, *args, **kwargs):
        if (h, i) not in self._contractions:
            counts["contractions"] += 1
        return contraction(self, h, i, *args, **kwargs)

    monkeypatch.setattr(HarmonicSplit, "__init__", counting_init)
    monkeypatch.setattr(Tableau, "contraction", counting_contraction)
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=2)
    assert verify_structure_equations(sys, tower)["all_passed"]
    assert counts == {"splits": 3, "contractions": 4}
    again = build_s_chain(sys, h=2)
    assert verify_structure_equations(sys, again)["all_passed"]
    assert counts["contractions"] == 4


# ----------------------------------------------------- frozen sign checks


def test_delta_values_on_rank_one_harmonic_tableau():
    """Hand computed differentials on the tableau {(X_2 dy, X_1 dx)} over
    a one dimensional Lie algebra.  Cell coordinates are (X_11, X_12,
    X_21, X_22); the two b rows are the dy block then the dx block."""
    sys = build_wavemap_system(abelian_algebra(1))
    t = sys.tableau
    d11 = delta(SpencerCell(t, 1, 1))
    assert d11.rows == [
        [0, 0, -1, 0],
        [0, 1, 0, 0],
    ]
    # second prolongation coordinates are (X_21, X_22, X_11, X_12)
    d21 = delta(SpencerCell(t, 2, 1))
    assert d21.rows == [
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
    ]


def test_gg0_bracket_form_has_double_phi_differential():
    """delta applied to A -> [B, [A, B]]_b equals twice the quadratic
    term of the decomposition system."""
    cd = sl3_decomposition()
    sys = build_gg0_system(cd)
    t = sys.tableau
    n, s = t.a_dim, t.dim
    nv = n + s
    alg = cd.algebra
    cols = [list(v) for v in cd.a_basis] + [list(v) for v in cd.b.basis]
    ab = Matrix.from_columns(cols, nrows=alg.dim)
    comps = []
    for beta in range(s):
        for i in range(n):
            terms = {}
            for g1 in range(s):
                for g2 in range(s):
                    v = alg.bracket(
                        cd.b.basis[g1],
                        alg.bracket(cd.a_basis[i], cd.b.basis[g2]),
                    )
                    c = ab.solve(list(v))[n + beta]
                    if c:
                        e = [0] * nv
                        e[n + g1] += 1
                        e[n + g2] += 1
                        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
            comps.append(Polynomial(nv, terms))
    d11 = delta(SpencerCell(t, 1, 1))
    image = []
    for row in d11.rows:
        acc = Polynomial.zero(nv)
        for c, p in zip(row, comps):
            if c:
                acc = acc.add(p.scale(c))
        image.append(acc)
    assert PolyMap(nv, image) == sys.phi_cell_map().scale(2)


def test_jet_vars_layout():
    sys = wavemap_su2()
    jet = JetVars(sys.tableau, top=2)
    assert jet.dims == [6, 6, 6]
    assert jet.num_vars == 20
    assert jet.q_index(0, 0) == 2
    assert jet.q_index(2, 5) == 19
    assert jet.names()[0] == "x1"
    assert jet.names()[2] == "q0_1"
