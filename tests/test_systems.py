import json
import random

import pytest
from fractions import Fraction

from dense_oracles import dense_cohomology_dim
from involutive import systems
from involutive.errors import (
    CapExceeded,
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
from involutive.tableau import Tableau, cartan_test, characters, involutive_index
from test_spencer import infinite_type_tableau, random_tableau


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
    for phi in ({"0,1": [[1, [0] * 8]]}, 5):
        data["phi"] = phi
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
        expected = [-x for x in cd.p.coordinates(v)]
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


def test_phi_in_b02_wavemap(monkeypatch):
    # delta^{1,1} is written from the contractions; no cell is built
    sys = wavemap_su2()
    cell_dim = SpencerCell(sys.tableau, 1, 1).dim

    def refuse(*args):
        raise AssertionError("check_phi_in_B02 built a cell")

    monkeypatch.setattr(SpencerCell, "__init__", refuse)
    cert = check_phi_in_B02(sys)
    assert cert["passed"]
    assert cert["method"] == "expansion"
    assert cert["b02_dim"] == 6
    assert cert["cell_dim"] == cell_dim == 12


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
            bd = Matrix.from_columns(split.b_down.basis, nrows=split.dim)
            restricted = delta(SpencerCell(t, r, 1)).matmul(bd)
            assert restricted.kernel() == []


def test_s_chain_needs_two_acyclicity():
    t = Tableau(2, 2, [[[1, 0], [0, 1]]])
    sys = System(t, {})
    with pytest.raises(NotTwoAcyclic):
        build_s_chain(sys, h=1)


def test_not_two_acyclic_refusals_match_dense_cohomology():
    # at its involutive index k = 1..3 a tableau is refused exactly when
    # some H^{q,2}, q = 1..k+1 (the range build_s_chain checks), is
    # nonzero by the dense Koszul count; Phi = 0 is always in B^{0,2}
    rng = random.Random(1887)
    seen = {"refused": 0, "accepted": 0}
    while seen["refused"] < 20 or seen["accepted"] < 3:
        n, r = rng.choice((2, 3)), rng.randint(1, 3)
        t = random_tableau(rng, n, r, rng.randint(1, min(6, n * r)))
        try:
            k = involutive_index(t, h_max=3)["k"]
        except CapExceeded:
            continue
        if k == 0:
            continue
        dims = [dense_cohomology_dim(t, q, 2) for q in range(1, k + 2)]
        try:
            build_s_chain(System(t, {}), h=k)
        except NotTwoAcyclic:
            assert any(dims), (t.to_json_dict(), k, dims)
            seen["refused"] += 1
        else:
            assert not any(dims), (t.to_json_dict(), k, dims)
            seen["accepted"] += 1
    # k = 1 with s != 0 at k: H^{1,3} = 1, but H^{1,2} = H^{2,2} = 0, so
    # the chain is built
    t = infinite_type_tableau()
    assert involutive_index(t, h_max=3)["k"] == 1
    assert dense_cohomology_dim(t, 1, 3) == 1
    assert [dense_cohomology_dim(t, q, 2) for q in (1, 2)] == [0, 0]
    assert len(build_s_chain(System(t, {}), h=1).s_chain) == 2


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


@pytest.mark.parametrize("order, names, component, pair", [
    (2, ["x1"], 1, "dx1 ^ dx2"),
    # two pairs are left over; the witness is the least in variable order
    (1, ["q1_1", "q1_2"], 0, "dx1 ^ dq1_1"),
])
def test_structure_witness_names_the_coframe_pair(order, names, component, pair):
    # the jet variables `names` added to component 0 of S_(1) break the
    # structure equation at r = 0; the witness names a coframe pair
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=order)
    nv = tower.jet.num_vars
    s1 = tower.s_chain[0]
    edited = s1.components[0]
    for name in names:
        edited = edited.add(Polynomial.variable(nv, tower.jet.names().index(name)))
    tower.s_chain = (PolyMap(nv, (edited,) + s1.components[1:]),) + tower.s_chain[1:]
    with pytest.raises(StructureViolation) as err:
        verify_structure_equations(sys, tower)
    assert str(err.value) == (
        "structure equation fails at r = 0, component %d, coframe pair %s"
        % (component, pair)
    )


def test_tower_builds_its_splits_and_contractions_once(monkeypatch):
    # order 2: splits of C^{1,1}, C^{2,1}, C^{3,1} and the contractions
    # of levels 0 to 3 in both directions, shared by the Spencer
    # differentials of the splits, the chain, the delta identities and
    # the structure equations; splits and contractions are shared through
    # the tableau, so a second tower over it builds none of them again
    counts = {"splits": 0, "contractions": 0}
    split_init, contraction = HarmonicSplit.__init__, Tableau.contraction

    def counting_init(self, *args, **kwargs):
        counts["splits"] += 1
        split_init(self, *args, **kwargs)

    def counting_contraction(self, h, i, *args, **kwargs):
        if ("contraction", h, i) not in self._memo:
            counts["contractions"] += 1
        return contraction(self, h, i, *args, **kwargs)

    monkeypatch.setattr(HarmonicSplit, "__init__", counting_init)
    monkeypatch.setattr(Tableau, "contraction", counting_contraction)
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=2)
    assert verify_structure_equations(sys, tower)["all_passed"]
    assert counts == {"splits": 3, "contractions": 8}
    again = build_s_chain(sys, h=2)
    assert verify_structure_equations(sys, again)["all_passed"]
    assert counts == {"splits": 3, "contractions": 8}
    assert again.splits == tower.splits


def test_structure_equations_reuse_the_chain_report(monkeypatch):
    # build_s_chain evaluates -Dbar(S_(r-1)) once per r, to build the
    # chain, and proves delta(S_(r)) against that same right-hand side;
    # verify_structure_equations on the same system and chain reuses that
    # proof, while a tower built by hand is checked afresh
    calls = []
    dbar = systems._dbar

    def counting_dbar(tower, ell):
        calls.append(ell)
        return dbar(tower, ell)

    monkeypatch.setattr(systems, "_dbar", counting_dbar)
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=2)
    assert calls == [1, 2]
    report = verify_structure_equations(sys, tower)
    assert calls == [1, 2]
    assert [c["name"] for c in report["checks"][:6]] == [
        "delta_S1_equals_phi", "S1_valued_in_B_11",
        "delta_S2_equals_minus_dbar_S1", "S2_valued_in_B_21",
        "delta_S3_equals_minus_dbar_S2", "S3_valued_in_B_31",
    ]
    by_hand = TowerData(sys.tableau, 2, tower.s_chain)
    assert verify_structure_equations(sys, by_hand) == report
    assert calls == [1, 2, 1, 2]
    # an equal system that is another object is checked afresh too
    other = System.from_json_dict(sys.to_json_dict())
    assert verify_structure_equations(other, tower) == report
    assert calls == [1, 2, 1, 2, 1, 2]


def test_edited_chain_is_checked_again(monkeypatch):
    # order 0 has no structure equation, so only the chain identities can
    # catch an edited S_(1).  The chain and its components are tuples of
    # immutable polynomials, so an edit rebinds the chain, and a chain
    # rebound is checked afresh.
    sys = wavemap_su2()
    tower = build_s_chain(sys, h=0)
    assert verify_structure_equations(sys, tower)["all_passed"]
    s1 = tower.s_chain[0]
    nv = tower.jet.num_vars
    with pytest.raises(TypeError):
        tower.s_chain[0] = s1
    with pytest.raises(TypeError):
        s1.components[0] = Polynomial.constant(nv, 1)
    with pytest.raises(AttributeError):
        s1.components = s1.components
    # the polynomials inside are immutable too
    with pytest.raises(TypeError):
        s1.components[0].terms[(0,) * nv] = Fraction(1)
    with pytest.raises(AttributeError):
        s1.components[0].terms = {}
    bump = PolyMap(nv, [Polynomial.constant(nv, 1)]
                   + [Polynomial.zero(nv)] * (s1.dim - 1))
    tower.s_chain = (s1.add(bump),)
    with pytest.raises(StructureViolation):
        verify_structure_equations(sys, tower)
    # so is a component replaced inside S_(1)
    tower = build_s_chain(sys, h=0)
    s1 = tower.s_chain[0]
    tower.s_chain = (PolyMap(nv, (Polynomial.constant(nv, 1),) + s1.components[1:]),)
    with pytest.raises(StructureViolation):
        verify_structure_equations(sys, tower)
    # and an S_(1) moved inside B_{1,1}, which only delta(S_(1)) = Phi sees
    tower = build_s_chain(sys, h=0)
    shift = [Polynomial.constant(nv, c) for c in tower.splits[1].b_down.basis[0]]
    tower.s_chain = (tower.s_chain[0].add(PolyMap(nv, shift)),)
    with pytest.raises(StructureViolation, match="delta_S1_equals_phi"):
        verify_structure_equations(sys, tower)
    # the kept proof serves only the chain tuple it checked: an equal chain
    # in a new tuple is proved again
    tower = build_s_chain(sys, h=0)
    proofs = []
    prove = systems._verify_delta_identities
    monkeypatch.setattr(systems, "_verify_delta_identities",
                        lambda *args: proofs.append(1) or prove(*args))
    assert verify_structure_equations(sys, tower)["all_passed"]
    assert proofs == []
    tower.s_chain = tuple(list(tower.s_chain))
    assert verify_structure_equations(sys, tower)["all_passed"]
    assert proofs == [1]


def test_system_behind_a_kept_proof_cannot_change():
    # the kept chain proof is keyed on the system object, so its phi and
    # its names cannot be written or rebound once built
    sys = wavemap_su2()
    build_s_chain(sys, h=0)
    key = min(sys.phi)
    with pytest.raises(TypeError):
        sys.phi[key] = sys.phi[key].scale(2)
    with pytest.raises(AttributeError):
        sys.phi = dict(sys.phi)
    with pytest.raises(AttributeError):
        sys.var_names = sys.var_names
    assert isinstance(sys.var_names, tuple)
    with pytest.raises(AttributeError):
        sys.cache = {}


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
