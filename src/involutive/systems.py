"""First order PDE systems defined by a tableau and a quadratic-or-worse
polynomial non-homogeneous term, with their prolongation towers.

A System is the data of the equations

    Q^a_{alpha i} d F^alpha / d x^j - Q^a_{alpha j} d F^alpha / d x^i
        = Phi^a_{ij}(x, q)      (i < j),

where the Q_alpha span the tableau and Phi is polynomial in the base
variables x^1..x^n and the dependent coordinates q^1..q^s (s = dim A).

Regularity checks: Phi must take values in B^{0,2}(A) (membership of
every monomial coefficient in the image of the Spencer differential) and
must satisfy the cyclic first-order compatibility identity; both run as
exact polynomial identities, with a randomized exact-evaluation fallback
above a size cap.

The prolongation tower is encoded by the chain S_(1), S_(2), ... of
polynomial maps solving

    delta(S_(1)) = Phi,      delta(S_(r)) = -Dbar(S_(r-1)),

where Dbar is the skew total derivative

    Dbar(S)(e_i, e_j) = D_j S(e_i) - D_i S(e_j),
    D_j = d/dx^j + sum_s g_(s)^._j d/dq_(s)^.,   g_(s) = S_(s+1) + iota.Q_(s+1).

Solvability and uniqueness come from two-acyclicity; each S_(r) is the
canonical preimage in B_{r,1}(A).  A TowerData holds one tower: its jet
layout, the harmonic splits of C^{r,1} and the chain, each built once,
and it writes the coefficient forms g_(r) from them and the contractions
iota, which Tableau.contraction builds once per tableau.
verify_structure_equations then forms the 1-forms
beta_(r) = dQ_(r) - g_(r)(dx) and the tableau form
pi_(h) = dQ_(h) - S_(h+1)(dx) and checks the structure equations

    d beta_(r) = -beta_(r+1) wedge dx   modulo {beta_(0..r)}

as identities between polynomial-coefficient 2-forms on the coordinate
ring of the tower.

Constructors are provided for the two example families: systems from a
Cartan decomposition (tableau ad_B restricted to a, values in p) and
harmonic-map systems over a Lie algebra (n = 2, b = g (+) g).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .bases import ext_basis
from .errors import (
    BadDecomposition,
    DimensionMismatch,
    InputError,
    NotInImage,
    NotTwoAcyclic,
    StructureViolation,
)
from .linalg import Matrix, Subspace
from .poly import Polynomial, PolyMap, linear_combination
from .spencer import HarmonicSplit, SpencerCell, delta, two_acyclicity_report
from .tableau import DEFAULT_MAX_DIM, Tableau

_EXPANSION_CAP = 20000


class System:
    """Tableau plus polynomial non-homogeneous term.

    phi maps (a, i, j) with 0 <= i < j < n and 0 <= a < b_dim to a
    Polynomial in n + dim A variables ordered (x^1..x^n, q^1..q^s).
    Only pairs i < j are stored; the opposite slot order is the negative.
    """

    def __init__(self, tableau, phi, var_names=None):
        self.tableau = tableau
        n, r = tableau.a_dim, tableau.b_dim
        s = tableau.dim
        nv = n + s
        clean = {}
        for key, poly in phi.items():
            a, i, j = key
            if not (0 <= a < r and 0 <= i < j < n):
                raise InputError("bad phi key %r" % (key,))
            if not isinstance(poly, Polynomial):
                raise InputError("phi values must be Polynomial instances")
            if poly.num_vars != nv:
                raise DimensionMismatch(
                    "phi component %r has %d variables, expected %d"
                    % (key, poly.num_vars, nv)
                )
            if not poly.is_zero():
                clean[(a, i, j)] = poly
        self.phi = clean
        if var_names is None:
            var_names = ["x%d" % (i + 1) for i in range(n)] + [
                "q%d" % (a + 1) for a in range(s)
            ]
        if len(var_names) != nv:
            raise DimensionMismatch("expected %d variable names" % nv)
        self.var_names = list(var_names)

    @property
    def num_vars(self):
        return self.tableau.a_dim + self.tableau.dim

    def phi_component(self, a, i, j):
        if i == j:
            return Polynomial.zero(self.num_vars)
        if i < j:
            return self.phi.get((a, i, j), Polynomial.zero(self.num_vars))
        return self.phi.get((a, j, i), Polynomial.zero(self.num_vars)).neg()

    def phi_cell_map(self):
        """Phi as a PolyMap into C^{0,2} cell coordinates."""
        n, r = self.tableau.a_dim, self.tableau.b_dim
        pairs = ext_basis(n, 2).indices
        comps = []
        for a in range(r):
            for (i, j) in pairs:
                comps.append(self.phi_component(a, i, j))
        return PolyMap(self.num_vars, comps)

    def is_quasilinear_homogeneous(self):
        return not self.phi

    def to_json_dict(self):
        d = self.tableau.to_json_dict()
        d["phi"] = {
            "%d,%d,%d" % key: poly.to_table() for key, poly in sorted(self.phi.items())
        }
        d["vars"] = list(self.var_names)
        return d

    @classmethod
    def from_json_dict(cls, data):
        t = Tableau.from_json_dict(data)
        nv = t.a_dim + t.dim
        phi = {}
        try:
            for key, table in data.get("phi", {}).items():
                a, i, j = (int(x) for x in key.split(","))
                phi[(a, i, j)] = Polynomial.from_table(nv, table)
            names = data.get("vars")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed system JSON") from exc
        return cls(t, phi, var_names=names)


class JetVars:
    """Variable layout of the tower space: x^1..x^n, then coordinates of
    A^(0), A^(1), ..., A^(top).

    Level s coordinates are taken over tableau.jet_basis(s): the given
    generators at level 0 (the dependent variables of the system), the
    canonical bases of the prolongations above.
    """

    def __init__(self, tableau, top, max_dim=DEFAULT_MAX_DIM):
        self.tableau = tableau
        self.top = top
        self.n = tableau.a_dim
        self.dims = [tableau.dim] + [
            tableau.level(s, max_dim).dim for s in range(1, top + 1)
        ]
        self.offsets = []
        off = self.n
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.num_vars = off

    def x_index(self, i):
        return i

    def q_index(self, s, alpha):
        return self.offsets[s] + alpha

    def names(self):
        out = ["x%d" % (i + 1) for i in range(self.n)]
        for s, d in enumerate(self.dims):
            out.extend("q%d_%d" % (s, a + 1) for a in range(d))
        return out


def _embed_poly(poly, num_vars):
    if poly.num_vars == num_vars:
        return poly
    if poly.num_vars > num_vars:
        raise DimensionMismatch("cannot shrink a polynomial's variable list")
    pad = num_vars - poly.num_vars
    return Polynomial(
        num_vars, {exp + (0,) * pad: c for exp, c in poly.terms.items()}
    )


class TowerData:
    """One prolongation tower of order h: everything built from the tableau
    once, and the chain S_(1), ..., S_(h+1).

    jet is the JetVars layout of order h, which builds every level the
    tower reads under max_dim, and splits[r] the HarmonicSplit of C^{r,1}
    for r = 1..h+1.  The contraction of level s by e_i is
    tableau.contraction(s, i), memoised on the tableau and shared by
    every tower over it.  s_chain[r-1] is S_(r), a PolyMap on the
    jet layout whose components are the cell coordinates of C^{r,1}(A)
    (index alpha * n + i for the level-(r-1) coordinate alpha and the dx
    slot i); build_s_chain appends them in order.
    """

    def __init__(self, tableau, order, s_chain=(), max_dim=DEFAULT_MAX_DIM):
        self.tableau = tableau
        self.order = order
        self.s_chain = list(s_chain)
        self.jet = JetVars(tableau, top=order, max_dim=max_dim)
        self.splits = {
            r: HarmonicSplit(tableau, r, 1, max_dim) for r in range(1, order + 2)
        }

    def coefficient_form(self, r):
        """g_(r) with beta_(r) = dq_(r) - g_(r)(dx), in the layout of
        S_(r+1): S_(r+1) plus iota.q_(r+1) when level r+1 is in the jet
        layout, S_(r+1) alone at the top."""
        jet = self.jet
        n, nv = jet.n, jet.num_vars
        comps = list(self.s_chain[r].components)
        if r + 1 <= jet.top:
            for i in range(n):
                rows = self.tableau.contraction(r + 1, i).rows
                for alpha in range(jet.dims[r]):
                    terms = {}
                    for beta, c in enumerate(rows[alpha]):
                        if c:
                            e = [0] * nv
                            e[jet.q_index(r + 1, beta)] = 1
                            terms[tuple(e)] = c
                    comps[alpha * n + i] = comps[alpha * n + i].add(
                        Polynomial(nv, terms)
                    )
        return PolyMap(nv, comps)


def _total_derivative(poly, j, jet, gforms):
    """D_j poly on the tower: d/dx^j plus g_(s)^._j d/dq_(s)^. for every
    level s with a coefficient form gforms[s]."""
    out = poly.partial(jet.x_index(j))
    n = jet.n
    for s, g in enumerate(gforms):
        for gamma in range(jet.dims[s]):
            pf = poly.partial(jet.q_index(s, gamma))
            if not pf.is_zero():
                out = out.add(pf.mul(g.components[gamma * n + j]))
    return out


def _dbar(tower, ell):
    """Skew total derivative of S_(ell) into C^{ell,2} cell coordinates:
    (Dbar S)(e_i, e_j) = D_j S(e_i) - D_i S(e_j) on pairs i < j."""
    jet = tower.jet
    s_map = tower.s_chain[ell - 1]
    n = jet.n
    # the levels s whose S_(s+1) is built and whose q_(s+1) is in the layout
    gforms = [
        tower.coefficient_form(s)
        for s in range(min(jet.top, len(tower.s_chain)))
    ]
    pairs = ext_basis(n, 2).indices
    comps = []
    for alpha in range(s_map.dim // n):
        per_dir = [s_map.components[alpha * n + i] for i in range(n)]
        for (i, j) in pairs:
            dj = _total_derivative(per_dir[i], j, jet, gforms)
            di = _total_derivative(per_dir[j], i, jet, gforms)
            comps.append(dj.sub(di))
    return PolyMap(jet.num_vars, comps)


def _polymap_monomials(pm):
    """{exponent tuple: coefficient vector} across all components."""
    out = {}
    for idx, poly in enumerate(pm.components):
        for exp, c in poly.terms.items():
            vec = out.get(exp)
            if vec is None:
                vec = [Fraction(0)] * pm.dim
                out[exp] = vec
            vec[idx] = c
    return out


def _polymap_from_monomials(num_vars, dim, monos):
    comps = []
    for idx in range(dim):
        terms = {}
        for exp, vec in monos.items():
            if vec[idx]:
                terms[exp] = vec[idx]
        comps.append(Polynomial(num_vars, terms))
    return PolyMap(num_vars, comps)


def check_phi_in_B02(sys, trials=None, seed=0, max_dim=DEFAULT_MAX_DIM):
    """Certificate that Phi takes values in B^{0,2}(A).

    Monomial-by-monomial subspace membership when the expansion is small
    enough, otherwise exact evaluation at random rational points.  A
    failure raises StructureViolation with a witness.
    """
    t = sys.tableau
    cell11 = SpencerCell(t, 1, 1, max_dim)
    d11 = delta(cell11, max_dim)
    b02 = Subspace(d11.nrows, d11.transpose().rows)
    pm = sys.phi_cell_map()
    monos = _polymap_monomials(pm)
    if len(monos) <= _EXPANSION_CAP:
        for exp, vec in sorted(monos.items()):
            if not b02.contains(vec):
                raise StructureViolation(
                    "phi monomial %r has a coefficient outside B^{0,2}" % (exp,)
                )
        return {
            "passed": True,
            "method": "expansion",
            "monomials": len(monos),
            "b02_dim": b02.dim,
            "cell_dim": cell11.dim,
        }
    degree = max((p.total_degree() for p in pm.components), default=0)
    count = trials if trials is not None else 2 * degree + 4
    rng = random.Random(seed)
    for k in range(count):
        point = [
            Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            for _ in range(sys.num_vars)
        ]
        if not b02.contains(pm.eval(point)):
            raise StructureViolation(
                "phi value at sampled point %d lies outside B^{0,2}" % k
            )
    return {
        "passed": True,
        "method": "sampling",
        "trials": count,
        "b02_dim": b02.dim,
        "cell_dim": cell11.dim,
    }


def check_torsion_condition(sys, trials=None, seed=0, max_dim=DEFAULT_MAX_DIM):
    """Certificate for the cyclic compatibility identity

        sum_cyc Phi_*|(x,q)(A_1 + Q_(1)(A_1))(A_2, A_3) = 0,

    checked as an exact polynomial identity over basis directions A_i and
    a basis of A^(1).  With n < 3 there is no room for three independent
    slots and the identity holds trivially.

    The derivative Phi_* is read as the directional derivative of the
    polynomial map Phi along the tower tangent (A_1, Q_(1)(A_1)).
    """
    t = sys.tableau
    n = t.a_dim
    if n < 3:
        return {
            "passed": True,
            "method": "trivial_n_lt_3",
            "reading": "directional derivative along (A_1, Q_(1)(A_1))",
        }
    r = t.b_dim
    nv = sys.num_vars
    checked = 0
    # column q_idx of iota(e_u) holds the level-0 coordinates of the
    # contraction of the q_idx-th basis element of A^(1) by e_u
    contractions = [t.contraction(1, u, max_dim).transpose().rows for u in range(n)]
    for q_idx in range(t.dim_at(1, max_dim)):
        qdirs = [contractions[u][q_idx] for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    for a in range(r):
                        total = Polynomial.zero(nv)
                        for (p1, p2, p3) in ((u, v, w), (v, w, u), (w, u, v)):
                            comp = sys.phi_component(a, p2, p3)
                            term = comp.partial(p1)
                            for alpha, c in enumerate(qdirs[p1]):
                                if c:
                                    term = term.add(
                                        comp.partial(n + alpha).scale(c)
                                    )
                            total = total.add(term)
                        checked += 1
                        if not total.is_zero():
                            raise StructureViolation(
                                "cyclic compatibility fails for A^(1) basis "
                                "element %d, directions (%d,%d,%d), "
                                "component %d" % (q_idx, u, v, w, a)
                            )
    return {
        "passed": True,
        "method": "expansion",
        "identities_checked": checked,
        "reading": "directional derivative along (A_1, Q_(1)(A_1))",
    }


def build_s_chain(sys, h, samples=5, seed=0, max_dim=DEFAULT_MAX_DIM, k=None):
    """The chain S_(1), ..., S_(h+1) solving the tower equations.

    Requires two-acyclicity in the range the chain uses; every S_(r) is
    the canonical preimage inside B_{r,1}(A) and the defining identities
    are re-checked exactly before returning.  k is the involutive index
    of the tableau when the caller already holds it (see
    two_acyclicity_report).
    """
    t = sys.tableau
    report = two_acyclicity_report(
        t, q_cap=max(1, h), samples=samples, seed=seed, max_dim=max_dim, k=k
    )
    if not report["two_acyclic"]:
        raise NotTwoAcyclic(
            "the tableau is not 2-acyclic in the needed range: %r"
            % (report["H_q2_dims"],)
        )
    tower = TowerData(t, h, max_dim=max_dim)
    nv = tower.jet.num_vars

    def solve_into(r, rhs_map):
        """Append S_(r), the canonical preimage of rhs (C^{r-1,2} coords)
        under delta^{r,1}."""
        split = tower.splits[r]
        out = {
            exp: split.sigma_on_cell_coords(vec)
            for exp, vec in _polymap_monomials(rhs_map).items()
        }
        tower.s_chain.append(_polymap_from_monomials(nv, split.cell.dim, out))

    solve_into(1, _phi_on_jet(sys, nv))
    for r in range(2, h + 2):
        solve_into(r, _dbar(tower, r - 1).scale(Fraction(-1)))
    rep = _verify_delta_identities(sys, tower)
    bad = [c for c in rep if not c["passed"]]
    if bad:
        raise StructureViolation(
            "chain construction failed its own identities: %r" % (bad[0],)
        )
    return tower


def _phi_on_jet(sys, nv):
    """Phi in C^{0,2} cell coordinates over the nv jet variables."""
    return PolyMap(nv, [_embed_poly(p, nv) for p in sys.phi_cell_map().components])


def _verify_delta_identities(sys, tower):
    """Exact checks of delta(S_(1)) = Phi and delta(S_(r)) = -Dbar(S_(r-1)),
    plus membership of every S_(r) in B_{r,1}."""
    nv = tower.jet.num_vars
    checks = []
    for r, s_map in enumerate(tower.s_chain, start=1):
        split = tower.splits[r]
        image = PolyMap(
            nv,
            [
                linear_combination(row, s_map.components, nv)
                for row in split.d_out.rows
            ],
        )
        if r == 1:
            target = _phi_on_jet(sys, nv)
            name = "delta_S1_equals_phi"
        else:
            target = _dbar(tower, r - 1).scale(Fraction(-1))
            name = "delta_S%d_equals_minus_dbar_S%d" % (r, r - 1)
        checks.append(
            {
                "name": name,
                "passed": image == target,
                "detail": "",
            }
        )
        member = all(
            split.b_down.contains(vec)
            for vec in _polymap_monomials(s_map).values()
        )
        checks.append(
            {
                "name": "S%d_valued_in_B_%d1" % (r, r),
                "passed": member,
                "detail": "",
            }
        )
    return checks


def _label_key(label):
    if label[0] == "x":
        return (0, label[1], 0)
    return (1, label[1], label[2])


class _TwoForm:
    """A 2-form with Polynomial coefficients over the coordinate coframe
    {dx^i, dq_(s)^alpha} of the tower space."""

    def __init__(self, nv):
        self.nv = nv
        self.terms = {}

    def add_term(self, la, lb, poly):
        if poly.is_zero() or la == lb:
            return
        if _label_key(la) > _label_key(lb):
            la, lb, poly = lb, la, poly.neg()
        key = (la, lb)
        cur = self.terms.get(key)
        new = poly if cur is None else cur.add(poly)
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def is_zero(self):
        return not self.terms

    def first_nonzero(self):
        for key in sorted(self.terms, key=lambda k: (_label_key(k[0]), _label_key(k[1]))):
            return key
        return None


def verify_structure_equations(sys, tower):
    """Exact verification of the tower's structure equations.

    Forms beta_(r) = dQ_(r) - g_(r)(dx) with the coefficient forms
    g_(r) = tower.coefficient_form(r), which is pi_(h) = dQ_(h) -
    S_(h+1)(dx) at the top, then checks

        d beta_(r) + beta_(r+1) wedge-dot dx = 0  mod {beta_(0..r)}

    (with pi in place of beta_(h)) coefficient-by-coefficient in the
    polynomial coordinate ring.  Also re-checks the chain identities.
    Returns a report; raises StructureViolation on the first failing
    identity, carrying (r, component).
    """
    jet = tower.jet
    h = tower.order
    n = jet.n
    nv = jet.num_vars
    checks = _verify_delta_identities(sys, tower)
    gforms = [tower.coefficient_form(r) for r in range(h + 1)]

    def reduce_label(label, level_cap):
        """Expansion of a coordinate 1-form modulo {beta_(0..level_cap)}:
        dq_(s) with s <= level_cap becomes g_(s)(dx)."""
        if label[0] == "q" and label[1] <= level_cap:
            s, alpha = label[1], label[2]
            return [(("x", i), gforms[s].components[alpha * n + i]) for i in range(n)]
        return [(label, Polynomial.constant(nv, 1))]

    for r in range(h):
        # d beta_(r): -(sum_i d g^alpha_i wedge dx^i) per component alpha
        d_r = jet.dims[r]
        for alpha in range(d_r):
            sub = _TwoForm(nv)
            for i in range(n):
                g = gforms[r].components[alpha * n + i]
                for var in range(nv):
                    pg = g.partial(var)
                    if pg.is_zero():
                        continue
                    label = (
                        ("x", var)
                        if var < n
                        else ("q",) + _level_of(jet, var)
                    )
                    sub.add_term(label, ("x", i), pg.neg())
            # + beta_(r+1) wedge-dot dx, contracted into level r coords;
            # beta_(r+1)^B = dq_(r+1)^B - g_(r+1)^B_j dx^j (pi when r+1 = h)
            for i in range(n):
                io = tower.tableau.contraction(r + 1, i)
                for bidx in range(jet.dims[r + 1]):
                    c = io.rows[alpha][bidx]
                    if not c:
                        continue
                    sub.add_term(
                        ("q", r + 1, bidx), ("x", i), Polynomial.constant(nv, c)
                    )
                    for j in range(n):
                        g2 = gforms[r + 1].components[bidx * n + j]
                        sub.add_term(("x", j), ("x", i), g2.scale(-c))
            # quotient by the ideal {beta_(0..r)}
            reduced = _TwoForm(nv)
            for (la, lb), poly in sub.terms.items():
                for (la2, ca) in reduce_label(la, r):
                    for (lb2, cb) in reduce_label(lb, r):
                        reduced.add_term(la2, lb2, poly.mul(ca).mul(cb))
            if not reduced.is_zero():
                witness = reduced.first_nonzero()
                checks.append(
                    {
                        "name": "structure_equation_r%d" % r,
                        "passed": False,
                        "detail": "component %d, coframe pair %r" % (alpha, witness),
                    }
                )
                raise StructureViolation(
                    "structure equation fails at r = %d, component %d, "
                    "coframe pair %r" % (r, alpha, witness)
                )
        checks.append(
            {"name": "structure_equation_r%d" % r, "passed": True, "detail": ""}
        )
    bad = [c for c in checks if not c["passed"]]
    if bad:
        raise StructureViolation("tower identities fail: %r" % (bad[0],))
    return {"order": h, "checks": checks, "all_passed": True}


def _level_of(jet, var):
    for s in range(len(jet.dims)):
        start = jet.offsets[s]
        if start <= var < start + jet.dims[s]:
            return (s, var - start)
    raise InputError("variable index %d is not a jet coordinate" % var)


def build_gg0_system(cd):
    """System of a Cartan decomposition: tableau {ad_B|_a : B in b} in
    Hom(a, p), and Phi the p-projection of -[[A_i, F], [A_j, F]].

    The ordered basis of a must consist of regular elements; the
    commutator values must project cleanly onto p.
    """
    cd.require_regular_basis()
    alg = cd.algebra
    n = cd.n
    a_basis = cd.a_basis
    b_basis = cd.b.basis
    p_dim = cd.p.dim
    gens = []
    for bv in b_basis:
        cols = [cd.coords_p(alg.bracket(bv, av)) for av in a_basis]
        gens.append(Matrix.from_columns(cols, nrows=p_dim))
    try:
        t = Tableau(n, p_dim, gens)
    except InputError as exc:
        raise BadDecomposition(
            "the map b -> Hom(a, p) is not injective on the chosen bases"
        ) from exc
    s = t.dim
    nv = n + s
    phi = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeff = {}
            for beta in range(s):
                for gamma in range(s):
                    v = alg.bracket(
                        alg.bracket(a_basis[i], b_basis[beta]),
                        alg.bracket(a_basis[j], b_basis[gamma]),
                    )
                    try:
                        pc = cd.coords_p(v)
                    except NotInImage as exc:
                        raise BadDecomposition(
                            "[[a,b],[a,b]] does not take values in p"
                        ) from exc
                    e = [0] * nv
                    e[n + beta] += 1
                    e[n + gamma] += 1
                    key = tuple(e)
                    cur = coeff.get(key, [Fraction(0)] * p_dim)
                    coeff[key] = [x - y for x, y in zip(cur, pc)]
            for a in range(p_dim):
                terms = {exp: vec[a] for exp, vec in coeff.items() if vec[a]}
                if terms:
                    phi[(a, i, j)] = Polynomial(nv, terms)
    return System(t, phi)


def build_wavemap_system(algebra):
    """Harmonic-map system of a Lie algebra g: two base variables, the
    tableau {(X_2 dy, X_1 dx)} in Hom(a, g (+) g), and the quadratic term
    coming from d F_x / dy = [F_x, F_y] and d F_y / dx = -[F_x, F_y].

    Dependent coordinates: q^1..q^m are the g-coordinates of the dx
    component, q^{m+1}..q^{2m} those of the dy component.
    """
    m = algebra.dim
    r = 2 * m
    gens = []
    for c in range(m):
        g = [[Fraction(0)] * 2 for _ in range(r)]
        g[m + c][0] = Fraction(1)
        gens.append(Matrix(g, ncols=2))
    for c in range(m):
        g = [[Fraction(0)] * 2 for _ in range(r)]
        g[c][1] = Fraction(1)
        gens.append(Matrix(g, ncols=2))
    t = Tableau(2, r, gens)
    nv = 2 + r
    bracket_polys = []
    for c in range(m):
        terms = {}
        for d in range(m):
            ed = [Fraction(0)] * m
            ed[d] = Fraction(1)
            for e in range(m):
                ee = [Fraction(0)] * m
                ee[e] = Fraction(1)
                coeff = algebra.bracket(ed, ee)[c]
                if coeff:
                    exp = [0] * nv
                    exp[2 + d] += 1
                    exp[2 + m + e] += 1
                    key = tuple(exp)
                    terms[key] = terms.get(key, Fraction(0)) + coeff
        bracket_polys.append(Polynomial(nv, terms))
    phi = {}
    for c in range(m):
        if not bracket_polys[c].is_zero():
            phi[(c, 0, 1)] = bracket_polys[c]
            phi[(m + c, 0, 1)] = bracket_polys[c]
    return System(t, phi)
