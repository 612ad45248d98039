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
exact polynomial identities.

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
iota, which Tableau.contraction builds once per tableau.  The System,
the chain tuple, its PolyMaps and their Polynomials are immutable all
the way down, so the proof of the chain identities that build_s_chain
keeps is reused for the same system and the same chain tuple, and a
rebound chain is proved again.
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

import math
from fractions import Fraction
from types import MappingProxyType

from .bases import ext_basis
from .errors import (
    BadDecomposition,
    DimensionMismatch,
    InputError,
    NotInImage,
    NotTwoAcyclic,
    StructureViolation,
)
from .linalg import (
    IntegerEchelon,
    Matrix,
    cleared,
    integer_columns,
)
from .poly import Polynomial, PolyMap, linear_combination
from .spencer import _delta, harmonic_split, two_acyclicity_report
from .tableau import DEFAULT_MAX_DIM, Tableau


class System:
    """Tableau plus polynomial non-homogeneous term.

    phi maps (a, i, j) with 0 <= i < j < n and 0 <= a < b_dim to a
    Polynomial in n + dim A variables ordered (x^1..x^n, q^1..q^s).
    Only pairs i < j are stored; the opposite slot order is the negative.
    A System is immutable: phi is a read-only mapping, var_names a tuple.
    """

    __slots__ = ("tableau", "phi", "var_names")

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
        self.phi = MappingProxyType(clean)
        if var_names is None:
            var_names = ["x%d" % (i + 1) for i in range(n)] + [
                "q%d" % (a + 1) for a in range(s)
            ]
        if len(var_names) != nv:
            raise DimensionMismatch("expected %d variable names" % nv)
        self.var_names = tuple(var_names)

    def __setattr__(self, name, value):
        if hasattr(self, name):
            raise AttributeError("a System is immutable, %s cannot be rebound" % name)
        object.__setattr__(self, name, value)

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
    def from_json_dict(cls, data, max_dim=DEFAULT_MAX_DIM):
        """The system of a tableau JSON object with a phi table; the
        tableau gets the dimension cap max_dim."""
        t = Tableau.from_json_dict(data, max_dim)
        nv = t.a_dim + t.dim
        tables = data.get("phi", {})
        if not isinstance(tables, dict):
            raise InputError("system JSON phi must be an object")
        phi = {}
        try:
            for key, table in tables.items():
                a, i, j = (int(x) for x in key.split(","))
                phi[(a, i, j)] = Polynomial.from_table(nv, table)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed system JSON") from exc
        names = data.get("vars")
        if "vars" in data and not (isinstance(names, list)
                                   and all(isinstance(v, str) for v in names)):
            raise InputError("system JSON vars must be a list of strings")
        return cls(t, phi, var_names=names)


class JetVars:
    """Variable layout of the tower space: x^1..x^n, then coordinates of
    A^(0), A^(1), ..., A^(top).

    Level s coordinates are taken over tableau.jet_basis(s): the given
    generators at level 0 (the dependent variables of the system), the
    canonical bases of the prolongations above.
    """

    def __init__(self, tableau, top):
        self.tableau = tableau
        self.top = top
        self.n = tableau.a_dim
        self.dims = [tableau.dim_at(s) for s in range(top + 1)]
        self.offsets = []
        off = self.n
        for d in self.dims:
            self.offsets.append(off)
            off += d
        self.num_vars = off

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
    pad = (0,) * (num_vars - poly.num_vars)
    return Polynomial.from_numerators(
        num_vars, {exp + pad: v for exp, v in poly.numerators.items()}, poly.den
    )


class TowerData:
    """One prolongation tower of order h: everything built from the tableau
    once, and the chain S_(1), ..., S_(h+1).

    jet is the JetVars layout of order h, which builds every level the
    tower reads under the tableau's max_dim, and splits[r] the
    HarmonicSplit of C^{r,1} for r = 1..h+1, read through
    spencer.harmonic_split, so every tower over one tableau shares
    them.  The contraction of level s by e_i is
    tableau.contraction(s, i), memoised on the tableau and shared by
    every tower over it.
    s_chain is the tuple (S_(1), ..., S_(h+1)); S_(r) is a PolyMap on the
    jet layout whose components are the cell coordinates of C^{r,1}(A)
    (index alpha * n + i for the level-(r-1) coordinate alpha and the dx
    slot i).  build_s_chain grows the chain by rebinding it.

    build_s_chain also keeps the report of the chain identities it has
    proved, with the system and the chain tuple it checked.  Both are
    immutable all the way down (phi and terms are read-only mappings,
    chains and components tuples), so an edited chain is a new tuple:
    verify_structure_equations reuses the report only for the same
    system object and the same chain object, and evaluates the
    identities of a hand-built or rebound chain again.
    """

    def __init__(self, tableau, order, s_chain=()):
        self.tableau = tableau
        self.order = order
        self.s_chain = tuple(s_chain)
        self.jet = JetVars(tableau, top=order)
        self.splits = {
            r: harmonic_split(tableau, r, 1) for r in range(1, order + 2)
        }
        self._checked = None

    def coefficient_form(self, r):
        """g_(r) with beta_(r) = dq_(r) - g_(r)(dx), in the layout of
        S_(r+1): S_(r+1) plus iota.q_(r+1) when level r+1 is in the jet
        layout, S_(r+1) alone at the top."""
        jet = self.jet
        n, nv = jet.n, jet.num_vars
        comps = list(self.s_chain[r].components)
        if r + 1 <= jet.top:
            q_next = [Polynomial.variable(nv, jet.q_index(r + 1, beta))
                      for beta in range(jet.dims[r + 1])]
            for i in range(n):
                rows = self.tableau.contraction(r + 1, i).rows
                for alpha in range(jet.dims[r]):
                    k = alpha * n + i
                    comps[k] = linear_combination(
                        [1, *rows[alpha]], [comps[k], *q_next], nv)
        return PolyMap(nv, comps)


def _total_derivative(poly, j, jet, gforms):
    """D_j poly on the tower: d/dx^j plus g_(s)^._j d/dq_(s)^. for every
    level s with a coefficient form gforms[s]."""
    n = jet.n
    polys = [poly.partial(j)]
    for s, g in enumerate(gforms):
        for gamma in range(jet.dims[s]):
            pf = poly.partial(jet.q_index(s, gamma))
            if not pf.is_zero():
                polys.append(pf.mul(g.components[gamma * n + j]))
    return linear_combination([1] * len(polys), polys, jet.num_vars)


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
    """({exponent tuple: coefficient vector}, den) across all components:
    the vectors hold integer numerators over den, one positive
    denominator for the whole map."""
    den = math.lcm(*(p.den for p in pm.components))
    out = {}
    for idx, poly in enumerate(pm.components):
        k = den // poly.den
        for exp, v in poly.numerators.items():
            vec = out.get(exp)
            if vec is None:
                vec = [0] * pm.dim
                out[exp] = vec
            vec[idx] = k * v
    return out, den


def _polymap_from_rows(num_vars, exps, rows, den):
    """The PolyMap whose component idx has coefficient rows[idx][j] / den
    at the monomial exps[j], for integer rows and den > 0."""
    return PolyMap(num_vars, [
        Polynomial.from_numerators(
            num_vars, {exp: v for exp, v in zip(exps, row) if v}, den)
        for row in rows
    ])


def check_phi_in_B02(sys):
    """Certificate that Phi takes values in B^{0,2}(A), checked by
    membership monomial by monomial, in sorted order.  A failure raises
    StructureViolation with the first monomial outside as its witness.
    delta^{1,1} is written straight from the contractions; the cell
    itself is not built.  One integer echelon is seeded with the columns
    of delta^{1,1}, so its length is dim B^{0,2}, and a monomial vector
    lies outside exactly when the echelon keeps it.
    """
    t = sys.tableau
    cell_dim = t.dim * t.a_dim  # dim C^{1,1} = dim A * C(n, 1)
    d11_rows = cleared(_delta(t, 1, 1, cell_dim))[0]
    b02 = IntegerEchelon(integer_columns(d11_rows, cell_dim))
    b02_dim = len(b02)
    monos, _ = _polymap_monomials(sys.phi_cell_map())
    for exp in sorted(monos):
        if b02.add(monos[exp]):
            raise StructureViolation(
                "phi monomial %r has a coefficient outside B^{0,2}" % (exp,)
            )
    return {
        "passed": True,
        "method": "expansion",
        "monomials": len(monos),
        "b02_dim": b02_dim,
        "cell_dim": cell_dim,
    }


def check_torsion_condition(sys):
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
    contractions = [t.contraction(1, u).transpose().rows for u in range(n)]
    for q_idx in range(t.dim_at(1)):
        qdirs = [contractions[u][q_idx] for u in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                for w in range(v + 1, n):
                    for a in range(r):
                        terms = []
                        for (p1, p2, p3) in ((u, v, w), (v, w, u), (w, u, v)):
                            comp = sys.phi_component(a, p2, p3)
                            terms.append((1, comp.partial(p1)))
                            terms += [(c, comp.partial(n + alpha))
                                      for alpha, c in enumerate(qdirs[p1]) if c]
                        coeffs, polys = zip(*terms)
                        total = linear_combination(coeffs, polys, nv)
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


def build_s_chain(sys, h, seed=0, k=None):
    """The chain S_(1), ..., S_(h+1) solving the tower equations.

    Requires two-acyclicity in the range the chain uses; every S_(r) is
    the canonical preimage inside B_{r,1}(A) and the defining identities
    are re-checked exactly before returning.  The tower keeps that report
    for verify_structure_equations on the same system and chain.  k is
    the involutive index of the tableau when the caller already holds it;
    otherwise seed certifies it (see two_acyclicity_report).  A negative
    order h raises InputError.
    """
    if h < 0:
        raise InputError("tower order must be >= 0, got %d" % h)
    t = sys.tableau
    report = two_acyclicity_report(t, q_cap=max(1, h), seed=seed, k=k)
    if not report["two_acyclic"]:
        raise NotTwoAcyclic(
            "the tableau is not 2-acyclic in the needed range: %r"
            % (report["H_q2_dims"],)
        )
    tower = TowerData(t, h)
    nv = tower.jet.num_vars

    targets = []

    def solve_into(r, rhs_map):
        """Append S_(r), the canonical preimage of rhs (C^{r-1,2} coords)
        under delta^{r,1}, and keep rhs as the target of its identity.
        The coefficient vectors of all monomials go through the split as
        the integer columns of one matrix."""
        split = tower.splits[r]
        monos, den = _polymap_monomials(rhs_map)
        columns = integer_columns(list(monos.values()), rhs_map.dim)
        rows, den = split.sigma_on_columns(columns, den, len(monos))
        tower.s_chain += (_polymap_from_rows(nv, list(monos), rows, den),)
        targets.append(rhs_map)

    solve_into(1, _phi_on_jet(sys, nv))
    for r in range(2, h + 2):
        solve_into(r, _dbar(tower, r - 1).scale(Fraction(-1)))
    rep = _verify_delta_identities(tower, targets)
    bad = [c for c in rep if not c["passed"]]
    if bad:
        raise StructureViolation(
            "chain construction failed its own identities: %r" % (bad[0],)
        )
    tower._checked = (sys, tower.s_chain, rep)
    return tower


def _chain_checks(sys, tower):
    """The chain-identity report: the one build_s_chain kept when sys is
    the system and tower.s_chain the chain tuple it checked, else a
    fresh evaluation."""
    kept = tower._checked
    if kept is not None and kept[0] is sys and kept[1] is tower.s_chain:
        return [dict(c) for c in kept[2]]
    return _verify_delta_identities(tower, _chain_targets(sys, tower))


def _chain_targets(sys, tower):
    """The right-hand sides Phi, -Dbar(S_(1)), ..., -Dbar(S_(h)) of the
    chain identities, evaluated on the tower's chain."""
    nv = tower.jet.num_vars
    return [_phi_on_jet(sys, nv)] + [
        _dbar(tower, r).scale(Fraction(-1)) for r in range(1, len(tower.s_chain))
    ]


def _phi_on_jet(sys, nv):
    """Phi in C^{0,2} cell coordinates over the nv jet variables."""
    return PolyMap(nv, [_embed_poly(p, nv) for p in sys.phi_cell_map().components])


def _verify_delta_identities(tower, targets):
    """Exact checks of delta(S_(1)) = Phi and delta(S_(r)) = -Dbar(S_(r-1))
    against targets, the right-hand sides Phi, -Dbar(S_(1)), ... of this
    chain, plus membership of every S_(r) in B_{r,1}."""
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
            name = "delta_S1_equals_phi"
        else:
            name = "delta_S%d_equals_minus_dbar_S%d" % (r, r - 1)
        checks.append(
            {
                "name": name,
                "passed": image == targets[r - 1],
                "detail": "",
            }
        )
        # one echelon per level, seeded with B_{r,1}: a monomial vector
        # outside it is the first row it keeps
        echelon = IntegerEchelon(split.b_down.integer_rows)
        member = not any(
            echelon.add(vec) for vec in _polymap_monomials(s_map)[0].values()
        )
        checks.append(
            {
                "name": "S%d_valued_in_B_%d1" % (r, r),
                "passed": member,
                "detail": "",
            }
        )
    return checks


def _wedge(form, la, lb, c, poly):
    """Add c * poly d(la) ^ d(lb) to form, a 2-form on the coframe of the
    jet variables (see JetVars) kept as {(a, b): (coefficients,
    polynomials)} on pairs a < b, each summed by linear_combination."""
    if la != lb:
        coeffs, polys = form.setdefault((min(la, lb), max(la, lb)), ([], []))
        coeffs.append(c if la < lb else -c)
        polys.append(poly)


def verify_structure_equations(sys, tower):
    """Exact verification of the tower's structure equations.

    Forms beta_(r) = dQ_(r) - g_(r)(dx) with the coefficient forms
    g_(r) = tower.coefficient_form(r), which is pi_(h) = dQ_(h) -
    S_(h+1)(dx) at the top, then checks

        d beta_(r) + beta_(r+1) wedge-dot dx = 0  mod {beta_(0..r)}

    (with pi in place of beta_(h)) coefficient-by-coefficient in the
    polynomial coordinate ring.  The report also carries the chain
    identities: the ones build_s_chain proved when it built this tower
    for sys and the chain is unchanged (see TowerData), otherwise
    evaluated here.  Returns a report; raises StructureViolation on the
    first failing identity, carrying (r, component) and the least coframe
    pair left over, named as in JetVars.names().
    """
    jet = tower.jet
    h = tower.order
    n = jet.n
    nv = jet.num_vars
    one = Polynomial.constant(nv, 1)
    checks = _chain_checks(sys, tower)
    gforms = [tower.coefficient_form(r) for r in range(h + 1)]

    # the dx coefficients g_(s)^alpha_i of every q_(s)^alpha below the top
    g_rows = {
        jet.q_index(s, alpha): gforms[s].components[alpha * n:(alpha + 1) * n]
        for s in range(h)
        for alpha in range(jet.dims[s])
    }

    def reduce_var(var, level_cap):
        """Expansion of the coordinate 1-form d(var) modulo
        {beta_(0..level_cap)}: dq_(s)^alpha with s <= level_cap becomes
        g_(s)^alpha(dx); any other variable is kept with the unit
        coefficient, written None."""
        if n <= var < jet.offsets[level_cap] + jet.dims[level_cap]:
            return list(enumerate(g_rows[var]))
        return [(var, None)]

    for r in range(h):
        # d beta_(r): -(sum_i d g^alpha_i wedge dx^i) per component alpha
        d_r = jet.dims[r]
        for alpha in range(d_r):
            sub = {}
            for i in range(n):
                g = gforms[r].components[alpha * n + i]
                for var in range(nv):
                    pg = g.partial(var)
                    if not pg.is_zero():
                        _wedge(sub, var, i, -1, pg)
            # + beta_(r+1) wedge-dot dx, contracted into level r coords;
            # beta_(r+1)^B = dq_(r+1)^B - g_(r+1)^B_j dx^j (pi when r+1 = h)
            for i in range(n):
                io = tower.tableau.contraction(r + 1, i)
                for bidx in range(jet.dims[r + 1]):
                    c = io.rows[alpha][bidx]
                    if not c:
                        continue
                    _wedge(sub, jet.q_index(r + 1, bidx), i, c, one)
                    for j in range(n):
                        _wedge(sub, j, i, -c, gforms[r + 1].components[bidx * n + j])
            # quotient by the ideal {beta_(0..r)}
            reduced = {}
            for (la, lb), (coeffs, polys) in sub.items():
                poly = linear_combination(coeffs, polys, nv)
                if poly.is_zero():
                    continue
                for (la2, ca) in reduce_var(la, r):
                    pa = poly if ca is None else poly.mul(ca)
                    for (lb2, cb) in reduce_var(lb, r):
                        _wedge(reduced, la2, lb2, 1, pa if cb is None else pa.mul(cb))
            left = [pair for pair, (coeffs, polys) in reduced.items()
                    if not linear_combination(coeffs, polys, nv).is_zero()]
            if left:
                names = jet.names()
                va, vb = min(left)
                raise StructureViolation(
                    "structure equation fails at r = %d, component %d, "
                    "coframe pair d%s ^ d%s" % (r, alpha, names[va], names[vb])
                )
        checks.append(
            {"name": "structure_equation_r%d" % r, "passed": True, "detail": ""}
        )
    bad = [c for c in checks if not c["passed"]]
    if bad:
        raise StructureViolation("tower identities fail: %r" % (bad[0],))
    return {"order": h, "checks": checks, "all_passed": True}


def build_gg0_system(cd):
    """System of a Cartan decomposition: tableau {ad_B|_a : B in b} in
    Hom(a, p), and Phi the p-projection of -[[A_i, F], [A_j, F]].

    The ordered basis of a must consist of regular elements; the
    commutator values must project cleanly onto p.  The bases of a and b
    are cleared to integer rows over one denominator each, so that every
    u = [A_i, B_beta] is one integer_bracket over a common scale, and
    coordinates in p are read off its pivots (integer_coords_p).
    """
    cd.require_regular_basis()
    alg = cd.algebra
    n = cd.n
    a_rows, a_den = cleared(Matrix(cd.a_basis, ncols=alg.dim))
    b_rows, b_den = cleared(cd.b.basis_matrix())
    scale = alg.den * a_den * b_den
    # u[i][beta] = scale * [a_i, b_beta]
    u = [[alg.integer_bracket(a, b) for b in b_rows] for a in a_rows]
    p_dim = cd.p.dim
    gens = []
    for beta in range(len(b_rows)):
        cols = [[Fraction(-c, scale) for c in cd.integer_coords_p(u[i][beta])]
                for i in range(n)]
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
                    try:
                        pc = cd.integer_coords_p(
                            alg.integer_bracket(u[i][beta], u[j][gamma]))
                    except NotInImage as exc:
                        raise BadDecomposition(
                            "[[a,b],[a,b]] does not take values in p"
                        ) from exc
                    e = [0] * nv
                    e[n + beta] += 1
                    e[n + gamma] += 1
                    key = tuple(e)
                    cur = coeff.get(key)
                    coeff[key] = pc if cur is None else [x + y for x, y in zip(cur, pc)]
            for a in range(p_dim):
                terms = {exp: -v[a] for exp, v in coeff.items() if v[a]}
                if terms:
                    phi[(a, i, j)] = Polynomial.from_numerators(
                        nv, terms, alg.den * scale * scale)
    return System(t, phi)


def build_wavemap_system(algebra):
    """Harmonic-map system of a Lie algebra g: two base variables, the
    tableau {(X_2 dy, X_1 dx)} in Hom(a, g (+) g), and the quadratic term
    coming from d F_x / dy = [F_x, F_y] and d F_y / dx = -[F_x, F_y].
    For theta = F_x dx + F_y dy this makes d theta(d_x, d_y) + [F_x, F_y]
    equal to -[F_x, F_y], not zero: 2 theta is the flat form.

    Dependent coordinates: q^1..q^m are the g-coordinates of the dx
    component, q^{m+1}..q^{2m} those of the dy component.
    """
    m = algebra.dim
    r = 2 * m
    gens = []
    for col, shift in ((0, m), (1, 0)):
        for c in range(m):
            g = [[0] * 2 for _ in range(r)]
            g[shift + c][col] = 1
            gens.append(Matrix(g, ncols=2))
    t = Tableau(2, r, gens)
    nv = 2 + r
    units = [[int(i == j) for j in range(m)] for i in range(m)]
    terms = [{} for _ in range(m)]
    for d in range(m):
        for e in range(m):
            exp = [0] * nv
            exp[2 + d] += 1
            exp[2 + m + e] += 1
            for c, x in enumerate(algebra.integer_bracket(units[d], units[e])):
                if x:
                    terms[c][tuple(exp)] = x
    phi = {}
    for c in range(m):
        if terms[c]:
            phi[(c, 0, 1)] = phi[(m + c, 0, 1)] = Polynomial.from_numerators(
                nv, terms[c], algebra.den)
    return System(t, phi)
