"""Formal power-series Cauchy problem for involutive systems.

Cauchy data live in the coordinates adapted to a triangular normal form
of the involutive prolongation A^(k): a base point x0, constant values
P_(0..k-1) for the lower jet levels, and for each block index rho a
polynomial map P^[rho] in the first rho adapted variables prescribing
the [rho]-block of the level-k coordinates on the slice
u^{rho+1} = ... = u^n = 0.

The solver works degree by degree in the adapted variables u (where
x = x0 + basis_a u).  At each degree the data-prescribed coefficients
are copied, the remaining level-k coefficients are determined by the
exact linear slice of the curl equations

    iota(a_rho) d_sigma Q_(k) - iota(a_sigma) d_rho Q_(k)
        = iota(a_rho) S_(k+1)(a_sigma) - iota(a_sigma) S_(k+1)(a_rho),

and the lower levels integrate the full gradient prescriptions
d Q_(r) = g_(r)(dx), with g_(r) = S_(r+1) + iota.Q_(r+1) the tower's
coefficient form (TowerData.coefficient_form).  Unique solvability of
every slice is asserted at runtime; it is exactly what involutivity
provides.  A slice is kept as sparse rows over its unknowns with the
right-hand side as one more column, and reduced in one IntegerEchelon:
a pivot in the right-hand column proves it inconsistent, fewer pivots
than unknowns proves it underdetermined (InconsistentData either way),
and otherwise each pivot row of the back-substituted echelon gives one
coefficient exactly.  Rows left over once every unknown is a pivot are
checked by their product with that solution instead of being reduced.

Every contraction is read off the tableau's memoised maps: along the
adapted directions a_rho, iota(a_rho) = sum_i basis_a[i][rho] *
Tableau.contraction(k, i) takes level-k jet coordinates to level-(k-1)
jet coordinates (to b when k = 0).  The curl rows above are written in
those coordinates.

The polar-space checks count along the integral flag E_h spanned by the
normal-form directions a_1..a_h lifted through the section xi -> (xi,
S_(k+1)(xi)).  A vector (xi, X) is polar to the flag element (a_l,
S(a_l)) when iota(a_l)(X - S(xi)) - iota(xi)(S(a_l) - S(a_l)) = 0.  The
second term vanishes because the flag lies on the section, and the
change of variables (xi, X) -> (xi, X - S(xi)) is invertible, so

    dim H(E_h) = n + dim A^(k) - rank(stack_{l<h} iota(a_l)),

the same at every point (Cartan-Kahler for a linear Pfaffian system
without torsion), which must equal n + s_{h+1} + ... + s_nu.  The same
substitution reduces the restricted count of H(E_h) intersected with
Sigma(A_{h+1}) to the rank of the stacked contractions on the normal
generators of blocks 1..h; that count must be h + 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import (
    CapExceeded,
    DimensionMismatch,
    InconsistentData,
    InputError,
    UnstableGenericity,
)
from .linalg import IntegerEchelon, Matrix, clear_denominators, frac
from .poly import Polynomial, PolyMap, linear_combination
from .tableau import DEFAULT_MAX_DIM, flatten_generator, involutive_index

DEFAULT_MAX_DEGREE = 10


class CauchyData:
    """Initial data: base point, lower-level constants, block functions.

    constants[h] is the value of Q_(h) at x0 for h = 0..k-1 (coordinates
    over the generator basis at level 0, the canonical prolongation
    bases above).  blocks[rho-1] is a list of Polynomials in rho
    variables, one per normal generator of the [rho] block.
    """

    def __init__(self, x0, constants=(), blocks=()):
        self.x0 = [frac(x) for x in x0]
        self.constants = [[frac(x) for x in vec] for vec in constants]
        self.blocks = [list(block) for block in blocks]
        for rho, block in enumerate(self.blocks, start=1):
            for p in block:
                if not isinstance(p, Polynomial):
                    raise InputError("block entries must be Polynomials")
                if p.num_vars != rho:
                    raise DimensionMismatch(
                        "block %d polynomial has %d variables, expected %d"
                        % (rho, p.num_vars, rho)
                    )

    def validate(self, n, level_dims, s, degree):
        if len(self.x0) != n:
            raise InputError("x0 has length %d, expected %d" % (len(self.x0), n))
        if len(self.constants) != len(level_dims):
            raise InputError(
                "expected %d constant levels, got %d"
                % (len(level_dims), len(self.constants))
            )
        for h, (vec, d) in enumerate(zip(self.constants, level_dims)):
            if len(vec) != d:
                raise InputError(
                    "P_(%d) has length %d, expected %d" % (h, len(vec), d)
                )
        nu = max((j + 1 for j, x in enumerate(s) if x), default=0)
        if len(self.blocks) != nu:
            raise InputError(
                "expected %d data blocks, got %d" % (nu, len(self.blocks))
            )
        for rho, block in enumerate(self.blocks, start=1):
            if len(block) != s[rho - 1]:
                raise InputError(
                    "block %d has %d components, expected %d"
                    % (rho, len(block), s[rho - 1])
                )
            for p in block:
                if p.total_degree() > degree:
                    raise InputError(
                        "block %d data exceeds the truncation degree %d"
                        % (rho, degree)
                    )

    def to_json_dict(self):
        return {
            "x0": [str(x) for x in self.x0],
            "P_const": [[str(x) for x in vec] for vec in self.constants],
            "P_blocks": {
                str(rho): [p.to_table() for p in block]
                for rho, block in enumerate(self.blocks, start=1)
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        try:
            x0 = [frac(x) for x in data["x0"]]
            constants = [[frac(x) for x in vec] for vec in data.get("P_const", [])]
            raw = data.get("P_blocks", {})
            blocks = []
            for rho in range(1, len(raw) + 1):
                tables = raw[str(rho)]
                blocks.append(
                    [Polynomial.from_table(rho, tbl) for tbl in tables]
                )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed Cauchy data JSON") from exc
        return cls(x0, constants, blocks)


class FormalSolution:
    """Truncated power-series solution.

    q_maps[h] is Q_(h) as a PolyMap in the original variables x^1..x^n;
    u_maps[h] is the same series in the adapted variables.  The series
    of the top level is also kept in normal-basis block coordinates.
    """

    def __init__(self, degree, x0, k, q_maps, u_maps, normal_series,
                 composition_identity, nf):
        self.degree = degree
        self.x0 = x0
        self.k = k
        self.q_maps = q_maps
        self.u_maps = u_maps
        self.normal_series = normal_series
        self.composition_identity = composition_identity
        self.nf = nf

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "x0": [str(x) for x in self.x0],
            "k": self.k,
            "Q": [[p.to_table() for p in m.components] for m in self.q_maps],
            "composition_identity": {
                str(rho): bool(v)
                for rho, v in self.composition_identity.items()
            },
        }


def _affine_x_of_u(n, x0, basis_a):
    subs = []
    for i in range(n):
        terms = {tuple([0] * n): x0[i]} if x0[i] else {}
        for rho in range(n):
            c = basis_a.rows[i][rho]
            if c:
                e = [0] * n
                e[rho] = 1
                terms[tuple(e)] = c
        subs.append(Polynomial(n, terms))
    return subs


def _normal_gen_info(t, nf, k, max_dim):
    """Level-k coordinates of the normal generators, one column each, and
    their block indices."""
    block_of = [j for j, block in enumerate(nf.blocks, start=1) for _ in block]
    # A^(k) viewed in Hom(a, b (x) S^k) has the level-k basis as generators
    view = t.view_at_level(k, max_dim)
    coord_cols = [
        view.jet_coordinates(0, flatten_generator(q)) for q in nf.normal_basis()
    ]
    return Matrix.from_columns(coord_cols, nrows=view.dim), block_of


def _flag_contractions(t, basis_a, k, max_dim):
    """iota(a_rho) = sum_i basis_a[i][rho] * t.contraction(k, i) for each
    flag direction a_rho: level-k jet coordinates -> level-(k-1) jet
    coordinates, or b when k = 0."""
    n = t.a_dim
    iota_e = [t.contraction(k, i, max_dim) for i in range(n)]
    out = []
    for rho in range(n):
        acc = Matrix.zeros(iota_e[0].nrows, iota_e[0].ncols)
        for i in range(n):
            c = basis_a.rows[i][rho]
            if c:
                acc = acc.add(iota_e[i] * c)
        out.append(acc)
    return out


def _check_level(t, tower, k, max_dim):
    """The level k (the involutive index of t when None), which the tower
    must reach."""
    if k is None:
        k = involutive_index(t, h_max=max(tower.order, 0), max_dim=max_dim)["k"]
    if tower.order < k:
        raise InputError(
            "tower of order %d cannot solve at level k = %d" % (tower.order, k)
        )
    return k


def _compose_chain_map(s_map, x_subs, u_series, jet, degree):
    """S-chain PolyMap composed with the solution jet, truncated."""
    subs = list(x_subs)
    n = jet.n
    for s, d in enumerate(jet.dims):
        if s < len(u_series):
            subs.extend(u_series[s])
        else:
            subs.extend([Polynomial.zero(n)] * d)
    return s_map.compose(subs, degree).components


def _monomials(n, d):
    if d == 0:
        return [tuple([0] * n)]
    out = []
    for combo in itertools.combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def solve_formal(sys, tower, nf, data, degree, k=None, max_dim=DEFAULT_MAX_DIM,
                 max_degree=DEFAULT_MAX_DEGREE):
    """Unique formal solution through the given truncation degree.

    The data supply the block coefficients supported in their own
    variables; everything else is forced by the equations, degree by
    degree, through exact linear solves whose unique solvability is
    asserted (InconsistentData otherwise; see _solve_slice).  A degree
    above max_degree raises CapExceeded.
    """
    t = sys.tableau
    n = t.a_dim
    if degree > max_degree:
        raise CapExceeded(
            "truncation degree %d exceeds the cap %d" % (degree, max_degree)
        )
    k = _check_level(t, tower, k, max_dim)
    jet = tower.jet
    level_dims = jet.dims
    data.validate(n, level_dims[:k], nf.s, degree)
    basis_a = nf.basis_a
    a_inv = basis_a.inverse()
    x_subs = _affine_x_of_u(n, data.x0, basis_a)
    big_n, block_of = _normal_gen_info(t, nf, k, max_dim)
    nk = len(block_of)
    flag_cols = [
        [basis_a.rows[i][rho] for i in range(n)] for rho in range(n)
    ]
    iota_u = _flag_contractions(t, basis_a, k, max_dim)
    # gen_val[rho][out][m]: normal generator m contracted by a_rho
    gen_val = [io.matmul(big_n).rows for io in iota_u]

    # block coefficient series, seeded with the data
    g_terms = [dict() for _ in range(nk)]
    for m in range(nk):
        j = block_of[m]
        a_idx = sum(1 for mm in range(m) if block_of[mm] == j)
        p = data.blocks[j - 1][a_idx]
        for exp, c in p.terms.items():
            g_terms[m][exp + (0,) * (n - j)] = c

    def is_data_exponent(m, exp):
        j = block_of[m]
        return all(exp[i] == 0 for i in range(j, n))

    # lower-level series, seeded with the constants
    lower_terms = [dict() for _ in range(k)]
    for h in range(k):
        for alpha, c in enumerate(data.constants[h]):
            if c:
                lower_terms[h].setdefault(alpha, {})[tuple([0] * n)] = c
        for alpha in range(level_dims[h]):
            lower_terms[h].setdefault(alpha, {})

    def level_series(h):
        if h < k:
            return [
                Polynomial(n, lower_terms[h][alpha])
                for alpha in range(level_dims[h])
            ]
        gens = [Polynomial(n, g_terms[m]) for m in range(nk)]
        return [
            linear_combination(big_n.rows[beta], gens, n)
            for beta in range(level_dims[k])
        ]

    for d in range(1, degree + 1):
        u_series = [level_series(h) for h in range(k + 1)]
        s_top = _compose_chain_map(
            tower.s_chain[k], x_subs, u_series, jet, d - 1
        )
        # curl slice: unknowns are the non-data coefficients at degree d
        unknowns = []
        index_of = {}
        for m in range(nk):
            for exp in _monomials(n, d):
                if not is_data_exponent(m, exp):
                    index_of[(m, exp)] = len(unknowns)
                    unknowns.append((m, exp))
        # sparse rows {unknown: coefficient}, right-hand side in column nu
        nu = len(unknowns)
        rows = []
        for rho in range(n):
            for sigma in range(rho + 1, n):
                srho_comp, ssigma_comp = _s_direction_values(
                    s_top, flag_cols, iota_u, rho, sigma, level_dims[k], n
                )
                for exp_k in _monomials(n, d - 1):
                    e_sig = _bump(exp_k, sigma)
                    e_rho = _bump(exp_k, rho)
                    for vals_rho, vals_sigma, srho, ssigma in zip(
                        gen_val[rho], gen_val[sigma], srho_comp, ssigma_comp
                    ):
                        row = {}
                        val = Fraction(0)
                        # iota(a_rho) d_sigma Q - iota(a_sigma) d_rho Q
                        for m in range(nk):
                            c1 = vals_rho[m] * (exp_k[sigma] + 1)
                            c2 = vals_sigma[m] * (exp_k[rho] + 1)
                            for coeff, exp in ((c1, e_sig), (-c2, e_rho)):
                                if not coeff:
                                    continue
                                idx = index_of.get((m, exp))
                                if idx is not None:
                                    row[idx] = row.get(idx, 0) + coeff
                                else:
                                    val -= coeff * g_terms[m].get(
                                        exp, Fraction(0)
                                    )
                        target = (srho.coefficient(list(exp_k))
                                  - ssigma.coefficient(list(exp_k)))
                        row[nu] = val + target
                        rows.append(row)
        if unknowns:
            for (m, exp), c in zip(unknowns, _solve_slice(rows, nu, d)):
                if c:
                    g_terms[m][exp] = c
        elif any(row[nu] for row in rows):
            raise InconsistentData(
                "the degree-%d curl slice has no unknowns but nonzero "
                "residual" % d
            )
        # integrate the lower levels downward
        for h in range(k - 1, -1, -1):
            u_series = [level_series(hh) for hh in range(k + 1)]
            g_comp = _compose_chain_map(
                tower.coefficient_form(h), x_subs, u_series, jet, d - 1
            )
            # gradient of Q_(h) in the u-direction rho
            for exp in _monomials(n, d):
                coeffs = {}
                for rho in range(n):
                    if exp[rho] == 0:
                        continue
                    below = list(_drop(exp, rho))
                    for alpha in range(level_dims[h]):
                        g = sum(
                            (
                                c * g_comp[alpha * n + j_dir].coefficient(below)
                                for j_dir, c in enumerate(flag_cols[rho])
                                if c
                            ),
                            Fraction(0),
                        )
                        value = g / exp[rho]
                        prev = coeffs.get(alpha)
                        if prev is None:
                            coeffs[alpha] = value
                        elif prev != value:
                            raise InconsistentData(
                                "mixed partials disagree at level %d, "
                                "degree %d" % (h, d)
                            )
                for alpha, c in coeffs.items():
                    if c:
                        lower_terms[h][alpha][exp] = c

    u_series = [level_series(h) for h in range(k + 1)]
    u_maps = [PolyMap(n, comps) for comps in u_series]
    # back to the original coordinates: u = a_inv (x - x0)
    u_of_x = []
    for rho in range(n):
        terms = {}
        const = Fraction(0)
        for i in range(n):
            c = a_inv.rows[rho][i]
            if c:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = c
                const -= c * data.x0[i]
        if const:
            terms[tuple([0] * n)] = const
        u_of_x.append(Polynomial(n, terms))
    q_maps = [m.compose(u_of_x, degree) for m in u_maps]
    composition = {}
    for rho in range(1, len(nf.blocks) + 1):
        ok = True
        for m in range(nk):
            if block_of[m] == rho:
                for exp in g_terms[m]:
                    if any(exp[i] for i in range(rho, n)):
                        ok = False
        composition[rho] = ok
    return FormalSolution(
        degree, data.x0, k, q_maps, u_maps,
        [Polynomial(n, g_terms[m]) for m in range(nk)],
        composition, nf,
    )


def _solve_slice(rows, nu, d):
    """The unique solution of the degree-d curl slice in nu unknowns.

    Each row is a {column: coefficient} dict over the unknowns 0..nu-1
    with the right-hand side in column nu.  The rows, cleared of
    denominators, are reduced in one IntegerEchelon until it holds nu
    pivots.  A pivot in column nu means the slice is inconsistent, and
    fewer than nu pivots after every row that it is underdetermined; both
    raise InconsistentData, in that order.  Otherwise every unknown is a
    pivot, the back-substituted row of pivot c reads x_c = row[nu] /
    row[c], and each row not yet reduced is checked by its product with
    x: one that x does not satisfy makes the slice inconsistent.
    """
    echelon = IntegerEchelon()
    rest = iter(rows)
    for row in rest:
        echelon.add(dict(zip(row, clear_denominators(row.values()))))
        if len(echelon) == nu:
            break
    kept, pivots = echelon.reduced()
    if pivots and pivots[-1] == nu:
        raise InconsistentData(
            "the degree-%d slice of the curl equations is inconsistent" % d
        )
    if len(pivots) < nu:
        raise InconsistentData(
            "the degree-%d slice of the curl equations is "
            "underdetermined (%d free directions)" % (d, nu - len(pivots))
        )
    x = [Fraction(row.get(nu, 0), row[c]) for row, c in zip(kept, pivots)]
    for row in rest:
        if sum(c * x[j] for j, c in row.items() if j != nu) != row[nu]:
            raise InconsistentData(
                "the degree-%d slice of the curl equations is inconsistent" % d
            )
    return x


def _bump(exp, i):
    e = list(exp)
    e[i] += 1
    return tuple(e)


def _drop(exp, i):
    e = list(exp)
    e[i] -= 1
    return tuple(e)


def _s_direction_values(s_top, flag_cols, iota_u, rho, sigma, dim_k, n):
    """iota(a_rho) S(a_sigma) and iota(a_sigma) S(a_rho) as polynomial
    vectors in the level-(k-1) jet coordinates."""
    out = []
    for io, direction in ((iota_u[rho], sigma), (iota_u[sigma], rho)):
        comps = [
            linear_combination(
                flag_cols[direction], s_top[beta * n:(beta + 1) * n], n
            )
            for beta in range(dim_k)
        ]
        out.append([linear_combination(row, comps, n) for row in io.rows])
    return out[0], out[1]


def verify_solution(sys, sol):
    """Exact residual of the defining equations with F = Q_(0).

    Expands Q^a_{alpha i} d_j F - Q^a_{alpha j} d_i F - Phi^a_{ij}(x, F)
    in y = x - x0 through the series degree d and reports the lowest
    total degree of any nonzero term.  The checked degrees are 0..d-1;
    first_failure is looked for through degree d, so a failure at d
    leaves the residual clean, and terms above d (truncation artefacts)
    are never formed.

    F is read off the adapted series: Q_(0)(x0 + y) = u_maps[0](a^-1 y)
    term for term, because q_maps[0] is u_maps[0] at u = a^-1 (x - x0)
    and an affine substitution raises no degree.
    """
    t = sys.tableau
    n, r = t.a_dim, t.b_dim
    d = sol.degree
    # degrees are measured at the base point: x = x0 + y
    a_inv = sol.nf.basis_a.inverse()
    f = sol.u_maps[0].compose(PolyMap.linear(a_inv.rows, n).components, d)
    subs = _affine_x_of_u(n, sol.x0, Matrix.identity(n)) + list(f.components)
    keys = [(b, i, j) for i in range(n) for j in range(i + 1, n) for b in range(r)]
    phi = PolyMap(sys.num_vars, [sys.phi_component(*key) for key in keys])
    phi_of_f = phi.compose(subs, d).components
    worst = None
    for (b, i, j), phi_bij in zip(keys, phi_of_f):
        lhs = Polynomial.zero(n)
        for alpha, gmat in enumerate(t.generators):
            ci = gmat.rows[b][i]
            cj = gmat.rows[b][j]
            if ci:
                lhs = lhs.add(f.components[alpha].partial(j).scale(ci))
            if cj:
                lhs = lhs.sub(f.components[alpha].partial(i).scale(cj))
        res = lhs.truncate(d).sub(phi_bij)
        if not res.is_zero():
            low = res.lowest_degree()
            if worst is None or low < worst["degree"]:
                exp = min(e for e in res.terms if sum(e) == low)
                worst = {"component": (b, i, j), "degree": low, "monomial": list(exp)}
    clean_through = d - 1 if worst is None else min(worst["degree"] - 1, d - 1)
    return {
        "max_degree_checked": d - 1,
        "clean": worst is None or worst["degree"] > d - 1,
        "clean_through_degree": clean_through,
        "first_failure": worst,
    }


def polar_dims(sys, tower, nf, k=None, max_dim=DEFAULT_MAX_DIM):
    """Dimensions of the polar spaces along the normal-form integral flag.

    Returns dim H(E_h) for h = 0..n, each read as n + dim A^(k) minus the
    rank of the stacked contractions iota(a_l), l < h (see the module
    docstring: the flag lies on the section, so S drops out and no point
    is needed), and asserts the involutive count n + s_{h+1} + ... +
    s_nu at every step; a miss means the flag is not generic and raises
    UnstableGenericity.
    """
    t = sys.tableau
    k = _check_level(t, tower, k, max_dim)
    n = t.a_dim
    iota = _flag_contractions(t, nf.basis_a, k, max_dim)
    dim_k = t.dim_at(k, max_dim)
    echelon = IntegerEchelon()
    dims = []
    for h in range(n + 1):
        if h:
            for row in iota[h - 1].rows:
                echelon.add(clear_denominators(row))
        dim_h = n + dim_k - len(echelon)
        expected = n + sum(nf.s[h:])
        if dim_h != expected:
            raise UnstableGenericity(
                "polar space at step %d has dimension %d, expected %d"
                % (h, dim_h, expected)
            )
        dims.append(dim_h)
    return dims


def restricted_polar_check(sys, tower, nf, h, k=None, max_dim=DEFAULT_MAX_DIM):
    """Restricted polar count inside the block splitting.

    Intersects H(E_h) with Sigma(A_{h+1}), spanned by the lifts of
    a_1..a_{h+1} and the normal generators N_low of blocks 1..h, and
    verifies that its dimension h + 1 + #low - rank(stack_{l<h}
    iota(a_l) N_low) is h + 1: with X - S(xi) as the fibre variable a
    lift contributes only its N_low part, which the generators already
    span (see the module docstring).  UnstableGenericity otherwise.
    """
    t = sys.tableau
    k = _check_level(t, tower, k, max_dim)
    n = t.a_dim
    if not (0 <= h < n):
        raise InputError("need 0 <= h < n, got h = %d" % h)
    big_n, block_of = _normal_gen_info(t, nf, k, max_dim)
    low = [m for m, j in enumerate(block_of) if j <= h]
    n_low = Matrix([[row[m] for m in low] for row in big_n.rows], ncols=len(low))
    iota = _flag_contractions(t, nf.basis_a, k, max_dim)
    stacked = [row for io in iota[:h] for row in io.matmul(n_low).rows]
    dim = h + 1 + len(low) - Matrix(stacked, ncols=len(low)).rank()
    if dim != h + 1:
        raise UnstableGenericity(
            "restricted polar space at h = %d has dimension %d, expected %d"
            % (h, dim, h + 1)
        )
    return True
