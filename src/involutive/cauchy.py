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
coefficient form (TowerData.coefficient_form).  The forms g_(0..k) are
built once and composed with the series as one map per degree d; every
jet coordinate above level k is substituted by zero, so g_(k) =
S_(k+1).  The composition is capped at d - 1, and a capped composition
reads only the terms of degree < d, all known before degree d starts,
so the curl slice and every lower level share it.  Unique solvability of
every slice is asserted at runtime; it is exactly what involutivity
provides.  A slice is kept as sparse rows over its unknowns with the
right-hand side as one more column, and reduced in one IntegerEchelon:
a pivot in the right-hand column proves it inconsistent, fewer pivots
than unknowns proves it underdetermined (InconsistentData either way),
and otherwise each pivot row of the back-substituted echelon gives one
coefficient exactly.  Rows left over once every unknown is a pivot are
checked by their product with that solution instead of being reduced.

The solver, the residual and the polar counts read one frame of the
normal form nf of the tableau t, built once per (t, nf) and memoised on
nf, which is immutable (see _frame).  It holds the level k, basis_a and
its inverse, the flag contractions iota(a_rho) = sum_i basis_a[i][rho] *
Tableau.contraction(k, i), which take level-k jet coordinates to
level-(k-1) jet coordinates (to b when k = 0) and in which the curl rows
above are written, the level-k coordinates N of the normal generators,
and iota(a_rho) N.  The level k is read off nf: its blocks live in
Hom(a, b (x) S^k(a*)), so basis_b has b_dim * |S^k| rows, which fixes k
when n >= 2.  When n = 1 every prolongation is the same subspace of
Hom(a, b) and k = 0.  Only the solver needs the tower, and the tower
must reach k.

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
generators of blocks 1..h; that count must be h + 1.  Neither check
reads S, so both take only the tableau and the normal form.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, reduce

from .errors import (
    CapExceeded,
    DimensionMismatch,
    InconsistentData,
    InputError,
    UnstableGenericity,
)
from .linalg import IntegerEchelon, Matrix, clear_denominators, cleared, frac
from .poly import Polynomial, PolyMap, linear_combination
from .tableau import flatten_generator

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


def _affine(matrix, shift):
    """The polynomials matrix . u + shift in the variables u of the
    matrix's columns, one per row."""
    n = matrix.ncols
    out = []
    for row, c0 in zip(matrix.rows, shift):
        terms = {(0,) * n: c0} if c0 else {}
        for j, c in enumerate(row):
            if c:
                terms[(0,) * j + (1,) + (0,) * (n - j - 1)] = c
        out.append(Polynomial(n, terms))
    return out


class _Frame:
    """The Cauchy frame of the normal form nf of t (see the module
    docstring): k, basis_a, a_inv, iota[rho], big_n = N with one column
    per normal generator, their block indices block_of, and gen_val[rho]
    = iota(a_rho) N as (rows, den), integer rows over one positive
    denominator (linalg.cleared).  A basis_b whose row count matches no
    level raises InputError.  a_inv is taken on first use, since the
    polar counts also run on degenerate flags, which they reject."""

    def __init__(self, t, nf):
        n, rows = t.a_dim, nf.basis_b.nrows
        k = 0
        while n > 1 and t.b_dim * math.comb(n + k - 1, k) < rows:
            k += 1
        if t.b_dim * math.comb(n + k - 1, k) != rows:
            raise InputError(
                "a normal form with %d rows in basis_b matches no level of a "
                "tableau with a_dim %d and b_dim %d" % (rows, n, t.b_dim)
            )
        self.k = k
        self.basis_a = nf.basis_a
        iota_e = [t.contraction(k, i) for i in range(n)]
        zero = Matrix.zeros(iota_e[0].nrows, iota_e[0].ncols)
        self.iota = [
            reduce(Matrix.add, (io * c for io, c in zip(iota_e, col) if c), zero)
            for col in self.basis_a.transpose().rows
        ]
        # A^(k) viewed in Hom(a, b (x) S^k) has the level-k basis as generators
        view = t.view_at_level(k)
        self.big_n = Matrix.from_columns(
            [view.jet_coordinates(0, flatten_generator(q)) for q in nf.normal_basis()],
            nrows=view.dim,
        )
        self.block_of = [j for j, block in enumerate(nf.blocks, start=1) for _ in block]
        self.gen_val = [cleared(io.matmul(self.big_n)) for io in self.iota]

    @cached_property
    def a_inv(self):
        return self.basis_a.inverse()


def _frame(t, nf):
    """The _Frame of (t, nf), built once and memoised on the immutable
    nf, keyed by the identity of t; a race only builds it twice."""
    memo = nf._frame
    if memo is None or memo[0] is not t:
        memo = nf._frame = (t, _Frame(t, nf))
    return memo[1]


def _along(comps, direction, n):
    """A form with components comps (index alpha * n + i for the
    coordinate alpha and the dx slot i) evaluated on the direction: one
    polynomial per alpha."""
    return [
        linear_combination(direction, comps[i:i + n], n)
        for i in range(0, len(comps), n)
    ]


def _monomials(n, d):
    """The exponents of the degree-d monomials in n variables."""
    return [tuple(combo.count(i) for i in range(n))
            for combo in itertools.combinations_with_replacement(range(n), d)]


def solve_formal(sys, tower, nf, data, degree, max_degree=DEFAULT_MAX_DEGREE):
    """Unique formal solution through the given truncation degree.

    The data supply the block coefficients supported in their own
    variables; everything else is forced by the equations, degree by
    degree, through exact linear solves whose unique solvability is
    asserted (InconsistentData otherwise; see _solve_slice).  Each degree
    d composes the coefficient forms g_(0..k) once, capped at d - 1, so
    it reads only known terms; g_(k) = S_(k+1) at the top, where every
    higher jet coordinate is zero.  The level k and every map of nf
    come from its frame (see _frame), and a tower of lower order raises
    InputError.  A degree below 0 raises InputError, one above max_degree
    CapExceeded.
    """
    t = sys.tableau
    n = t.a_dim
    if degree < 0:
        raise InputError("truncation degree must be >= 0, got %d" % degree)
    if degree > max_degree:
        raise CapExceeded(
            "truncation degree %d exceeds the cap %d" % (degree, max_degree)
        )
    frame = _frame(t, nf)
    k = frame.k
    if tower.order < k:
        raise InputError(
            "tower of order %d cannot solve at level k = %d" % (tower.order, k)
        )
    jet = tower.jet
    level_dims = jet.dims
    data.validate(n, level_dims[:k], nf.s, degree)
    basis_a = nf.basis_a
    x_subs = _affine(basis_a, data.x0)
    big_n, block_of = frame.big_n, frame.block_of
    nk = len(block_of)
    flag_cols = basis_a.transpose().rows

    # block coefficient series, seeded with the data; blocks are in order.
    # g_num[m] holds the integer numerators of series m over g_den, one
    # positive denominator shared by every block series
    data_series = [p for block in data.blocks for p in block]
    g_den = math.lcm(*(p.den for p in data_series))
    g_num = [
        {exp + (0,) * (n - j): v * (g_den // p.den) for exp, v in p.numerators.items()}
        for p, j in zip(data_series, block_of)
    ]

    def block_series():
        return [Polynomial.from_numerators(n, dict(g), g_den) for g in g_num]

    def is_data_exponent(m, exp):
        j = block_of[m]
        return all(exp[i] == 0 for i in range(j, n))

    # lower-level series, seeded with the constants
    lower_terms = [
        [{(0,) * n: c} if c else {} for c in data.constants[h]] for h in range(k)
    ]

    def level_series(h):
        if h < k:
            return [
                Polynomial(n, lower_terms[h][alpha])
                for alpha in range(level_dims[h])
            ]
        gens = block_series()
        return [
            linear_combination(big_n.rows[beta], gens, n)
            for beta in range(level_dims[k])
        ]

    # g_(0..k) as one map on the jet layout; every coordinate above level
    # k is substituted by zero, which leaves g_(k) = S_(k+1)
    forms = PolyMap(jet.num_vars, [
        c for h in range(k + 1) for c in tower.coefficient_form(h).components
    ])
    above_k = [Polynomial.zero(n)] * sum(level_dims[k + 1:])
    top = jet.offsets[k] - n
    for d in range(1, degree + 1):
        # capped at d - 1, the composition reads only known terms;
        # along[rho][alpha] is form coordinate alpha (levels 0..k in jet
        # order) on the flag direction a_rho
        subs = x_subs + [p for h in range(k + 1) for p in level_series(h)]
        g = forms.compose(subs + above_k, d - 1).components
        along = [_along(g, col, n) for col in flag_cols]
        # curl slice: unknowns are the non-data coefficients at degree d
        unknowns = []
        index_of = {}
        for m in range(nk):
            for exp in _monomials(n, d):
                if not is_data_exponent(m, exp):
                    index_of[(m, exp)] = len(unknowns)
                    unknowns.append((m, exp))
        # sparse integer rows {unknown: coefficient}, right-hand side in
        # column nu
        nu = len(unknowns)
        rows = []
        for rho in range(n):
            v_rho, d_rho = frame.gen_val[rho]
            for sigma in range(rho + 1, n):
                v_sigma, d_sigma = frame.gen_val[sigma]
                # iota(a_rho) S(a_sigma) and iota(a_sigma) S(a_rho), each
                # component with the lcm of g_den and its denominators
                targets = []
                for row_rho, row_sigma in zip(frame.iota[rho].rows,
                                              frame.iota[sigma].rows):
                    srho = linear_combination(row_rho, along[sigma][top:], n)
                    ssigma = linear_combination(row_sigma, along[rho][top:], n)
                    targets.append((srho.numerators, srho.den, ssigma.numerators,
                                    ssigma.den, math.lcm(g_den, srho.den, ssigma.den)))
                for exp_k in _monomials(n, d - 1):
                    e_sig = _bump(exp_k, sigma)
                    e_rho = _bump(exp_k, rho)
                    f_sig = (exp_k[sigma] + 1) * d_sigma
                    f_rho = (exp_k[rho] + 1) * d_rho
                    for vals_rho, vals_sigma, (a, a_den, b, b_den, den) in zip(
                        v_rho, v_sigma, targets,
                    ):
                        # with D = d_rho d_sigma, row holds D times the
                        # coefficients of iota(a_rho) d_sigma Q -
                        # iota(a_sigma) d_rho Q on the unknowns, and
                        # known / g_den is D times its value on the known
                        # terms
                        row = {}
                        known = 0
                        for m in range(nk):
                            c1 = vals_rho[m] * f_sig
                            c2 = vals_sigma[m] * f_rho
                            for coeff, exp in ((c1, e_sig), (-c2, e_rho)):
                                if not coeff:
                                    continue
                                idx = index_of.get((m, exp))
                                if idx is not None:
                                    row[idx] = row.get(idx, 0) + coeff
                                else:
                                    known += coeff * g_num[m].get(exp, 0)
                        # row . x = D target - known / g_den for target =
                        # a / a_den - b / b_den, all times den
                        target = (a.get(exp_k, 0) * (den // a_den)
                                  - b.get(exp_k, 0) * (den // b_den))
                        row = {idx: c * den for idx, c in row.items()}
                        row[nu] = d_rho * d_sigma * target - known * (den // g_den)
                        rows.append(row)
        solution = _solve_slice(rows, nu, d)
        den = math.lcm(g_den, *(c.denominator for c in solution))
        if den != g_den:
            scale = den // g_den
            g_num = [{exp: v * scale for exp, v in g.items()} for g in g_num]
            g_den = den
        for (m, exp), c in zip(unknowns, solution):
            if c:
                g_num[m][exp] = c.numerator * (den // c.denominator)
        # integrate the lower levels: d Q_(h) along a_rho is g_(h)(a_rho)
        for h in range(k - 1, -1, -1):
            off = jet.offsets[h] - n
            for exp in _monomials(n, d):
                coeffs = {}
                for rho in range(n):
                    if exp[rho] == 0:
                        continue
                    below = list(_drop(exp, rho))
                    for alpha in range(level_dims[h]):
                        value = (along[rho][off + alpha].coefficient(below)
                                 / exp[rho])
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
    a_inv = frame.a_inv
    u_of_x = _affine(a_inv, [-c for c in a_inv.matvec(data.x0)])
    q_maps = [m.compose(u_of_x, degree) for m in u_maps]
    composition = {rho: True for rho in range(1, len(nf.blocks) + 1)}
    for m, rho in enumerate(block_of):
        if any(any(exp[rho:]) for exp in g_num[m]):
            composition[rho] = False
    return FormalSolution(
        degree, data.x0, k, q_maps, u_maps, block_series(), composition, nf,
    )


def _solve_slice(rows, nu, d):
    """The unique solution of the degree-d curl slice in nu unknowns.

    Each row is a {column: coefficient} dict of integer coefficients over
    the unknowns 0..nu-1 with the right-hand side in column nu.  The rows
    are reduced in one IntegerEchelon until it holds nu pivots.  A pivot in column nu means the slice is inconsistent, and
    fewer than nu pivots after every row that it is underdetermined; both
    raise InconsistentData, in that order.  Otherwise every unknown is a
    pivot, the back-substituted row of pivot c reads x_c = row[nu] /
    row[c], and each row not yet reduced is checked by its product with
    x: one that x does not satisfy makes the slice inconsistent.
    """
    echelon = IntegerEchelon()
    rest = iter(rows)
    for row in rest:
        echelon.add(row)
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
    a_inv = _frame(t, sol.nf).a_inv
    f = sol.u_maps[0].compose(_affine(a_inv, [0] * n), d)
    subs = _affine(Matrix.identity(n), sol.x0) + list(f.components)
    keys = [(b, i, j) for i in range(n) for j in range(i + 1, n) for b in range(r)]
    phi = PolyMap(sys.num_vars, [sys.phi_component(*key) for key in keys])
    phi_of_f = phi.compose(subs, d).components
    # d_i F^alpha, once per direction; of degree < d, as F has degree <= d
    partials = [[fa.partial(i) for i in range(n)] for fa in f.components]
    worst = None
    for (b, i, j), phi_bij in zip(keys, phi_of_f):
        coeffs, polys = [-1], [phi_bij]
        for alpha, gmat in enumerate(t.generators):
            coeffs += (gmat.rows[b][i], -gmat.rows[b][j])
            polys += (partials[alpha][j], partials[alpha][i])
        res = linear_combination(coeffs, polys, n)
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


def polar_dims(t, nf):
    """Dimensions of the polar spaces along the integral flag of the
    normal form nf of t, at the level k of nf.

    Returns dim H(E_h) for h = 0..n, each read as n + dim A^(k) minus the
    rank of the stacked contractions iota(a_l), l < h (see the module
    docstring: the flag lies on the section, so S drops out and no point
    is needed), and asserts the involutive count n + s_{h+1} + ... +
    s_nu at every step; a miss means the flag is not generic and raises
    UnstableGenericity.
    """
    frame = _frame(t, nf)
    n = t.a_dim
    dim_k = t.dim_at(frame.k)
    echelon = IntegerEchelon()
    dims = []
    for h in range(n + 1):
        if h:
            for row in frame.iota[h - 1].rows:
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


def restricted_polar_check(t, nf):
    """Restricted polar counts inside the block splitting, for every h =
    0..n-1, at the level k of nf.

    Intersects H(E_h) with Sigma(A_{h+1}), spanned by the lifts of
    a_1..a_{h+1} and the normal generators N_low of blocks 1..h, and
    verifies that its dimension h + 1 + #low - rank(stack_{l<h}
    iota(a_l) N_low) is h + 1: with X - S(xi) as the fibre variable a
    lift contributes only its N_low part, which the generators already
    span (see the module docstring).  Returns [True] * n, or raises
    UnstableGenericity at the first h that fails.
    """
    frame = _frame(t, nf)
    n = t.a_dim
    # rows of iota(a_l) N for l < h; blocks are in order, so N_low is
    # the first #low columns of N
    stacked = []
    for h in range(n):
        if h:
            stacked.extend(frame.gen_val[h - 1][0])
        low = sum(1 for j in frame.block_of if j <= h)
        rank = len(IntegerEchelon(row[:low] for row in stacked))
        dim = h + 1 + low - rank
        if dim != h + 1:
            raise UnstableGenericity(
                "restricted polar space at h = %d has dimension %d, expected %d"
                % (h, dim, h + 1)
            )
    return [True] * n
