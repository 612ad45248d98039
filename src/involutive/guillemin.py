"""Adapted bases putting an involutive tableau in triangular normal form.

For an involutive tableau A inside Hom(a, b) with characters
s_1 >= ... >= s_nu > 0 there are bases (A_1..A_n) of a and (B_1..B_r) of
b such that, writing every element of A as a matrix over these bases,

  * all rows beyond s_1 vanish identically on A,
  * for every rho and every column i >= rho, the functionals picking the
    rows s_{rho+1}+1 .. s_rho of column i restrict on A to combinations
    of the "pivot" functionals pi_l^c (l <= rho, c <= s_l),
  * the pivot functionals pi_j^a (j <= nu, a <= s_j) form a basis of A*,
    and the dual basis Q_{[j],a} has the triangular shape

      Q_{[j],a} = B_a (x) alpha^j
                + sum over columns h = j+1..nu, rows s_h < b <= s_j
                + sum over columns h = nu+1..n, rows 1 <= b <= s_j

    with free coefficients Q_{[j],a,h}^b in the stated row ranges only.

The row ranges above follow from duality (rows <= s_h of column h are
pinned to delta values) combined with the span conditions (a row b entry
can only involve pivot functionals with l <= rho(b), forcing b <= s_j);
they are what the construction guarantees and what verify_normal_form
enforces.  A strictly narrower tail range (rows <= s_nu for columns
beyond nu) is reported separately as an informational flag because some
involutive tableaux realize coefficients outside it.

The construction samples a certified generic flag, computes the kernel
filtration K_rho = Ker(A, a_rho) and the image filtration
U_rho = K_{rho-1}(A_rho), which is nested decreasing for involutive
tableaux, builds basis_b by downward echelon extension of U_nu inside
U_{nu-1} inside ... inside U_1 and then to all of b, and reads the
normal basis off as the dual basis of the pivot functionals.  Every
invariant is re-verified; failures trigger a flag resample and finally
UnstableGenericity.

The arithmetic is over the integers.  The generators of A are the rows
of Tableau.integer_basis(h), which the characters already share, so no
view tableau is built for a level h > 0; scaling or changing the basis
of A moves neither U_rho, basis_b nor the dual basis.  A matrix
rewritten over the adapted bases, B^-1 X A, is an integer product over
one positive denominator, with B^-1 from one fraction-free inversion
(linalg.integer_inverse), and so are the kernel filtration, the image
vectors, the pivot functionals, their inverse and the normal basis.
Fractions are built only for the returned basis_b, blocks and
coefficients.  verify_normal_form recomputes all of it from the tableau
and the normal form with its own inverse and products, and compares
numerators with their denominator.

Indices in coefficient keys are 1-based to match the usual block
labelling (block j = 1..nu, slot a = 1..s_j, column h, row b).
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

from .bases import sym_basis
from .errors import (
    BadDecomposition,
    Inconsistent,
    InputError,
    NotInvolutive,
    UnstableGenericity,
)
from .linalg import (
    IntegerEchelon,
    Matrix,
    cleared,
    frac,
    integer_inverse,
    integer_matmul,
)
from .tableau import (
    _FLAG_BASE_BOUND,
    _sample_flag,
    cartan_test,
    character_partial_sums,
    characters,
)

_NF_ATTEMPTS = 6


class NormalForm:
    """Adapted bases plus the normal basis and its free coefficients.

    basis_a: n x n invertible Matrix whose columns are A_1..A_n.
    basis_b: r x r invertible Matrix whose columns are B_1..B_r.
    s: character tuple (s_1..s_n); nu: index of the last nonzero one.
    blocks: tuple over j = 1..nu of tuples of r x n Matrices (standard
        bases) - block j holds Q_{[j],1..s_j}.
    coeffs: dict mapping (j, a, h, b) (1-based) to the free coefficient
        of B_b (x) alpha^h in Q_{[j],a}.

    A normal form is immutable: rebinding a field raises AttributeError,
    and a different one is a new NormalForm.  So what is derived from it
    stays valid; the one writable slot, _frame, memoises the Cauchy
    frame (see cauchy._frame).
    """

    __slots__ = ("basis_a", "basis_b", "s", "nu", "blocks", "coeffs", "_frame")

    def __init__(self, basis_a, basis_b, s, blocks, coeffs):
        self.basis_a = basis_a
        self.basis_b = basis_b
        self.s = tuple(int(x) for x in s)
        self.nu = max((j + 1 for j, x in enumerate(self.s) if x != 0), default=0)
        self.blocks = tuple(tuple(block) for block in blocks)
        self.coeffs = coeffs
        self._frame = None

    def __setattr__(self, name, value):
        if name != "_frame" and hasattr(self, name):
            raise AttributeError(
                "a NormalForm is immutable, %s cannot be rebound" % name
            )
        object.__setattr__(self, name, value)

    def normal_basis(self):
        """The normal basis as one flat list, blocks in order."""
        return [q for block in self.blocks for q in block]

    def to_json_dict(self):
        return {
            "basis_a": [[str(x) for x in row] for row in self.basis_a.rows],
            "basis_b": [[str(x) for x in row] for row in self.basis_b.rows],
            "characters": list(self.s),
            "blocks": [
                [[[str(x) for x in row] for row in q.rows] for q in block]
                for block in self.blocks
            ],
            "coefficients": {
                "%d,%d,%d,%d" % key: str(val) for key, val in sorted(self.coeffs.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data):
        """The normal form of to_json_dict's output: characters are
        non-negative JSON integers and a coefficient key is four integers
        "j,a,h,b"; InputError for anything else."""
        try:
            basis_a = Matrix(data["basis_a"])
            basis_b = Matrix(data["basis_b"])
            s = list(data["characters"])
            if any(type(x) is not int or x < 0 for x in s):
                raise ValueError("characters must be non-negative integers")
            blocks = [
                [Matrix(q) for q in block]
                for block in data["blocks"]
            ]
            coeffs = {}
            for key, val in data["coefficients"].items():
                parts = key.split(",")
                if len(parts) != 4 or not all(
                        k.isascii() and k.isdigit() for k in parts):
                    raise ValueError("a coefficient key has four indices")
                coeffs[tuple(int(k) for k in parts)] = frac(val)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed normal form JSON") from exc
        return cls(basis_a, basis_b, s, blocks, coeffs)


def _generators(t, h):
    """The integer basis of A^(h) (Tableau.integer_basis) as r x n
    matrices, lists of int rows, in the layout of the generators of
    view_at_level(h)."""
    n = t.a_dim
    return [[v[k:k + n] for k in range(0, len(v), n)] for v in t.integer_basis(h)]


def _dot(u, v):
    return sum(map(mul, u, v))


def _image_filtration(gens, flag, s, nu):
    """The image steps U_rho = K_{rho-1}(A_rho), rho = 1..nu, as the
    reduced rows of their integer echelons, and the evaluations
    G_beta(A_rho) of the generators on the flag vectors.

    K_rho is the coordinate space {x : sum x^beta G_beta(A_l) = 0, l <=
    rho}; one integer echelon grows by the rows of each step, and U_rho
    is spanned by the evaluations at A_rho combined along an integer
    kernel basis of K_{rho-1}.  A reduced row is primitive with a
    positive pivot, so divided by its pivot it is the canonical basis
    vector of Subspace.
    """
    d = len(gens)
    kernel_rows = IntegerEchelon()
    kernel_basis = None  # K_0 is all of Q^d
    u_rows, evals = [], []
    for rho in range(1, nu + 1):
        w = [[_dot(row, flag[rho - 1]) for row in g] for g in gens]
        evals.append(w)
        if kernel_basis is None:
            images = w
        else:
            images = [
                [_dot(x, column) for column in zip(*w)] for x in kernel_basis
            ]
        u = IntegerEchelon(images)
        if len(u) != s[rho - 1]:
            raise BadDecomposition(
                "image step %d has dimension %d, expected the character %d"
                % (rho, len(u), s[rho - 1])
            )
        u_rows.append(u.reduced()[0])
        if rho < nu:
            for row in zip(*w):
                kernel_rows.add(row)
            kernel_basis = kernel_rows.kernel(d)
    return u_rows, evals


def _construct(t, h, cv, flag):
    """The normal form of A^(h) on the flag (n rows of n ints), in
    integer arithmetic; BadDecomposition when the flag does not give one.

    basis_b = C D^-1 for the integer columns C of the echelon extension
    and the diagonal D of their pivots, so B^-1 = D C^-1 = N / den with
    C^-1 from one fraction-free inversion.  The pivot functionals are
    then pi_j^a(G_beta) = N[a] . G_beta(A_j) / den, their matrix P / den
    has the inverse den P^-1, and the normal basis element of column k
    is (den / det) sum_beta adj[beta][k] G_beta for P^-1 = adj / det.
    Its coefficients over the adapted bases are N S A / det with S that
    integer sum.  Fractions are formed only for basis_b, the blocks and
    the coefficients.
    """
    n = t.a_dim
    r = t.b_dim * sym_basis(n, h).size
    s, nu = cv.s, cv.nu
    gens = _generators(t, h)
    u_rows, evals = _image_filtration(gens, flag, s, nu)
    for rho in range(1, nu):
        echelon = IntegerEchelon(u_rows[rho - 1])
        if any(echelon.add(row) for row in u_rows[rho]):
            raise BadDecomposition(
                "image filtration is not nested at step %d" % (rho + 1)
            )
    # total image must already be spanned at the first step
    echelon = IntegerEchelon(u_rows[0])
    columns = [column for g in gens for column in zip(*g)]
    if any(echelon.add(column) for column in columns):
        raise BadDecomposition(
            "total image has dimension %d, expected %d from the first "
            "character" % (len(IntegerEchelon(columns)), s[0])
        )
    # downward echelon: deepest image block first, then out to all of b;
    # deterministic lexicographic tie-breaking
    cols = []
    echelon = IntegerEchelon()
    for rho in range(nu, 0, -1):
        cols += [row for row in u_rows[rho - 1] if echelon.add(row)]
        if len(cols) != s[rho - 1]:
            raise BadDecomposition(
                "echelon extension through image step %d reached %d vectors, "
                "expected %d" % (rho, len(cols), s[rho - 1])
            )
    cols += [row for row in ({i: 1} for i in range(r)) if echelon.add(row)]
    pivots = [row[min(row)] for row in cols]
    c_inv, den = integer_inverse([[row.get(i, 0) for row in cols] for i in range(r)])
    b_inv = [[p * x for x in row] for p, row in zip(pivots, c_inv)]
    basis_b = Matrix.from_columns(
        [[Fraction(row.get(i, 0), p) for i in range(r)] for row, p in zip(cols, pivots)],
        nrows=r,
    )
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    phi = [[_dot(b_inv[a - 1], w) for w in evals[j - 1]] for (j, a) in pairs]
    try:
        adj, det = integer_inverse(phi)
    except Inconsistent as exc:
        raise BadDecomposition("pivot functionals are not a basis of A*") from exc
    sums = integer_matmul(list(zip(*adj)), t.integer_basis(h))
    blocks = [[] for _ in range(nu)]
    coeffs = {}
    for (j, a), flat in zip(pairs, sums):
        rows = [flat[k:k + n] for k in range(0, len(flat), n)]
        blocks[j - 1].append(
            Matrix([[Fraction(x * den, det) for x in row] for row in rows], ncols=n)
        )
        for col in range(j + 1, n + 1):
            top = s[col - 1] if col <= nu else 0
            if top >= s[j - 1]:
                continue
            image = [_dot(row, flag[col - 1]) for row in rows]
            for b in range(top + 1, s[j - 1] + 1):
                val = _dot(b_inv[b - 1], image)
                if val:
                    coeffs[(j, a, col, b)] = Fraction(val, det)
    basis_a = Matrix.from_columns(flag, nrows=n)
    return NormalForm(basis_a, basis_b, s, blocks, coeffs)


def normal_form(t, seed=0, h=0):
    """Compute adapted bases and the normal basis of an involutive tableau.

    For h > 0 the tableau is A^(h) of t's prolongation tower, read as
    the tableau view_at_level(h) inside Hom(a, b (x) S^h(a*)).  The Cartan
    test and the flag ranks run on the tower (cartan_test(t, h=h)), so
    only A^(h+1) has to fit in t.max_dim, and the construction reads its
    generators off t.integer_basis(h), so no view tableau is built.
    Flags are drawn from Random(seed) with the coefficient bound of
    characters(), so the first one is the Cartan test's witness flag
    when there is one, and its partial sums are not computed again.

    Raises NotInvolutive when the Cartan test fails, and
    UnstableGenericity when no sampled flag yields a verifying form.
    """
    res = cartan_test(t, seed=seed, h=h)
    if not res["involutive"]:
        raise NotInvolutive(
            "normal form requires an involutive tableau (dim A^(1) = %d, "
            "bound = %d)" % (res["dim_A1"], res["bound"])
        )
    cv = res["characters"]
    n = t.a_dim
    if t.dim_at(h) == 0:
        r = t.b_dim * sym_basis(n, h).size
        return NormalForm(Matrix.identity(n), Matrix.identity(r), cv.s, [], {})
    targets = [sum(cv.s[: j + 1]) for j in range(n)]
    rng = random.Random(seed)
    bound = _FLAG_BASE_BOUND
    failure = None
    for _ in range(_NF_ATTEMPTS):
        flag = _sample_flag(rng, n, bound)
        bound *= 4
        # the first draw is the witness flag of the Cartan test, if any
        if flag != cv.flag and character_partial_sums(t, flag, h) != targets:
            continue
        try:
            nf = _construct(t, h, cv, flag)
        except BadDecomposition as exc:
            failure = str(exc)
            continue
        report = verify_normal_form(t, nf, seed=seed, h=h)
        if report["all_passed"]:
            return nf
        failure = report
    raise UnstableGenericity(
        "no sampled flag produced a verifying normal form after %d attempts; "
        "last failure: %r" % (_NF_ATTEMPTS, failure)
    )


def _report(checks, tail_within=None):
    return {
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
        "tail_rows_within_principal_block": tail_within,
        "first_failure": next((c for c in checks if not c["passed"]), None),
    }


def verify_normal_form(t, nf, seed=0, h=0):
    """Re-check every normal-form invariant of nf against the tableau.

    For h > 0 the tableau is A^(h) of t's tower, read as in normal_form.
    Every invariant is recomputed from the tableau and nf alone, over
    t.integer_basis(h), except the certified characters, which
    characters() returns from the tableau's memo when a Cartan test of
    the same level and seed already certified them; on a fresh Tableau
    they are certified again.  A matrix rewritten over the adapted
    bases, B^-1 X A, is kept as integer numerators over one positive
    denominator, from nf's own inverse of basis_b: an entry is 1 when
    its numerator equals the denominator and 0 when its numerator is.

    Returns {"all_passed": bool, "checks": [{name, passed, detail}, ...],
    "tail_rows_within_principal_block": bool|None, "first_failure"}.
    The checks are, in order: bases_invertible, characters_match,
    flag_generic, block_sizes, zero_rows_beyond_s1, dual_basis_pairing,
    span_conditions, support_pattern and coefficients_match.
    block_sizes also asks that every block matrix be r x n, so a
    malformed form fails a check instead of a product, and
    coefficients_match asks that nf.coeffs be exactly the nonzero entries
    of the normal basis in the free ranges.  The tail entry is
    informational only: it records whether tail-column coefficients
    (columns beyond nu) stayed within the first s_nu rows.
    """
    n = t.a_dim
    r = t.b_dim * sym_basis(n, h).size
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    inv_a = nf.basis_a.nrows == n and nf.basis_a.ncols == n and nf.basis_a.rank() == n
    b_inv = None
    if nf.basis_b.nrows == r and nf.basis_b.ncols == r:
        rows, b_den = cleared(nf.basis_b)
        try:
            inverse, den = integer_inverse(rows)
            b_inv = [[b_den * x for x in row] for row in inverse]
        except Inconsistent:
            pass
    add("bases_invertible", inv_a and b_inv is not None)
    s = nf.s
    nu = nf.nu
    try:
        cv = characters(t, seed=seed, h=h)
        chars_match = cv.s == s
    except UnstableGenericity:
        cv = None
        chars_match = False
    add("characters_match", chars_match,
        "stored %r vs certified %r" % (s, None if cv is None else cv.s))
    if not (inv_a and b_inv is not None and chars_match):
        return _report(checks)
    flag = nf.basis_a.transpose()
    targets = [sum(s[: j + 1]) for j in range(n)]
    add("flag_generic", character_partial_sums(t, flag, h) == targets)
    gens = _generators(t, h)
    sizes_ok = len(nf.blocks) == nu and all(
        len(nf.blocks[j]) == s[j] for j in range(nu)
    ) and sum(s) == len(gens) and all(
        q.nrows == r and q.ncols == n for q in nf.normal_basis()
    )
    add("block_sizes", sizes_ok)
    if not sizes_ok:
        return _report(checks)
    # B^-1 X A = b_inv X basis_a / (den * a_den) for an integer X
    basis_a, a_den = cleared(nf.basis_a)

    def adapted(x):
        return integer_matmul(integer_matmul(b_inv, x), basis_a)

    new_mats = [adapted(g) for g in gens]
    zero_rows_ok = True
    zero_detail = ""
    s1 = s[0] if nu > 0 else 0
    for idx, m in enumerate(new_mats):
        b = next((b for b in range(s1, r) if any(m[b])), None)
        if b is not None:
            zero_rows_ok = False
            zero_detail = "tableau basis element %d has a nonzero entry in row %d" % (idx, b + 1)
            break
    add("zero_rows_beyond_s1", zero_rows_ok, zero_detail)
    # dual-basis pairing
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    flat = nf.normal_basis()
    pairing_ok = len(flat) == len(pairs)
    pair_detail = ""
    if pairing_ok:
        new_q = []
        for q in flat:
            rows, q_den = cleared(q)
            new_q.append((adapted(rows), den * q_den * a_den))
        for row_i, (j, a) in enumerate(pairs):
            for col_i, (q, q_den) in enumerate(new_q):
                got = q[a - 1][j - 1]
                if got != (q_den if row_i == col_i else 0):
                    pairing_ok = False
                    pair_detail = (
                        "pairing of pi_%d^%d with normal-basis element %d is %s"
                        % (j, a, col_i + 1, Fraction(got, q_den))
                    )
                    break
            if not pairing_ok:
                break
    add("dual_basis_pairing", pairing_ok, pair_detail)
    # span conditions, block by block; report the first violated block.
    # A probe independent of the pivot functionals fails the check, so
    # adding it to the block's echelon is harmless.  The common
    # denominator of the new_mats changes no span.
    span_ok = True
    span_detail = ""
    for rho in range(1, nu + 1):
        base = IntegerEchelon(
            [m[a - 1][l - 1] for m in new_mats]
            for l in range(1, rho + 1)
            for a in range(1, s[l - 1] + 1)
        )
        low = s[rho] if rho < nu else 0
        for i in range(rho, n + 1):
            for b in range(low + 1, s[rho - 1] + 1):
                if base.add([m[b - 1][i - 1] for m in new_mats]):
                    span_ok = False
                    span_detail = (
                        "row %d of column %d escapes the span of pivot "
                        "functionals up to block %d" % (b, i, rho)
                    )
                    break
            if not span_ok:
                break
        if not span_ok:
            break
    add("span_conditions", span_ok, span_detail)
    # triangular support pattern of the normal basis, and its free
    # coefficients read off the same entries
    support_ok = pairing_ok
    support_detail = "" if pairing_ok else "not checked: pairing failed"
    tail_within = None
    coeffs = {}
    if pairing_ok:
        for (j, a), (q, q_den) in zip(pairs, new_q):
            for b in range(1, r + 1):
                for col in range(1, n + 1):
                    val = q[b - 1][col - 1]
                    if col <= j:
                        # column j holds only the (a, j) entry, which
                        # dual_basis_pairing has proved to be 1
                        allowed = col == j and b == a
                    elif col <= nu:
                        allowed = s[col - 1] < b <= s[j - 1]
                    else:
                        allowed = b <= s[j - 1]
                        if val != 0 and b > (s[nu - 1] if nu else 0):
                            tail_within = False
                    if val != 0 and not allowed:
                        support_ok = False
                        support_detail = (
                            "Q_[%d],%d has entry %s at row %d, column %d, "
                            "outside the triangular ranges"
                            % (j, a, Fraction(val, q_den), b, col)
                        )
                        break
                if not support_ok:
                    break
            if not support_ok:
                break
            for col in range(j + 1, n + 1):
                top = s[col - 1] if col <= nu else 0
                for b in range(top + 1, s[j - 1] + 1):
                    val = q[b - 1][col - 1]
                    if val:
                        coeffs[(j, a, col, b)] = Fraction(val, q_den)
        if tail_within is None and nu < n:
            tail_within = True
    add("support_pattern", support_ok, support_detail)
    coeffs_ok = support_ok
    coeffs_detail = "" if support_ok else "not checked: support pattern failed"
    if support_ok and coeffs != nf.coeffs:
        coeffs_ok = False
        key = next(
            (k for k in coeffs if nf.coeffs.get(k) != coeffs[k]),
            next((k for k in nf.coeffs if k not in coeffs), None),
        )
        coeffs_detail = "coefficient %r is stored as %s, the normal basis gives %s" % (
            key, nf.coeffs.get(key, "nothing"), coeffs.get(key, 0)
        )
    add("coefficients_match", coeffs_ok, coeffs_detail)
    return _report(checks, tail_within)
