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

Indices in coefficient keys are 1-based to match the usual block
labelling (block j = 1..nu, slot a = 1..s_j, column h, row b).
"""

from __future__ import annotations

import random
from fractions import Fraction

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
    Subspace,
    clear_denominators,
    frac,
    kernel,
)
from .tableau import (
    _FLAG_BASE_BOUND,
    _sample_flag,
    _vector_to_matrix,
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
        try:
            basis_a = Matrix(data["basis_a"])
            basis_b = Matrix(data["basis_b"])
            s = [int(x) for x in data["characters"]]
            blocks = [
                [Matrix(q) for q in block]
                for block in data["blocks"]
            ]
            coeffs = {
                tuple(int(k) for k in key.split(",")): frac(val)
                for key, val in data["coefficients"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError("malformed normal form JSON") from exc
        return cls(basis_a, basis_b, s, blocks, coeffs)


def _tableau_matrices(t):
    n, r = t.a_dim, t.b_dim
    return [_vector_to_matrix(v, r, n) for v in t.level(0).basis]


def _kernel_filtration(mats, flag_rows, n, r, depth):
    """Coordinate subspaces K_rho = {x : sum x^beta M_beta(A_l) = 0, l <= rho}."""
    d = len(mats)
    out = [Subspace(d, Matrix.identity(d).rows)]
    rows = []
    for rho in range(1, depth + 1):
        v = flag_rows[rho - 1]
        for b in range(r):
            rows.append([sum(m.rows[b][i] * v[i] for i in range(n)) for m in mats])
        out.append(kernel(Matrix(rows, ncols=d)) if d else Subspace(0, []))
    return out


def _echelon_extend(current, echelon, target_basis):
    """Append to `current` the vectors of target_basis that are independent
    of it, scanning in order (deterministic lexicographic tie-breaking);
    `echelon` holds the integer echelon of `current` and grows with it."""
    for v in target_basis:
        if echelon.add(clear_denominators(v)):
            current.append(list(v))


def _construct(t, cv, flag):
    n, r = t.a_dim, t.b_dim
    s = cv.s
    nu = cv.nu
    mats = _tableau_matrices(t)
    d = len(mats)
    flag_rows = [list(row) for row in flag.rows]
    kernels = _kernel_filtration(mats, flag_rows, n, r, nu)
    # image filtration U_rho = K_{rho-1}(A_rho), expected nested decreasing
    u_spaces = []
    for rho in range(1, nu + 1):
        vecs = []
        for x in kernels[rho - 1].basis:
            w = [Fraction(0)] * r
            for beta, c in enumerate(x):
                if c:
                    col = mats[beta].matvec(flag_rows[rho - 1])
                    w = [wi + c * ci for wi, ci in zip(w, col)]
            vecs.append(w)
        u = Subspace(r, vecs)
        if u.dim != s[rho - 1]:
            raise BadDecomposition(
                "image step %d has dimension %d, expected the character %d"
                % (rho, u.dim, s[rho - 1])
            )
        u_spaces.append(u)
    for rho in range(1, nu):
        if not u_spaces[rho].is_subspace_of(u_spaces[rho - 1]):
            raise BadDecomposition(
                "image filtration is not nested at step %d" % (rho + 1)
            )
    # total image must already be spanned at the first step
    if nu > 0:
        total = Subspace(r, [m.matvec(e) for m in mats for e in Matrix.identity(n).rows])
        if total != u_spaces[0]:
            raise BadDecomposition(
                "total image has dimension %d, expected %d from the first "
                "character" % (total.dim, u_spaces[0].dim)
            )
    # downward echelon: deepest image block first, then out to all of b
    cols = []
    echelon = IntegerEchelon()
    for rho in range(nu, 0, -1):
        _echelon_extend(cols, echelon, u_spaces[rho - 1].basis)
        if len(cols) != s[rho - 1]:
            raise BadDecomposition(
                "echelon extension through image step %d reached %d vectors, "
                "expected %d" % (rho, len(cols), s[rho - 1])
            )
    _echelon_extend(cols, echelon, Matrix.identity(r).rows)
    basis_b = Matrix.from_columns(cols, nrows=r)
    basis_a = Matrix.from_columns(flag_rows, nrows=n)
    # pivot functionals pi_j^a|_A as rows over the tableau basis
    b_inv = basis_b.inverse()
    new_mats = [b_inv.matmul(m).matmul(basis_a) for m in mats]
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    phi = Matrix(
        [[m.rows[a - 1][j - 1] for m in new_mats] for (j, a) in pairs], ncols=d
    )
    try:
        x = phi.inverse()
    except Inconsistent as exc:
        raise BadDecomposition("pivot functionals are not a basis of A*") from exc
    blocks = []
    coeffs = {}
    col = 0
    for j in range(1, nu + 1):
        block = []
        for a in range(1, s[j - 1] + 1):
            std_rows = [[Fraction(0)] * n for _ in range(r)]
            for beta in range(d):
                c = x.rows[beta][col]
                if c:
                    for bi in range(r):
                        mrow = mats[beta].rows[bi]
                        srow = std_rows[bi]
                        for ni in range(n):
                            srow[ni] += c * mrow[ni]
            std = Matrix(std_rows, ncols=n)
            block.append(std)
            q_new = b_inv.matmul(std).matmul(basis_a)
            for h in range(j + 1, n + 1):
                top = s[h - 1] if h <= nu else 0
                for b in range(top + 1, s[j - 1] + 1):
                    val = q_new.rows[b - 1][h - 1]
                    if val != 0:
                        coeffs[(j, a, h, b)] = val
            col += 1
        blocks.append(block)
    return NormalForm(basis_a, basis_b, s, blocks, coeffs)


def normal_form(t, seed=0, h=0):
    """Compute adapted bases and the normal basis of an involutive tableau.

    For h > 0 the tableau is A^(h) of t's prolongation tower, read as
    t.view_at_level(h).  The Cartan test and the flag ranks run on the
    tower (cartan_test(t, h=h)), so only A^(h+1) has to fit in t.max_dim;
    the view is built for the construction and never prolonged.  Flags
    are drawn from Random(seed) with the coefficient bound of
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
    view = t.view_at_level(h)
    n, r = view.a_dim, view.b_dim
    if view.dim == 0:
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
            nf = _construct(view, cv, Matrix(flag, ncols=n))
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


def _first_failure(checks):
    for c in checks:
        if not c["passed"]:
            return c
    return None


def verify_normal_form(t, nf, seed=0, h=0):
    """Re-check every normal-form invariant of nf against the tableau.

    For h > 0 the tableau is A^(h) of t's tower, read as in normal_form.
    Every invariant is recomputed from the tableau except the certified
    characters, which characters() returns from the tableau's memo when
    a Cartan test of the same level and seed already certified them; on
    a fresh Tableau they are certified again.

    Returns {"all_passed": bool, "checks": [{name, passed, detail}, ...],
    "tail_rows_within_principal_block": bool|None}.  The final entry is
    informational only: it records whether tail-column coefficients
    (columns beyond nu) stayed within the first s_nu rows.
    """
    view = t.view_at_level(h)
    n, r = view.a_dim, view.b_dim
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    inv_a = nf.basis_a.nrows == n and nf.basis_a.ncols == n and nf.basis_a.rank() == n
    inv_b = nf.basis_b.nrows == r and nf.basis_b.ncols == r and nf.basis_b.rank() == r
    add("bases_invertible", inv_a and inv_b)
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
    if not (inv_a and inv_b and chars_match):
        return {
            "all_passed": False,
            "checks": checks,
            "tail_rows_within_principal_block": None,
            "first_failure": _first_failure(checks),
        }
    flag = nf.basis_a.transpose()
    targets = [sum(s[: j + 1]) for j in range(n)]
    add("flag_generic", character_partial_sums(t, flag, h) == targets)
    sizes_ok = len(nf.blocks) == nu and all(
        len(nf.blocks[j]) == s[j] for j in range(nu)
    ) and sum(s) == view.dim
    add("block_sizes", sizes_ok)
    if not sizes_ok:
        return {
            "all_passed": False,
            "checks": checks,
            "tail_rows_within_principal_block": None,
            "first_failure": _first_failure(checks),
        }
    mats = _tableau_matrices(view)
    b_inv = nf.basis_b.inverse()
    new_mats = [b_inv.matmul(m).matmul(nf.basis_a) for m in mats]
    zero_rows_ok = True
    zero_detail = ""
    s1 = s[0] if nu > 0 else 0
    for idx, m in enumerate(new_mats):
        for b in range(s1, r):
            if any(x != 0 for x in m.rows[b]):
                zero_rows_ok = False
                zero_detail = "tableau basis element %d has a nonzero entry in row %d" % (idx, b + 1)
                break
        if not zero_rows_ok:
            break
    add("zero_rows_beyond_s1", zero_rows_ok, zero_detail)
    # dual-basis pairing
    pairs = [(j, a) for j in range(1, nu + 1) for a in range(1, s[j - 1] + 1)]
    flat = nf.normal_basis()
    pairing_ok = len(flat) == len(pairs)
    pair_detail = ""
    if pairing_ok:
        new_q = [b_inv.matmul(q).matmul(nf.basis_a) for q in flat]
        for row_i, (j, a) in enumerate(pairs):
            for col_i in range(len(flat)):
                want = Fraction(1) if row_i == col_i else Fraction(0)
                got = new_q[col_i].rows[a - 1][j - 1]
                if got != want:
                    pairing_ok = False
                    pair_detail = (
                        "pairing of pi_%d^%d with normal-basis element %d is %s"
                        % (j, a, col_i + 1, got)
                    )
                    break
            if not pairing_ok:
                break
    add("dual_basis_pairing", pairing_ok, pair_detail)
    # span conditions, block by block; report the first violated block.
    # A probe independent of the pivot functionals fails the check, so
    # adding it to the block's echelon is harmless.
    span_ok = True
    span_detail = ""
    for rho in range(1, nu + 1):
        base = IntegerEchelon(
            clear_denominators([m.rows[a - 1][l - 1] for m in new_mats])
            for l in range(1, rho + 1)
            for a in range(1, s[l - 1] + 1)
        )
        low = s[rho] if rho < nu else 0
        for i in range(rho, n + 1):
            for b in range(low + 1, s[rho - 1] + 1):
                probe = [m.rows[b - 1][i - 1] for m in new_mats]
                if base.add(clear_denominators(probe)):
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
    # triangular support pattern of the normal basis
    support_ok = pairing_ok
    support_detail = "" if pairing_ok else "not checked: pairing failed"
    tail_within = None
    if pairing_ok:
        qi = 0
        for j in range(1, nu + 1):
            for a in range(1, s[j - 1] + 1):
                q = new_q[qi]
                qi += 1
                for b in range(1, r + 1):
                    for col in range(1, n + 1):
                        val = q.rows[b - 1][col - 1]
                        if col < j or (col == j and b != a):
                            allowed = False
                        elif col == j:
                            allowed = val == 1
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
                                "outside the triangular ranges" % (j, a, val, b, col)
                            )
                            break
                    if not support_ok:
                        break
                if not support_ok:
                    break
            if not support_ok:
                break
        if tail_within is None and nu < n:
            tail_within = True
    add("support_pattern", support_ok, support_detail)
    all_passed = all(c["passed"] for c in checks)
    return {
        "all_passed": all_passed,
        "checks": checks,
        "tail_rows_within_principal_block": tail_within,
        "first_failure": _first_failure(checks),
    }
