"""Tableaux of linear maps and their prolongation theory.

A tableau is a linear subspace A of Hom(a, b) for finite dimensional
rational vector spaces a (dimension n) and b (dimension r).  Its h-th
prolongation A^(h) is the space of symmetric tensors in b (x) S^{h+1}(a*)
all of whose contractions by vectors of a land in A^(h-1).  This module
computes prolongations exactly, the characters s_1 >= ... >= s_n attached
to a generic flag of subspaces of a, the Cartan test

    dim A^(1) <= s_1 + 2 s_2 + ... + n s_n   (equality <=> involutive),

and the least order k at which the prolongation tower becomes involutive.

Conventions.  An element of Hom(a, b) = b (x) a* is stored as a b-major
coordinate vector of length r*n (index b*n + i).  Higher prolongations use
the monomial bases of bases.py, again b-major.  Generic flags are sampled
with integer coefficients and certified by agreement of several
independent samples; a disagreement raises UnstableGenericity instead of
returning a silently wrong answer.
"""

from __future__ import annotations

import random
import threading
from fractions import Fraction
from operator import mul

from .bases import multiindex_remove, sym_basis, sym_raise
from .errors import (
    CapExceeded,
    DimensionMismatch,
    Inconsistent,
    InputError,
    NotInImage,
    StructureViolation,
    UnstableGenericity,
)
from .linalg import (
    ColumnCoordinates,
    IntegerEchelon,
    Matrix,
    Subspace,
    clear_denominators,
    frac,
    intersect,
)

DEFAULT_MAX_DIM = 20000

_FLAG_ATTEMPTS = 4
_FLAG_BASE_BOUND = 8


class CharacterVector:
    """Characters (s_1, ..., s_n) of a tableau, with the Cartan integer.

    nu is the largest j with s_j != 0 (zero for the zero tableau) and
    principal = s_nu is the principal character.  Construction checks the
    defining inequalities b_dim >= s_1 >= ... >= s_n >= 0.
    """

    __slots__ = ("s", "nu", "principal")

    def __init__(self, s, b_dim):
        s = tuple(int(x) for x in s)
        if any(x < 0 for x in s):
            raise InputError("characters must be non-negative, got %r" % (s,))
        if any(s[j] < s[j + 1] for j in range(len(s) - 1)):
            raise InputError("characters must be non-increasing, got %r" % (s,))
        if s and s[0] > b_dim:
            raise InputError(
                "leading character %d exceeds dim b = %d" % (s[0], b_dim)
            )
        self.s = s
        nu = 0
        for j, x in enumerate(s):
            if x != 0:
                nu = j + 1
        self.nu = nu
        self.principal = s[nu - 1] if nu > 0 else 0

    def cartan_bound(self):
        """s_1 + 2 s_2 + ... + n s_n, the involutivity bound on dim A^(1)."""
        return sum((j + 1) * x for j, x in enumerate(self.s))

    def total(self):
        return sum(self.s)

    def __eq__(self, other):
        return isinstance(other, CharacterVector) and self.s == other.s

    def __repr__(self):
        return "CharacterVector(s=%r, nu=%d, principal=%d)" % (
            self.s,
            self.nu,
            self.principal,
        )


def flatten_generator(m):
    """The b-major coordinate vector (index b*n + i) of an r x n matrix."""
    return [x for row in m.rows for x in row]


def _vector_to_matrix(v, r, n):
    return Matrix([list(v[b * n : (b + 1) * n]) for b in range(r)], ncols=n)


class Tableau:
    """A subspace of Hom(a, b) given by independent generator matrices.

    Each generator is an r x n Matrix (rows indexed by b, columns by a).
    Prolongations are cached per order; the cache is write-once and safe
    for concurrent readers.

    Jet coordinates: level 0 is written over the flattened generators in
    their given order (the dependent variables of a system), each level
    h >= 1 over the canonical reduced basis of A^(h).  jet_basis and
    jet_coordinates are the one place that convention lives.

    integer_basis(h) is the canonical basis of A^(h) with each vector
    cleared to integers and laid out as the flattened generators of
    view_at_level(h), built once per level; the character ranks at order
    h are taken over it with an IntegerEchelon.  Prolongation runs over
    integers too: each step clears the basis of A^(h) the same way and
    solves its symmetry constraints in an IntegerEchelon (see
    _prolong_once).  contraction(h, i) is the map i(e_i): A^(h) ->
    A^(h-1) in jet coordinates, built once per (h, i); it and the view
    layout read the same position list (_view_positions, over
    bases.sym_raise).  Certified characters are memoised per (level,
    samples, seed), so repeated Cartan tests of one tableau sample their
    flags once.
    """

    def __init__(self, a_dim, b_dim, generators):
        a_dim = int(a_dim)
        b_dim = int(b_dim)
        if a_dim < 1 or b_dim < 1:
            raise InputError("tableau needs a_dim >= 1 and b_dim >= 1")
        gens = []
        for g in generators:
            if not isinstance(g, Matrix):
                g = Matrix([[frac(x) for x in row] for row in g], ncols=a_dim)
            if g.nrows != b_dim or g.ncols != a_dim:
                raise DimensionMismatch(
                    "generator is %dx%d, expected %dx%d"
                    % (g.nrows, g.ncols, b_dim, a_dim)
                )
            gens.append(g)
        self.a_dim = a_dim
        self.b_dim = b_dim
        self.generators = tuple(gens)
        self._gen_vectors = [flatten_generator(g) for g in gens]
        span = Subspace(a_dim * b_dim, self._gen_vectors)
        if span.dim != len(gens):
            raise InputError(
                "generators are linearly dependent: %d matrices span a "
                "space of dimension %d" % (len(gens), span.dim)
            )
        self._levels = [span]
        self._gen_coords = None
        self._int_bases = {}
        self._contractions = {}
        self._characters = {}
        self._lock = threading.Lock()

    @classmethod
    def from_vectors(cls, a_dim, b_dim, vectors):
        """Build a tableau from b-major coordinate vectors in b (x) a*."""
        mats = [_vector_to_matrix([frac(x) for x in v], b_dim, a_dim) for v in vectors]
        return cls(a_dim, b_dim, mats)

    @classmethod
    def from_json_dict(cls, data):
        try:
            a_dim = data["a_dim"]
            b_dim = data["b_dim"]
            gens = data["generators"]
        except (KeyError, TypeError) as exc:
            raise InputError("tableau JSON needs a_dim, b_dim, generators") from exc
        return cls(a_dim, b_dim, gens)

    def to_json_dict(self):
        return {
            "a_dim": self.a_dim,
            "b_dim": self.b_dim,
            "generators": [
                [[str(x) for x in row] for row in g.rows] for g in self.generators
            ],
        }

    @property
    def dim(self):
        return self._levels[0].dim

    def level(self, h, max_dim=DEFAULT_MAX_DIM):
        """A^(h) as a Subspace of b (x) S^{h+1}(a*), computed on demand."""
        if h < 0:
            raise InputError("prolongation order must be >= 0, got %d" % h)
        if h < len(self._levels):
            return self._levels[h]
        with self._lock:
            while len(self._levels) <= h:
                prev_h = len(self._levels) - 1
                nxt = _prolong_once(
                    self.a_dim, self.b_dim, self._levels[prev_h], prev_h, max_dim
                )
                self._levels.append(nxt)
        return self._levels[h]

    def jet_basis(self, h, max_dim=DEFAULT_MAX_DIM):
        """Basis of the level-h jet coordinates inside b (x) S^{h+1}(a*):
        the flattened generators for h = 0, the basis of A^(h) above."""
        if h == 0:
            return self._gen_vectors
        return self.level(h, max_dim).basis

    def generator_coordinates(self):
        """The flattened generators as a ColumnCoordinates, built once.

        Its rows are the pivots of the canonical span A^(0); the
        generators restricted there are invertible because they span it.
        """
        if self._gen_coords is None:
            with self._lock:
                if self._gen_coords is None:
                    pivots = self._levels[0].pivots
                    gens = Matrix.from_columns(
                        self._gen_vectors, nrows=self.a_dim * self.b_dim
                    )
                    inverse = Matrix(
                        [gens.rows[i] for i in pivots], ncols=self.dim
                    ).inverse()
                    self._gen_coords = ColumnCoordinates(gens, pivots, inverse)
        return self._gen_coords

    def integer_basis(self, h=0):
        """An integer basis of A^(h) in the layout of the flattened
        generators of view_at_level(h), built once per level.

        Entry (b, J; i), at index (b*|S^h| + J)*n + i, is the coordinate
        (b, J + e_i) of the canonical basis vector of A^(h) scaled by the
        lcm of its denominators; for h = 0 that is the canonical basis of
        A^(0) itself.  Ranks depend only on the space spanned, so this
        serves the characters of the view tableau without building it.
        A^(h) is read with level(h); cartan_test builds the tower under
        its own cap first.
        """
        basis = self._int_bases.get(h)
        if basis is not None:
            return basis
        source = _view_positions(self.a_dim, self.b_dim, h)
        basis = [
            [v[pos] for pos in source]
            for v in map(clear_denominators, self.level(h).basis)
        ]
        with self._lock:
            return self._int_bases.setdefault(h, basis)

    def jet_coordinates(self, h, v, max_dim=DEFAULT_MAX_DIM):
        """Coordinates of v over jet_basis(h); NotInImage when v is outside."""
        if h == 0:
            try:
                return self.generator_coordinates().of_vector(v)
            except Inconsistent as exc:
                raise NotInImage("vector does not lie in A^(0)") from exc
        coords = self.level(h, max_dim).coordinates(v)
        if coords is None:
            raise NotInImage("vector does not lie in A^(%d)" % h)
        return coords

    def prolong(self, max_dim=DEFAULT_MAX_DIM):
        """First prolongation A^(1) inside b (x) S^2(a*)."""
        return self.level(1, max_dim)

    def dim_at(self, h, max_dim=DEFAULT_MAX_DIM):
        return self.level(h, max_dim).dim

    def view_at_level(self, h, max_dim=DEFAULT_MAX_DIM):
        """A^(h) regarded as a tableau inside Hom(a, b (x) S^h(a*)).

        The embedding sends T to the map X -> i(X) T, which is injective,
        so a basis of A^(h) yields independent generators.  Since
        i(e_i) m_I = m_{I \\ i}, generator entry (b, J; i) is the
        coordinate (b, J + e_i) of T (see _view_positions).

        The Cartan test at order h does not build this tableau: it reads
        the characters off integer_basis(h) and dim A^(h)^(1) off the
        tower as dim A^(h+1).  The view is what the Guillemin normal form
        of A^(h) is built and verified on (normal_form(tab, h=h)), and
        the tests' oracle; it is never prolonged.
        """
        if h == 0:
            return self
        n, r = self.a_dim, self.b_dim
        source = _view_positions(n, r, h)
        gens = [
            Matrix(
                [[v[pos] for pos in source[row:row + n]]
                 for row in range(0, len(source), n)],
                ncols=n,
            )
            for v in self.level(h, max_dim).basis
        ]
        return Tableau(n, r * sym_basis(n, h).size, gens)

    def contraction(self, h, i, max_dim=DEFAULT_MAX_DIM):
        """Matrix of the contraction i(e_i): A^(h) -> A^(h-1) over the jet
        coordinate bases (h >= 1), built once per (h, i).

        Column beta holds the level-(h-1) jet coordinates of i(e_i) T_beta
        for the basis vector T_beta of A^(h).  A contraction that leaves
        A^(h-1) means the tower is inconsistent and raises
        StructureViolation.
        """
        key = (h, i)
        m = self._contractions.get(key)
        if m is not None:
            return m
        if h < 1 or not 0 <= i < self.a_dim:
            raise InputError("no contraction of level %d by e_%d" % (h, i))
        n = self.a_dim
        # entries (b, J; i) of the view are the coordinates (b, J) of i(e_i) T
        gather = _view_positions(n, self.b_dim, h)[i::n]
        cols = []
        for v in self.level(h, max_dim).basis:
            try:
                cols.append(
                    self.jet_coordinates(h - 1, [v[pos] for pos in gather], max_dim)
                )
            except NotInImage as exc:
                raise StructureViolation(
                    "contraction left the prolongation at level %d" % (h - 1)
                ) from exc
        m = Matrix.from_columns(cols, nrows=self.dim_at(h - 1, max_dim))
        with self._lock:
            return self._contractions.setdefault(key, m)


def _view_positions(n, r, h):
    """The index map of view_at_level: entry (b, J; i) of the view, at
    index (b*|S^h| + J)*n + i, is coordinate (b, J + e_i) of the tensor
    in b (x) S^{h+1}(a*), whose position is listed here.  It is the
    identity for h = 0, and the slice [i::n] gathers i(e_i)."""
    size_next = sym_basis(n, h + 1).size
    return [
        b * size_next + k for b in range(r) for up in sym_raise(n, h) for k in up
    ]


def _prolong_once(n, r, prev, prev_h, max_dim):
    """One prolongation step: from A^(prev_h) to A^(prev_h + 1).

    Solves the explicit symmetry-constraint system: writing the candidate
    contractions as c_i = i(e_i) T = sum_beta q^beta_i T_beta over a
    basis {T_beta} of the previous level, T exists exactly when

        c_i[b, L + e_j] = c_j[b, L + e_i]

    for all b, all L in S^{prev_h}(a*) and all i < j (both sides are the
    coefficient of m_{L + e_i + e_j} in T).  The kernel of that system
    maps bijectively onto A^(prev_h + 1): T[b, M] = c_i[b, J] for any one
    (J, i) with J + e_i = M.  Both index maps are read off sym_raise.

    Everything runs over the integers: T_beta is the canonical basis
    vector of A^(prev_h) cleared of denominators (rescaling T_beta only
    rescales the unknowns q^beta_i), the constraints are sparse integer
    rows of an IntegerEchelon, whose integer kernel gives integer tensors,
    and the level is the canonical span of those.
    """
    h1 = prev_h + 2  # symmetric degree of the next level
    size_next = sym_basis(n, h1).size
    size_prev = sym_basis(n, h1 - 1).size
    ambient = r * size_next
    if ambient > max_dim:
        raise CapExceeded(
            "prolongation ambient dimension %d exceeds cap %d" % (ambient, max_dim)
        )
    d = prev.dim
    if d == 0:
        return Subspace(ambient, [])
    basis = [clear_denominators(v) for v in prev.basis]
    # column (b, J) of the previous level -> its nonzero (beta, T_beta[b, J])
    entries = [
        [(beta, x) for beta, v in enumerate(basis) if (x := v[pos])]
        for pos in range(r * size_prev)
    ]
    unknowns = n * d  # q index: i * d + beta
    echelon = IntegerEchelon()
    for b in range(r):
        off = b * size_prev
        for up in sym_raise(n, prev_h):
            for i in range(n):
                at_i = entries[off + up[i]]
                for j in range(i + 1, n):
                    row = {i * d + beta: x for beta, x in entries[off + up[j]]}
                    for beta, x in at_i:
                        row[j * d + beta] = -x
                    echelon.add(row)
    back = {}  # M -> one (J, i) with J + e_i = M
    for red, up in enumerate(sym_raise(n, h1 - 1)):
        for i, m_idx in enumerate(up):
            back.setdefault(m_idx, (red, i))
    out = IntegerEchelon()
    for q in echelon.kernel(unknowns):
        t = {}
        for b in range(r):
            off_next = b * size_next
            off_prev = b * size_prev
            for m_idx, (red, i0) in back.items():
                acc = 0
                for beta, x in entries[off_prev + red]:
                    acc += q[i0 * d + beta] * x
                if acc:
                    t[off_next + m_idx] = acc
        out.add(t)
    return Subspace.from_echelon(ambient, out)


def prolong_via_intersection(tab, h=1, max_dim=DEFAULT_MAX_DIM):
    """Independent route to A^(h): intersect A^(h-1) (x) a* with the
    symmetric tensors inside b (x) S^{h-1+1}(a*) (x) a*.

    Kept as a cross-check oracle against the kernel-system route used by
    Tableau.level; both must return the same subspace.
    """
    if h < 1:
        raise InputError("intersection route needs h >= 1, got %d" % h)
    n, r = tab.a_dim, tab.b_dim
    prev = tab.level(h - 1, max_dim)
    sb_prev = sym_basis(n, h)
    sb_next = sym_basis(n, h + 1)
    big = r * sb_prev.size * n  # coords (b, J, i) -> (b*|S^h| + J)*n + i
    if big > max_dim:
        raise CapExceeded(
            "intersection ambient dimension %d exceeds cap %d" % (big, max_dim)
        )

    def embed(vec_t):
        # b (x) S^{h+1} -> b (x) S^h (x) a*, splitting each monomial by
        # its last tensor factor: m_M = sum_{i in M} m_{M \ i} (x) e*_i
        w = [Fraction(0)] * big
        for b in range(r):
            for m_idx, mono in enumerate(sb_next.indices):
                c = vec_t[b * sb_next.size + m_idx]
                if c == 0:
                    continue
                for i in sorted(set(mono)):
                    red = sb_prev.index_of[multiindex_remove(mono, i)]
                    w[(b * sb_prev.size + red) * n + i] += c
        return w

    tensor_basis_vectors = []
    for bv in prev.basis:
        for i in range(n):
            w = [Fraction(0)] * big
            for pos, c in enumerate(bv):
                if c != 0:
                    w[pos * n + i] = c
            tensor_basis_vectors.append(w)
    left = Subspace(big, tensor_basis_vectors)

    sym_vectors = []
    for b in range(r):
        for mono in sb_next.indices:
            vec_t = [Fraction(0)] * (r * sb_next.size)
            vec_t[b * sb_next.size + sb_next.index_of[mono]] = Fraction(1)
            sym_vectors.append(embed(vec_t))
    right = Subspace(big, sym_vectors)

    inter = intersect(left, right)
    out = []
    for w in inter.basis:
        vec_t = [Fraction(0)] * (r * sb_next.size)
        for b in range(r):
            for m_idx, mono in enumerate(sb_next.indices):
                i0 = mono[0]
                red = sb_prev.index_of[multiindex_remove(mono, i0)]
                vec_t[b * sb_next.size + m_idx] = w[(b * sb_prev.size + red) * n + i0]
        if embed(vec_t) != w:
            raise UnstableGenericity(
                "intersection produced a tensor outside the symmetric space; "
                "this indicates an internal convention error"
            )
        out.append(vec_t)
    return Subspace(r * sb_next.size, out)


def _sample_flag(rng, n, bound):
    """Random invertible n x n integer matrix, as n lists of n ints; row j
    spans flag step j.

    All n^2 entries are drawn, row by row, before the rows are tested, so
    a rejected draw consumes the same random numbers as an accepted one.
    Each entry is randrange(2*bound + 1) - bound, the same draw as
    randint(-bound, bound) without its argument handling.
    """
    width = 2 * bound + 1
    while True:
        rows = [[rng.randrange(width) - bound for _ in range(n)] for _ in range(n)]
        echelon = IntegerEchelon()
        if all(echelon.add(row) for row in rows):
            return rows


def character_partial_sums(tab, flag, h=0):
    """codim Ker(A^(h), a_j) for j = 1..n along the given flag.

    flag is an n x n Matrix, or n rows of n ints or Fractions, whose
    first j rows span the j-th flag subspace.  A^(h) is read as the
    tableau view_at_level(h) inside Hom(a, b (x) S^h(a*)), over
    tab.integer_basis(h), so the view is never built.  The j-th partial
    sum equals the rank of the evaluation map A^(h) -> Hom(a_j, b (x)
    S^h(a*)) restricted to those rows.  One IntegerEchelon carries the
    rank from step to step: step j adds only the rows of flag row j, one
    per b-coordinate of the view, each a dot product of that
    coordinate's column block with the flag row cleared of denominators
    (scaling a row or a column changes no rank).
    """
    n = tab.a_dim
    rows = flag.rows if isinstance(flag, Matrix) else flag
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionMismatch("flag must be %dx%d" % (n, n))
    basis = tab.integer_basis(h)
    d = len(basis)
    width = tab.b_dim * sym_basis(n, h).size * n
    echelon = IntegerEchelon()
    sums = []
    for j in range(n):
        if len(echelon) < d:
            v = clear_denominators(rows[j])
            for off in range(0, width, n):
                echelon.add([sum(map(mul, bv[off:off + n], v)) for bv in basis])
        sums.append(len(echelon))
    return sums


def characters(tab, samples=5, seed=0, h=0):
    """Characters of A^(h), read as the tableau view_at_level(h), from
    certified generic flags.

    Draws `samples` independent random flags and keeps the maximal
    codimension sequence; a result is returned only when all samples
    agree, retrying with a geometrically growing coefficient range, and
    otherwise UnstableGenericity is raised.  A certified result is
    memoised on the tableau under (h, samples, seed) and returned again
    for the same key; a failure stores nothing.  The ranks do not depend
    on the basis they are taken over, so the result equals
    characters(tab.view_at_level(h), samples, seed).
    """
    if samples < 1:
        raise InputError("need samples >= 1, got %d" % samples)
    key = (h, samples, seed)
    cv = tab._characters.get(key)
    if cv is not None:
        return cv
    n = tab.a_dim
    rng = random.Random(seed)
    bound = _FLAG_BASE_BOUND
    last = None
    for _ in range(_FLAG_ATTEMPTS):
        seqs = [
            character_partial_sums(tab, _sample_flag(rng, n, bound), h)
            for _ in range(samples)
        ]
        best = seqs[0]
        if all(s == best for s in seqs):
            s = [best[0]] + [best[j] - best[j - 1] for j in range(1, n)]
            cv = CharacterVector(s, tab.b_dim * sym_basis(n, h).size)
            dim = len(tab.integer_basis(h))
            if cv.total() != dim:
                raise UnstableGenericity(
                    "character sum %d does not match dim A^(%d) = %d; "
                    "sampled flags were not generic" % (cv.total(), h, dim)
                )
            with tab._lock:
                return tab._characters.setdefault(key, cv)
        last = seqs
        bound *= 8
    raise UnstableGenericity(
        "flag samples disagree after %d attempts (last sequences: %r); "
        "raise the sample count or the coefficient range" % (_FLAG_ATTEMPTS, last)
    )


def cartan_test(tab, samples=5, seed=0, max_dim=DEFAULT_MAX_DIM, h=0):
    """Cartan's involutivity test for A^(h), read as the tableau
    view_at_level(h) (h = 0 tests the tableau itself).

    Returns {"involutive", "bound", "dim_A1", "characters"} where bound is
    s_1 + 2 s_2 + ... + n s_n of the characters of A^(h) and dim_A1 is
    the dimension of its first prolongation, which is A^(h+1) of the
    tower: (A^(h))^(1) = A^(h+1).  So only A^(h+1) has to fit in max_dim
    (CapExceeded otherwise), and no view tableau is built or prolonged.
    The inequality dim_A1 <= bound must hold for genuinely generic
    flags; a violation means the certified samples were still
    non-generic and raises UnstableGenericity.
    """
    dim_a1 = tab.dim_at(h + 1, max_dim)
    cv = characters(tab, samples=samples, seed=seed, h=h)
    bound = cv.cartan_bound()
    if dim_a1 > bound:
        raise UnstableGenericity(
            "dim A^(1) = %d exceeds the character bound %d; sampled flags "
            "were not generic" % (dim_a1, bound)
        )
    return {
        "involutive": dim_a1 == bound,
        "bound": bound,
        "dim_A1": dim_a1,
        "characters": cv,
    }


def involutive_index(tab, h_max, samples=5, seed=0, max_dim=DEFAULT_MAX_DIM):
    """Least order k <= h_max at which A^(k) passes the Cartan test.

    Order h runs cartan_test(tab, h=h) on the prolongation tower: the
    characters come off integer_basis(h) and the bound is checked
    against dim A^(h+1), so the search needs A^(h_max + 1), ambient
    dimension b_dim * |S^(h_max + 2)|, within max_dim.  Every further
    prolongation up to h_max is then re-tested rather than assumed
    involutive.  Raises CapExceeded with the observed trajectory when no
    order up to h_max passes.
    """
    if h_max < 0:
        raise InputError("h_max must be >= 0, got %d" % h_max)
    rng = random.Random(seed)
    trajectory = []
    k = None
    k_chars = None
    for h in range(h_max + 1):
        res = cartan_test(
            tab, samples=samples, seed=rng.randrange(2**32), max_dim=max_dim, h=h
        )
        trajectory.append(
            {
                "h": h,
                "dim": tab.dim_at(h, max_dim),
                "characters": res["characters"].s,
                "involutive": res["involutive"],
            }
        )
        if res["involutive"]:
            if k is None:
                k = h
                k_chars = res["characters"]
        elif k is not None:
            raise UnstableGenericity(
                "order %d failed the Cartan test although order %d passed; "
                "sampled flags were not generic (trajectory: %r)"
                % (h, k, trajectory)
            )
    if k is None:
        raise CapExceeded(
            "no involutive prolongation up to order %d; trajectory: %r"
            % (h_max, trajectory)
        )
    return {"k": k, "involutive_characters": k_chars, "trajectory": trajectory}
