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
the monomial bases of bases.py, again b-major.  Flags are sampled with
integer coefficients.  Characters are proved by the first certificate
that applies: a zero level has characters (0, ..., 0) and draws no flag;
a first flag that attains the Cartan bound dim A^(1) proves involutivity
and its characters exactly (a witness); a first flag whose partial sums
reach the rank bound min(dim A, j dim b) proves them generic; otherwise
the characters are certified by agreement of five independent flags,
and a disagreement raises UnstableGenericity instead of returning a
silently wrong answer.  The seed is the only setting of every route.
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
    InputError,
    NotInImage,
    StructureViolation,
    UnstableGenericity,
)
from .linalg import IntegerEchelon, Matrix, Subspace, clear_denominators

DEFAULT_MAX_DIM = 20000

_FLAG_ATTEMPTS = 4
_FLAG_BASE_BOUND = 8
_FLAG_SAMPLES = 5


class CharacterVector:
    """Characters (s_1, ..., s_n) of a tableau, with the Cartan integer.

    nu is the largest j with s_j != 0 (zero for the zero tableau) and
    principal = s_nu is the principal character.  Construction checks the
    defining inequalities b_dim >= s_1 >= ... >= s_n >= 0.  flag is the
    witness flag that certified the characters (see characters), or None;
    equality ignores it.
    """

    __slots__ = ("s", "nu", "principal", "flag")

    def __init__(self, s, b_dim, flag=None):
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
        self.flag = flag

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


class Tableau:
    """A subspace of Hom(a, b) given by independent generator matrices.

    Each generator is an r x n Matrix (rows indexed by b, columns by a).
    Prolongations are cached per order; the cache is write-once and safe
    for concurrent readers.  max_dim caps the ambient dimension r *
    |S^{h+1}| of every level the tableau prolongs (CapExceeded beyond
    it).  It is fixed at construction, and view_at_level hands it on, so
    every level and every memoised value was computed under the same cap
    and no answer depends on call history.

    Jet coordinates: level 0 is written over the flattened generators in
    their given order (the dependent variables of a system), each level
    h >= 1 over the canonical reduced basis of A^(h).  jet_basis and
    jet_coordinates are the one place that convention lives; the
    coordinates of every level are read off the pivots of A^(h)
    (Subspace.coordinates).

    integer_basis(h) is the integer rows of A^(h) (Subspace.integer_rows)
    laid out as the flattened generators of view_at_level(h); the
    character ranks at order h are taken over it with an IntegerEchelon.
    Prolongation runs over integers too: each step reads the integer rows
    of A^(h) and solves its symmetry constraints in an IntegerEchelon
    (see _prolong_once).
    contraction(h, i) is the map i(e_i): A^(h) -> A^(h-1) in jet
    coordinates (A^(-1) = b), shared by the tower and the Spencer
    differential; it and the view layout read the same position list
    (_view_positions, over bases.sym_raise).

    Every value derived from the tableau, other than the levels, is kept
    in one write-once memo (see memo), keyed by the name of what it is
    and its arguments: the generator_inverse that jet_coordinates reads
    at level 0, integer_basis per level, contraction per (h, i),
    characters per (level, seed), spencer's jet Gram matrices per level
    and its differential ranks and harmonic splits per (q, p).  No memoised
    value refers back to the tableau, so a tableau is freed by reference
    counting.
    """

    def __init__(self, a_dim, b_dim, generators, max_dim=DEFAULT_MAX_DIM):
        a_dim = int(a_dim)
        b_dim = int(b_dim)
        if a_dim < 1 or b_dim < 1:
            raise InputError("tableau needs a_dim >= 1 and b_dim >= 1")
        gens = []
        for g in generators:
            if not isinstance(g, Matrix):
                g = Matrix(g, ncols=a_dim)
            if g.nrows != b_dim or g.ncols != a_dim:
                raise DimensionMismatch(
                    "generator is %dx%d, expected %dx%d"
                    % (g.nrows, g.ncols, b_dim, a_dim)
                )
            gens.append(g)
        self.a_dim = a_dim
        self.b_dim = b_dim
        self.max_dim = max_dim
        self.generators = tuple(gens)
        self._gen_vectors = [flatten_generator(g) for g in gens]
        span = Subspace(a_dim * b_dim, self._gen_vectors)
        if span.dim != len(gens):
            raise InputError(
                "generators are linearly dependent: %d matrices span a "
                "space of dimension %d" % (len(gens), span.dim)
            )
        self._levels = [span]
        self._memo = {}
        self._lock = threading.Lock()

    @classmethod
    def from_json_dict(cls, data, max_dim=DEFAULT_MAX_DIM):
        """The tableau of a JSON object with integer a_dim and b_dim and
        generators given as lists of rows of rational entries (ints or
        strings such as "3/4"); InputError when it is not of that shape."""
        try:
            a_dim, b_dim = data["a_dim"], data["b_dim"]
            if type(a_dim) is not int or type(b_dim) is not int:
                raise TypeError("a_dim and b_dim must be JSON integers")
            gens = [[list(row) for row in g] for g in data["generators"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(
                "tableau JSON needs integer a_dim and b_dim and a list of "
                "generator matrices"
            ) from exc
        return cls(a_dim, b_dim, gens, max_dim)

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

    def memo(self, key, build):
        """The value memoised under key, built by build() on a miss.

        The memo is write-once: the store is a setdefault under the
        tableau's lock, so when threads race on one miss the first writer
        wins and every caller gets the identical object.  A build that
        raises stores nothing, and the next call builds again.
        """
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = build()
        with self._lock:
            return self._memo.setdefault(key, value)

    def level(self, h):
        """A^(h) as a Subspace of b (x) S^{h+1}(a*), computed on demand."""
        if h < 0:
            raise InputError("prolongation order must be >= 0, got %d" % h)
        if h < len(self._levels):
            return self._levels[h]
        with self._lock:
            while len(self._levels) <= h:
                prev_h = len(self._levels) - 1
                nxt = _prolong_once(
                    self.a_dim, self.b_dim, self._levels[prev_h], prev_h,
                    self.max_dim,
                )
                self._levels.append(nxt)
        return self._levels[h]

    def jet_basis(self, h):
        """Basis of the level-h jet coordinates inside b (x) S^{h+1}(a*):
        the flattened generators for h = 0, the basis of A^(h) above."""
        if h == 0:
            return self._gen_vectors
        return self.level(h).basis

    def integer_basis(self, h=0):
        """An integer basis of A^(h) in the layout of the flattened
        generators of view_at_level(h), built once per level.

        Entry (b, J; i), at index (b*|S^h| + J)*n + i, is the coordinate
        (b, J + e_i) of the integer row of A^(h) (the canonical basis
        vector scaled by the lcm of its denominators); for h = 0 these
        are the integer rows of A^(0) themselves.  Ranks depend only on
        the space spanned, so this serves the characters of the view
        tableau without building it.
        A^(h) is read with level(h), under the tableau's cap.
        """
        def build():
            source = _view_positions(self.a_dim, self.b_dim, h)
            return [[v[pos] for pos in source] for v in self.level(h).integer_rows]

        return self.memo(("integer_basis", h), build)

    def jet_coordinates(self, h, v):
        """Coordinates of v over jet_basis(h); NotInImage when v is outside.

        c = level(h).coordinates(v) proves v in A^(h) and gives its
        coordinates over the canonical basis.  At h = 0 the coordinates
        over the generators are x = P^-1 c, where P[i][beta] = G_beta[p_i]
        is the block of the flattened generators on the pivots p_i of
        A^(0), invertible because they span A^(0); P^-1 is memoised as
        "generator_inverse".  No product with the generators is needed:
        P x = c says that sum_beta x_beta G_beta and v agree on the
        pivots, both lie in A^(0), and projecting onto the pivots is
        injective on A^(0), so they are equal.
        """
        coords = self.level(h).coordinates(v)
        if coords is None:
            raise NotInImage("vector does not lie in A^(%d)" % h)
        if h == 0:
            inverse = self.memo(("generator_inverse",), lambda: Matrix(
                [[g[p] for g in self._gen_vectors] for p in self._levels[0].pivots],
                ncols=self.dim).inverse())
            coords = inverse.matvec(coords)
        return coords

    def prolong(self):
        """First prolongation A^(1) inside b (x) S^2(a*)."""
        return self.level(1)

    def dim_at(self, h):
        return self.level(h).dim

    def view_at_level(self, h):
        """A^(h) regarded as a tableau inside Hom(a, b (x) S^h(a*)).

        The embedding sends T to the map X -> i(X) T, which is injective,
        so a basis of A^(h) yields independent generators.  Since
        i(e_i) m_I = m_{I \\ i}, generator entry (b, J; i) is the
        coordinate (b, J + e_i) of T (see _view_positions).

        The Cartan test at order h does not build this tableau: it reads
        the characters off integer_basis(h) and dim A^(h)^(1) off the
        tower as dim A^(h+1), and the Guillemin normal form of A^(h)
        reads its generators off integer_basis(h) too.  The Cauchy frame
        writes normal generators in the view's coordinates, and the
        tests use it as an oracle; it is never prolonged.  It has the
        cap of this tableau.
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
            for v in self.level(h).basis
        ]
        return Tableau(n, r * sym_basis(n, h).size, gens, self.max_dim)

    def contraction(self, h, i):
        """Matrix of the contraction i(e_i): A^(h) -> A^(h-1) over the jet
        coordinate bases, built once per (h, i).

        Column beta holds the level-(h-1) jet coordinates of i(e_i) T_beta
        for the vector T_beta of jet_basis(h).  Level -1 is b with its
        identity basis, so for h = 0 column beta is column i of generator
        beta.  A contraction that leaves A^(h-1) means the tower is
        inconsistent and raises StructureViolation.
        """
        return self.memo(("contraction", h, i), lambda: self._contract(h, i))

    def _contract(self, h, i):
        if h < 0 or not 0 <= i < self.a_dim:
            raise InputError("no contraction of level %d by e_%d" % (h, i))
        n = self.a_dim
        # entries (b, J; i) of the view are the coordinates (b, J) of i(e_i) T
        gather = _view_positions(n, self.b_dim, h)[i::n]
        cols = []
        for v in self.jet_basis(h):
            image = [v[pos] for pos in gather]
            try:
                cols.append(image if h == 0 else
                            self.jet_coordinates(h - 1, image))
            except NotInImage as exc:
                raise StructureViolation(
                    "contraction left the prolongation at level %d" % (h - 1)
                ) from exc
        return Matrix.from_columns(cols, nrows=self.dim_at(h - 1) if h else self.b_dim)


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

    Everything runs over the integers: T_beta is the integer row of
    A^(prev_h), its canonical basis vector cleared of denominators
    (rescaling T_beta only rescales the unknowns q^beta_i), which the
    previous step kept from its echelon; the constraints are sparse integer
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
    basis = prev.integer_rows
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


def prolong_via_intersection(tab, h=1):
    """Independent route to A^(h): intersect A^(h-1) (x) a* with the
    symmetric tensors inside b (x) S^{h-1+1}(a*) (x) a*.

    Kept as a cross-check oracle against the kernel-system route used by
    Tableau.level; both must return the same subspace.
    """
    if h < 1:
        raise InputError("intersection route needs h >= 1, got %d" % h)
    n, r = tab.a_dim, tab.b_dim
    prev = tab.level(h - 1)
    sb_prev = sym_basis(n, h)
    sb_next = sym_basis(n, h + 1)
    big = r * sb_prev.size * n  # coords (b, J, i) -> (b*|S^h| + J)*n + i
    if big > tab.max_dim:
        raise CapExceeded(
            "intersection ambient dimension %d exceeds cap %d" % (big, tab.max_dim)
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

    inter = left.intersect(right)
    out = []
    for w in inter.basis:
        vec_t = [Fraction(0)] * (r * sb_next.size)
        for b in range(r):
            for m_idx, mono in enumerate(sb_next.indices):
                i0 = mono[0]
                red = sb_prev.index_of[multiindex_remove(mono, i0)]
                vec_t[b * sb_next.size + m_idx] = w[(b * sb_prev.size + red) * n + i0]
        if embed(vec_t) != w:
            raise StructureViolation(
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
    (scaling a row or a column changes no rank).  Once the rank reaches
    dim A^(h) every further row is dependent, so none is added.
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
                if len(echelon) == d:
                    break
        sums.append(len(echelon))
    return sums


def characters(tab, seed=0, h=0, dim_a1=None):
    """Characters of A^(h), read as the tableau view_at_level(h), proved
    by the first of four certificates that applies (see _certify).

    Every flag F has partial sums sigma_j(F) <= sigma_j(generic) <=
    min(d, j b) for d = dim A^(h) and b = b_dim |S^h|, because the generic
    rank is the largest and the evaluation map on j flag vectors goes from
    A^(h) to j copies of b; and sigma_n(F) = d, because F spans a.

    1. Zero level.  When d = 0 every sigma_j is 0: the characters are
       (0, ..., 0), and no Random is built and no flag is drawn.
    2. Witness.  The first flag F is drawn from Random(seed).  When
       dim_a1 = dim A^(h+1) is given, F is tried as a witness: the bound
       n sigma_n - (sigma_1 + ... + sigma_{n-1}) of F is at least the
       generic bound, which is at least dim A^(h+1) by Cartan's
       inequality.  When sigma_n(F) = d and the bound of F equals dim_a1,
       both inequalities are equalities: the tableau is involutive and
       every sigma_j(F) is generic, so s(F) are its characters, exactly.
       The result then carries F as its flag attribute.
    3. Rank bound.  When sigma_j(F) = min(d, j b) for every j, the first
       inequality chain is tight, so every sigma_j(F) is generic.  The
       result carries no flag: flag means a witness of involutivity.
    4. Vote.  Otherwise _FLAG_SAMPLES independent random flags, F being
       the first, must give the same partial sums; a disagreement retries
       with a geometrically growing coefficient range, and otherwise
       UnstableGenericity is raised.

    A result is memoised on the tableau under (h, seed) and returned
    again for the same key, whichever way it was certified; a failure
    stores nothing.  The ranks do not depend on the basis they are taken
    over, so the result equals characters(tab.view_at_level(h), seed).
    """
    return tab.memo(("characters", h, seed),
                    lambda: _certify(tab, seed, h, dim_a1))


def _certify(tab, seed, h, dim_a1):
    """The characters of A^(h) by the first certificate that applies, in
    the order of the characters docstring: a zero level, the witness, the
    rank bound, the vote."""
    n = tab.a_dim
    b_dim = tab.b_dim * sym_basis(n, h).size
    dim = len(tab.integer_basis(h))
    if dim == 0:
        return CharacterVector([0] * n, b_dim)
    rng = random.Random(seed)
    bound = _FLAG_BASE_BOUND
    flag = _sample_flag(rng, n, bound)
    first = character_partial_sums(tab, flag, h)
    if (dim_a1 is not None and first[-1] == dim
            and n * first[-1] - sum(first[:-1]) == dim_a1):
        return _from_partial_sums(first, b_dim, flag)
    if first == [min(dim, j * b_dim) for j in range(1, n + 1)]:
        return _from_partial_sums(first, b_dim)
    seqs = [first]
    last = None
    for _ in range(_FLAG_ATTEMPTS):
        seqs += [
            character_partial_sums(tab, _sample_flag(rng, n, bound), h)
            for _ in range(_FLAG_SAMPLES - len(seqs))
        ]
        best = seqs[0]
        if all(s == best for s in seqs):
            cv = _from_partial_sums(best, b_dim)
            if cv.total() != dim:
                raise UnstableGenericity(
                    "character sum %d does not match dim A^(%d) = %d; "
                    "sampled flags were not generic" % (cv.total(), h, dim)
                )
            return cv
        last = seqs
        seqs = []
        bound *= 8
    raise UnstableGenericity(
        "flag samples disagree after %d attempts (last sequences: %r); "
        "retry with another seed" % (_FLAG_ATTEMPTS, last)
    )


def _from_partial_sums(sums, b_dim, flag=None):
    """The CharacterVector with partial sums sigma_1..sigma_n."""
    return CharacterVector(
        [sums[0]] + [sums[j] - sums[j - 1] for j in range(1, len(sums))],
        b_dim,
        flag,
    )


def cartan_test(tab, seed=0, h=0):
    """Cartan's involutivity test for A^(h), read as the tableau
    view_at_level(h) (h = 0 tests the tableau itself).

    Returns {"involutive", "bound", "dim_A1", "characters"} where bound is
    s_1 + 2 s_2 + ... + n s_n of the characters of A^(h) and dim_A1 is
    the dimension of its first prolongation, which is A^(h+1) of the
    tower: (A^(h))^(1) = A^(h+1).  So only A^(h+1) has to fit in the
    tableau's max_dim (CapExceeded otherwise), and no view tableau is
    built or prolonged.
    The inequality dim_A1 <= bound holds for every flag F: sigma_j(F) <=
    sigma_j(generic) and sigma_n(F) = dim A, so bound(F) >= bound(generic)
    >= dim A^(1).  A violation is an internal inconsistency: it raises
    StructureViolation and drops the memoised characters.  dim_A1 is
    handed to characters(), so a first flag whose bound equals it is a
    witness that proves the verdict "involutive" exactly.  A zero level
    is involutive with no flag drawn.  "Not involutive" is proved by a
    first flag at the rank bound min(dim A, j dim b) or by the vote of
    _FLAG_SAMPLES flags.
    """
    dim_a1 = tab.dim_at(h + 1)
    cv = characters(tab, seed=seed, h=h, dim_a1=dim_a1)
    bound = cv.cartan_bound()
    if dim_a1 > bound:
        tab._memo.pop(("characters", h, seed), None)
        raise StructureViolation(
            "dim A^(1) = %d exceeds the character bound %d; the characters "
            "and the prolongation tower are inconsistent" % (dim_a1, bound)
        )
    return {
        "involutive": dim_a1 == bound,
        "bound": bound,
        "dim_A1": dim_a1,
        "characters": cv,
    }


def involutive_index(tab, h_max, seed=0):
    """Least order k <= h_max at which A^(k) passes the Cartan test.

    Orders h <= k run cartan_test(tab, h=h) on the tower: order 0 with
    the caller's seed, so that a Cartan test the caller ran is reused,
    and each order h >= 1 with a seed drawn from the search's own
    Random(seed) (see cartan_test for the flags a test draws).  A
    prolongation of an involutive tableau is involutive with characters
    s'_j = s_j + ... + s_n, so each order above k is derived from the one
    below, with no flag, and checked exactly: dim A^(h+1) must equal its
    Cartan bound, else StructureViolation.  So the search needs
    A^(h_max + 1), ambient b_dim * |S^(h_max + 2)|, within the tableau's
    max_dim.  Raises CapExceeded with the observed trajectory when no
    order passes.
    """
    if h_max < 0:
        raise InputError("h_max must be >= 0, got %d" % h_max)
    rng = random.Random(seed)
    trajectory = []
    k = k_chars = None
    for h in range(h_max + 1):
        if k is None:
            drawn = rng.randrange(2**32)  # also at h = 0: orders >= 1 keep their flags
            res = cartan_test(tab, seed=drawn if h else seed, h=h)
            s = res["characters"].s
            if res["involutive"]:
                k, k_chars = h, res["characters"]
        else:
            s = tuple(sum(s[j:]) for j in range(len(s)))
            bound = sum(j * x for j, x in enumerate(s, 1))
            if tab.dim_at(h + 1) != bound:
                raise StructureViolation(
                    "order %d: dim A^(%d) = %d, not the Cartan bound %d of the "
                    "characters prolonged from order %d"
                    % (h, h + 1, tab.dim_at(h + 1), bound, k))
        trajectory.append(
            {"h": h, "dim": tab.dim_at(h), "characters": s, "involutive": k is not None}
        )
    if k is None:
        raise CapExceeded(
            "no involutive prolongation up to order %d; trajectory: %r"
            % (h_max, trajectory)
        )
    return {"k": k, "involutive_characters": k_chars, "trajectory": trajectory}
