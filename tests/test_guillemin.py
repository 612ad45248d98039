"""Tests for the triangular normal form of involutive tableaux."""

import json
import random
from fractions import Fraction

import pytest

from dense_oracles import (
    fraction_normal_form,
    fraction_verify_normal_form,
    tableau_from_vectors,
)
from involutive import guillemin
from involutive.cli import EXAMPLE_NAMES, build_example
from involutive.errors import CapExceeded, InputError, NotInvolutive
from involutive.guillemin import NormalForm, normal_form, verify_normal_form
from involutive.linalg import Matrix, Subspace
from involutive.tableau import DEFAULT_MAX_DIM, Tableau, cartan_test, characters


def full_tableau(n, r):
    gens = []
    for b in range(r):
        for i in range(n):
            g = [[0] * n for _ in range(r)]
            g[b][i] = 1
            gens.append(g)
    return Tableau(n, r, gens)


def s21_tableau(max_dim=DEFAULT_MAX_DIM):
    """Matrices [[p, q], [s, p]]: involutive with characters (2, 1)."""
    return Tableau(
        2, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]], max_dim
    )


def cylinder_tableau():
    """Matrices [[p, q, 0], [s, p, 0]]: characters (2, 1, 0), nu < n."""
    return Tableau(
        3,
        2,
        [
            [[1, 0, 0], [0, 1, 0]],
            [[0, 1, 0], [0, 0, 0]],
            [[0, 0, 0], [1, 0, 0]],
        ],
    )


def offdiag_tableau():
    """Matrices [[0, x], [y, 0]]: involutive with characters (2, 0)."""
    return Tableau(2, 2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])


def skew_tableau():
    return Tableau(2, 2, [[[0, 1], [-1, 0]]])


def new_basis_matrices(t, nf):
    """The normal basis rewritten over the adapted bases."""
    b_inv = nf.basis_b.inverse()
    return [b_inv.matmul(q).matmul(nf.basis_a) for q in nf.normal_basis()]


def test_full_tableau_normal_form():
    t = full_tableau(2, 2)
    nf = normal_form(t)
    assert nf.s == (2, 2)
    assert nf.nu == 2
    assert [len(b) for b in nf.blocks] == [2, 2]
    assert len(nf.normal_basis()) == 4
    # no room between s_2 and s_1 and no columns beyond nu: no coefficients
    assert nf.coeffs == {}
    report = verify_normal_form(t, nf)
    assert report["all_passed"], report


def test_s21_normal_form_verifies():
    t = s21_tableau()
    nf = normal_form(t)
    assert nf.s == (2, 1)
    assert [len(b) for b in nf.blocks] == [2, 1]
    report = verify_normal_form(t, nf)
    assert report["all_passed"], report
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "bases_invertible",
        "characters_match",
        "flag_generic",
        "block_sizes",
        "zero_rows_beyond_s1",
        "dual_basis_pairing",
        "span_conditions",
        "support_pattern",
        "coefficients_match",
    ]
    assert report["first_failure"] is None
    # only block 1 has room for free coefficients, in row 2 of column 2
    assert set(nf.coeffs) <= {(1, 1, 2, 2), (1, 2, 2, 2)}


def test_blocks_lie_in_tableau():
    t = s21_tableau()
    nf = normal_form(t)
    space = t.level(0)
    for q in nf.normal_basis():
        flat = [x for row in q.rows for x in row]
        assert space.contains(flat)


def test_coefficient_reconstruction():
    """The stored coefficients plus the duality pins rebuild each block."""
    t = cylinder_tableau()
    nf = normal_form(t)
    n = t.a_dim
    s, nu = nf.s, nf.nu
    new_q = new_basis_matrices(t, nf)
    rebuilt_idx = 0
    for j in range(1, nu + 1):
        for a in range(1, s[j - 1] + 1):
            expect = [[Fraction(0)] * n for _ in range(t.b_dim)]
            expect[a - 1][j - 1] = Fraction(1)
            for h in range(j + 1, n + 1):
                top = s[h - 1] if h <= nu else 0
                for b in range(top + 1, s[j - 1] + 1):
                    expect[b - 1][h - 1] = nf.coeffs.get(
                        (j, a, h, b), Fraction(0)
                    )
            assert new_q[rebuilt_idx] == Matrix(expect, ncols=n)
            rebuilt_idx += 1


def test_cylinder_tail_columns():
    """Columns beyond nu use rows up to s_j, not only up to s_nu."""
    t = cylinder_tableau()
    nf = normal_form(t)
    assert nf.s == (2, 1, 0)
    assert nf.nu == 2
    report = verify_normal_form(t, nf)
    assert report["all_passed"], report
    for (j, a, h, b), val in nf.coeffs.items():
        assert val != 0
        assert h > j
        if h <= nf.nu:
            assert nf.s[h - 1] < b <= nf.s[j - 1]
        else:
            assert b <= nf.s[j - 1]
    # the tail column genuinely needs rows past s_nu = 1 here
    assert report["tail_rows_within_principal_block"] is False
    assert any(h > nf.nu and b > nf.s[nf.nu - 1] for (_, _, h, b) in nf.coeffs)


def test_offdiag_single_block():
    t = offdiag_tableau()
    nf = normal_form(t)
    assert nf.s == (2, 0)
    assert nf.nu == 1
    assert [len(b) for b in nf.blocks] == [2]
    report = verify_normal_form(t, nf)
    assert report["all_passed"], report
    for (j, a, h, b) in nf.coeffs:
        assert j == 1 and h == 2 and b <= 2


def test_prolongation_inherits_normal_form():
    """The first prolongation of an involutive tableau is involutive and
    gets its own verifying normal form with the recursed characters."""
    t = s21_tableau()
    view = t.view_at_level(1)
    res = cartan_test(view)
    assert res["involutive"]
    nf = normal_form(view)
    assert nf.s == (3, 1)
    report = verify_normal_form(view, nf)
    assert report["all_passed"], report


def test_normal_form_at_a_level_matches_the_view():
    # normal_form(t, h=h) runs its Cartan test and flag ranks on t's tower
    # and builds the form on t.view_at_level(h); the view's own normal
    # form, which prolongs the view, is the oracle.
    built = 0
    for make in (s21_tableau, cylinder_tableau, offdiag_tableau, skew_tableau,
                 lambda: full_tableau(2, 2)):
        t = make()
        for h in range(3):
            view = make().view_at_level(h)
            for seed in (0, 7):
                try:
                    expected = normal_form(view, seed=seed)
                except NotInvolutive:
                    with pytest.raises(NotInvolutive):
                        normal_form(t, seed=seed, h=h)
                    continue
                nf = normal_form(t, seed=seed, h=h)
                assert nf.to_json_dict() == expected.to_json_dict(), (make, h)
                report = verify_normal_form(t, nf, seed=seed, h=h)
                assert report["all_passed"], report
                assert report == verify_normal_form(view, nf, seed=seed)
                built += 1
    assert built >= 20


def test_normal_form_at_a_level_needs_only_the_next_level():
    # For n = r = 2 the form of A^(1) needs A^(2) in b (x) S^3 (ambient 8);
    # prolonging the view of A^(1) would need b (x) S^1 (x) S^2 (ambient 12).
    nf = normal_form(s21_tableau(max_dim=8), h=1)
    assert nf.s == (3, 1)
    with pytest.raises(CapExceeded, match="dimension 8 exceeds cap 7"):
        normal_form(s21_tableau(max_dim=7), h=1)
    with pytest.raises(CapExceeded, match="dimension 12 exceeds cap 8"):
        normal_form(s21_tableau(max_dim=8).view_at_level(1))


def test_zero_tableau():
    t = Tableau(2, 3, [])
    nf = normal_form(t)
    assert nf.s == (0, 0)
    assert nf.nu == 0
    assert nf.blocks == ()
    assert nf.coeffs == {}
    report = verify_normal_form(t, nf)
    assert report["all_passed"], report


def test_not_involutive_rejected():
    with pytest.raises(NotInvolutive):
        normal_form(skew_tableau())


def test_verify_pinpoints_bad_basis_b():
    t = s21_tableau()
    nf = normal_form(t)
    swapped = Matrix.from_columns(
        [
            [nf.basis_b.rows[i][1] for i in range(2)],
            [nf.basis_b.rows[i][0] for i in range(2)],
        ],
        nrows=2,
    )
    bad = NormalForm(nf.basis_a, swapped, nf.s, nf.blocks, nf.coeffs)
    report = verify_normal_form(t, bad)
    assert not report["all_passed"]
    assert report["first_failure"]["name"] == "dual_basis_pairing"
    assert report["first_failure"]["detail"]


def test_verify_pinpoints_non_generic_flag():
    t = offdiag_tableau()
    nf = normal_form(t)
    bad = NormalForm(Matrix.identity(2), nf.basis_b, nf.s, nf.blocks, nf.coeffs)
    report = verify_normal_form(t, bad)
    assert not report["all_passed"]
    assert report["first_failure"]["name"] == "flag_generic"


def test_verify_pinpoints_wrong_characters():
    t = s21_tableau()
    nf = normal_form(t)
    bad = NormalForm(nf.basis_a, nf.basis_b, (2, 0), nf.blocks, nf.coeffs)
    report = verify_normal_form(t, bad)
    assert not report["all_passed"]
    assert report["first_failure"]["name"] == "characters_match"


def test_verify_fails_block_sizes_on_a_misshapen_block():
    # a block matrix that is not r x n fails block_sizes, and the check
    # stops there instead of a product raising DimensionMismatch
    t = build_example("wavemap:su2").tableau
    nf = normal_form(t)
    blocks = list(nf.blocks)
    blocks[0] = (Matrix.identity(2),) + tuple(blocks[0][1:])
    bad = NormalForm(nf.basis_a, nf.basis_b, nf.s, blocks, nf.coeffs)
    report = verify_normal_form(t, bad)
    assert not report["all_passed"]
    assert report["first_failure"]["name"] == "block_sizes"
    assert [c["name"] for c in report["checks"]][-1] == "block_sizes"


def test_pairing_alone_guards_the_unit_entry():
    # support_pattern accepts the (a, j) entry of Q_[j],a without looking
    # at its value: dual_basis_pairing has proved it is 1, and a form with
    # that entry changed fails the pairing before the pattern is read
    t = build_example("wavemap:su2").tableau
    nf = normal_form(t)
    assert verify_normal_form(t, nf)["all_passed"]
    basis_b, basis_a = nf.basis_b, nf.basis_a
    # Q = B X A^-1 has B^-1 Q A = X; put 2 where X holds the unit entry
    j, a = 1, 1
    q = nf.blocks[j - 1][a - 1]
    adapted = basis_b.inverse().matmul(q).matmul(basis_a)
    assert adapted.rows[a - 1][j - 1] == 1
    adapted.rows[a - 1][j - 1] = Fraction(2)
    changed = basis_b.matmul(adapted).matmul(basis_a.inverse())
    blocks = [list(block) for block in nf.blocks]
    blocks[j - 1][a - 1] = changed
    report = verify_normal_form(
        t, NormalForm(basis_a, basis_b, nf.s, blocks, nf.coeffs))
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed[0] == "dual_basis_pairing"
    assert report["first_failure"]["detail"].endswith("is 2")


def test_json_round_trip():
    t = cylinder_tableau()
    nf = normal_form(t)
    blob = json.dumps(nf.to_json_dict())
    back = NormalForm.from_json_dict(json.loads(blob))
    assert back.s == nf.s
    assert back.basis_a == nf.basis_a
    assert back.basis_b == nf.basis_b
    assert back.coeffs == nf.coeffs
    assert verify_normal_form(t, back)["all_passed"]


def test_normal_form_is_immutable():
    # what is derived from a normal form (the Cauchy frame) cannot go stale
    nf = normal_form(cylinder_tableau())
    for name in ("basis_a", "basis_b", "s", "nu", "blocks", "coeffs"):
        with pytest.raises(AttributeError, match="cannot be rebound"):
            setattr(nf, name, getattr(nf, name))
    assert isinstance(nf.blocks, tuple) and nf.blocks
    assert all(isinstance(block, tuple) for block in nf.blocks)
    with pytest.raises(TypeError):
        nf.blocks[0] = ()


def test_malformed_json_rejected():
    with pytest.raises(InputError):
        NormalForm.from_json_dict({"basis_a": [["1"]]})
    good = normal_form(cylinder_tableau()).to_json_dict()
    key = next(iter(good["coefficients"]))
    bad_characters = ([1.7, 0, 0], ["1", 0, 0], [True, 0, 0], [-1, 0, 0], 7)
    for chars in bad_characters:
        with pytest.raises(InputError):
            NormalForm.from_json_dict(dict(good, characters=chars))
    for bad_key in ("1,1,2", "1,1,2,2,1", "1,1,x,2", "1,1,2,+2", "1,1,2,1_0", ""):
        coeffs = dict(good["coefficients"])
        coeffs[bad_key] = coeffs.pop(key)
        with pytest.raises(InputError):
            NormalForm.from_json_dict(dict(good, coefficients=coeffs))
    assert NormalForm.from_json_dict(good).to_json_dict() == good


def _reports_agree(got, want):
    """The integer report against the Fraction oracle's: every check the
    oracle has, bit for bit, and the same verdict and first failure."""
    names = [c["name"] for c in want["checks"]]
    assert [c for c in got["checks"] if c["name"] in names] == want["checks"]
    for key in ("all_passed", "tail_rows_within_principal_block", "first_failure"):
        assert got[key] == want[key], key


def _oracle_cases():
    """(tableau JSON, seed, level): 40 random involutive tableaux with
    2 <= n <= 3 and r <= 3, the built-in examples, and level 1 of the
    involutive fixtures."""
    rng = random.Random(2028)
    cases = []
    while len(cases) < 40:
        n, r = rng.randint(2, 3), rng.randint(1, 3)
        raw = [[rng.randint(-3, 3) for _ in range(n * r)]
               for _ in range(rng.randint(1, n * r))]
        if Subspace(n * r, raw).dim != len(raw):
            continue
        t = tableau_from_vectors(n, r, raw)
        seed = rng.randrange(100)
        if cartan_test(t, seed=seed)["involutive"]:
            cases.append((t.to_json_dict(), seed, 0))
    cases += [(build_example(name).tableau.to_json_dict(), 0, 0)
              for name in EXAMPLE_NAMES]
    cases += [(make().to_json_dict(), seed, 1)
              for make in (s21_tableau, cylinder_tableau, offdiag_tableau,
                           lambda: full_tableau(2, 2), lambda: full_tableau(3, 1))
              for seed in (0, 7)]
    return cases


def test_integer_route_matches_the_fraction_oracle():
    # each route on its own copy of the tableau, so neither reads a memo
    # the other filled; the normal forms are equal bit for bit, and each
    # verification, of the true form and of three corruptions, reports the
    # oracle's checks
    shapes = set()
    for blob, seed, h in _oracle_cases():
        t, old = Tableau.from_json_dict(blob), Tableau.from_json_dict(blob)
        nf = normal_form(t, seed=seed, h=h)
        assert nf.to_json_dict() == fraction_normal_form(old, seed, h).to_json_dict()
        shapes.add((t.a_dim, nf.s))
        swapped = Matrix.from_columns(list(reversed(nf.basis_b.transpose().rows)),
                                      nrows=nf.basis_b.nrows)
        wrong_s = (nf.s[0], 0) + nf.s[2:] if len(nf.s) > 1 and nf.s[1] else nf.s
        for form in (
            nf,
            NormalForm(nf.basis_a, swapped, nf.s, nf.blocks, nf.coeffs),
            NormalForm(Matrix.identity(t.a_dim), nf.basis_b, nf.s, nf.blocks, nf.coeffs),
            NormalForm(nf.basis_a, nf.basis_b, wrong_s, nf.blocks, nf.coeffs),
        ):
            got = verify_normal_form(t, form, seed=seed, h=h)
            _reports_agree(got, fraction_verify_normal_form(old, form, seed, h))
        assert verify_normal_form(t, nf, seed=seed, h=h)["all_passed"]
    assert len(shapes) >= 10, shapes


def test_verify_checks_the_coefficients():
    # the stored coefficients must be exactly the nonzero entries of the
    # normal basis in the free ranges: a changed, an extra and a missing
    # one each fail the last check only
    t = build_example("wavemap:su2").tableau
    blob = normal_form(t).to_json_dict()
    assert blob["coefficients"]["1,4,2,4"] == "-7/4"
    changed = dict(blob["coefficients"], **{"1,4,2,4": "5"})
    extra = dict(blob["coefficients"], **{"1,1,2,1": "3"})
    dropped = dict(blob["coefficients"])
    del dropped["1,4,2,4"]
    for coeffs in (changed, extra, dropped):
        nf = NormalForm.from_json_dict(dict(blob, coefficients=coeffs))
        report = verify_normal_form(t, nf)
        assert not report["all_passed"]
        assert report["first_failure"]["name"] == "coefficients_match"
        assert report["first_failure"]["detail"]
        assert [c["name"] for c in report["checks"] if not c["passed"]] == [
            "coefficients_match"
        ]
    assert verify_normal_form(t, NormalForm.from_json_dict(blob))["all_passed"]


def test_deterministic():
    t = s21_tableau()
    a = normal_form(t, seed=3).to_json_dict()
    b = normal_form(t, seed=3).to_json_dict()
    assert a == b


def test_normal_form_starts_from_the_witness_flag(monkeypatch):
    # The first flag of normal_form is the Cartan test's witness flag, so
    # its partial sums are not taken again: only verify_normal_form's
    # flag_generic check evaluates a flag.  characters() without dim
    # A^(h+1) proves these tableaux by the rank bound or the vote, with no
    # flag attached; a tableau whose memo holds them builds the same form.
    # A zero level is proved without a flag and its form evaluates none.
    original = guillemin.character_partial_sums
    evaluated = []

    def counting(tab, flag, h=0):
        evaluated.append(flag)
        return original(tab, flag, h)

    built = 0
    for make in (s21_tableau, cylinder_tableau, offdiag_tableau,
                 lambda: full_tableau(2, 2), lambda: full_tableau(3, 1),
                 skew_tableau):
        for seed in (0, 7):
            for h in range(2):
                flagless = make()
                assert characters(flagless, seed=seed, h=h).flag is None
                try:
                    expected = normal_form(flagless, seed=seed, h=h).to_json_dict()
                except NotInvolutive:
                    continue
                t = make()
                zero = t.dim_at(h) == 0
                flag = cartan_test(t, seed=seed, h=h)["characters"].flag
                assert (flag is None) == zero
                evaluated.clear()
                monkeypatch.setattr(guillemin, "character_partial_sums", counting)
                assert normal_form(t, seed=seed, h=h).to_json_dict() == expected
                monkeypatch.setattr(guillemin, "character_partial_sums", original)
                assert len(evaluated) == (0 if zero else 1), (make, seed, h)
                built += 1
    assert built == 22
