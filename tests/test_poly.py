from __future__ import annotations

import copy
import gc
import math
import pickle
import random
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from dense_oracles import (
    compose_oracle,
    fraction_linear_combination,
    fraction_mul,
    fraction_substitute,
    polymap_linear,
)
from involutive import poly
from involutive.errors import DimensionMismatch, InputError
from involutive.poly import Polynomial, PolyMap, linear_combination


def rand_poly(rng: random.Random, num_vars: int, max_deg: int = 3, terms: int = 4) -> Polynomial:
    d: dict[tuple[int, ...], Fraction] = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, max_deg) for _ in range(num_vars))
        d[e] = Fraction(rng.randint(-5, 5))
    return Polynomial(num_vars, d)


def test_partial_of_x2y():
    p = Polynomial(2, {(2, 1): 1})
    assert p.partial(0) == Polynomial(2, {(1, 1): 2})
    assert p.partial(1) == Polynomial(2, {(2, 0): 1})


def test_eval_x2y():
    p = Polynomial(2, {(2, 1): 1})
    assert p.eval([2, 3]) == Fraction(12)


def test_compose_linear():
    # x + y with x -> t^2, y -> t
    p = Polynomial(2, {(1, 0): 1, (0, 1): 1})
    q = p.compose([Polynomial(1, {(2,): 1}), Polynomial(1, {(1,): 1})])
    assert q == Polynomial(1, {(2,): 1, (1,): 1})


def test_eval_commutes_with_compose():
    rng = random.Random(2)
    for _ in range(20):
        p = rand_poly(rng, 2)
        subs = [rand_poly(rng, 2, max_deg=2, terms=3) for _ in range(2)]
        point = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        composed = p.compose(subs)
        assert composed.eval(point) == p.eval([s.eval(point) for s in subs])


def test_zero_handling():
    p = Polynomial(2, {(1, 0): 1})
    z = p.sub(p)
    assert z.is_zero() and z.terms == {} and z.total_degree() == -1
    assert Polynomial.constant(3, 0).is_zero()


def test_partial_of_constant():
    c = Polynomial.constant(2, 7)
    assert c.partial(0).is_zero()


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def poly_strategy(num_vars: int):
    exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(num_vars)))
    return st.dictionaries(exps, small_fracs, max_size=4).map(lambda d: Polynomial(num_vars, d))


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2), poly_strategy(2), poly_strategy(2))
def test_ring_axioms(f, g, h):
    assert f.mul(g) == g.mul(f)
    assert f.mul(g.add(h)) == f.mul(g).add(f.mul(h))
    assert f.add(g).sub(g) == f


@settings(max_examples=60, deadline=None)
@given(poly_strategy(2), poly_strategy(2))
def test_leibniz_rule(f, g):
    for var in range(2):
        lhs = f.mul(g).partial(var)
        rhs = f.partial(var).mul(g).add(f.mul(g.partial(var)))
        assert lhs == rhs


def test_arity_mismatch():
    p = Polynomial(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatch):
        p.add(Polynomial(3))
    with pytest.raises(DimensionMismatch):
        p.eval([1])
    with pytest.raises(DimensionMismatch):
        p.compose([Polynomial(1, {(1,): 1})])


def affine(rng: random.Random, num_vars: int) -> Polynomial:
    """A constant plus a linear form, as a shift to a base point gives."""
    terms = {(0,) * num_vars: Fraction(rng.randint(-3, 3), rng.randint(1, 2))}
    for i in range(num_vars):
        terms[tuple(int(k == i) for k in range(num_vars))] = Fraction(rng.randint(-2, 2))
    return Polynomial(num_vars, terms)


def test_compose_matches_oracle():
    rng = random.Random(8)
    cases = []
    for n in range(4):
        for m in range(1, 4):
            for kind in ("random", "affine", "zero"):
                for _ in range(3):
                    polys = [rand_poly(rng, n, terms=rng.randint(1, 5)) for _ in range(3)]
                    polys.append(Polynomial.zero(n))
                    if kind == "random":
                        subs = [rand_poly(rng, m, max_deg=2, terms=rng.randint(0, 3))
                                for _ in range(n)]
                    elif kind == "affine":
                        subs = [affine(rng, m) for _ in range(n)]
                    else:
                        subs = [Polynomial.zero(m) for _ in range(n)]
                    cases.append((n, polys, subs))
    assert any(n == 0 for n, _, _ in cases)  # empty subs: 0 variables
    for n, polys, subs in cases:
        m = subs[0].num_vars if subs else 0
        full = [compose_oracle(p, subs) for p in polys]
        for cap in (None, 0, 1, 3, 6):
            want = full if cap is None else [q.truncate(cap) for q in full]
            assert [p.compose(subs, cap) for p in polys] == want
            assert PolyMap(n, polys).compose(subs, cap) == PolyMap(m, want)
    for _ in range(40):
        n = rng.randint(0, 3)
        p, q = (rand_poly(rng, n, terms=rng.randint(0, 5)) for _ in range(2))
        for cap in (None, 0, 1, 3, 6):
            want = p.mul(q) if cap is None else p.mul(q).truncate(cap)
            assert p.mul(q, cap) == want
    x = Polynomial(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatch):
        x.compose([Polynomial(1, {(1,): 1}), Polynomial(2, {(0, 1): 1})])
    with pytest.raises(DimensionMismatch):
        PolyMap(2, [x]).compose([Polynomial(1, {(1,): 1})], 3)


def test_linear_combination_matches_add_scale_chain():
    rng = random.Random(41)
    for trial in range(60):
        nv = rng.randint(0, 3)
        count = rng.randint(0, 6)
        polys = [rand_poly(rng, nv, terms=rng.randint(0, 5)) for _ in range(count)]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(count)]
        if count and trial % 5 == 0:
            # terms that cancel: p and -p with the same coefficient
            polys.append(polys[0].neg())
            coeffs.append(coeffs[0])
        chain = Polynomial.zero(nv)
        for c, p in zip(coeffs, polys):
            chain = chain.add(p.scale(c))
        got = linear_combination(coeffs, polys, nv)
        assert got == chain
        assert all(c != 0 for c in got.terms.values())
    assert linear_combination([1], [Polynomial.variable(2, 0)], 2) == Polynomial.variable(2, 0)
    for c in (0, 1):
        with pytest.raises(DimensionMismatch):
            linear_combination([c], [Polynomial.variable(2, 0)], 3)


def test_table_round_trip():
    rng = random.Random(9)
    for _ in range(10):
        p = rand_poly(rng, 3)
        assert Polynomial.from_table(3, p.to_table()) == p


def test_truncate_and_lowest_degree():
    p = Polynomial(1, {(0,): 1, (3,): 2, (5,): 1})
    assert p.truncate(3) == Polynomial(1, {(0,): 1, (3,): 2})
    assert p.lowest_degree() == 0
    assert p.sub(Polynomial(1, {(0,): 1})).lowest_degree() == 3


def test_polymap_linear_and_compose():
    pm = polymap_linear([[1, 2], [0, 1]], 2)
    assert pm.eval([3, 4]) == [Fraction(11), Fraction(4)]
    # composing the linear map with substitutions is evaluation of the rows
    subs = [Polynomial(1, {(1,): 1}), Polynomial(1, {(0,): 2})]
    pm2 = pm.compose(subs)
    assert pm2.eval([5]) == [Fraction(9), Fraction(2)]


def test_polymap_partial_and_coefficients():
    pm = PolyMap(2, [Polynomial(2, {(1, 1): 3}), Polynomial(2, {(0, 2): 1})])
    dp = pm.partial(1)
    assert dp.components[0] == Polynomial(2, {(1, 0): 3})
    assert dp.components[1] == Polynomial(2, {(0, 1): 2})
    assert [p.coefficient((1, 1)) for p in pm.components] == [Fraction(3), Fraction(0)]


def test_terms_from_any_mapping_or_pairs():
    terms = {(1, 0): 2, (0, 1): Fraction(1, 3)}
    p = Polynomial(2, terms)
    assert Polynomial(2, MappingProxyType(terms)) == p
    assert Polynomial(2, list(terms.items())) == p
    assert all(type(c) is Fraction for c in p.terms.values())


KINDS = ("int", "small", "large", "zero")


def kernel_coeff(rng: random.Random, kind: str):
    """A coefficient of the given kind: int, small or large Fraction,
    or zero."""
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "small":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if kind == "large":
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**24))
    return 0


def kernel_poly(rng: random.Random, num_vars: int, max_deg: int = 3,
                terms: int = 4) -> Polynomial:
    return Polynomial(num_vars, [
        (tuple(rng.randint(0, max_deg) for _ in range(num_vars)),
         kernel_coeff(rng, rng.choice(KINDS)))
        for _ in range(rng.randint(0, terms))
    ])


def same_terms(got: Polynomial, want: Polynomial) -> bool:
    """Equal terms in the same order, every coefficient a nonzero,
    normalised Fraction."""
    return (
        got.num_vars == want.num_vars
        and list(got.terms.items()) == list(want.terms.items())
        and all(
            type(c) is Fraction and c != 0 and c.denominator > 0
            and math.gcd(c.numerator, c.denominator) == 1
            for c in got.terms.values()
        )
    )


CAPS = (None, -1, 0, 1, 3, 6)


def test_integer_kernels_match_fraction_references():
    rng = random.Random(15)
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    half = Fraction(1, 2)
    # sums that cancel: (x + y/2)(x - y/2), and x - y at x = y = t/2 + 1
    mul_cases = [(x.add(y.scale(half)), x.sub(y.scale(half)))]
    sub_cases = [([x.sub(y), x.scale(3).sub(y.scale(3))],
                  [Polynomial(1, {(1,): half, (0,): 1})] * 2)]
    for _ in range(120):
        n, m = rng.randint(0, 3), rng.randint(0, 3)
        p, q = kernel_poly(rng, n), kernel_poly(rng, n)
        mul_cases.append((p, q))
        subs = [kernel_poly(rng, m, max_deg=2, terms=3) for _ in range(n)]
        sub_cases.append(([p, q, Polynomial.zero(n), p.neg()], subs))
    assert not mul_cases[0][0].mul(mul_cases[0][1]).terms.get((1, 1))
    assert sub_cases[0][0][0].compose(sub_cases[0][1]).is_zero()
    for p, q in mul_cases:
        for cap in CAPS:
            assert same_terms(p.mul(q, cap), fraction_mul(p, q, cap))
    for polys, subs in sub_cases:
        n = polys[0].num_vars
        for cap in CAPS:
            want = fraction_substitute(polys, n, subs, cap)
            got = PolyMap(n, polys).compose(subs, cap).components
            assert all(same_terms(g, w) for g, w in zip(got, want))
            assert same_terms(polys[0].compose(subs, cap), want[0])
    for trial in range(120):
        n = rng.randint(0, 3)
        polys = [kernel_poly(rng, n) for _ in range(rng.randint(0, 5))]
        coeffs = [kernel_coeff(rng, rng.choice(KINDS)) for _ in polys]
        if polys and trial % 3 == 0:
            # c * p + (-c) * p cancels p's share term by term
            polys.append(polys[0])
            coeffs.append(-Fraction(coeffs[0]))
        want = fraction_linear_combination(coeffs, polys, n)
        assert same_terms(linear_combination(coeffs, polys, n), want)
    assert linear_combination([3, Fraction(-3)], [x, x], 2).is_zero()


def test_compose_leaves_no_reference_cycle():
    # the monomial table is freed by reference counting alone, also with
    # a negative cap, where even the value of the constant monomial is 0
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = Polynomial(2, {(3, 1): 2, (1, 2): Fraction(1, 3), (0, 0): 1})
    subs = [x.add(y).add(Polynomial.constant(2, Fraction(1, 2))), x.mul(y)]
    for cap in CAPS:
        gc.collect()
        gc.disable()
        try:
            got = PolyMap(2, [p, p.partial(0)]).compose(subs, cap)
            got_p = p.compose(subs, cap)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0
        assert got == PolyMap(2, fraction_substitute([p, p.partial(0)], 2, subs, cap))
        assert got_p == got.components[0]
        assert got.is_zero() == (cap == -1)


def test_pickle_and_deepcopy_round_trip():
    p = Polynomial(2, {(2, 1): Fraction(3, 4), (0, 0): Fraction(-5)})
    pm = PolyMap(2, [p, Polynomial.zero(2), p.partial(0)])
    for copy_of in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        q, qm = copy_of(p), copy_of(pm)
        assert q == p and q is not p and qm == pm
        assert type(q.terms) is MappingProxyType
        with pytest.raises(TypeError):
            q.terms[(0, 0)] = Fraction(1)


def test_exponents_must_be_ints():
    # a float or bool exponent is not read as an int, in a mapping or in
    # pairs, as from_table already refused them
    for bad in ((1.5,), (True,), ("1",), (1.0,)):
        for terms in ({bad: 1}, [(bad, 1)]):
            with pytest.raises(InputError, match="exponents must be integers"):
                Polynomial(1, terms)
        with pytest.raises(InputError, match="exponents must be integers"):
            Polynomial.from_table(1, [["1", list(bad)]])
    assert Polynomial(2, {(2, 0): 1}) == Polynomial.variable(2, 0).mul(Polynomial.variable(2, 0))


def lowest_terms(p: Polynomial) -> bool:
    """The numerators of p are nonzero ints over a positive denominator
    that shares no factor with all of them."""
    nums = list(p.numerators.values())
    return (
        type(p.den) is int and p.den > 0 and all(type(v) is int and v for v in nums)
        and math.gcd(p.den, *nums) == 1
    )


def test_numerators_are_in_lowest_terms():
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    half = Fraction(1, 2)
    cases = [
        x.scale(half).scale(2),
        x.scale(half).add(x.scale(half)),
        Polynomial(2, {(2, 0): half}).partial(0),
        x.scale(half).add(y.scale(Fraction(1, 3))).truncate(0),
        x.add(y.scale(Fraction(1, 6))).sub(y.scale(Fraction(1, 6))),
        linear_combination([half, Fraction(3, 2)], [x, x], 2),
        x.scale(half).mul(Polynomial.constant(2, 2)),
    ]
    assert cases[:3] + cases[4:] == [x, x, x, x, x.scale(2), x]
    assert cases[3].is_zero() and cases[3].den == 1
    assert all(lowest_terms(p) and p.den == 1 for p in cases)
    p = Polynomial(2, {(1, 0): Fraction(2, 4), (0, 1): Fraction(1, 3)})
    assert (p.den, dict(p.numerators)) == (6, {(1, 0): 3, (0, 1): 2})
    assert p == Polynomial(2, {(0, 1): Fraction(2, 6), (1, 0): half})
    with pytest.raises(AttributeError, match="cannot be rebound"):
        p.den = 1
    with pytest.raises(TypeError):
        p.numerators[(1, 0)] = 1


# coefficients over denominators 1, 2, 3, 4 and 6, so sums and products
# cancel factors of the common denominator
cancelling = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 6)))


def cancelling_poly(num_vars: int):
    exps = st.tuples(*(st.integers(min_value=0, max_value=2) for _ in range(num_vars)))
    return st.dictionaries(exps, cancelling, max_size=5).map(lambda d: Polynomial(num_vars, d))


def fraction_partial(p: Polynomial, var: int) -> Polynomial:
    out = {}
    for e, c in p.terms.items():
        if e[var]:
            out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c * e[var]
    return Polynomial(p.num_vars, out)


@settings(max_examples=80, deadline=None)
@given(cancelling_poly(2), cancelling_poly(2), st.sampled_from((None, -1, 0, 1, 2, 3)))
def test_integer_operations_match_the_fraction_oracles(p, q, cap):
    # p - p share terms with p, so every sum below has terms that cancel
    # outright next to ones whose denominators cancel
    r = p.add(q.neg())
    assert same_terms(p.add(q), fraction_linear_combination([1, 1], [p, q], 2))
    assert same_terms(r.add(p), fraction_linear_combination([1, 1], [r, p], 2))
    assert same_terms(p.mul(q, cap), fraction_mul(p, q, cap))
    assert same_terms(r.mul(r, cap), fraction_mul(r, r, cap))
    for var in range(2):
        assert same_terms(r.partial(var), fraction_partial(r, var))
    coeffs = [Fraction(1, 2), -2, Fraction(-1, 2), Fraction(2, 3)]
    polys = [p, q, p, r]
    assert same_terms(linear_combination(coeffs, polys, 2),
                      fraction_linear_combination(coeffs, polys, 2))
    subs = [r, q.scale(Fraction(3, 2))]
    want = fraction_substitute([p, r, q], 2, subs, cap)
    got = PolyMap(2, [p, r, q]).compose(subs, cap).components
    assert all(same_terms(g, w) for g, w in zip(got, want))
    assert same_terms(p.compose(subs, cap), want[0])
    assert all(lowest_terms(x) for x in [p.add(q), r, p.mul(q, cap), *got])
    # to_table writes each coefficient as its Fraction prints
    for x in [r, p.mul(q, cap), *got]:
        assert x.to_table() == [[str(c), list(e)] for e, c in
                                sorted(x.terms.items(), key=lambda t: (sum(t[0]), t[0]))]


def test_compose_and_linear_combination_build_no_fraction(monkeypatch):
    # the integer kernels build no Fraction; terms builds one per term on
    # its first read and keeps them
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    p = Polynomial(2, {(2, 1): Fraction(3, 4), (0, 1): Fraction(-1, 6), (0, 0): 2})
    subs = [x.add(Polynomial.constant(2, Fraction(1, 2))), x.mul(y).scale(Fraction(2, 3))]
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(poly, "Fraction", counting)
    composed = PolyMap(2, [p, p.partial(0), x]).compose(subs, 4)
    total = linear_combination([Fraction(1, 3), 2, -1], list(composed.components) + [p], 2)
    assert built == []
    terms = total.terms
    assert len(built) == len(terms) > 0
    assert total.terms is terms and len(built) == len(terms)
