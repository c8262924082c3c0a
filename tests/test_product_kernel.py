"""The kernel against plain reference loops: the packed product loop (`*` and
`dot`) against the tuple/Fraction double loop, and `+`, `-` and `partial`
against dict merges; and the stored form of every result against its
canonical-form invariants."""

import functools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottr.algebra import (
    ONE,
    JetOverflowError,
    JetPoly,
    JetTruncation,
    TruncationMismatchError,
    dot,
    dx,
    fvar,
    mono_from_factors,
    partial,
    phivar,
    poly_eq,
    power,
    vvar,
)
from ottr.bigphase import BigSeries, LevelOverflowError, TheoryData, Truncation, s_var, t_var
from ottr.serialize import emit, parse

from monomials import mono_div_var, mono_mul

TR = Truncation.of(5, 2, eps_max=2)
JT = JetTruncation(3, 3, 2)
JET_TOP = 7  # the exponent bound of JT: 2^bitlen(Dv + J) - 1 at Dv + J = 6


def _valuation(p):
    """The least stored degree, or rel + 1 if lower: past it p may be nonzero."""
    lows = [d for d, row in enumerate(p.rows) if row][:1]
    if p.rel is not None:
        lows.append(p.rel + 1)
    return min(lows, default=None)


def _reference_product(p, q):
    """The terms and rel of the product, by a double loop over degree-sorted
    (degree, eps, monomial, Fraction) rows, keyed by (eps, monomial tuple)."""
    cls, tr = type(p), p.trunc
    deg_max = cls.bounds(tr)[0]
    bounds = [r + v for r, v in ((p.rel, _valuation(q)), (q.rel, _valuation(p)))
              if r is not None and v is not None]
    rel = min(bounds + [deg_max]) if bounds else None
    cap = deg_max if rel is None else rel
    deg = cls.mono_degree
    a = sorted((deg(m), e, m, c) for (e, m), c in p.terms.items())
    b = sorted((deg(m), e, m, c) for (e, m), c in q.terms.items())
    acc = {}
    for d1, e1, m1, c1 in a:
        if b and d1 + b[0][0] > cap:
            break
        for d2, e2, m2, c2 in b:
            if d1 + d2 > cap:
                break
            eps = e1 + e2
            if eps > tr.eps_max:
                continue
            key = (eps, mono_mul(m1, m2))
            s = acc.get(key, Fraction(0)) + c1 * c2
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc, rel


def _reference_mul(p, q):
    terms, rel = _reference_product(p, q)
    return type(p)(terms, p.trunc, rel)


def _rel_min(*rels):
    finite = [r for r in rels if r is not None]
    return min(finite) if finite else None


def _reference_sum(cls, tr, rel, signed_terms):
    """Sum of (sign, terms) by a dict merge, every term cut at rel."""
    acc = {}
    for sign, terms in signed_terms:
        for key, coef in terms.items():
            acc[key] = acc.get(key, Fraction(0)) + sign * coef
    deg = cls.mono_degree
    return cls({k: c for k, c in acc.items() if c and (rel is None or deg(k[1]) <= rel)},
               tr, rel)


def _reference_dot(start, products):
    """The sum of start and the products' terms, built as one value: a term
    past the exponent bound raises only if the sum keeps it."""
    muls = [(_reference_product(a, b), frac_c) for a, b, frac_c in products]
    rel = _rel_min(start.rel, *(r for (_t, r), _c in muls))
    return _reference_sum(type(start), start.trunc, rel,
                          [(1, start.terms)] + [(c, t) for (t, _r), c in muls])


def _same(x, y):
    """Equal values with equal stored forms: denominator, rows and layout."""
    return (x.terms == y.terms and x.rel == y.rel and x.trunc == y.trunc
            and x.den == y.den and x.rows == y.rows and x.layout is y.layout)


def _checked(make, reference):
    """make(), with the stored form of reference(); None where both raise
    `JetOverflowError`, the reference result holding an exponent past the
    bound."""
    try:
        want = reference()
    except JetOverflowError:
        with pytest.raises(JetOverflowError, match=f"exceeds bound {JET_TOP}$"):
            make()
        return None
    got = make()
    assert _same(got, want)
    return got


coefs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
rels = st.one_of(st.none(), st.just(-1), st.integers(0, 5))


@st.composite
def big_series(draw, rank):
    variables = ([t_var(alpha, a) for alpha in range(1, rank + 1) for a in range(3)]
                 + [s_var(a) for a in range(3)])
    factors = st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 3)), max_size=3)
    keys = st.tuples(st.integers(0, TR.eps_max), factors.map(mono_from_factors))
    terms = draw(st.dictionaries(keys, coefs, max_size=7))
    return BigSeries(terms, TR, draw(rels))


@st.composite
def dot_cases(draw, series):
    pool = draw(st.lists(series, min_size=1, max_size=4))
    pick = st.sampled_from(pool)
    scalars = st.one_of(st.sampled_from([1, -1, 0, 2]), coefs)
    products = draw(st.lists(st.tuples(pick, pick, scalars), max_size=4))
    if products and draw(st.booleans()):  # a product and its negative cancel
        a, b, c = products[0]
        products.append((b, a, -c))
    return draw(pick), products


ranks = st.integers(1, 3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ranks.flatmap(lambda n: st.tuples(big_series(n), big_series(n))))
def test_mul_matches_the_reference_loop(pair):
    p, q = pair
    assert _same(p * q, _reference_mul(p, q))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ranks.flatmap(lambda n: dot_cases(big_series(n))))
def test_dot_matches_the_chained_reference_products(case):
    start, products = case
    assert _same(dot(start, products), _reference_dot(start, products))


def test_empty_operands():
    zero = BigSeries.zero(TR)
    one = BigSeries.const(1, TR, rel=2)
    assert _same(zero * one, _reference_mul(zero, one))
    assert _same(dot(one, []), one)
    assert _same(dot(zero, [(one, zero, 1)]), _reference_mul(one, zero))


jet_variables = [vvar(1, j) for j in range(4)] + [phivar(j) for j in range(2)] + [fvar(1), fvar(3)]


@st.composite
def jet_polys(draw):
    factors = st.lists(st.tuples(st.sampled_from(jet_variables), st.integers(1, JET_TOP)),
                       max_size=3, unique_by=lambda factor: factor[0])
    keys = st.tuples(st.integers(0, JT.eps_max), factors.map(mono_from_factors))
    terms = draw(st.dictionaries(keys, coefs, max_size=6))
    return JetPoly(terms, JT, draw(st.one_of(st.none(), st.integers(-1, 3))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dot_cases(jet_polys()))
def test_jet_products_with_high_jet_exponents(case):
    """Factors with exponents up to the bound: a product or a dot whose
    reference result holds an exponent past it raises."""
    start, products = case
    for a, b, _c in products:
        _checked(lambda: a * b, lambda: _reference_mul(a, b))
    _checked(lambda: dot(start, products), lambda: _reference_dot(start, products))


def _reference_poly_eq(p, q, up_to=None):
    """`poly_eq` as a row loop: the stored rows of both values, in their one
    layout, are compared degree by degree up to the least of both rels and
    up_to."""
    if p.trunc != q.trunc:
        raise TruncationMismatchError("cannot compare across truncations")
    window = _rel_min(p.rel, q.rel, up_to)
    rp, rq = p.rows, q.rows
    size = max(len(rp), len(rq))
    if window is not None:
        size = min(size, max(window + 1, 0))
    for d in range(size):
        x = rp[d] if d < len(rp) else {}
        y = rq[d] if d < len(rq) else {}
        if x.keys() != y.keys() or any(n * q.den != y[k] * p.den for k, n in x.items()):
            return False
    return True


@st.composite
def near_pairs(draw, values):
    """(p, q, up_to): q is p, p plus another value, or that other value, each
    perhaps cut lower, so equal stored terms over part of a window are common."""
    p, other = draw(values), draw(values)
    q = draw(st.sampled_from([p, p + other, other]))
    p, q = (x.cut(draw(st.one_of(st.none(), st.integers(-2, 5)))) for x in (p, q))
    return p, q, draw(st.one_of(st.none(), st.integers(-2, 6)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(ranks.flatmap(lambda n: near_pairs(big_series(n))), near_pairs(jet_polys())))
def test_poly_eq_matches_the_reference_row_loop(case):
    """Over both classes, jet exponents up to the bound and negative
    windows."""
    p, q, up_to = case
    assert poly_eq(p, q, up_to=up_to) == _reference_poly_eq(p, q, up_to)
    assert poly_eq(q, p, up_to=up_to) == _reference_poly_eq(q, p, up_to)


def test_poly_eq_across_truncations_raises():
    with pytest.raises(TruncationMismatchError, match="cannot compare across truncations"):
        poly_eq(BigSeries.zero(TR), BigSeries.zero(Truncation.of(4, 2)))


def test_cut_never_raises_rel():
    """A cut above a value's own rel keeps that rel; below it, it lowers it."""
    x = BigSeries.var(t_var(1, 0), TR) + BigSeries.var(t_var(1, 1), TR) * BigSeries.var(s_var(0), TR)
    assert x.cut(3).cut(5).rel == 3
    assert x.cut(3).cut(None).rel == 3
    assert x.cut(None).rel is None and x.cut(None) == x
    low = x.cut(1)
    assert low.rel == 1 and low.cut(4) == low and low.terms == {(0, ((t_var(1, 0), 1),)): 1}
    assert x.cut(-2).rel == -2 and x.cut(-2).is_zero()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(ranks.flatmap(big_series), jet_polys()))
def test_powers_match_the_reference_chain(p):
    """power(p, 1) is p itself, with the stored form of 1 * p; each higher
    power is the reference product of the one below with p, or raises where
    that product passes the exponent bound, and so do the powers above."""
    assert power(p, 1) is p
    assert _same(p, _reference_mul(type(p).const(1, p.trunc), p))
    for k in range(2, 5):
        if _checked(lambda: power(p, k), lambda: _reference_mul(power(p, k - 1), p)) is None:
            with pytest.raises(JetOverflowError):
                power(p, k + 1)
            break


def test_an_exponent_at_the_bound_is_kept_and_one_past_it_raises():
    """The field width follows the degree and jet bounds, not the exponents:
    at Dv + J = 6 every value has 4-bit fields and exponents up to 7.  An
    exponent of 8 raises `JetOverflowError`, naming the variable and the
    bound, in the constructor, in a product, in a dot and in `dx`."""
    v10, v11 = JetPoly.var(vvar(1, 0), JT), JetPoly.var(vvar(1, 1), JT)
    p4 = JetPoly({(0, ((vvar(1, 1), 4),)): Fraction(1)}, JT)
    p7 = p4 * v11 * v11 * v11
    assert p7.terms == {(0, ((vvar(1, 1), JET_TOP),)): Fraction(1)}
    assert (p7.layout.width, p7.layout.max_exponent) == (4, JET_TOP)
    assert p7.layout is v11.layout is JetPoly.zero(JT).layout
    assert dx(v10 * p4 * v11 * v11).terms == {  # v1_0 v1_1^6 -> v1_1^7 + 6 v1_0 v1_1^5 v1_2
        (0, ((vvar(1, 1), 7),)): 1, (0, ((vvar(1, 0), 1), (vvar(1, 1), 5), (vvar(1, 2), 1))): 6}
    past = "exponent 8 of v1_1 exceeds bound 7"
    for make in (lambda: JetPoly({(0, ((vvar(1, 1), 8),)): Fraction(1)}, JT),
                 lambda: p7 * v11, lambda: dot(v10, [(p4, p4, 1)]), lambda: dx(v10 * p7)):
        with pytest.raises(JetOverflowError, match=f"^{past}$"):
            make()


def test_rank3_variables_at_the_top_level():
    """Kind 0 takes one field per (alpha, level) on top of the s fields."""
    top = [BigSeries.var(v, TR) for v in (t_var(3, 2), t_var(1, 2), s_var(2), t_var(2, 0))]
    p = top[0] * top[0] + top[1] * top[2] + top[3] + BigSeries.const(Fraction(1, 3), TR)
    q = top[2] * top[2] * Fraction(-2, 5) + top[0] * top[3] + top[1]
    assert _same(p * q, _reference_mul(p, q))
    assert _same(dot(q, [(p, q, 2), (q, q, Fraction(1, 7))]),
                 _reference_dot(q, [(p, q, 2), (q, q, Fraction(1, 7))]))


def test_high_jet_exponent_products_raise_past_the_bound():
    """Products whose exponents reach the bound match the reference loop;
    p * p, with v1_1^8, raises as its reference result does."""
    p = (JetPoly({(0, ((vvar(1, 1), 4),)): Fraction(1, 2)}, JT)
         + JetPoly.var(vvar(1, 0), JT) * JetPoly.var(phivar(2), JT))
    q = JetPoly({(1, ((vvar(1, 1), 3), (fvar(3), 2))): Fraction(3)}, JT) + JetPoly.var(vvar(2, 3), JT)
    assert (p * q).coefficient(((vvar(1, 1), JET_TOP), (fvar(3), 2))) == 0  # at eps^1
    assert (p * q).eps_slice(1).coefficient(((vvar(1, 1), JET_TOP), (fvar(3), 2))) == Fraction(3, 2)
    assert _checked(lambda: p * p, lambda: _reference_mul(p, p)) is None
    for a, b in ((p, q), (q, p), (q, q)):
        assert _checked(lambda: a * b, lambda: _reference_mul(a, b)) is not None
    assert _same(dot(q, [(p, q, -1), (q, p, 1)]), _reference_dot(q, [(p, q, -1), (q, p, 1)]))


def test_eps_sums_past_the_bound_are_dropped():
    """eps takes the lowest field, wide enough for the sum 2 * eps_max."""
    a = BigSeries({(2, ((t_var(1, 0), 1),)): Fraction(1), (1, ((s_var(0), 1),)): Fraction(2),
                   (1, ONE): Fraction(1, 2), (0, ((t_var(1, 1), 1),)): Fraction(1, 2),
                   (2, ONE): Fraction(1)}, TR)
    b = BigSeries({(2, ONE): Fraction(1), (1, ((t_var(1, 1), 1),)): Fraction(-1)}, TR)
    product = a * b
    assert _same(product, _reference_mul(a, b))
    assert {e for e, _m in product.terms} == {1, 2}
    assert _same(dot(a, [(a, b, 3), (b, b, 1)]), _reference_dot(a, [(a, b, 3), (b, b, 1)]))


def test_one_factor_beside_small_and_large_exponents():
    """Small and large exponents in one call, in either order, all in the
    one layout of their class and truncation: a `BigSeries`, and a `JetPoly`
    factor whose partners hold exponents of 1 and 6, whose products reach
    the bound, or pass it and raise."""
    p = BigSeries.var(t_var(1, 0), TR) + BigSeries.var(s_var(1), TR)
    q = BigSeries({(0, ((t_var(1, 1), 4),)): Fraction(1, 3)}, TR)
    zero = BigSeries.zero(TR)
    for a, b in ((p, p), (p, q), (q, p), (p, p)):
        assert _same(dot(zero, [(a, b, 1)]), _reference_mul(a, b))
    assert _same(dot(p, [(p, q, 2), (q, q, -1), (p, p, 1)]),
                 _reference_dot(p, [(p, q, 2), (q, q, -1), (p, p, 1)]))
    small = JetPoly.var(vvar(1, 1), JT) + JetPoly.var(phivar(0), JT)
    big = JetPoly({(0, ((vvar(1, 1), 6),)): Fraction(2, 3)}, JT)
    assert big.layout is small.layout
    for a, b in ((small, small), (small, big), (big, big), (big, small), (small, small)):
        _checked(lambda: a * b, lambda: _reference_mul(a, b))
    assert (big * small).coefficient(((vvar(1, 1), JET_TOP),)) == Fraction(2, 3)
    with pytest.raises(JetOverflowError, match="^exponent 12 of v1_1 exceeds bound 7$"):
        big * big
    assert big * small - small * big == JetPoly.zero(JT)
    assert _same(dot(small, [(big, small, 1), (small, big, -1), (small, small, 3)]),
                 _reference_dot(small, [(big, small, 1), (small, big, -1), (small, small, 3)]))


def test_dot_with_nothing_to_add_returns_start_unpacked():
    start = BigSeries.var(t_var(1, 0), TR) + BigSeries.var(s_var(2), TR)
    assert dot(start, [(start, BigSeries.zero(TR), 1), (start, start, 0)]) is start
    assert dot(start, []) is start
    # a product wholly past the cap that lowers no rel adds nothing either
    cut = BigSeries.var(t_var(1, 0), TR) * BigSeries.const(1, TR, rel=1)
    high = BigSeries({(0, ((t_var(1, 0), 3),)): Fraction(1)}, TR)
    assert dot(cut, [(high, high, 5)]) is cut
    assert dot(cut, [(BigSeries.zero(TR, rel=4), high, 1)]) is cut


def _high_valuation_factors():
    """partials of series of valuation 3 and 4: their leading rows are empty."""
    t0, t1, s0 = (BigSeries.var(v, TR) for v in (t_var(1, 0), t_var(1, 1), s_var(0)))
    p = t0 * t0 * t0 * t1 * Fraction(1, 2) + s0 * s0 * s0 * t0 * 3
    q = t1 * t1 * t0 * t0 * Fraction(-2, 3) + s0 * t0 * t0 * t0 * t0
    dp, dq = partial(p, t_var(1, 1)), partial(q, s_var(0))
    assert [bool(row) for row in dp.rows] == [False, False, False, True]
    assert [bool(row) for row in dq.rows] == [False, False, False, False, True]
    return dp, dq


def test_dot_on_factors_with_leading_empty_rows():
    dp, dq = _high_valuation_factors()
    t1 = BigSeries.var(t_var(1, 1), TR)
    for a, b in ((dp, t1), (t1, dp), (dp, dp), (dq, t1), (t1 * dp, t1)):
        assert _same(a * b, _reference_mul(a, b))
    start = BigSeries.const(Fraction(1, 5), TR, rel=5)
    assert _same(dot(start, [(dp, t1, 2), (t1, dq, -1), (dp, dp, 1)]),
                 _reference_dot(start, [(dp, t1, 2), (t1, dq, -1), (dp, dp, 1)]))


def test_dot_start_longer_than_every_product():
    t0, t1 = BigSeries.var(t_var(1, 0), TR), BigSeries.var(t_var(1, 1), TR)
    start = t0 * t0 * t0 * t0 * t1 * Fraction(1, 3) + t1 * 2  # degree 5
    products = [(t0, t1, Fraction(1, 2)), (t1, BigSeries.const(7, TR), 1)]
    result = dot(start, products)
    assert len(result.rows) == len(start.rows)
    assert _same(result, _reference_dot(start, products))
    cut = [(t0, BigSeries.const(1, TR, rel=3), 1)]  # cuts start at degree 3
    assert _same(dot(start, cut), _reference_dot(start, cut))


def test_dot_products_past_the_cap_and_all_zero_products():
    t0, s1 = BigSeries.var(t_var(1, 0), TR), BigSeries.var(s_var(1), TR)
    high = t0 * t0 * t0
    start = s1 * Fraction(2, 3) + BigSeries.const(1, TR, rel=4)
    zero = BigSeries.zero(TR)
    cases = [
        [(high, high, 1)],  # degree 6 past the cap 4
        [(high, high, 1), (s1, t0, 3)],  # one past, one live
        [(zero, high, 1), (high, BigSeries.zero(TR, rel=2), 1), (s1, t0, 0)],
        [(s1, t0, 1), (t0, s1, -1)],  # live products that cancel
    ]
    for products in cases:
        assert _same(dot(start, products), _reference_dot(start, products))
    assert _same(dot(zero, [(high, high, 1), (zero, zero, 2)]),
                 _reference_dot(zero, [(high, high, 1), (zero, zero, 2)]))


@pytest.mark.parametrize("scale", [1, -1, 3, 0])
def test_int_and_fraction_scales_give_one_result(scale):
    t0, s0 = BigSeries.var(t_var(1, 0), TR), BigSeries.var(s_var(0), TR)
    a = t0 * Fraction(1, 2) + s0 * s0
    b = BigSeries.const(Fraction(3, 4), TR, rel=3) + t0
    start = s0 * Fraction(1, 6)
    by_int = dot(start, [(a, b, scale), (b, b, 2)])
    by_fraction = dot(start, [(a, b, Fraction(scale)), (b, b, Fraction(2))])
    assert _same(by_int, by_fraction)
    assert _same(by_int, _reference_dot(start, [(a, b, scale), (b, b, 2)]))
    jet = JetPoly.var(vvar(1, 1), JT) + JetPoly.const(Fraction(1, 3), JT)
    assert _same(dot(jet, [(jet, jet, scale)]), dot(jet, [(jet, jet, Fraction(scale))]))


def _through_the_constructor(layout, den, rows, rel):
    """The value of rows over den built from its reduced `Fraction` terms."""
    terms = {layout.unpack(k): Fraction(n, den) for row in rows for k, n in row.items()}
    return layout.cls(terms, layout.trunc, rel)


@pytest.mark.parametrize("last, den", [(15, 30), (4, 15)])
def test_from_rows_gcd_pass_stops_at_one_or_runs_to_the_end(last, den):
    """The gcd with den 30 falls to 6, then 2, and at the last row to 1 (a
    late stop, den kept) or it stays 2 (no stop, den halved); an empty row
    in between stays in the list."""
    layout = BigSeries.zero(TR).layout
    t0, t1, s0 = t_var(1, 0), t_var(1, 1), s_var(0)
    rows = [{0: 6}, {layout.pack(0, ((t0, 1),)): 12, layout.pack(1, ((t1, 1),)): -18}, {},
            {layout.pack(0, ((t0, 3),)): 10},
            {layout.pack(2, ((t1, 2), (s0, 2))): last}]
    value = BigSeries.from_rows(layout, 30, [dict(row) for row in rows], 4)
    assert value.den == den and value.rows[2] == {}
    assert _same(value, _through_the_constructor(layout, 30, rows, 4))


def test_dot_leaves_unreached_degrees_empty():
    """Products reach degrees 2 and 4 and start 0 and 5, so degrees 1 and 3
    hold no term, and degree 2, where two products cancel, none either."""
    t0, t1, s0 = (BigSeries.var(v, TR) for v in (t_var(1, 0), t_var(1, 1), s_var(0)))
    start = t1 * t1 * t1 * t1 * t0 * Fraction(1, 3) + BigSeries.const(Fraction(1, 2), TR)
    cases = [
        ([(t0, s0, 2), (t1 * t1, t0 * t0, -1)], [True, False, True, False, True, True]),
        ([(t0, s0, 1), (s0, t0, -1), (t1 * t1, t0 * t0, Fraction(2, 7))],
         [True, False, False, False, True, True]),
    ]
    for products, filled in cases:
        result = dot(start, products)
        assert [bool(row) for row in result.rows] == filled
        assert _same(result, _reference_dot(start, products))
    zero = BigSeries.zero(TR)
    result = dot(zero, [(s0, BigSeries.const(3, TR), 1), (t1 * t1, t0 * s0, 1)])
    assert [bool(row) for row in result.rows] == [False, True, False, False, True]
    assert _same(result, _reference_dot(zero, [(s0, BigSeries.const(3, TR), 1),
                                               (t1 * t1, t0 * s0, 1)]))


def test_dot_start_rows_above_every_product():
    t0, s1 = BigSeries.var(t_var(1, 0), TR), BigSeries.var(s_var(1), TR)
    start = t0 * t0 * t0 * t0 * s1 * Fraction(-1, 4) + t0 * t0 * t0 * 2  # degrees 3 and 5
    for products in ([(t0, s1, 1)], [(t0, BigSeries.const(Fraction(1, 6), TR), 5)],
                     [(t0, s1, 1), (s1, t0, -1)]):
        result = dot(start, products)
        assert len(result.rows) == 6
        assert _same(result, _reference_dot(start, products))


def test_one_dot_mixes_jet_factors_below_at_and_past_the_bound():
    """Factors with small and large exponents in one call, with a small or
    a large start; a factor whose square would pass the bound is not live
    when it lies past the cap, so it raises nothing, and a live product past
    the bound raises unless another one cancels it, as in the reference sum."""
    small = JetPoly.var(vvar(1, 1), JT) + JetPoly.const(Fraction(1, 2), JT)
    big = JetPoly({(0, ((vvar(1, 1), 6),)): Fraction(2, 3)}, JT)
    high = JetPoly({(0, ((vvar(1, 0), 2), (vvar(1, 2), 5))): Fraction(5)}, JT)  # degree 2
    assert big.layout is small.layout is high.layout
    cases = [
        (small, [(small, small, 1), (big, small, -2), (small, big, Fraction(1, 3))]),
        (big, [(small, small, 1), (small, small, Fraction(-1, 2))]),
        (small, [(small, small, 3), (high, high, 1)]),
    ]
    for start, products in cases:
        assert _same(dot(start, products), _reference_dot(start, products))
    assert dot(small, [(small, small, 3), (high, high, 1)]).layout is small.layout
    with pytest.raises(JetOverflowError, match="^exponent 12 of v1_1 exceeds bound 7$"):
        dot(small, [(small, small, 1), (big, big, 2)])
    cancelled = [(small, small, 1), (big, big, 2), (big, big, -2)]
    assert _same(dot(small, cancelled), _reference_dot(small, cancelled))


@pytest.mark.parametrize("scale", [int, Fraction])
def test_dot_products_whose_denominators_divide_the_lcm(scale):
    """start's den 12 already holds each product's 2 * 3 and 2 * 2 * 3, so
    only the last product, with its 5, grows the lcm; the result is the
    same under int and `Fraction` scales."""
    t0, t1, s0 = (BigSeries.var(v, TR) for v in (t_var(1, 0), t_var(1, 1), s_var(0)))
    start = t0 * Fraction(1, 12) + s0 * Fraction(1, 4)
    a, b = t1 * Fraction(1, 2), s0 * Fraction(1, 3)
    products = [(a, b, scale(5)), (a, a * Fraction(1, 3), scale(-1)), (b, b, Fraction(3, 2)),
                (t0, t1 * Fraction(1, 5), scale(2))]
    result = dot(start, products)
    assert result.den == 60
    assert _same(result, _reference_dot(start, products))
    assert _same(dot(start, products[:3]), _reference_dot(start, products[:3]))


def test_equal_truncations_share_one_truncation_object():
    """There is one layout per class and truncation, and every value stores
    its layout's truncation, so values built from equal but distinct
    truncations, by any constructor and with any exponents, share one
    layout and one truncation object and `dot` finds them compatible by
    identity; unequal truncations still raise."""
    a, b = Truncation.of(7, 2), Truncation.of(7, 2)
    assert a == b and a is not b
    t0 = BigSeries.var(t_var(1, 0), a)
    values = [t0, BigSeries.zero(b), BigSeries.const(2, b),
              BigSeries.from_coeffs({((s_var(1), 2),): Fraction(3)}, b),
              parse(emit(BigSeries.var(t_var(1, 1), b) * Fraction(1, 2), TheoryData.rank1(b)))[0],
              BigSeries.from_rows(t0.layout, 1, [{}, dict(t0.rows[1])], None),
              t0 * t0, dot(BigSeries.zero(b), [(t0, t0, 1)]), t0 - BigSeries.var(s_var(0), b)]
    assert all(x.trunc is t0.trunc and x.layout is t0.layout for x in values)
    jt_a, jt_b = JetTruncation(3, 2, 1), JetTruncation(3, 2, 1)
    narrow = JetPoly.var(vvar(1, 0), jt_a)
    high = JetPoly({(0, ((vvar(1, 1), 7),)): Fraction(1)}, jt_b)  # at the bound of jt_b
    theory = TheoryData.rank1(Truncation(3, 1, 3, 2, 1))
    assert theory.trunc.jet() == jt_a and theory.trunc.jet() is not jt_a
    jets = [high, JetPoly.zero(jt_b), JetPoly.const(2, jt_b), JetPoly.eps(jt_b),
            parse(emit(JetPoly.var(vvar(1, 2), jt_b) * Fraction(1, 2), theory))[0],
            narrow * high, dot(JetPoly.zero(jt_b), [(narrow, narrow, 1)]), dx(narrow),
            high - narrow]
    assert all(x.layout is narrow.layout and x.trunc is narrow.trunc for x in jets)
    other = BigSeries.var(t_var(1, 0), Truncation.of(7, 3))
    for combine in (lambda: t0 * other, lambda: t0 + other,
                    lambda: dot(BigSeries.zero(a), [(t0, other, 1)]),
                    lambda: narrow * JetPoly.var(vvar(1, 0), JetTruncation(3, 2, 2))):
        with pytest.raises(TruncationMismatchError):
            combine()


@pytest.mark.parametrize("value, other, error", [
    (functools.partial(BigSeries, {(0, ((t_var(1, 3), 1),)): Fraction(1)}, TR),
     BigSeries.var(t_var(1, 0), TR), LevelOverflowError),
    (functools.partial(BigSeries, {(0, ((s_var(3), 2),)): Fraction(1)}, TR),
     BigSeries.var(s_var(0), TR), LevelOverflowError),
    (functools.partial(JetPoly, {(0, ((phivar(4), 1),)): Fraction(1)}, JT),
     JetPoly.var(phivar(3), JT), JetOverflowError),
    (functools.partial(JetPoly, {(0, ((vvar(2, 4), 1),)): Fraction(1)}, JT),
     JetPoly.var(vvar(1, 0), JT), JetOverflowError),
])
def test_index_past_the_bound_raises_the_class_overflow_error(value, other, error):
    """Its field would alias the next variable's, so no value can hold it:
    building one raises, while values within the bound still multiply."""
    with pytest.raises(error):
        value()
    assert _same(other * other, _reference_mul(other, other))


# -- `+`, `-` and `partial` ----------------------------------------------------

REL_CASES = ["equal", "both None", "left None", "right None", "left smaller", "right smaller"]


@st.composite
def add_cases(draw):
    """Two values sharing some keys, some of them cancelling, with rels in
    one of the REL_CASES relations."""
    variables = [t_var(alpha, a) for alpha in (1, 2) for a in range(3)] + [s_var(a) for a in range(3)]
    factors = st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 3)), max_size=3)
    keys = st.tuples(st.integers(0, TR.eps_max), factors.map(mono_from_factors))
    left = draw(st.dictionaries(keys, coefs, max_size=8))
    right = draw(st.dictionaries(keys, coefs, max_size=8))
    for key in draw(st.lists(st.sampled_from(sorted(left)), max_size=4)) if left else ():
        right[key] = -left[key] if draw(st.booleans()) else draw(coefs)
    case = draw(st.sampled_from(REL_CASES))
    r1, r2 = sorted(draw(st.lists(st.integers(-1, 5), min_size=2, max_size=2)))
    rel_left, rel_right = {
        "equal": (r1, r1), "both None": (None, None), "left None": (None, r1),
        "right None": (r1, None), "left smaller": (r1, r2), "right smaller": (r2, r1),
    }[case]
    return BigSeries(left, TR, rel_left), BigSeries(right, TR, rel_right)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(add_cases())
def test_add_and_sub_match_the_reference_merge(case):
    a, b = case
    rel = _rel_min(a.rel, b.rel)
    assert _same(a + b, _reference_sum(BigSeries, TR, rel, [(1, a.terms), (1, b.terms)]))
    assert _same(a - b, _reference_sum(BigSeries, TR, rel, [(1, a.terms), (-1, b.terms)]))
    assert _same(b + a, a + b)


def _reference_partial(p, var):
    acc = {}
    for (eps, mono), coef in p.terms.items():
        rest = mono_div_var(mono, var)
        if rest is not None:
            acc[(eps, rest)] = coef * dict(mono)[var]
    rel = None if p.rel is None else p.rel - p.var_degree(var)
    return type(p)(acc, p.trunc, rel)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(big_series(2), st.sampled_from([t_var(1, 0), t_var(2, 1), s_var(0), s_var(2)]))
def test_partial_matches_the_reference(p, var):
    assert _same(partial(p, var), _reference_partial(p, var))


def _within_rel(value):
    deg = type(value).mono_degree
    return value.rel is None or all(deg(m) <= value.rel for _e, m in value.terms)


BIG_THEORY = TheoryData.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0], TR)
JET_THEORY = TheoryData.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 0, 0],
                              Truncation(5, 2, JT.deg0_max, JT.jet_max, JT.eps_max))


def _check_stored_form(value, theory):
    """No term above rel, and the stored form is canonical: the terms rebuild
    the same denominator and keys, equal values hash equal, no smaller
    denominator holds the value, and the text form parses back to it."""
    assert _within_rel(value)
    rebuilt = type(value)(dict(value.terms), value.trunc, value.rel)
    assert rebuilt == value and (rebuilt.den, rebuilt.rows) == (value.den, value.rows)
    assert hash(rebuilt) == hash(value)
    assert value.den == lcm(*(c.denominator for c in value.terms.values()))
    assert parse(emit(value, theory))[0] == value


def _kernel_results(start, products, var, scalar):
    """Every operation's result on the case, but a product or dot past the
    exponent bound, which must raise as its reference result does."""
    results = [start * scalar, -start, start.eps_slice(1), partial(start, var),
               _checked(lambda: dot(start, products), lambda: _reference_dot(start, products))]
    for a, b, _c in products:
        ab = _checked(lambda: a * b, lambda: _reference_mul(a, b))
        results += [a + b, a - b] + ([ab, partial(ab, var)] if ab is not None else [])
    return [value for value in results if value is not None]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ranks.flatmap(lambda n: dot_cases(big_series(n))),
       st.sampled_from([t_var(1, 0), t_var(1, 2), s_var(1)]), coefs)
def test_no_kernel_operation_stores_a_term_above_its_rel(case, var, scalar):
    for value in _kernel_results(*case, var, scalar):
        _check_stored_form(value, BIG_THEORY)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(dot_cases(jet_polys()), st.sampled_from([vvar(1, 0), vvar(1, 1), phivar(1), fvar(3)]),
       coefs)
def test_no_jet_operation_stores_a_term_above_its_rel(case, var, scalar):
    for value in _kernel_results(*case, var, scalar):
        _check_stored_form(value, JET_THEORY)
