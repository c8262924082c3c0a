"""The packed product loop (`*` and `dot`) against the tuple/Fraction double loop."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from ottr.algebra import (
    JetPoly,
    JetTruncation,
    dot,
    fvar,
    mono_from_factors,
    mono_mul,
    phivar,
    vvar,
)
from ottr.bigphase import BigSeries, Truncation, s_var, t_var

TR = Truncation.of(5, 2, eps_max=2)
JT = JetTruncation(3, 3, 2)


def _reference_mul(p, q):
    """The product as a double loop over degree-sorted (degree, eps, monomial,
    Fraction) rows, keyed by (eps, monomial tuple)."""
    cls, tr = type(p), p.trunc
    deg_max = cls.bounds(tr)[0]
    bounds = [r + v for r, v in ((p.rel, q.valuation()), (q.rel, p.valuation()))
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
    return cls(acc, tr, rel, _checked=True)


def _reference_dot(start, products):
    out = start
    for a, b, c in products:
        out = out + _reference_mul(a, b) * c
    return out


def _same(x, y):
    return x.terms == y.terms and x.rel == y.rel and x.trunc == y.trunc


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
    factors = st.lists(st.tuples(st.sampled_from(jet_variables), st.integers(1, 9)), max_size=3)
    keys = st.tuples(st.integers(0, JT.eps_max), factors.map(mono_from_factors))
    terms = draw(st.dictionaries(keys, coefs, max_size=6))
    return JetPoly(terms, JT, draw(st.one_of(st.none(), st.integers(-1, 3))))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dot_cases(jet_polys()))
def test_jet_products_with_high_jet_exponents(case):
    start, products = case
    for a, b, _c in products:
        assert _same(a * b, _reference_mul(a, b))
    assert _same(dot(start, products), _reference_dot(start, products))


def test_field_width_follows_the_exponents_not_the_degree_bound():
    v11 = JetPoly.var(vvar(1, 1), JT)
    p9 = JetPoly({(0, ((vvar(1, 1), 9),)): Fraction(1)}, JT)
    assert p9 * p9 == JetPoly({(0, ((vvar(1, 1), 18),)): Fraction(1)}, JT)
    assert (p9 * v11).terms == {(0, ((vvar(1, 1), 10),)): Fraction(1)}
