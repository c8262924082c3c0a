"""Big-phase-space series: derivatives, restriction, solutions, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottr.algebra import JetPoly, dx, phivar, poly_eq, vvar
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    eval_jetpoly,
    invert_matrix,
    mono_degree,
    mono_from_factors,
    partial,
    phitop,
    restrict_small,
    s_var,
    series_log,
    t11_partial,
    t_var,
    vtop,
)

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)


def T(alpha, level):
    return BigSeries.var(t_var(alpha, level), TR)


def S(level):
    return BigSeries.var(s_var(level), TR)


class TestPartial:
    def test_power(self):
        f = T(1, 0) * T(1, 0) * Fraction(1, 2)
        assert partial(f, t_var(1, 0)) == T(1, 0)

    def test_reliable_degree_drops(self):
        f = BigSeries.from_coeffs({((t_var(1, 0), 2),): Fraction(1, 2)}, TR, rel=8)
        assert partial(f, t_var(1, 0)).rel == 7

    def test_absent(self):
        assert partial(T(1, 0), s_var(0)).is_zero()

    def test_product(self):
        f = S(1) * S(0)
        assert poly_eq(partial(f, s_var(1)), S(0))

    def test_commute_property(self):
        f = T(1, 0) * T(1, 1) * S(0) + S(2) * S(2) * T(1, 3)
        for x in (t_var(1, 0), s_var(2)):
            for y in (t_var(1, 1), t_var(1, 3)):
                assert partial(partial(f, x), y) == partial(partial(f, y), x)


class TestT11Partial:
    def test_rank1_reduction(self):
        f = T(1, 0) * T(1, 0)
        assert t11_partial(f, 0, TH) == partial(f, t_var(1, 0))

    def test_linearity_rank2(self):
        th2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], TR)
        f = T(1, 0) + BigSeries.var(t_var(2, 0), TR) * 2
        assert t11_partial(f, 0, th2).constant_term() == 3

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            TheoryData.build(1, [[1]], [0], TR)


class TestRestrictSmall:
    def test_rename(self):
        f = T(1, 0) * T(1, 0) * T(1, 0) * Fraction(1, 6)
        jt = TR.jet()
        v = JetPoly.var(vvar(1, 0), jt)
        assert restrict_small(f, TH).terms == (v * v * v * Fraction(1, 6)).terms

    def test_positive_level_killed(self):
        assert restrict_small(T(1, 1) * S(0), TH).is_zero()

    def test_mixed(self):
        jt = TR.jet()
        expect = JetPoly.var(phivar(0), jt) * JetPoly.var(vvar(1, 0), jt)
        assert restrict_small(S(0) * T(1, 0), TH).terms == expect.terms


class TestVtopPhitop:
    def test_vtop_restriction_identity(self, f0, theory8):
        # at t_{>=1} = 0 the solution components reduce to t{alpha}_0
        sol = vtop(f0, theory8)[0]
        residual = sol - T(1, 0)
        for (eps, mono), coef in residual.terms.items():
            assert any(level >= 1 for (_k, _a, level), _e in mono), (mono, coef)

    def test_vtop_low_order_coefficient(self, f0, theory8):
        sol = vtop(f0, theory8)[0]
        mono = mono_from_factors([(t_var(1, 0), 1), (t_var(1, 1), 1)])
        assert sol.coefficient(mono) == 1

    def test_vtop_linear_in_potential(self, f0, theory8):
        double = [2 * s for s in vtop(f0, theory8)]
        again = vtop(f0 + f0, theory8)
        assert all(poly_eq(a, b) for a, b in zip(double, again))

    def test_phitop_restriction_identity(self, f0o, theory8):
        sol = phitop(f0o, theory8)
        residual = sol - S(0)
        for (eps, mono), coef in residual.terms.items():
            assert any(level >= 1 for (_k, _a, level), _e in mono), (mono, coef)

    def test_phitop_zero(self, theory8):
        assert phitop(BigSeries.zero(TR), theory8).is_zero()


class TestLogExp:
    def test_log_one(self):
        assert series_log(BigSeries.const(1, TR)).is_zero()

    def test_mercator(self):
        lg = series_log(BigSeries.const(1, TR) + T(1, 0))
        mono = lambda k: (((t_var(1, 0)), k),)
        for k in range(1, 9):
            assert lg.coefficient(mono(k)) == Fraction((-1) ** (k + 1), k)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            series_log(T(1, 0))


def _power_sum_log(f):
    """log f as the power sum of (-1)^(k+1) (f - 1)^k / k, cut at f's rel."""
    x = f - 1
    out = BigSeries.zero(f.trunc, f.rel)
    power = BigSeries.const(1, f.trunc)
    top = f.trunc.deg_max if f.rel is None else min(f.trunc.deg_max, f.rel)
    for k in range(1, top + 1):
        power = power * x
        out = out + power * Fraction((-1) ** (k + 1), k)
    return BigSeries(out.terms, f.trunc, f.rel, _checked=True)


def _euler(f):
    """E(f): each term times its degree."""
    return BigSeries({(e, m): c * mono_degree(m) for (e, m), c in f.terms.items() if m},
                     f.trunc, f.rel, _checked=True)


@st.composite
def log_arguments(draw):
    """1 + a series without constant terms, rank 1-2, eps_max 0-2, rel None, 0
    or finite."""
    rank, eps_max = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    tr = Truncation.of(5, 2, eps_max=eps_max)
    variables = ([t_var(alpha, a) for alpha in range(1, rank + 1) for a in range(3)]
                 + [s_var(a) for a in range(3)])
    factors = st.lists(st.tuples(st.sampled_from(variables), st.integers(1, 3)),
                       min_size=1, max_size=3)
    keys = st.tuples(st.integers(0, eps_max), factors.map(mono_from_factors))
    coefs = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    terms = draw(st.dictionaries(keys, coefs, max_size=7))
    terms[(0, ())] = Fraction(1)
    return BigSeries(terms, tr, draw(st.one_of(st.none(), st.just(0), st.integers(1, 5))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(log_arguments())
def test_series_log_is_the_power_sum_and_solves_its_degree_equation(f):
    lg = series_log(f)
    assert lg == _power_sum_log(f)  # terms and rel
    assert poly_eq(_euler(f), f * _euler(lg))


class TestEvalJetPoly:
    def test_constant(self, f0, theory8):
        one = JetPoly.const(1, TR.jet())
        assert eval_jetpoly(one, vtop(f0, theory8), None, theory8).constant_term() == 1

    def test_identity_substitution(self, f0, theory8):
        sol = vtop(f0, theory8)
        v = JetPoly.var(vvar(1, 0), TR.jet())
        assert poly_eq(eval_jetpoly(v, sol, None, theory8), sol[0])

    def test_two_point_recovery(self, f0, theory8):
        from ottr.genus0 import omega

        sol = vtop(f0, theory8)
        amax = theory8.trunc.level_max
        for a in range(amax + 1):
            for b in range(a, amax + 1):
                om = omega(f0, 1, a, 1, b, theory8)
                direct = partial(partial(f0, t_var(1, a)), t_var(1, b))
                assert poly_eq(eval_jetpoly(om, sol, None, theory8), direct), (a, b)

    def test_missing_phi_solution(self, f0, theory8):
        phi = JetPoly.var(phivar(0), TR.jet())
        with pytest.raises(ValueError):
            eval_jetpoly(phi, vtop(f0, theory8), None, theory8)

    def test_ring_morphism(self, f0, f0o, theory8):
        jt = TR.jet()
        sol_v, sol_phi = vtop(f0, theory8), phitop(f0o, theory8)
        p = JetPoly.var(vvar(1, 1), jt) + JetPoly.var(phivar(0), jt)
        q = JetPoly.var(vvar(1, 0), jt) * JetPoly.var(phivar(1), jt)
        ev = lambda x: eval_jetpoly(x, sol_v, sol_phi, theory8)
        assert poly_eq(ev(p * q), ev(p) * ev(q))
        assert poly_eq(ev(p + q), ev(p) + ev(q))

    def test_constant_term_substitute_loses_trust(self, theory8):
        p = JetPoly({(0, ((vvar(1, 0), 1),)): Fraction(1)}, TR.jet(), rel=3)
        shifted = [BigSeries.const(1, TR) + T(1, 0)]
        assert eval_jetpoly(p, shifted, None, theory8).rel == -1

    def test_shift_realization_chain_rule(self, f0, f0o, theory8):
        jt = TR.jet()
        sol_v, sol_phi = vtop(f0, theory8), phitop(f0o, theory8)
        p = (JetPoly.var(vvar(1, 0), jt) * JetPoly.var(phivar(0), jt)
             + JetPoly.var(vvar(1, 1), jt))
        lhs = eval_jetpoly(dx(p), sol_v, sol_phi, theory8)
        rhs = t11_partial(eval_jetpoly(p, sol_v, sol_phi, theory8), 0, theory8)
        assert poly_eq(lhs, rhs)


svars = st.sampled_from([t_var(1, a) for a in range(4)] + [s_var(a) for a in range(4)])
smonos = st.lists(svars, max_size=3).map(lambda vs: mono_from_factors((v, 1) for v in vs))
scoeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
sseries = st.dictionaries(smonos, scoeffs, max_size=4).map(
    lambda d: BigSeries.from_coeffs(d, TR))


@settings(max_examples=50, deadline=None)
@given(sseries, sseries)
def test_series_ring_laws(f, g):
    assert f * g == g * f
    assert f + g == g + f


@settings(max_examples=50, deadline=None)
@given(sseries)
def test_partials_commute(f):
    x, y = t_var(1, 1), s_var(2)
    assert partial(partial(f, x), y) == partial(partial(f, y), x)


@pytest.mark.parametrize("checked", [False, True])
def test_reliable_degree_above_bound_rejected(checked):
    """rel may not exceed Dt: no stored coefficient can vouch beyond it."""
    tr = Truncation.of(6, 2)
    assert BigSeries({}, tr, rel=6, _checked=checked).rel == 6
    with pytest.raises(ValueError, match="above the degree bound 6"):
        BigSeries({}, tr, rel=99, _checked=checked)


def test_product_reliable_degree_capped_at_bound():
    f = BigSeries.var(t_var(1, 0), TR) * BigSeries({}, TR, rel=TR.deg_max)
    assert f.rel == TR.deg_max


@pytest.mark.parametrize("matrix, inverse", [
    ([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
    ([[0, 2], [3, 1]], [[Fraction(-1, 6), Fraction(1, 3)], [Fraction(1, 2), 0]]),
])
def test_invert_matrix_swaps_rows_at_a_zero_pivot(matrix, inverse):
    assert invert_matrix(matrix) == tuple(map(tuple, inverse))
