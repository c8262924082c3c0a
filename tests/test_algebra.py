"""Differential-polynomial arithmetic: worked examples, ring laws, canonical form."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottr.algebra import (
    JetOverflowError,
    JetPoly,
    JetTruncation,
    PhiJetError,
    TruncationMismatchError,
    coef_phi_power,
    derivative,
    dx,
    mono_from_factors,
    partial,
    phivar,
    power,
    standard_degree,
    vvar,
)

TR = JetTruncation(deg0_max=8, jet_max=4, eps_max=4)


def V(alpha, jet=0):
    return JetPoly.var(vvar(alpha, jet), TR)


def PHI(jet=0):
    return JetPoly.var(phivar(jet), TR)


EPS = JetPoly.eps(TR)


class TestAdd:
    def test_additive_inverse(self):
        assert (V(1) + (-V(1))).is_zero()

    def test_disjoint_supports(self):
        p = V(1) + V(1, 1)
        assert p.coefficient((((0, 1, 0), 1),)) == 1
        assert p.coefficient((((0, 1, 1), 1),)) == 1

    def test_like_terms(self):
        half_sq = V(1) * V(1) * Fraction(1, 2)
        assert half_sq + half_sq == V(1) * V(1)

    def test_metadata_mismatch(self):
        other = JetPoly.var(vvar(1, 0), JetTruncation(5, 4, 4))
        with pytest.raises(TruncationMismatchError):
            V(1) + other


class TestMul:
    def test_unit(self):
        p = V(1) * V(2, 1) + EPS
        assert JetPoly.const(1, TR) * p == p

    def test_simple_product(self):
        assert (V(1) * V(1, 1)).coefficient(
            mono_from_factors([(vvar(1, 0), 1), (vvar(1, 1), 1)])) == 1

    def test_difference_of_squares(self):
        assert (V(1) + EPS) * (V(1) - EPS) == V(1) * V(1) - EPS * EPS


class TestDx:
    def test_variable(self):
        assert dx(V(1)) == V(1, 1)

    def test_constant(self):
        assert dx(JetPoly.const(7, TR)).is_zero()

    def test_leibniz_example(self):
        assert dx(V(1) * V(1, 1)) == V(1, 1) * V(1, 1) + V(1) * V(1, 2)

    def test_overflow(self):
        with pytest.raises(JetOverflowError):
            dx(V(1, 4))

    def test_terms_that_cancel_are_dropped(self):
        """dx(v1_0 v1_2 - v1_1^2 / 2) = v1_0 v1_3: the two v1_1 v1_2 terms
        cancel."""
        assert dx(V(1) * V(1, 2) - V(1, 1) * V(1, 1) * Fraction(1, 2)) == V(1) * V(1, 3)


class TestJetPartial:
    def test_square(self):
        assert partial(V(1) * V(1), vvar(1, 0)) == 2 * V(1)

    def test_absent_variable(self):
        assert partial(V(1), phivar(0)).is_zero()

    def test_mixed(self):
        p = V(1) * V(1, 1) * V(1, 1)
        assert partial(p, vvar(1, 1)) == 2 * V(1) * V(1, 1)


class TestDerivedMemo:
    def test_derivative_shares_one_chain_per_value(self):
        p = V(1) * V(1) * V(1, 1) + V(1, 1) * V(1, 1)
        x, y = vvar(1, 0), vvar(1, 1)
        assert derivative(p, y, x) is derivative(p, x, y)
        assert derivative(p, x, y) == partial(partial(p, x), y)
        assert derivative(p) is p

    def test_power_is_kept_with_its_base(self):
        p = V(1) + V(1, 1)
        assert power(p, 3) is power(p, 3)
        assert power(p, 3) == JetPoly.const(1, TR) * p * p * p
        assert power(p, 0) == JetPoly.const(1, TR)


class TestStandardDegree:
    def test_jet_two(self):
        assert standard_degree(V(1, 2)) == {2: V(1, 2)}

    def test_eps_compensates(self):
        p = EPS * V(1, 1)
        assert standard_degree(p) == {0: p}

    def test_degree_zero(self):
        assert standard_degree(V(1)) == {0: V(1)}


class TestCoefPhiPower:
    def test_extract(self):
        p = PHI() * PHI() * V(1)
        assert coef_phi_power(p, 2) == V(1)

    def test_absent(self):
        assert coef_phi_power(V(1), 1).is_zero()

    def test_reads_coefficient(self):
        p = 3 * PHI() + PHI() * PHI() * PHI()
        assert coef_phi_power(p, 3) == JetPoly.const(1, TR)

    def test_positive_jet_rejected(self):
        with pytest.raises(PhiJetError):
            coef_phi_power(PHI(1) * PHI(), 1)


VARS = [vvar(1, 0), vvar(1, 1), vvar(2, 0), vvar(2, 1), phivar(0), phivar(1)]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
monos = st.lists(st.sampled_from(VARS), max_size=3).map(
    lambda vs: mono_from_factors((v, 1) for v in vs))
terms = st.tuples(st.integers(min_value=0, max_value=1), monos)
polys = st.dictionaries(terms, coeffs, max_size=4).map(lambda d: JetPoly(d, TR))


@settings(max_examples=60, deadline=None)
@given(polys, polys)
def test_derivation_law(p, q):
    assert dx(p * q) == dx(p) * q + p * dx(q)


@settings(max_examples=60, deadline=None)
@given(polys)
def test_dx_raises_degree_by_one(p):
    for d, part in standard_degree(p).items():
        image = standard_degree(dx(part))
        assert set(image) <= {d + 1}


@settings(max_examples=60, deadline=None)
@given(polys)
def test_jet_commutator_identity(p):
    for alpha, i in [(1, 0), (2, 0)]:
        lhs = partial(dx(p), vvar(alpha, i + 1))
        rhs = partial(p, vvar(alpha, i)) + dx(partial(p, vvar(alpha, i + 1)))
        assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_canonical_form_is_order_independent():
    from ottr.bigphase import TheoryData, Truncation
    from ottr.serialize import emit

    theory = TheoryData.rank1(Truncation(8, 3, 8, 4, 4))
    a = (V(1) + EPS * V(2, 1)) * (PHI() - V(1))
    b = PHI() * V(1) - V(1) * V(1) + EPS * (PHI() * V(2, 1)) - EPS * V(2, 1) * V(1)
    assert a == b
    assert emit(a, theory) == emit(b, theory)


def test_no_zero_coefficients_stored():
    p = V(1) - V(1)
    assert p.terms == {}


def test_reliable_degree_above_dv_rejected():
    """A jet polynomial's rel is bounded by Dv, its degree bound."""
    assert JetPoly({}, TR, rel=8).rel == 8
    with pytest.raises(ValueError, match="above the degree bound 8"):
        JetPoly({}, TR, rel=9)
