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
    ONE,
    derivative,
    dot,
    dx,
    grade_parts,
    mono_from_factors,
    partial,
    phi_parts,
    phivar,
    power,
    standard_degree,
    vvar,
)
from ottr.bigphase import BigSeries, Truncation, t_var

from monomials import terms

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
        with pytest.raises(JetOverflowError, match="dx would raise v1_4 past jet bound 4"):
            dx(V(1, 4))

    def test_terms_that_cancel_are_dropped(self):
        """dx(v1_0 v1_2 - v1_1^2 / 2) = v1_0 v1_3: the two v1_1 v1_2 terms
        cancel."""
        assert dx(V(1) * V(1, 2) - V(1, 1) * V(1, 1) * Fraction(1, 2)) == V(1) * V(1, 3)


class TestOperands:
    def test_a_value_of_the_other_class_is_no_operand(self):
        """`+` and `*` refuse a BigSeries operand, and `==` reads it unequal."""
        big = BigSeries.var(t_var(1, 0), Truncation.of(8, 4))
        with pytest.raises(TypeError):
            V(1) + big
        with pytest.raises(TypeError):
            V(1) * big
        assert not V(1) == big

    @pytest.mark.parametrize("place", [0, 1])
    def test_a_dot_factor_of_another_truncation_is_refused(self, place):
        factors = [V(1), V(1)]
        factors[place] = JetPoly.var(vvar(1, 0), JetTruncation(6, 4, 4))
        with pytest.raises(TruncationMismatchError):
            dot(JetPoly.zero(TR), [(*factors, 1)])

    def test_a_number_minus_a_value(self):
        assert 1 - V(1) == JetPoly.const(1, TR) - V(1)


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
    """The coefficient of each phi power, read off `phi_parts`."""

    def test_extract(self):
        p = PHI() * PHI() * V(1)
        assert phi_parts(p)[2] == V(1)

    def test_absent(self):
        assert 1 not in phi_parts(V(1))  # an absent power is the zero coefficient

    def test_reads_coefficient(self):
        p = 3 * PHI() + PHI() * PHI() * PHI()
        assert phi_parts(p)[3] == JetPoly.const(1, TR)

    def test_positive_jet_rejected(self):
        with pytest.raises(PhiJetError):
            phi_parts(PHI(1) * PHI())

    def test_phi_parts_are_every_nonzero_coefficient(self):
        p = (3 * PHI() + PHI() * PHI() * PHI() * V(1)).cut(6)
        parts = phi_parts(p)
        assert list(parts) == [1, 3]
        assert parts[1] == JetPoly.const(3, TR).cut(5)
        assert parts[3] == V(1).cut(3)
        assert phi_parts(JetPoly.zero(TR)) == {}


class TestGradeParts:
    def test_parts_in_rising_grade_keep_rel_and_leave_out_dropped_keys(self):
        p = (V(1, 2) + 5 * V(1) * V(1, 1) + EPS * V(2, 1) + PHI()).cut(7)
        layout = p.layout
        grading = [(layout[vvar(a, 1)], layout.mask, 1) for a in (1, 2)] + [
            (layout[vvar(1, 2)], layout.mask, 2)]
        parts = grade_parts(p, grading, drop=layout.eps_mask)
        assert list(parts) == [0, 1, 2]
        assert parts == {0: PHI().cut(7), 1: (5 * V(1) * V(1, 1)).cut(7), 2: V(1, 2).cut(7)}
        assert grade_parts(p, [(0, layout.eps_mask, 1)])[1] == (EPS * V(2, 1)).cut(7)


VARS = [vvar(1, 0), vvar(1, 1), vvar(2, 0), vvar(2, 1), phivar(0), phivar(1)]

coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
monos = st.lists(st.sampled_from(VARS), max_size=3).map(
    lambda vs: mono_from_factors((v, 1) for v in vs))
keys = st.tuples(st.integers(min_value=0, max_value=1), monos)
polys = st.dictionaries(keys, coeffs, max_size=4).map(lambda d: JetPoly(d, TR))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys, polys)
def test_derivation_law(p, q):
    assert dx(p * q) == dx(p) * q + p * dx(q)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys)
def test_dx_raises_degree_by_one(p):
    for d, part in standard_degree(p).items():
        image = standard_degree(dx(part))
        assert set(image) <= {d + 1}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys)
def test_jet_commutator_identity(p):
    for alpha, i in [(1, 0), (2, 0)]:
        lhs = partial(dx(p), vvar(alpha, i + 1))
        rhs = partial(p, vvar(alpha, i)) + dx(partial(p, vvar(alpha, i + 1)))
        assert lhs == rhs


@settings(derandomize=True, max_examples=60, deadline=None)
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
    assert terms(p) == {}


def test_reliable_degree_above_dv_rejected():
    """A jet polynomial's rel is bounded by Dv, its degree bound."""
    assert JetPoly({}, TR, rel=8).rel == 8
    with pytest.raises(ValueError, match="above the degree bound 8"):
        JetPoly({}, TR, rel=9)


def test_a_negative_eps_power_is_refused():
    with pytest.raises(ValueError, match="^negative eps power$"):
        JetPoly({(-1, ONE): Fraction(1)}, TR)


def test_a_term_past_the_eps_bound_is_dropped():
    assert JetPoly({(TR.eps_max + 1, ONE): Fraction(1), (0, ONE): Fraction(2)}, TR) == (
        JetPoly.const(2, TR))
