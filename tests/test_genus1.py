"""Genus-1 layer: recursion operators, both constructions, closed sector."""

import random
from fractions import Fraction

import pytest

import ottr.genus1 as genus1
from ottr.algebra import JetPoly, derivative, phivar, poly_eq, vvar
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    mono_from_factors,
    partial,
    phitop,
    relabel_component,
    restrict_small,
    s_var,
    series_log,
    t_var,
    t11_partial,
    vtop,
)
from ottr.genus0 import NoSolutionError, SolveResult, validate_closed_genus0
from ottr.genus1 import (
    apply_trr1_s,
    apply_trr1_t,
    boundary_pairing,
    extract_go,
    f1_closed_form,
    f1o_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)

from monomials import terms

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)
JT = TR.jet()


def go_candidates():
    phi = JetPoly.var(phivar(0), JT)
    v = JetPoly.var(vvar(1, 0), JT)
    rng = random.Random(20260811)
    rand = JetPoly.zero(JT)
    for factors in [(), ((vvar(1, 0), 1),), ((phivar(0), 1),),
                    ((vvar(1, 0), 2),), ((vvar(1, 0), 1), (phivar(0), 1)),
                    ((phivar(0), 2),), ((vvar(1, 0), 3),), ((phivar(0), 3),),
                    ((vvar(1, 0), 2), (phivar(0), 1))]:
        coef = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        rand = rand + JetPoly({(0, mono_from_factors(factors)): coef}, JT)
    return [
        ("zero", JetPoly.zero(JT)),
        ("phi^3/6", phi * phi * phi * Fraction(1, 6)),
        ("v*phi", v * phi),
        ("random-deg3", rand),
    ]


class TestRecursionOperators:
    @pytest.mark.parametrize("family", ["t", "s"])
    def test_an_index_past_the_level_window_is_refused(self, family, f0, f0o, theory8):
        """The operator at level a raises to level a + 1, so a = Amax is outside."""
        top = theory8.trunc.level_max
        with pytest.raises(IndexError, match="operator index outside level window"):
            if family == "t":
                apply_trr1_t(f0o, 1, top, f0, f0o, theory8)
            else:
                apply_trr1_s(f0o, top, f0o, theory8)

    def test_annihilate_solutions(self, f0, f0o, theory8):
        sol_v = vtop(f0, theory8)
        sol_phi = phitop(f0o, theory8)
        for a in range(theory8.trunc.level_max):
            for comp in sol_v + [sol_phi]:
                assert apply_trr1_t(comp, 1, a, f0, f0o, theory8).is_zero(), a
                assert apply_trr1_s(comp, a, f0o, theory8).is_zero(), a

    def test_constants_killed(self, f0, f0o, theory8):
        c = BigSeries.const(5, TR)
        assert apply_trr1_t(c, 1, 0, f0, f0o, theory8).is_zero()
        assert apply_trr1_s(c, 0, f0o, theory8).is_zero()

    def test_log_identities(self, f0, f0o, theory8):
        # the recursion operators send the half-log term to the half second
        # derivative, which is what makes the closed form work
        lg = series_log(boundary_pairing(f0o, theory8))
        for a in range(theory8.trunc.level_max):
            lhs = apply_trr1_t(lg, 1, a, f0, f0o, theory8)
            rhs = derivative(f0o, t_var(1, a), s_var(0))
            assert poly_eq(lhs, rhs), a
            lhs = apply_trr1_s(lg, a, f0o, theory8)
            rhs = derivative(f0o, s_var(a), s_var(0))
            assert poly_eq(lhs, rhs), a


class TestOpenGenus1:
    def test_solver_matches_closed_form(self, f0, f0o, theory8):
        for name, go in go_candidates():
            solved = solve_f1o(f0, f0o, go, theory8)
            formula = f1o_closed_form(f0, f0o, go, theory8)
            assert poly_eq(solved, formula), name

    def test_both_paths_validate(self, f0, f0o, theory8):
        go = go_candidates()[1][1]
        for f1o in (solve_f1o(f0, f0o, go, theory8),
                    f1o_closed_form(f0, f0o, go, theory8)):
            assert validate_open_genus1(f0, f0o, f1o, theory8).all_zero

    def test_zero_candidate_fails(self, f0, f0o, theory8):
        report = validate_open_genus1(f0, f0o, BigSeries.zero(TR), theory8)
        res = report.entry("open_trr1_t", (1, 0)).residual
        expect = -derivative(f0o, t_var(1, 0), s_var(0)) * Fraction(1, 2)
        assert poly_eq(res, expect)
        assert not report.all_zero

    def test_solver_names_its_first_failing_entry(self, f0, f0o, theory8, monkeypatch):
        """A march result that fails the genus-1 relations is refused with
        the first failing entry of its report."""
        go = go_candidates()[1][1]
        bump = BigSeries.from_coeffs({((t_var(1, 1), 1),): Fraction(1)}, TR)
        bad = validate_open_genus1(f0, f0o, solve_f1o(f0, f0o, go, theory8) + bump,
                                   theory8).failures()[0]
        real = genus1._march
        monkeypatch.setattr(genus1, "_march", lambda *args: SolveResult(
            real(*args).series + bump, []))
        with pytest.raises(NoSolutionError) as err:
            solve_f1o(f0, f0o, go, theory8)
        assert err.value.label == (bad.equation, bad.indices)
        assert str(err.value) == ("solver output fails the genus-1 relations at "
                                  "open_trr1_t (1, 0)")
        assert (err.value.weight, err.value.free) == (None, ())  # raised after the engine

    def test_restriction_is_initial_condition(self, f0, f0o, theory8):
        for name, go in go_candidates()[:3]:
            f1o = f1o_closed_form(f0, f0o, go, theory8)
            back = extract_go(f1o, theory8)
            assert terms(back) == terms(go), name

    def test_solver_restriction(self, f0, f0o, theory8):
        go = go_candidates()[2][1]
        assert terms(extract_go(solve_f1o(f0, f0o, go, theory8), theory8)) == terms(go)

    def test_linear_offset(self, f0, f0o, theory8):
        _, go1 = go_candidates()[1]
        _, go2 = go_candidates()[2]
        a = solve_f1o(f0, f0o, go1, theory8)
        b = solve_f1o(f0, f0o, go2, theory8)
        diff_restr = restrict_small(a - b, theory8)
        assert terms(diff_restr) == terms(go1 - go2)

    def test_closed_form_restricts_at_origin(self, f0, f0o, theory8):
        go = go_candidates()[3][1]
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        assert terms(restrict_small(f1o, theory8)) == terms(go)

    def test_extract_go_is_linear(self, f0, f0o, theory8):
        a = f1o_closed_form(f0, f0o, go_candidates()[1][1], theory8)
        b = f1o_closed_form(f0, f0o, go_candidates()[2][1], theory8)
        lhs = extract_go(a + b, theory8)
        rhs = extract_go(a, theory8) + extract_go(b, theory8)
        assert terms(lhs) == terms(rhs)

    def test_extract_go_zero(self, theory8):
        assert extract_go(BigSeries.zero(TR), theory8).is_zero()


    def test_a_pairing_without_constant_term_one_is_refused(self, f0, f0o, theory8):
        with pytest.raises(ValueError, match="^boundary pairing must have constant term 1"):
            f1o_closed_form(f0, f0o * 2, JetPoly.zero(JT), theory8)


class TestClosedGenus1:
    def test_a_det_without_constant_term_one_is_refused(self, f0, theory8):
        with pytest.raises(ValueError, match="^det of the raised third-derivative matrix "
                                             "must have constant term 1"):
            f1_closed_form(f0 * 2, JetPoly.zero(JT), theory8)

    def test_t1_coefficient(self, f0, theory8):
        f1 = f1_closed_form(f0, JetPoly.zero(JT), theory8)
        assert f1.coefficient(((t_var(1, 1), 1),)) == Fraction(1, 24)

    def test_t1_coefficient_against_direct_log(self, f0, theory8):
        # independent route: series-log of the single matrix entry
        m = derivative(t11_partial(f0, 0, theory8), t_var(1, 0), t_var(1, 0))
        direct = series_log(m) * Fraction(1, 24)
        assert direct.coefficient(((t_var(1, 1), 1),)) == Fraction(1, 24)

    def test_validates(self, f0, theory8):
        f1 = f1_closed_form(f0, JetPoly.zero(JT), theory8)
        assert validate_closed_genus1(f0, f1, theory8).all_zero

    def test_with_nonzero_g(self, f0, theory8):
        g = JetPoly.var(vvar(1, 0), JT) * JetPoly.var(vvar(1, 0), JT)
        f1 = f1_closed_form(f0, g, theory8)
        assert validate_closed_genus1(f0, f1, theory8).all_zero
        assert terms(restrict_small(f1, theory8)) == terms(g)

    def test_zero_candidate_fails(self, f0, theory8):
        report = validate_closed_genus1(f0, BigSeries.zero(TR), theory8)
        assert not report.all_zero

    def test_constant_shift_invisible(self, f0, theory8):
        f1 = f1_closed_form(f0, JetPoly.zero(JT), theory8)
        r1 = validate_closed_genus1(f0, f1, theory8)
        r2 = validate_closed_genus1(f0, f1 + 7, theory8)
        assert r1.all_zero and r2.all_zero

    def test_direct_sum_splits(self, f0, theory8):
        tr = theory8.trunc
        th2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], tr)
        f0_pair = relabel_component(f0, 1, tr) + relabel_component(f0, 2, tr)
        assert validate_closed_genus0(f0_pair, th2).all_zero
        f1_pair = f1_closed_form(f0_pair, JetPoly.zero(JT), th2)
        assert validate_closed_genus1(f0_pair, f1_pair, th2).all_zero
        f1_rank1 = f1_closed_form(f0, JetPoly.zero(JT), theory8)
        expect = (relabel_component(f1_rank1, 1, tr)
                  + relabel_component(f1_rank1, 2, tr))
        assert poly_eq(f1_pair, expect)
