"""Q-polynomials, evolution operators, first-order residuals, Lax flows."""

import hashlib
import itertools
from fractions import Fraction
from math import comb

import pytest

from ottr.algebra import (
    JetPoly,
    JetTruncation,
    derivative,
    dot,
    dx,
    fvar,
    phivar,
    poly_eq,
    power,
    standard_degree,
    vvar,
)
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    s_var,
    t11_partial,
    t_var,
    vtop,
    x_jet,
)
from ottr.genus0 import (
    solve_closed_order_by_order,
    solve_open_order_by_order,
    two_point_table,
    validate_open_genus0,
)
from ottr.genus1 import extract_go, f1o_closed_form, validate_open_genus1
from ottr.laxpde import (
    EvolutionSystem,
    KdVLaxContext,
    LinearDiffOp,
    PseudoDiffOp,
    PstIntegrationError,
    build_boundary_op,
    _eps_shift,
    build_interior_op,
    evolution_residual,
    first_order_rhs,
    flow_forms,
    linear_evolution_residual,
    pst_generate,
    qpoly,
    qpoly_expansion_residual,
    qpoly_truncation,
)
from ottr.serialize import emit

from monomials import terms

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)
JT = TR.jet()


def fj(i, trunc):
    return JetPoly.var(fvar(i), trunc)


class TestQPoly:
    def test_a_negative_index_is_refused(self):
        with pytest.raises(ValueError, match="index must be >= 0"):
            qpoly(-1)

    def test_base_case(self):
        assert qpoly(0) == JetPoly.const(1, qpoly_truncation(0))

    def test_q2(self):
        tr = qpoly_truncation(2)
        expect = fj(1, tr) * fj(1, tr) + JetPoly.eps(tr) * fj(2, tr)
        assert qpoly(2) == expect

    def test_q3(self):
        tr = qpoly_truncation(3)
        eps = JetPoly.eps(tr)
        expect = (fj(1, tr) * fj(1, tr) * fj(1, tr)
                  + 3 * eps * fj(1, tr) * fj(2, tr)
                  + eps * eps * fj(3, tr))
        assert qpoly(3) == expect

    @pytest.mark.parametrize("i", range(11))
    def test_expansion_residual_vanishes_mod_eps2(self, i):
        res = qpoly_expansion_residual(i)
        assert res.eps_slice(0).is_zero()
        assert res.eps_slice(1).is_zero()

    def test_degree_zero_homogeneity(self):
        for i in range(7):
            assert set(standard_degree(qpoly(i))) <= {0}


def _laurent_mul(a, b):
    out = {}
    for j1, p1 in a.items():
        for j2, p2 in b.items():
            pr = p1 * p2
            if pr.is_zero():
                continue
            j = j1 + j2
            out[j] = out[j] + pr if j in out else pr
    return {j: p for j, p in out.items() if not p.is_zero()}


def _laurent_eps_dx(a):
    out = {}
    for j, p in a.items():
        d = dx(p)
        if not d.is_zero():
            out[j + 1] = d
    return out


def test_exponential_conjugation_identity():
    """(eps dx)^i exp(f/eps) / exp(f/eps) equals Q_i, checked symbolically.

    exp(f/eps) is expanded as a Laurent series in eps with the f-jet degree
    truncated at K; after multiplying by the truncated exp(-f/eps) the result
    is trusted on f0-degree <= K - i.
    """
    K, imax = 8, 6
    trunc = JetTruncation(deg0_max=K, jet_max=imax + 1, eps_max=2 * K)
    f0 = JetPoly.var(fvar(0), trunc)

    def exp_series(sign):
        out = {}
        term = JetPoly.const(1, trunc)
        fact = Fraction(1)
        for k in range(K + 1):
            if k:
                term = term * f0
                fact *= k
            out[-k] = term * (Fraction(sign ** k) / fact)
        return out

    pos, neg = exp_series(1), exp_series(-1)
    cur = dict(pos)
    for i in range(imax + 1):
        ratio = _laurent_mul(cur, neg)
        collected = {}
        for j, p in ratio.items():
            for (eps, mono), coef in terms(p).items():
                deg0 = sum(e for (_k, _a, jet), e in mono if jet == 0)
                tot = j + eps
                if deg0 == 0:
                    key = (tot, mono)
                    collected[key] = collected.get(key, Fraction(0)) + coef
                else:
                    assert deg0 > K - i or coef == 0, (i, mono, coef)
        collected = {k: c for k, c in collected.items() if c}
        q = qpoly(i, trunc)
        assert collected == terms(q), i
        cur = _laurent_eps_dx(cur)


class TestOperators:
    @pytest.mark.parametrize("build", [
        lambda table, go, th: build_interior_op(1, 4, table, go, th),
        lambda table, go, th: build_boundary_op(4, table, go, th),
    ], ids=["interior", "boundary"])
    def test_an_index_past_the_level_window_is_refused(self, build, f0, f0o, theory8):
        table = two_point_table(f0, f0o, theory8)
        with pytest.raises(IndexError, match="operator index outside level window"):
            build(table, JetPoly.zero(JT), theory8)

    def test_boundary_op_from_delta(self, f0, f0o, theory8):
        table = two_point_table(f0, f0o, theory8)
        op = build_boundary_op(0, table, JetPoly.zero(JT), theory8)
        assert poly_eq(op.coeffs[(0, 0)], JetPoly.var(vvar(1, 0), JT))
        assert poly_eq(op.coeffs[(2, 0)], JetPoly.const(Fraction(1, 2), JT))
        assert set(op.coeffs) == {(0, 0), (2, 0)}

    def test_homogeneity(self, f0, f0o, theory8):
        phi = JetPoly.var(phivar(0), JT)
        go = phi * phi * phi * Fraction(1, 6)
        table = two_point_table(f0, f0o, theory8)
        for a in range(theory8.trunc.level_max + 1):
            build_interior_op(1, a, table, go, theory8).check_homogeneity()
            build_boundary_op(a, table, go, theory8).check_homogeneity()

    def test_an_inhomogeneous_coefficient_is_refused(self):
        op = LinearDiffOp({(0, 0): JetPoly.var(vvar(1, 1), JT)}, ("int", 1, 0))
        with pytest.raises(ValueError, match=r"^coefficient \(0,0\) of \('int', 1, 0\) has "
                                             r"degrees \[1\], expected \{0\}$"):
            op.check_homogeneity()

    def test_a_second_eps_order_is_refused_at_evaluation(self):
        op = LinearDiffOp({(0, 2): JetPoly.const(1, JT)})
        with pytest.raises(ValueError, match="^operators are truncated at first eps order$"):
            op.eval_slices([], TH)

    def test_zero_go_collapses_first_order(self, f0, f0o, theory8):
        from ottr.algebra import partial, phi_parts

        table = two_point_table(f0, f0o, theory8)
        op = build_interior_op(1, 1, table, JetPoly.zero(JT), theory8)
        gam = table.gamma[(1, 1)]
        expect = (partial(partial(gam, phivar(0)), vvar(1, 0))
                  * JetPoly.var(vvar(1, 1), JT) * Fraction(1, 2))
        parts = phi_parts(expect)
        for i in range(6):
            got = op.coeffs.get((i, 1), JetPoly.zero(JT))
            assert poly_eq(got, parts.get(i, JetPoly.zero(JT, expect.rel - i))), i


class TestFirstOrderRhs:
    def test_constant_coefficient(self, f0, f0o, theory8):
        c = BigSeries.const(Fraction(5, 3), TR)
        zero = BigSeries.zero(TR)
        rhs0, rhs1 = first_order_rhs(flow_forms({0: (c, zero)}, f0o, theory8), f0o, zero, theory8)
        assert rhs0 == c
        assert rhs1.is_zero()

    def test_multiply_by_fx(self, f0, f0o, theory8):
        from ottr.bigphase import t11_partial

        one = BigSeries.const(1, TR)
        zero = BigSeries.zero(TR)
        rhs0, rhs1 = first_order_rhs(flow_forms({1: (one, zero)}, f0o, theory8), f0o, zero, theory8)
        assert poly_eq(rhs0, t11_partial(f0o, 0, theory8))
        assert rhs1.is_zero()

    def test_operator_interface(self, f0, f0o, theory8):
        op = LinearDiffOp({(0, 0): JetPoly.const(2, JT)})
        zero = BigSeries.zero(TR)
        forms = flow_forms(op.eval_slices(vtop(f0, theory8), theory8), f0o, theory8)
        rhs0, _ = first_order_rhs(forms, f0o, zero, theory8)
        assert rhs0.constant_term() == 2


    @pytest.mark.parametrize("bumped", [False, True])
    def test_eps1_slice_is_one_dot_of_its_products(self, f0, f0o, theory8, bumped):
        """On every flow `check-evolution` evaluates, the eps^1 form's value
        has the terms and rel of one `dot` of all its products from zero, and
        each slice of the residual those of one `dot` of all its products
        from the derivative (the construction before the forms)."""
        phi = JetPoly.var(phivar(0), JT)
        go = phi * phi * phi * Fraction(1, 6)
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        if bumped:
            f1o = f1o + BigSeries({(0, ((t_var(1, 1), 1), (s_var(0), 2))): Fraction(3)}, TR)
        system = EvolutionSystem.build(f0, f0o, f1o, theory8, go)
        sol_v = vtop(f0, theory8)
        for label, op in sorted(system.ops.items()):
            a_slices = op.eval_slices(sol_v, theory8)
            got = first_order_rhs(system.forms[label], f0o, f1o, theory8)[1]
            want = _rhs1_one_dot(a_slices, f0o, f1o, theory8, None)
            assert got == want and got.rel == want.rel, label
            var = system.flow_var(label)
            got = evolution_residual(system.forms[label], f0o, f1o, var, theory8)
            want = (_rhs0_one_dot(a_slices, f0o, theory8, derivative(f0o, var))
                    + _eps_shift(_rhs1_one_dot(a_slices, f0o, f1o, theory8,
                                               derivative(f1o, var)), 1, TR.eps_max))
            assert got == want and got.rel == want.rel, label


def _rhs0_one_dot(a_slices, f0, theory, start):
    """start minus the eps^0 slice, one `dot` of every product."""
    xf0 = t11_partial(f0, 0, theory)
    return dot(start, [(a0, power(xf0, i), -1) for i, (a0, _a1) in sorted(a_slices.items())])


def _rhs1_one_dot(a_slices, f0, f1, theory, start):
    """The eps^1 slice as one `dot` of every product (start minus it, given
    a start)."""
    xf0, xf1, xxf0 = t11_partial(f0, 0, theory), t11_partial(f1, 0, theory), x_jet(f0, 2, theory)
    sign = 1 if start is None else -1
    products = []
    for i, (a0, a1) in sorted(a_slices.items()):
        products.append((a1, power(xf0, i), sign))
        if i >= 1:
            products.append((a0 * power(xf0, i - 1), xf1, sign * i))
        if i >= 2:
            products.append((a0 * power(xf0, i - 2), xxf0, sign * comb(i, 2)))
    return dot(BigSeries.zero(theory.trunc) if start is None else start, products)

class TestEvolutionResidual:
    @pytest.mark.parametrize("go_name", ["zero", "phi3"])
    def test_residual_vanishes(self, f0, f0o, theory8, go_name):
        phi = JetPoly.var(phivar(0), JT)
        go = JetPoly.zero(JT) if go_name == "zero" else phi * phi * phi * Fraction(1, 6)
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        report = linear_evolution_residual(f0, f0o, f1o, theory8, go)
        assert report.all_zero
        assert {e.equation for e in report.entries} == {"evolution_t", "evolution_s"}
        assert all(e.window is not None and e.window >= 4 for e in report.entries)

    def test_eps0_slice_is_two_point_recovery(self, f0, f0o, theory8):
        # with the genus-1 part switched off the eps^0 slice stands alone
        zero = BigSeries.zero(TR)
        system = EvolutionSystem.build(f0, f0o, zero, theory8, JetPoly.zero(JT))
        for label in system.ops:
            res = system.residual(label).eps_slice(0)
            assert res.is_zero(), label

    def test_perturbation_detected(self, f0, f0o, theory8):
        go = JetPoly.zero(JT)
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        system = EvolutionSystem.build(f0, f0o, f1o, theory8, go)
        t1 = ((t_var(1, 1), 1),)
        assert not system.perturbation_residual(t1).is_zero()

    def test_perturbation_no_flow_sees_is_zero(self, f0, f0o, theory8):
        """The constant monomial changes no flow's residual: the change is
        the zero series."""
        go = JetPoly.zero(JT)
        system = EvolutionSystem.build(f0, f0o, f1o_closed_form(f0, f0o, go, theory8),
                                       theory8, go)
        assert system.perturbation_residual(()).is_zero()

    def test_perturbation_fast_path_matches_direct(self, f0, f0o, theory8):
        go = JetPoly.zero(JT)
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        base = EvolutionSystem.build(f0, f0o, f1o, theory8, go)
        mono = ((t_var(1, 0), 2), (s_var(0), 1))
        bump = BigSeries({(0, mono): Fraction(1)}, TR)
        pert = EvolutionSystem.build(f0, f0o, f1o + bump, theory8, go)
        for label in sorted(base.ops):
            direct = (pert.residual(label) - base.residual(label)).eps_slice(1)
            if not direct.is_zero():
                fast = base.perturbation_residual(mono)
                assert poly_eq(direct, fast, up_to=fast.rel)
                break
        else:
            pytest.fail("perturbation invisible to every flow")

    def test_perturbation_past_the_window_changes_nothing(self):
        """At D3 a monomial of degree 4 or 5 lies past the degree window, so
        f1o + mono is f1o and the change is the zero series.  Monomials
        inside the window keep their changes."""
        tr = Truncation.of(3, 1)
        th, jt = TheoryData.rank1(tr), tr.jet()
        v, phi = JetPoly.var(vvar(1, 0), jt), JetPoly.var(phivar(0), jt)
        f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), th).series
        f0o = solve_open_order_by_order(f0, v * phi + phi * phi * phi * Fraction(1, 6),
                                        th).series
        go = JetPoly.zero(jt)
        system = EvolutionSystem.build(f0, f0o, f1o_closed_form(f0, f0o, go, th), th, go)
        t0, t1, s0 = t_var(1, 0), t_var(1, 1), s_var(0)
        for mono in [((t0, 5),), ((t0, 4),), ((t0, 3), (t1, 1)), ((t0, 2), (s0, 2))]:
            assert system.perturbation_residual(mono).is_zero(), mono
        change = system.perturbation_residual(((t0, 1), (t1, 1)))
        assert (terms(change), change.rel) == ({(0, ((t1, 1), (s0, 1))): -1}, 2)
        change = system.perturbation_residual(((t0, 1), (s0, 1)))
        assert (terms(change), change.rel) == ({(0, ((t0, 1),)): 1, (0, ((s0, 2),)): -1}, 2)


@pytest.fixture(scope="module")
def theory6():
    return TheoryData.rank1(Truncation.of(6, 2))


@pytest.fixture(scope="module")
def pst(theory6):
    return pst_generate(theory6)


class TestLaxFlows:
    def test_flow_consistency_report(self, pst):
        assert pst.report.all_zero

    def test_half_power_is_bare_derivative(self, pst, theory6):
        w = derivative(pst.f0, t_var(1, 0), t_var(1, 0))
        ctx = KdVLaxContext.build(w, theory6)
        half = ctx.half_power_plus(0)
        assert set(half.coeffs) == {1}
        assert half.coeffs[1].constant_term() == 1
        assert len(half.coeffs[1].terms) == 1

    def test_three_half_power(self, pst, theory6):
        w = derivative(pst.f0, t_var(1, 0), t_var(1, 0))
        wx = derivative(pst.f0, *[t_var(1, 0)] * 3)
        ctx = KdVLaxContext.build(w, theory6)
        op = ctx.half_power_plus(1)
        assert poly_eq(op.coeffs[3], BigSeries.const(1, theory6.trunc))
        assert poly_eq(op.coeffs[1], w * 3)
        eps1 = op.coeffs[0].eps_slice(1)
        assert poly_eq(eps1, wx * Fraction(3, 2), up_to=wx.rel)
        assert op.coeffs[0].eps_slice(0).is_zero()

    def test_matches_axiomatic_solver(self, pst, theory6):
        jt = theory6.trunc.jet()
        v = JetPoly.var(vvar(1, 0), jt)
        phi = JetPoly.var(phivar(0), jt)
        seed = v * phi + phi * phi * phi * Fraction(1, 6)
        solver = solve_open_order_by_order(pst.f0, seed, theory6).series
        assert poly_eq(pst.f0o, solver)

    def test_output_validates_genus0(self, pst, theory6):
        assert validate_open_genus0(pst.f0, pst.f0o, theory6).all_zero

    def test_output_validates_genus1(self, pst, theory6):
        assert validate_open_genus1(pst.f0, pst.f0o, pst.f1o, theory6).all_zero

    def test_go_roundtrip(self, pst, theory6):
        go = extract_go(pst.f1o, theory6)
        again = f1o_closed_form(pst.f0, pst.f0o, go, theory6)
        assert poly_eq(pst.f1o, again)

    def test_eps2_part_of_w_is_invisible(self, pst, theory6):
        tr = theory6.trunc
        w = derivative(pst.f0, t_var(1, 0), t_var(1, 0))
        eps2 = BigSeries({(2, ()): Fraction(1)}, tr)
        w2 = w + eps2 * BigSeries.var(t_var(1, 0), tr) * 3
        assert w2 != w
        ctx, ctx2 = KdVLaxContext.build(w, theory6), KdVLaxContext.build(w2, theory6)
        for p in range(tr.level_max + 1):
            assert ctx.t_flow_slices(p) == ctx2.t_flow_slices(p), p
            assert ctx.s_flow_slices(p) == ctx2.s_flow_slices(p), p

    def test_inconsistent_flow_fails_mixed_partials(self, monkeypatch):
        """A doubled t1 flow pins the s-free data, which the s flows then
        contradict; the final residual check names the flow and monomial."""
        t_flow_slices = KdVLaxContext.t_flow_slices

        def doubled(ctx, p):
            slices = t_flow_slices(ctx, p)
            if p != 1:
                return slices
            return {i: (a0 * 2, a1 * 2) for i, (a0, a1) in slices.items()}

        monkeypatch.setattr(KdVLaxContext, "t_flow_slices", doubled)
        with pytest.raises(PstIntegrationError) as info:
            pst_generate(TheoryData.rank1(Truncation.of(4, 1)))
        assert info.value.flow == ("t", 1)
        assert info.value.mono == ((t_var(1, 0), 1), (s_var(0), 1))
        assert str(info.value).endswith("mixed-partial consistency at t1_0*s_0")

    @pytest.mark.parametrize("amax", [0, 1, 2, 3])
    def test_least_flow_rel_sets_the_margin(self, amax):
        """The premise of `pst_generate`'s margin max(2*Amax, 1): on the
        enlarged window D_big, t_p is reliable to D_big - 2p - 1 (t_0
        exactly), s_0 to D_big - 2 and s_p to D_big - 3, so the least is
        D_big - 2*Amax - 1 for Amax >= 1 and D_big - 2 for Amax = 0."""
        dbig = 3 + max(2 * amax, 1)
        ctx = _lax_context(TheoryData.rank1(Truncation.of(dbig, amax)))
        rels = {}
        for p in range(amax + 1):
            for kind, slices in (("t", ctx.t_flow_slices(p)), ("s", ctx.s_flow_slices(p))):
                rels[kind, p] = min((x.rel for pair in slices.values() for x in pair
                                     if x.rel is not None), default=None)
        want = {("t", 0): None, ("s", 0): dbig - 2}
        for p in range(1, amax + 1):
            want["t", p], want["s", p] = dbig - 2 * p - 1, dbig - 3
        assert rels == want
        assert min(r for r in rels.values() if r is not None) == (
            dbig - 2 * amax - 1 if amax else dbig - 2)

    @pytest.mark.parametrize("amax", [0, 1, 2, 3])
    def test_flow_window_guard(self, monkeypatch, amax):
        """The least reliable flow (t_Amax, or s_0 at Amax = 0) made one degree
        less reliable leaves its targets short of cap - 1: the guard names it."""
        kind = "t" if amax else "s"
        flow_slices = getattr(KdVLaxContext, f"{kind}_flow_slices")

        def cut(ctx, p):
            slices = flow_slices(ctx, p)
            if p != amax:
                return slices
            return {i: tuple(x if x.rel is None else x.cut(x.rel - 1) for x in pair)
                    for i, pair in slices.items()}

        monkeypatch.setattr(KdVLaxContext, f"{kind}_flow_slices", cut)
        with pytest.raises(PstIntegrationError) as info:
            pst_generate(TheoryData.rank1(Truncation.of(4, amax)))
        assert info.value.flow == (kind, amax)
        assert info.value.mono is None
        assert str(info.value) == "flow window too small for target"

    def test_guard_sweep_outcomes_are_pinned(self, monkeypatch):
        """Every flow's slices cut by 1 and by 2 degrees, one flow at a time,
        at D3-D6 x Amax 0-3: each run fails with the same flow, monomial and
        message or gives the same four outputs as before the grade loop read
        its right-hand sides by grade slice (`GUARD_SWEEP`)."""
        flow_slices = {kind: getattr(KdVLaxContext, f"{kind}_flow_slices") for kind in "ts"}
        outcomes = []
        for degree, amax in itertools.product(range(3, 7), range(4)):
            theory = TheoryData.rank1(Truncation.of(degree, amax))
            for kind, p, by in itertools.product("ts", range(amax + 1), (1, 2)):
                with monkeypatch.context() as m:
                    m.setattr(KdVLaxContext, f"{kind}_flow_slices",
                              _cut_flow(flow_slices[kind], p, by))
                    try:
                        r = pst_generate(theory)
                        outcome = [hashlib.sha256(emit(x, theory).encode()).hexdigest()
                                   for x in (r.f0, r.f0o, r.f1o, r.report)]
                    except PstIntegrationError as err:
                        outcome = (err.flow, err.mono, str(err))
                outcomes.append(((degree, amax, kind, p, by), outcome))
        assert len(outcomes) == 160
        assert sum(isinstance(o, tuple) for _case, o in outcomes) == 40
        assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == GUARD_SWEEP

    def test_odd_eps_w_is_rejected(self, theory6):
        w = BigSeries({(1, ((t_var(1, 0), 1),)): Fraction(1)}, theory6.trunc)
        with pytest.raises(ValueError, match="^w must have even eps content only$"):
            KdVLaxContext.build(w, theory6)

    def test_rank_restriction(self, theory8):
        th2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], theory8.trunc)
        with pytest.raises(ValueError):
            pst_generate(th2)

    def test_forms_equivalence(self, pst, theory6):
        """The action-on-exponential form and the expanded first-order form
        produce identical flow residuals through first order."""
        w = derivative(pst.f0, t_var(1, 0), t_var(1, 0))
        ctx = KdVLaxContext.build(w, theory6)
        tr = theory6.trunc
        eps = BigSeries({(1, ()): Fraction(1)}, tr)
        for p in range(tr.level_max + 1):
            slices = ctx.s_flow_slices(p)
            qs: dict[int, tuple[BigSeries, BigSeries]] = {}
            for i, pair in slices.items():
                q = qpoly(i, JetTruncation(0, i + 1, max(i, 1)))
                s0, s1 = _eval_q_slices(q, pst.f0o, pst.f1o, theory6)
                acc0, acc1 = qs.get(i, (BigSeries.zero(tr), BigSeries.zero(tr)))
                qs[i] = (acc0 + s0, acc1 + s1)
            direct0 = BigSeries.zero(tr)
            direct1 = BigSeries.zero(tr)
            for i, (a0, a1) in slices.items():
                q0, q1 = qs[i]
                direct0 = direct0 + a0 * q0
                direct1 = direct1 + a0 * q1 + a1 * q0
            rhs0, rhs1 = first_order_rhs(flow_forms(slices, pst.f0o, theory6),
                                         pst.f0o, pst.f1o, theory6)
            assert poly_eq(direct0, rhs0), p
            assert poly_eq(direct1, rhs1), p


# sha256 of the repr of [((degree, amax, kind, p, by), outcome), ...] in
# `test_guard_sweep_outcomes_are_pinned`, recorded before the grade loop read
# its right-hand sides by grade slice; 40 of the 160 runs fail
GUARD_SWEEP = "7390386bc2a18752faed724e58d1f385ce6c37fd7babc0d490e0c2168e9e6b1c"


def _cut_flow(flow_slices, p, by):
    """flow_slices with the level-p flow's slices cut by `by` degrees below
    their rel; exact slices stay as they are."""
    def cut(ctx, q):
        slices = flow_slices(ctx, q)
        if q != p:
            return slices
        return {i: tuple(x if x.rel is None else x.cut(x.rel - by) for x in pair)
                for i, pair in slices.items()}
    return cut


@pytest.fixture(scope="module", params=[(4, 1), (6, 2)], ids=["D4A1", "D6A2"])
def lax_ctx(request):
    deg, amax = request.param
    return _lax_context(TheoryData.rank1(Truncation.of(deg, amax)))


def _lax_context(theory):
    """The Lax context of the rank-1 Witten f0 on the window of theory."""
    v = JetPoly.var(vvar(1, 0), theory.trunc.jet())
    f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory).series
    return KdVLaxContext.build(derivative(f0, t_var(1, 0), t_var(1, 0)), theory)


def _eps_times(series, k):
    """eps^k * series mod eps^2, keeping the reliable degree."""
    shifted = {(e + k, m): c for (e, m), c in terms(series).items() if e + k <= 1}
    return BigSeries(shifted, series.trunc, series.rel)


def _full_compose(a, b):
    """Every coefficient of a . b mod eps^2, negative indices included, as a
    double loop over coefficient pairs with the symbol rule
    (eps d/dx)^i . d = d (eps d/dx)^i + i eps (X d) (eps d/dx)^{i-1}."""
    acc = {}
    for i, ci in a.coeffs.items():
        for j, cj in b.coeffs.items():
            for k, binom in ((0, 1), (1, i)):
                if binom:
                    term = ci * _eps_times(x_jet(cj, k, a.theory), k) * binom
                    acc[i + j - k] = acc[i + j - k] + term if i + j - k in acc else term
    acc = {n: _eps_times(c, 0) for n, c in acc.items()}
    return {n: c for n, c in acc.items() if not c.is_zero()}


class TestCoefficientRule:
    def test_root_squares_to_lax(self, lax_ctx):
        amax = lax_ctx.theory.trunc.level_max
        for n in range(2, -2 * amax, -1):
            assert lax_ctx.root.composed_at(lax_ctx.root, n) == lax_ctx.lax.coeffs.get(n), n

    def test_flows_read_no_root_coefficient_past_depth_two_amax(self, lax_ctx):
        """The flows from a root two coefficients deeper than `build`'s."""
        theory, lax = lax_ctx.theory, lax_ctx.lax
        amax = theory.trunc.level_max
        deep = PseudoDiffOp({1: BigSeries.const(1, theory.trunc)}, theory)
        for k in range(1, 2 * amax + 3):
            square = deep.composed_at(deep, 1 - k)
            defect = lax.coefficient(1 - k)
            if square is not None:
                defect = defect - square
            if not defect.is_zero():
                deep.coeffs[-k] = defect * Fraction(1, 2)
        assert min(deep.coeffs) < min(lax_ctx.root.coeffs)
        ctx = KdVLaxContext(lax, deep, theory, [PseudoDiffOp.identity(theory), lax])
        for p in range(amax + 1):
            assert lax_ctx.t_flow_slices(p) == ctx.t_flow_slices(p), p
            assert lax_ctx.s_flow_slices(p) == ctx.s_flow_slices(p), p

    def test_compose_is_the_plus_part_of_the_full_product(self, lax_ctx):
        for p in range(lax_ctx.theory.trunc.level_max + 1):
            power = lax_ctx.lax_power(p)
            for other in (lax_ctx.root, lax_ctx.lax):
                full = _full_compose(power, other)
                want = {n: c for n, c in full.items() if n >= 0}
                assert power.compose(other).coeffs == want, p

    def test_composed_at_matches_the_full_product_at_negative_indices(self, lax_ctx):
        root = lax_ctx.root
        full = _full_compose(root, root)
        for n in range(max(full), min(full) - 1, -1):
            assert root.composed_at(root, n) == full.get(n), n


def _eval_q_slices(q, f0, f1, theory):
    """Substitute f-jets by unit-direction derivatives of f0 + eps f1."""
    from ottr.bigphase import t11_partial

    tr = theory.trunc
    jets0: dict[int, BigSeries] = {}
    jets1: dict[int, BigSeries] = {}

    def jet(g, order):
        store = jets0 if g == 0 else jets1
        if order not in store:
            if order == 0:
                store[order] = f0 if g == 0 else f1
            else:
                store[order] = t11_partial(jet(g, order - 1), 0, theory)
        return store[order]

    out0 = BigSeries.zero(tr)
    out1 = BigSeries.zero(tr)
    for (eps, mono), coef in terms(q).items():
        if eps > 1:
            continue
        factors = []
        for (_k, _a, order), e in mono:
            factors.extend([order] * e)
        # expand the product over eps slices, keeping total order <= 1
        prods = {0: BigSeries.const(coef, tr)}
        for order in factors:
            nxt: dict[int, BigSeries] = {}
            for sl, acc in prods.items():
                term = acc * jet(0, order)
                nxt[sl] = nxt[sl] + term if sl in nxt else term
                if sl == 0:
                    term = acc * jet(1, order)
                    nxt[1] = nxt[1] + term if 1 in nxt else term
            prods = nxt
        if eps == 0:
            out0 = out0 + prods[0]
            if 1 in prods:
                out1 = out1 + prods[1]
        else:
            out1 = out1 + prods[0]
    return out0, out1
