"""Genus-0 validators, two-point functions, hierarchies, and solvers."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ottr.algebra import JetPoly, phivar, poly_eq, vvar
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    eval_jetpoly,
    mono_from_factors,
    partial,
    phitop,
    s_var,
    t_var,
    vtop,
)
from ottr.genus0 import (
    NoSolutionError,
    SeedError,
    extended_flows,
    delta,
    gamma,
    omega,
    principal_flow,
    solve_closed_order_by_order,
    solve_open_order_by_order,
    two_point_table,
    validate_closed_genus0,
    validate_open_genus0,
)

from monomials import monomials_up_to

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)
JT = TR.jet()


def jvar(alpha=1, jet=0):
    return JetPoly.var(vvar(alpha, jet), JT)


def jphi(jet=0):
    return JetPoly.var(phivar(jet), JT)


def witten_coefficient(mono):
    """Independent combinatorial oracle for the rank-1 genus-0 coefficients."""
    n = sum(e for _, e in mono)
    weight = sum(var[2] * e for var, e in mono)
    if n < 3 or weight != n - 3:
        return Fraction(0)
    denom = 1
    for (_kind, _alpha, a), e in mono:
        denom *= factorial(a) ** e * factorial(e)
    return Fraction(factorial(n - 3), denom)


class TestClosedSolver:
    def test_matches_combinatorial_oracle(self, f0, theory8):
        for mono in monomials_up_to(theory8.t_vars(), 8):
            assert f0.coefficient(mono) == witten_coefficient(mono), mono

    def test_t03_t1_coefficient(self, f0):
        mono = mono_from_factors([(t_var(1, 0), 3), (t_var(1, 1), 1)])
        assert f0.coefficient(mono) == Fraction(1, 6)

    def test_free_coefficients_reported(self, witten_solve):
        # one-point and purely-positive-level two-point data is unconstrained
        expected = {m for m in monomials_up_to(TH.t_vars(), 2)
                    if m and all(var[2] >= 1 for var, _ in m)}
        assert set(witten_solve.free) == expected

    def test_zero_seed_reports_inconsistency(self):
        with pytest.raises(SeedError):
            solve_closed_order_by_order(JetPoly.zero(JT), TH)

    @pytest.mark.parametrize("extra, message", [
        ((1, ()), "seed must be eps-free"),
        ((0, ((vvar(1, 1), 1),)), "seed must only use jet-order-zero variables"),
        ((0, ((vvar(2, 0), 1),)), "seed component index exceeds the rank"),
        ((0, ((phivar(0), 1),)), "closed seed cannot involve phi"),
    ])
    def test_a_term_the_unit_derivative_kills_is_refused_by_the_seed_reader(
            self, extra, message):
        """v^3/6 plus eps, v1_1, v2_0 (at rank 1) or phi passes the string
        check, and the seed reader refuses the extra term."""
        seed = JetPoly({(0, ((vvar(1, 0), 3),)): Fraction(1, 6), extra: Fraction(1)}, JT)
        with pytest.raises(SeedError, match=f"^{message}$"):
            solve_closed_order_by_order(seed, TH)

    def test_idempotence(self, f0, witten_seed, theory8):
        from ottr.bigphase import restrict_small

        assert restrict_small(f0, theory8).terms == witten_seed.terms


class TestClosedValidation:
    def test_witten_passes(self, f0, theory8):
        report = validate_closed_genus0(f0, theory8)
        assert report.all_zero
        ids = {e.equation for e in report.entries}
        assert ids == {"string", "dilaton", "trr0", "two_point_shift"}

    def test_bare_cubic_string_at_level_zero_window(self):
        tr = Truncation.of(3, 0)
        th = TheoryData.rank1(tr)
        t0 = BigSeries.var(t_var(1, 0), tr)
        f = t0 * t0 * t0 * Fraction(1, 6)
        report = validate_closed_genus0(f, th)
        assert report.entry("string").is_zero

    def test_zero_potential_fails_string(self, theory8):
        report = validate_closed_genus0(BigSeries.zero(TR), theory8)
        res = report.entry("string").residual
        mono = mono_from_factors([(t_var(1, 0), 2)])
        assert res.coefficient(mono) == Fraction(1, 2)
        assert not report.all_zero


    def test_string_range_line_names_the_checked_window(self):
        """A D6/A2 f0 cut to rel=4 checks the string equation up to degree 3,
        and its range line says so; at rel=Dt it reads Dt - 1 as before."""
        tr = Truncation.of(6, 2)
        th = TheoryData.rank1(tr)
        v = JetPoly.var(vvar(1, 0), tr.jet())
        full = solve_closed_order_by_order(v * v * v * Fraction(1, 6), th).series
        cut = BigSeries(full.terms, tr, 4)
        report = validate_closed_genus0(cut, th)
        assert report.entry("string").window == 3
        assert report.checked["string"] == "single equation, degree window <= 3"
        assert "# string: single equation, degree window <= 3" in report.summary()
        report = validate_closed_genus0(full, th)
        assert report.checked["string"] == "single equation, degree window <= 5"
        open_seed = JetPoly.var(phivar(0), tr.jet())
        open_seed = v * open_seed + open_seed * open_seed * open_seed * Fraction(1, 6)
        f0o = solve_open_order_by_order(full, open_seed, th).series
        report = validate_open_genus0(full, BigSeries(f0o.terms, tr, 4), th)
        assert report.entry("open_string").window == 3
        assert report.checked["open_string"] == "single equation, degree window <= 3"


class TestRowSolve:
    """The two stages of every row solve: integer propagation, then
    elimination of the rows it leaves."""

    X = ((t_var(1, 1), 1),)
    Y = ((t_var(1, 2), 1),)

    def solve(self, *rows):
        """rows: (name, coefficient of X, coefficient of Y, rhs) each.
        Returns the rows propagation leaves and elimination's values."""
        from ottr.genus0 import _eliminate, _propagate

        assign, stalled, conflict = _propagate(
            {(name,): (rhs, 1) for name, _cx, _cy, rhs in rows},
            {(name,): {m: c for m, c in ((self.X, cx), (self.Y, cy)) if c}
             for name, cx, cy, _rhs in rows})
        assert assign == {} and conflict is None
        return stalled, _eliminate([({m: Fraction(c) for m, c in lhs.items()},
                                     Fraction(n, den), key) for lhs, n, den, key in stalled])

    def test_coupled_pair_solved_by_elimination(self):
        stalled, assign = self.solve(("sum", 1, 1, 3), ("difference", 1, -1, 1))
        assert len(stalled) == 2  # no row has a single unknown
        assert assign == {self.X: Fraction(2), self.Y: Fraction(1)}

    def test_inconsistent_dependent_row_raises_with_its_label(self):
        with pytest.raises(NoSolutionError) as err:
            self.solve(("sum", 1, 1, 3), ("difference", 1, -1, 1), ("double", 2, 2, 7))
        assert err.value.label == ("double",)
        assert err.value.weight is None  # no weight stage outside the engine
        assert str(err.value) == "inconsistent constraint ('double',)"


# small sparse row systems (lhs, n, den) over the unknowns 0-2: int and
# Fraction coefficients, right-hand sides n / den, often zero
_coefs = st.integers(-3, 3).filter(bool) | st.fractions(-3, 3, max_denominator=4).filter(
    lambda c: c.denominator > 1)
_systems = st.lists(st.tuples(st.dictionaries(st.sampled_from(range(3)), _coefs,
                                              min_size=1, max_size=2),
                              st.just(0) | st.integers(-6, 6), st.integers(1, 6)),
                    min_size=1, max_size=5)


@settings(max_examples=300, deadline=None)
@given(_systems)
@example([({0: 1}, 2, 1), ({0: 2}, 3, 1)])  # a conflict
@example([({0: 1, 1: 1}, 3, 1), ({0: 1, 1: -1}, 1, 1)])  # a stall
@example([({0: Fraction(3, 2)}, 1, 4), ({0: 2, 1: Fraction(-1, 3)}, 0, 1)])
def test_integer_propagation_agrees_with_the_fraction_solve(rows):
    """The integer propagation, run in the given row order and in reverse,
    checked with `Fraction`s: both orders conflict or neither does; without
    a conflict they pin the same reduced values, every row holds at them or
    is left over, and a row left over is its original with the values
    substituted; a reported conflict reads 0 = rhs != 0 at the values."""
    from ottr.genus0 import _propagate

    lhs = {k: row[0] for k, row in enumerate(rows)}
    keys = list(lhs)
    runs = [_propagate({k: rows[k][1:] for k in order}, lhs) for order in (keys, keys[::-1])]
    (forward, left_fwd, conflict_fwd), (backward, left_bwd, conflict_bwd) = runs
    assert (conflict_fwd is None) == (conflict_bwd is None)
    if conflict_fwd is None:
        assert forward == backward
        assert sorted(key for *_, key in left_fwd) == sorted(key for *_, key in left_bwd)
    for assign, left, conflict in runs:
        assert all(q > 0 and gcd(p, q) == 1 for p, q in assign.values())
        value = {m: Fraction(p, q) for m, (p, q) in assign.items()}

        def rest(k):  # row k's right-hand side less its pinned terms
            lhs, n, den = rows[k]
            return Fraction(n, den) - sum(c * value[m] for m, c in lhs.items() if m in value)

        if conflict is None:
            left = {key: (lhs, Fraction(n, den)) for lhs, n, den, key in left}
            for k, (lhs, _n, _den) in enumerate(rows):
                if k in left:
                    unpinned = {m: c for m, c in lhs.items() if m not in value}
                    assert len(unpinned) >= 2 and left[k] == (unpinned, rest(k))
                else:
                    assert lhs.keys() <= value.keys() and rest(k) == 0
        else:
            k, n, den = conflict
            assert not left and rows[k][0].keys() <= value.keys()
            assert rest(k) == Fraction(n, den) != 0


class TestMarchDenseOrder:
    """Rows that propagation cannot settle reach elimination through the engine.

    Each family below has one row, at mu = t1_0, in the two weight-1 unknowns
    X = t1_0 t1_1 and Y = t1_0 s_1; its right-hand side is rhs * t1_0.
    """

    TR = Truncation.of(2, 1)
    X = mono_from_factors([(t_var(1, 0), 1), (t_var(1, 1), 1)])
    Y = mono_from_factors([(t_var(1, 0), 1), (s_var(1), 1)])
    MU = ((t_var(1, 0), 1),)

    @pytest.fixture(autouse=True)
    def eliminations(self, monkeypatch):
        """The rows of each `_eliminate` call, as the engine hands them over."""
        import ottr.genus0 as genus0

        self.calls = []
        real = genus0._eliminate

        def spy(rows):
            self.calls.append([(dict(lhs), rhs, label) for lhs, rhs, label in rows])
            return real(rows)

        monkeypatch.setattr(genus0, "_eliminate", spy)

    def march(self, *rows):
        """rows: (name, coefficient of X, coefficient of Y, rhs) each."""
        from ottr.genus0 import _ID, _march, _Rows, _Table

        one = _Table(_ID, BigSeries.const(1, self.TR))
        families = [_Rows((name,), [((t_var(1, 1),), Fraction(x)), ((s_var(1),), Fraction(y))],
                          [(one, _Table(_ID, BigSeries.var(t_var(1, 0), self.TR) * rhs))])
                    for name, x, y, rhs in rows]
        theory = TheoryData.rank1(self.TR)
        return _march(families, {}, theory.all_vars(), 2, self.TR)

    def test_coupled_rows_are_eliminated(self):
        result = self.march(("sum", 1, 1, 3), ("difference", 1, -1, 1))
        assert [len(rows) for rows in self.calls] == [2]  # no row has a single unknown
        assert result.series.terms == {(0, self.X): Fraction(2), (0, self.Y): Fraction(1)}
        assert result.free == []

    def test_consistent_dependent_row_is_accepted(self):
        result = self.march(("sum", 1, 1, 3), ("difference", 1, -1, 1), ("double", 2, 2, 6))
        assert [len(rows) for rows in self.calls] == [3]
        assert result.series.terms == {(0, self.X): Fraction(2), (0, self.Y): Fraction(1)}
        assert result.free == []

    def test_non_pivot_unknown_is_free(self):
        result = self.march(("sum", 1, 1, 3))
        assert result.series.terms == {(0, self.X): Fraction(3)}  # pivot on the least, X
        assert result.free == [self.Y]

    def test_inconsistent_dependent_row_is_reported_at_its_weight(self):
        with pytest.raises(NoSolutionError) as err:
            self.march(("sum", 1, 1, 3), ("difference", 1, -1, 1), ("double", 2, 2, 7))
        assert [len(rows) for rows in self.calls] == [3]
        assert err.value.label == ("double", self.MU)
        assert str(err.value) == f"inconsistent constraint {('double', self.MU)}"
        assert err.value.weight == 1

    def test_propagation_conflict_is_reported_in_the_dense_order(self):
        """`late` has a zero right-hand side, so it joins the rows only through
        its shared unknown, after `pin`; the dense order puts it first, so
        `pin` is the row that conflicts."""
        with pytest.raises(NoSolutionError) as err:
            self.march(("late", 1, 0, 0), ("pin", 1, 0, 2))
        assert self.calls == []
        assert err.value.label == ("pin", self.MU)
        assert str(err.value) == f"inconsistent constraint {('pin', self.MU)}: 0 = 2"
        assert err.value.weight == 1

    def test_only_stalled_rows_are_eliminated_with_pinned_values_substituted(self):
        """At mu = 1, over X, Y and Z = s_0 t1_1: `pin` fixes X = 2, and `sum`
        (X + Y + Z = 8) and `difference` (X + Y - Z = 0) stall on Y and Z.
        `difference` has a zero right-hand side and joins the rows last, but
        it is family 0, so it reaches `_eliminate` first."""
        from ottr.genus0 import _ID, _march, _Rows, _Table

        x, y, z = (t_var(1, 0), t_var(1, 1)), (t_var(1, 0), s_var(1)), (s_var(0), t_var(1, 1))
        one = _Table(_ID, BigSeries.const(1, self.TR))
        families = [_Rows((name,), [(d, Fraction(c)) for d, c in zip((x, y, z), coefs) if c],
                          [(one, _Table(_ID, BigSeries.const(rhs, self.TR)))])
                    for name, coefs, rhs in [("difference", (1, 1, -1), 0),
                                             ("pin", (1, 0, 0), 2), ("sum", (1, 1, 1), 8)]]
        result = _march(families, {}, TheoryData.rank1(self.TR).all_vars(), 2, self.TR)
        Z = mono_from_factors([(s_var(0), 1), (t_var(1, 1), 1)])
        assert self.calls == [[({self.Y: 1, Z: -1}, -2, ("difference", ())),
                               ({self.Y: 1, Z: 1}, 6, ("sum", ()))]]
        assert result.series.terms == {(0, self.X): 2, (0, self.Y): 2, (0, Z): 4}


class TestOpenSolver:
    def test_validates(self, f0, f0o, theory8):
        report = validate_open_genus0(f0, f0o, theory8)
        assert report.all_zero

    def test_free_coefficients(self, open_solve):
        assert set(open_solve.free) == {
            ((t_var(1, a), 1),) for a in (1, 2, 3)
        } | {((s_var(a), 1),) for a in (1, 2, 3)}

    def test_zero_seed_rejected(self, f0):
        with pytest.raises(SeedError):
            solve_open_order_by_order(f0, JetPoly.zero(JT), TH)

    def test_inconsistent_closed_data_has_no_solution(self):
        """A t1_0^2 t1_1 term breaks the closed TRR; the open solve must say where."""
        tr = Truncation.of(5, 1)
        th = TheoryData.rank1(tr)
        jt = tr.jet()
        v = JetPoly.var(vvar(1, 0), jt)
        phi = JetPoly.var(phivar(0), jt)
        f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), th).series
        bad = mono_from_factors([(t_var(1, 0), 2), (t_var(1, 1), 1)])
        f0 = f0 + BigSeries.from_coeffs({bad: Fraction(1)}, tr, rel=f0.rel)
        with pytest.raises(NoSolutionError) as err:
            solve_open_order_by_order(f0, v * phi + phi * phi * phi * Fraction(1, 6), th)
        assert err.value.label == ("open_trr_t", (1, 0, s_var(0)), ((t_var(1, 1), 1),))
        assert err.value.weight == 2  # the weight of the unknown t1_1^2 s_0

    def test_idempotence(self, f0o, open_seed, theory8):
        from ottr.bigphase import restrict_small

        assert restrict_small(f0o, theory8).terms == open_seed.terms


class TestOpenValidation:
    def test_each_partial_derivative_computed_once(self, monkeypatch):
        """Each value takes each first partial once, however many checks read
        it: the loop `partial` never sees one (value, variable) pair twice."""
        import ottr.algebra as algebra
        from ottr.genus1 import extract_go, f1o_closed_form
        from ottr.laxpde import linear_evolution_residual, pst_generate

        loop = algebra.partial
        taken, alive = [], []

        def counting(series, var):
            alive.append(series)  # keeps every id in `taken` unique
            taken.append((id(series), var))
            return loop(series, var)

        monkeypatch.setattr(algebra, "partial", counting)
        theory = TheoryData.rank1(Truncation.of(4, 1))
        pst = pst_generate(theory)
        assert validate_open_genus0(pst.f0, pst.f0o, theory).all_zero
        assert validate_closed_genus0(pst.f0, theory).all_zero
        assert linear_evolution_residual(pst.f0, pst.f0o, pst.f1o, theory).all_zero
        go = extract_go(pst.f1o, theory)
        assert poly_eq(f1o_closed_form(pst.f0, pst.f0o, go, theory), pst.f1o)
        assert taken and len(set(taken)) == len(taken)

    def test_zero_open_potential_string_residual(self, f0, theory8):
        report = validate_open_genus0(f0, BigSeries.zero(TR), theory8)
        res = report.entry("open_string").residual
        assert res == BigSeries.var(s_var(0), TR)

    def test_normalization_entry(self, f0, f0o, theory8):
        report = validate_open_genus0(f0, f0o, theory8)
        assert report.entry("normalization").is_zero

    def test_seed_constraint_from_open_string(self, f0o, theory8):
        from ottr.bigphase import restrict_small

        seed = restrict_small(f0o, theory8)
        assert partial(seed, vvar(1, 0)).terms == jphi().terms


class TestTwoPoint:
    def test_omega_witten_00(self, f0, theory8):
        assert poly_eq(omega(f0, 1, 0, 1, 0, theory8), jvar())

    def test_omega_symmetry(self, f0, theory8):
        for (a, b) in [(0, 1), (1, 2), (0, 3)]:
            assert poly_eq(omega(f0, 1, a, 1, b, theory8),
                           omega(f0, 1, b, 1, a, theory8))

    def test_omega_zero_potential(self, theory8):
        assert omega(BigSeries.zero(TR), 1, 0, 1, 0, theory8).is_zero()

    def test_gamma_delta_seed_values(self, f0o, theory8):
        assert poly_eq(gamma(f0o, 1, 0, theory8), jphi())
        expect = jvar() + jphi() * jphi() * Fraction(1, 2)
        assert poly_eq(delta(f0o, 0, theory8), expect)

    def test_gamma_delta_zero(self, theory8):
        assert gamma(BigSeries.zero(TR), 1, 0, theory8).is_zero()
        assert delta(BigSeries.zero(TR), 0, theory8).is_zero()

    def test_window_enforced(self, f0, theory8):
        with pytest.raises(IndexError):
            omega(f0, 1, 4, 1, 0, theory8)


class TestHierarchy:
    def test_kdv_flow(self, f0, theory8):
        flow = principal_flow(f0, 1, 1, theory8)[0]
        assert poly_eq(flow, jvar() * jvar(1, 1))

    def test_unit_direction_flow(self, f0, theory8):
        flow = principal_flow(f0, 1, 0, theory8)[0]
        assert poly_eq(flow, jvar(1, 1))

    def test_window_error(self, f0, theory8):
        with pytest.raises(IndexError):
            principal_flow(f0, 1, 4, theory8)

    def test_s_flow_of_v_vanishes(self, f0, f0o, theory8):
        flows = extended_flows(f0, f0o, theory8, s_index=0)
        assert all(p.is_zero() for p in flows.v)

    def test_phi_s0_flow(self, f0, f0o, theory8):
        flows = extended_flows(f0, f0o, theory8, s_index=0)
        expect = jvar(1, 1) + jphi() * jphi(1)
        assert poly_eq(flows.phi, expect)

    def test_zero_open_potential(self, f0, theory8):
        flows = extended_flows(f0, BigSeries.zero(TR), theory8, s_index=1)
        assert flows.phi.is_zero()

    def test_vtop_solves_principal_hierarchy(self, f0, theory8):
        sol = vtop(f0, theory8)
        for b in range(theory8.trunc.level_max + 1):
            rhs = eval_jetpoly(principal_flow(f0, 1, b, theory8)[0],
                               sol, None, theory8)
            lhs = partial(sol[0], t_var(1, b))
            assert poly_eq(lhs, rhs), b

    def test_solution_pair_solves_extended_hierarchy(self, f0, f0o, theory8):
        sol_v = vtop(f0, theory8)
        sol_phi = phitop(f0o, theory8)
        for b in range(theory8.trunc.level_max + 1):
            tf = extended_flows(f0, f0o, theory8, t_index=(1, b))
            assert poly_eq(partial(sol_phi, t_var(1, b)),
                           eval_jetpoly(tf.phi, sol_v, sol_phi, theory8))
            sf = extended_flows(f0, f0o, theory8, s_index=b)
            assert poly_eq(partial(sol_phi, s_var(b)),
                           eval_jetpoly(sf.phi, sol_v, sol_phi, theory8))
            assert partial(sol_v[0], s_var(b)).is_zero()


class TestOpenRecovery:
    def test_gamma_delta_recover_derivatives(self, f0, f0o, theory8):
        sol_v = vtop(f0, theory8)
        sol_phi = phitop(f0o, theory8)
        table = two_point_table(f0, f0o, theory8)
        for a in range(theory8.trunc.level_max + 1):
            assert poly_eq(eval_jetpoly(table.gamma[(1, a)], sol_v, sol_phi, theory8),
                           partial(f0o, t_var(1, a)))
            assert poly_eq(eval_jetpoly(table.delta[a], sol_v, sol_phi, theory8),
                           partial(f0o, s_var(a)))

    def test_homogeneity_of_tables(self, f0, f0o, theory8):
        from ottr.algebra import standard_degree

        table = two_point_table(f0, f0o, theory8)
        idx = [(1, a) for a in range(theory8.trunc.level_max + 1)]
        for poly in [omega(f0, *i, *j, theory8) for i in idx for j in idx] \
                + list(table.gamma.values()) + list(table.delta.values()):
            assert set(standard_degree(poly)) <= {0}

    def test_table_holds_the_level_zero_two_point_functions(self, f0, f0o, theory8):
        table = two_point_table(f0, f0o, theory8)
        levels = range(theory8.trunc.level_max + 1)
        assert set(table.omega) == {(1, 0, 1, a) for a in levels}
        for a in levels:
            assert table.omega[1, 0, 1, a] == omega(f0, 1, a, 1, 0, theory8)
