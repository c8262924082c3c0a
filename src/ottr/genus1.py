"""Genus-1 layer: recursion operators, solvers, closed forms, validators.

The open genus-1 potential is produced two independent ways: an order-by-order
linear solve of the first-order system built from the genus-0 pair, and the
closed form ``(1/2) log d^2F0o/dt11_0 ds_0 + Go`` evaluated along the
distinguished solutions.  Their agreement is the central exactness check of
the whole artifact.  The closed sector carries the analogous log-det formula
and its recursion-relation validator.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import JetPoly, dot
from .bigphase import (
    KIND_T,
    BigSeries,
    BigVar,
    TheoryData,
    boundary_pairing,
    eval_jetpoly,
    phitop,
    restrict_small,
    s_var,
    series_log,
    t_var,
    vtop,
)
from .genus0 import (
    NoSolutionError,
    ResidualReport,
    _ID,
    _Rows,
    _Table,
    _hessian_specs,
    _march,
    _seed_coeffs,
    _spec_monomials,
    spec_sum,
)


def _trr1_rows(x: BigVar, f0: BigSeries | None, f0o: BigSeries,
               first: dict[BigVar, _Table], theory: TheoryData, *,
               source: bool = True) -> _Rows:
    """The genus-1 recursion family raising x = t{alpha}_a or s_a by one level:

        dF/dx_+ = [sum_nu eta-raised d^2F0/dx dt{mu}_0 * dF/dt{nu}_0]
                  + dF0o/dx * dF/ds_0 + (1/2) d^2F0o/dx ds_0,

    the bracket for t-directions only, over the fed tables `first` of the
    first partials of F.  Without the source term, its residual is the
    recursion operator applied to F.
    """
    kind, alpha, level = x
    s0 = s_var(0)
    products = [(_Table(_hessian_specs(alpha, level, nu, theory), f0), first[t_var(nu, 0)])
                for nu in range(1, theory.n + 1)] if kind == KIND_T else []
    products.append((_Table([((x,), 1)], f0o), first[s0]))
    if source:
        products.append((_Table([((x, s0), Fraction(1, 2))], f0o),
                         _Table(_ID, BigSeries.const(1, theory.trunc))))
    label = ("open_trr1_t", (alpha, level)) if kind == KIND_T else ("open_trr1_s", (level,))
    return _Rows(label, [(((kind, alpha, level + 1),), 1)], products)


def _first_partials(theory: TheoryData) -> dict[BigVar, _Table]:
    return {x: _Table([((x,), 1)]) for x in theory.t_vars(0) + [s_var(0)]}


def _genus1_families(f0: BigSeries, f0o: BigSeries, theory: TheoryData) -> list[_Rows]:
    """The open genus-1 recursion relations, t-directions first."""
    first, top = _first_partials(theory), theory.trunc.level_max - 1
    return [_trr1_rows(x, f0, f0o, first, theory)
            for x in theory.t_vars(top) + theory.s_vars(top)]


def _apply_trr1(f: BigSeries, x: BigVar, f0: BigSeries | None, f0o: BigSeries,
                theory: TheoryData) -> BigSeries:
    if x[2] + 1 > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    rows = _trr1_rows(x, f0, f0o, _first_partials(theory), theory, source=False)
    return rows.residual(f, {})


def apply_trr1_t(f: BigSeries, alpha: int, a: int, f0: BigSeries,
                 f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """The t-family genus-1 recursion operator applied to a series.

    Raising derivative minus metric transport minus boundary transport; it
    annihilates every component of the distinguished solutions.
    """
    return _apply_trr1(f, t_var(alpha, a), f0, f0o, theory)


def apply_trr1_s(f: BigSeries, a: int, f0o: BigSeries,
                 theory: TheoryData) -> BigSeries:
    """The s-family genus-1 recursion operator applied to a series."""
    return _apply_trr1(f, s_var(a), None, f0o, theory)


def validate_open_genus1(f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
                         theory: TheoryData) -> ResidualReport:
    """Residuals of the open genus-1 recursion relations over the window."""
    amax = theory.trunc.level_max
    report = ResidualReport()
    report.add_rows(_genus1_families(f0, f0o, theory), f1o)
    report.checked["open_trr1_t"] = f"alpha<= {theory.n}, a<= {amax - 1}"
    report.checked["open_trr1_s"] = f"a<= {amax - 1}"
    return report


def f1o_closed_form(f0: BigSeries, f0o: BigSeries, go: JetPoly,
                    theory: TheoryData) -> BigSeries:
    """Half the log of the boundary pairing plus Go along the solutions."""
    pairing = boundary_pairing(f0o, theory)
    if pairing.constant_term() != 1:
        raise ValueError("boundary pairing must have constant term 1; "
                         "the open potential is invalid")
    out = series_log(pairing) * Fraction(1, 2)
    if not go.is_zero():
        sol_v = vtop(f0, theory)
        sol_phi = phitop(f0o, theory)
        out = out + eval_jetpoly(go, sol_v, sol_phi, theory)
    return out


def solve_f1o(f0: BigSeries, f0o: BigSeries, go: JetPoly,
              theory: TheoryData) -> BigSeries:
    """Order-by-order solve of the open genus-1 system from initial data Go.

    Marches in descendent weight; every weight-w coefficient is pinned by a
    raising derivative whose right-hand side only involves lower weights.
    Inconsistent duplicate determinations raise NoSolutionError, and so does
    a solution that fails the genus-1 relations.
    """
    tr = theory.trunc
    # the right-hand sides read one extra degree of the genus-0 data, so the
    # output window sits one below the narrowest trusted input window
    relout = min(rel for rel in (tr.deg_max, f0.rel, f0o.rel) if rel is not None) - 1
    series = _march(_genus1_families(f0, f0o, theory), _seed_coeffs(go, theory, allow_phi=True),
                    theory.all_vars(), relout, tr).series
    report = validate_open_genus1(f0, f0o, series, theory)
    if not report.all_zero:
        bad = report.failures()[0]
        raise NoSolutionError((bad.equation, bad.indices),
                              "solver output fails the genus-1 relations at "
                              f"{bad.equation} {bad.indices}")
    return series


def extract_go(f1o: BigSeries, theory: TheoryData) -> JetPoly:
    """Small-phase-space restriction of an open genus-1 potential."""
    return restrict_small(f1o, theory)


# ---------------------------------------------------------------------------
# closed sector
# ---------------------------------------------------------------------------

def _det(matrix: list[list[BigSeries]]) -> BigSeries:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    minors = [[[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
              for j in range(n)]
    return dot(BigSeries.zero(matrix[0][0].trunc),
               [(matrix[0][j], _det(minors[j]), (-1) ** j) for j in range(n)])


def f1_closed_form(f0: BigSeries, g: JetPoly, theory: TheoryData) -> BigSeries:
    """Closed genus-1 potential: (1/24) log det of the raised third-derivative
    matrix eta^{alpha mu} d^3F0/dt11_0 dt{mu}_0 dt{beta}_0 plus the initial
    function evaluated along the solution."""
    nus = range(1, theory.n + 1)
    raised = [[spec_sum(f0, _spec_monomials(
        [((t_var(g, 0), t_var(mu, 0), t_var(beta, 0)), a * theory.eta_inv[alpha - 1][mu - 1])
         for g, a in enumerate(theory.avec, 1) for mu in nus])) for beta in nus]
        for alpha in nus]
    det = _det(raised)
    if det.constant_term() != 1:
        raise ValueError("det of the raised third-derivative matrix must have "
                         "constant term 1; the closed potential is invalid")
    out = series_log(det) * Fraction(1, 24)
    if not g.is_zero():
        out = out + eval_jetpoly(g, vtop(f0, theory), None, theory)
    return out


def validate_closed_genus1(f0: BigSeries, f1: BigSeries,
                           theory: TheoryData) -> ResidualReport:
    """Residuals of the closed genus-1 recursion relations:

        dF1/dt{alpha}_{a+1} = sum_nu eta-raised d^2F0/dt{alpha}_a dt{mu}_0 * dF1/dt{nu}_0
                              + (1/24) eta^{mu nu} d^3F0/dt{mu}_0 dt{nu}_0 dt{alpha}_a.
    """
    amax = theory.trunc.level_max
    nus = range(1, theory.n + 1)
    first, unit = _first_partials(theory), _Table(_ID, BigSeries.const(1, theory.trunc))
    third = [((t_var(mu, 0), t_var(nu, 0)), theory.eta_inv[mu - 1][nu - 1] / 24)
             for mu in nus for nu in nus]
    families = [_Rows(("trr1", (alpha, a)), [((t_var(alpha, a + 1),), 1)],
                      [(_Table(_hessian_specs(alpha, a, nu, theory), f0), first[t_var(nu, 0)])
                       for nu in nus]
                      + [(_Table([(d + (t_var(alpha, a),), c) for d, c in third], f0), unit)])
                for alpha in nus for a in range(amax)]
    report = ResidualReport()
    report.add_rows(families, f1)
    report.checked["trr1"] = f"alpha<= {theory.n}, a<= {amax - 1}"
    return report
