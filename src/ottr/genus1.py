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

from .algebra import JetPoly
from .bigphase import (
    BigSeries,
    TheoryData,
    eval_jetpoly,
    partial,
    partial_many,
    phitop,
    restrict_small,
    s_var,
    series_log,
    t11_partial,
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
    eta_contracted_hessian,
)


def apply_trr1_t(f: BigSeries, alpha: int, a: int, f0: BigSeries,
                 f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """The t-family genus-1 recursion operator applied to a series.

    Raising derivative minus metric transport minus boundary transport; it
    annihilates every component of the distinguished solutions.
    """
    if a + 1 > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    out = partial(f, t_var(alpha, a + 1))
    raised = eta_contracted_hessian(f0, alpha, a, theory)
    for nu in range(1, theory.n + 1):
        out = out - raised[nu - 1] * partial(f, t_var(nu, 0))
    out = out - partial(f0o, t_var(alpha, a)) * partial(f, s_var(0))
    return out


def apply_trr1_s(f: BigSeries, a: int, f0o: BigSeries,
                 theory: TheoryData) -> BigSeries:
    """The s-family genus-1 recursion operator applied to a series."""
    if a + 1 > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    return partial(f, s_var(a + 1)) - partial(f0o, s_var(a)) * partial(f, s_var(0))


def validate_open_genus1(f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
                         theory: TheoryData) -> ResidualReport:
    """Residuals of the open genus-1 recursion relations over the window."""
    amax = theory.trunc.level_max
    report = ResidualReport()
    for alpha in range(1, theory.n + 1):
        for a in range(amax):
            res = (apply_trr1_t(f1o, alpha, a, f0, f0o, theory)
                   - partial_many(f0o, [t_var(alpha, a), s_var(0)]) * Fraction(1, 2))
            report.add("open_trr1_t", (alpha, a), res)
    for a in range(amax):
        res = (apply_trr1_s(f1o, a, f0o, theory)
               - partial_many(f0o, [s_var(a), s_var(0)]) * Fraction(1, 2))
        report.add("open_trr1_s", (a,), res)
    report.checked["open_trr1_t"] = f"alpha<= {theory.n}, a<= {amax - 1}"
    report.checked["open_trr1_s"] = f"a<= {amax - 1}"
    return report


def boundary_pairing(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """d^2 F0o / dt11_0 ds_0, the series whose log drives the closed form."""
    return t11_partial(partial(f0o, s_var(0)), 0, theory)


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


def solve_f1o(f0: BigSeries, f0o: BigSeries, go: JetPoly, theory: TheoryData,
              *, validate: bool = True) -> BigSeries:
    """Order-by-order solve of the open genus-1 system from initial data Go.

    Marches in descendent weight; every weight-w coefficient is pinned by a
    raising derivative whose right-hand side only involves lower weights.
    Inconsistent duplicate determinations raise NoSolutionError.
    """
    tr = theory.trunc
    dmax, amax = tr.deg_max, tr.level_max
    # the right-hand sides read one extra degree of the genus-0 data, so the
    # output window sits one below the narrowest trusted input window
    relout = min(rel for rel in (dmax, f0.rel, f0o.rel) if rel is not None) - 1
    known = _seed_coeffs(go, theory, allow_phi=True)
    nus = range(1, theory.n + 1)
    s0 = s_var(0)
    unit = _Table(_ID, BigSeries.const(1, tr))
    g1t = [_Table([((t_var(nu, 0),), Fraction(1))]) for nu in nus]
    g1s = _Table([((s0,), Fraction(1))])
    families = []
    for alpha in nus:
        for a in range(amax):
            x = t_var(alpha, a)
            families.append(_Rows(
                ("open_trr1_t", (alpha, a)), [((t_var(alpha, a + 1),), Fraction(1))],
                [(_Table(_hessian_specs(alpha, a, nu, theory), f0), g1t[nu - 1])
                 for nu in nus]
                + [(_Table([((x,), Fraction(1))], f0o), g1s),
                   (_Table([((x, s0), Fraction(1, 2))], f0o), unit)]))
    for a in range(amax):
        x = s_var(a)
        families.append(_Rows(
            ("open_trr1_s", (a,)), [((s_var(a + 1),), Fraction(1))],
            [(_Table([((x,), Fraction(1))], f0o), g1s),
             (_Table([((x, s0), Fraction(1, 2))], f0o), unit)]))
    _march(families, known, theory.all_vars(), relout, amax)
    series = BigSeries.from_coeffs(known, tr, rel=relout)
    if validate:
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

def hessian_cube(f0: BigSeries, theory: TheoryData) -> list[list[BigSeries]]:
    """The matrix d^3F0/dt11_0 dt{alpha}_0 dt{beta}_0 of third derivatives."""
    base = t11_partial(f0, 0, theory)
    out = []
    for alpha in range(1, theory.n + 1):
        row = []
        for beta in range(1, theory.n + 1):
            row.append(partial_many(base, [t_var(alpha, 0), t_var(beta, 0)]))
        out.append(row)
    return out


def _det(matrix: list[list[BigSeries]], trunc) -> BigSeries:
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    acc = None
    for j in range(n):
        minor = [[matrix[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = matrix[0][j] * _det(minor, trunc)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def f1_closed_form(f0: BigSeries, g: JetPoly, theory: TheoryData) -> BigSeries:
    """Closed genus-1 potential: (1/24) log det of the raised third-derivative
    matrix plus the initial function evaluated along the solution."""
    m = hessian_cube(f0, theory)
    raised = []
    for alpha in range(1, theory.n + 1):
        row = []
        for beta in range(1, theory.n + 1):
            acc = BigSeries.zero(f0.trunc, None if f0.rel is None else f0.rel - 3)
            for mu in range(1, theory.n + 1):
                coef = theory.eta_inv[alpha - 1][mu - 1]
                if coef:
                    acc = acc + m[mu - 1][beta - 1] * coef
            row.append(acc)
        raised.append(row)
    det = _det(raised, f0.trunc)
    if det.constant_term() != 1:
        raise ValueError("det of the raised third-derivative matrix must have "
                         "constant term 1; the closed potential is invalid")
    out = series_log(det) * Fraction(1, 24)
    if not g.is_zero():
        out = out + eval_jetpoly(g, vtop(f0, theory), None, theory)
    return out


def validate_closed_genus1(f0: BigSeries, f1: BigSeries,
                           theory: TheoryData) -> ResidualReport:
    """Residuals of the closed genus-1 recursion relations."""
    amax = theory.trunc.level_max
    report = ResidualReport()
    for alpha in range(1, theory.n + 1):
        for a in range(amax):
            raised = eta_contracted_hessian(f0, alpha, a, theory)
            res = partial(f1, t_var(alpha, a + 1))
            for nu in range(1, theory.n + 1):
                res = res - raised[nu - 1] * partial(f1, t_var(nu, 0))
            third = BigSeries.zero(f0.trunc)
            for mu in range(1, theory.n + 1):
                for nu in range(1, theory.n + 1):
                    coef = theory.eta_inv[mu - 1][nu - 1]
                    if coef:
                        third = third + partial_many(
                            f0, [t_var(mu, 0), t_var(nu, 0), t_var(alpha, a)]) * coef
            res = res - third * Fraction(1, 24)
            report.add("trr1", (alpha, a), res)
    report.checked["trr1"] = f"alpha<= {theory.n}, a<= {amax - 1}"
    return report
