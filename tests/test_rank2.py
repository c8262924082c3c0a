"""Rank-2 and rank-3 runs of the generic machinery, checked against rank-1 embeddings.

These exercise the code paths a rank-1 run never touches: metric contraction
over several components and stage rows coupling more than one unknown.
"""

import hashlib
from fractions import Fraction

import pytest

from ottr.algebra import JetPoly, phivar, poly_eq, vvar
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    mono_from_factors,
    relabel_component,
    t_var,
)
from ottr.genus0 import (
    NoSolutionError,
    solve_closed_order_by_order,
    solve_open_order_by_order,
    validate_closed_genus0,
    validate_open_genus0,
)
from ottr.genus1 import f1o_closed_form, solve_f1o, validate_open_genus1
from ottr.serialize import emit

TR = Truncation.of(5, 1)
TH1 = TheoryData.rank1(TR)
TH2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], TR)
TH3 = TheoryData.build(3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [1, 0, 0], TR)
TH3_ID = TheoryData.build(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], TR)
JT = TR.jet()


def _embed_open(f, tr):
    acc = {}
    for (eps, mono), coef in f.terms.items():
        factors = [((0, 1, lv) if kind == 0 else (1, 0, lv), e)
                   for (kind, _a, lv), e in mono]
        acc[(eps, mono_from_factors(factors))] = coef
    return BigSeries(acc, tr, f.rel, _checked=True)


@pytest.fixture(scope="module")
def rank1_pair():
    v = JetPoly.var(vvar(1, 0), JT)
    phi = JetPoly.var(phivar(0), JT)
    f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), TH1).series
    f0o = solve_open_order_by_order(
        f0, v * phi + phi * phi * phi * Fraction(1, 6), TH1).series
    return f0, f0o


@pytest.fixture(scope="module")
def rank2_pair():
    v1 = JetPoly.var(vvar(1, 0), JT)
    v2 = JetPoly.var(vvar(2, 0), JT)
    phi = JetPoly.var(phivar(0), JT)
    seed = (v1 * v1 * v1 + v2 * v2 * v2) * Fraction(1, 6)
    f0 = solve_closed_order_by_order(seed, TH2).series
    f0o = solve_open_order_by_order(
        f0, v1 * phi + phi * phi * phi * Fraction(1, 6), TH2).series
    return f0, f0o


def test_closed_solver_matches_embedded_sum(rank1_pair, rank2_pair):
    f0_r1, _ = rank1_pair
    f0_r2, _ = rank2_pair
    expect = relabel_component(f0_r1, 1, TR) + relabel_component(f0_r1, 2, TR)
    assert poly_eq(f0_r2, expect)
    assert validate_closed_genus0(f0_r2, TH2).all_zero


def test_open_solver_matches_embedded_rank1(rank1_pair, rank2_pair):
    _, f0o_r1 = rank1_pair
    f0_r2, f0o_r2 = rank2_pair
    assert poly_eq(f0o_r2, _embed_open(f0o_r1, TR))
    assert validate_open_genus0(f0_r2, f0o_r2, TH2).all_zero


def test_genus1_two_paths_agree_at_rank2(rank2_pair):
    f0, f0o = rank2_pair
    phi = JetPoly.var(phivar(0), JT)
    v2 = JetPoly.var(vvar(2, 0), JT)
    go = phi * phi * Fraction(1, 2) + v2 * phi
    solved = solve_f1o(f0, f0o, go, TH2)
    formula = f1o_closed_form(f0, f0o, go, TH2)
    assert poly_eq(solved, formula)
    assert validate_open_genus1(f0, f0o, formula, TH2).all_zero


def test_antidiagonal_metric_degenerate_unit_direction():
    """Pairing off the diagonal and A = (1, 0): nothing may assume eta = id."""
    from ottr.genus1 import f1_closed_form, validate_closed_genus1

    th = TheoryData.build(2, [[0, 1], [1, 0]], [1, 0], TR)
    v1 = JetPoly.var(vvar(1, 0), JT)
    v2 = JetPoly.var(vvar(2, 0), JT)
    phi = JetPoly.var(phivar(0), JT)
    f0 = solve_closed_order_by_order(v1 * v1 * v2 * Fraction(1, 2), th).series
    assert validate_closed_genus0(f0, th).all_zero
    f0o = solve_open_order_by_order(
        f0, v1 * phi + phi * phi * phi * Fraction(1, 6), th).series
    assert validate_open_genus0(f0, f0o, th).all_zero
    go = v2 * phi + phi * phi * Fraction(1, 2)
    solved = solve_f1o(f0, f0o, go, th)
    formula = f1o_closed_form(f0, f0o, go, th)
    assert poly_eq(solved, formula)
    assert validate_open_genus1(f0, f0o, formula, th).all_zero
    f1 = f1_closed_form(f0, JetPoly.zero(JT), th)
    assert validate_closed_genus1(f0, f1, th).all_zero


def _rank3_seed(quartic_component):
    """The trivial rank-3 Frobenius seed t1^2 t3/2 + t1 t2^2/2 plus t_k^4."""
    v1, v2, v3 = (JetPoly.var(vvar(alpha, 0), JT) for alpha in (1, 2, 3))
    vk = JetPoly.var(vvar(quartic_component, 0), JT)
    return ((v1 * v1 * v3 + v1 * v2 * v2) * Fraction(1, 2)
            + vk * vk * vk * vk)


def test_rank3_inconsistent_seed_has_no_solution():
    """t3^4 breaks WDVV: the solver must report the failing trr0 row."""
    with pytest.raises(NoSolutionError) as err:
        solve_closed_order_by_order(_rank3_seed(3), TH3)
    assert err.value.label == ("trr0", (2, 0, 3, 0, 3, 0), ((t_var(2, 0), 1), (t_var(3, 0), 1)))
    assert err.value.weight == 1  # the weight of the unknown t2_0 t2_1 t3_0^3


def test_rank3_consistent_quartic_solves():
    f0 = solve_closed_order_by_order(_rank3_seed(2), TH3).series
    assert validate_closed_genus0(f0, TH3).all_zero


def test_rank3_coupled_string_rows_match_embedded_sum(rank1_pair):
    """A = (1, 1, 1): every string row couples three unknowns."""
    f0_r1, _ = rank1_pair
    v = [JetPoly.var(vvar(alpha, 0), JT) for alpha in (1, 2, 3)]
    seed = (v[0] * v[0] * v[0] + v[1] * v[1] * v[1] + v[2] * v[2] * v[2]) * Fraction(1, 6)
    f0 = solve_closed_order_by_order(seed, TH3_ID).series
    expect = sum((relabel_component(f0_r1, alpha, TR) for alpha in (2, 3)),
                 relabel_component(f0_r1, 1, TR))
    assert poly_eq(f0, expect)
    assert validate_closed_genus0(f0, TH3_ID).all_zero


# eta = diag(2, 1) has the inverse diag(1/2, 1), so the Hessian tables of the
# recursion families carry a `Fraction` scale; A = (1/2, 0) puts one in the
# string rows too.  The digests are of the emitted series and report.
NON_INTEGRAL = [
    ((1, 0), (Fraction(1, 3), Fraction(1, 2)),
     "fe7954a30571689349494337ece35375cbf121e09805cedf44d2576bcbb067de",
     "4b623ab3fff4a4f1c9f11a79cad61646139d585f1ac998207361662b710075a3"),
    ((Fraction(1, 2), 0), (Fraction(2, 3), 1),
     "8e3bc27d6e075cc19498b4ba1f1c2e15a7e3451df2767f1f842a6be28e59cd4b",
     "ece6b8d1ebbc4d78d72bfc0d4b3206ab64744f90931e3a371406e0244e22560d"),
]


@pytest.mark.parametrize("avec, coefs, series_sha, report_sha", NON_INTEGRAL)
def test_non_integral_scales_solve_and_validate(avec, coefs, series_sha, report_sha):
    """Seed c1 v1^3 + c2 v1 v2^2 + v2^4/12 at D5/A2, its unit derivative the
    metric quadratic v1^2 + v2^2/2."""
    tr = Truncation.of(5, 2)
    th = TheoryData.build(2, [[2, 0], [0, 1]], list(avec), tr)
    assert th.eta_inv[0][0] == Fraction(1, 2)
    v1, v2 = (JetPoly.var(vvar(alpha, 0), tr.jet()) for alpha in (1, 2))
    seed = v1 * v1 * v1 * coefs[0] + v1 * v2 * v2 * coefs[1] + v2 * v2 * v2 * v2 * Fraction(1, 12)
    f0 = solve_closed_order_by_order(seed, th).series
    report = validate_closed_genus0(f0, th)
    assert (len(f0.terms), len(report.entries), report.verdict) == (20, 96, "PASS")
    for value, sha in ((f0, series_sha), (report, report_sha)):
        assert hashlib.sha256(emit(value, th).encode("ascii")).hexdigest() == sha
