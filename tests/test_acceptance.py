"""Acceptance suite: every criterion at its stated tolerance (exact equality).

Each test prints one pass/fail line; run with `pytest -s tests/test_acceptance.py`
to see them.  The main window is degree 8, level bound 3, rank 1, plus one
rank-2 direct-sum case; the Lax cross-validation runs at degree 6, level
bound 2.
"""

import random
import subprocess
import sys
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
    principal_flow,
    solve_open_order_by_order,
    validate_closed_genus0,
    validate_open_genus0,
)
from ottr.genus1 import (
    extract_go,
    f1_closed_form,
    f1o_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)
from ottr.laxpde import (
    EvolutionSystem,
    linear_evolution_residual,
    pst_generate,
    qpoly,
    qpoly_expansion_residual,
    qpoly_truncation,
)
from ottr.serialize import emit, parse

from monomials import monomials_up_to


def _report(n: int, ok: bool, text: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:2d}] {status} - {text}")
    assert ok, f"criterion {n}: {text}"


JT8 = Truncation.of(8, 3).jet()


def _phi():
    return JetPoly.var(phivar(0), JT8)


def _v():
    return JetPoly.var(vvar(1, 0), JT8)


def test_criterion_1_closed_genus0_axioms(f0, theory8):
    report = validate_closed_genus0(f0, theory8)
    _report(1, report.all_zero,
            "closed genus-0 axioms hold exactly for the rank-1 cubic seed")


def test_criterion_2_kdv_anchor(f0, theory8):
    flow_t1 = principal_flow(f0, 1, 1, theory8)[0]
    v, vx = _v(), JetPoly.var(vvar(1, 1), JT8)
    ok = poly_eq(flow_t1, v * vx)
    flow_unit = principal_flow(f0, 1, 0, theory8)[0]
    ok = ok and poly_eq(flow_unit, vx)
    _report(2, ok, "dispersionless KdV flow v*v_x and unit-direction flow v_x")


def test_criterion_3_open_genus0_axioms(f0, f0o, theory8):
    report = validate_open_genus0(f0, f0o, theory8)
    ok = report.all_zero and report.entry("normalization").is_zero
    _report(3, ok, "open genus-0 axioms and boundary normalization hold exactly")


def _go_instances():
    phi, v = _phi(), _v()
    rng = random.Random(20260811)
    rand = JetPoly.zero(JT8)
    for factors in [(), ((vvar(1, 0), 1),), ((phivar(0), 1),), ((vvar(1, 0), 2),),
                    ((vvar(1, 0), 1), (phivar(0), 1)), ((phivar(0), 2),),
                    ((vvar(1, 0), 3),), ((vvar(1, 0), 2), (phivar(0), 1)),
                    ((vvar(1, 0), 1), (phivar(0), 2)), ((phivar(0), 3),)]:
        rand = rand + JetPoly(
            {(0, mono_from_factors(factors)): Fraction(rng.randint(-6, 6),
                                                       rng.randint(1, 4))}, JT8)
    return [("0", JetPoly.zero(JT8)),
            ("phi^3/6", phi * phi * phi * Fraction(1, 6)),
            ("v*phi", v * phi),
            ("random deg<=3", rand)]


def test_criterion_4_genus1_two_constructions_agree(f0, f0o, theory8):
    ok = True
    for name, go in _go_instances():
        solved = solve_f1o(f0, f0o, go, theory8)
        formula = f1o_closed_form(f0, f0o, go, theory8)
        ok = ok and poly_eq(solved, formula)
    _report(4, ok, "order-by-order solve equals the closed form for 4 initial data")


def test_criterion_5_genus1_relations_hold(f0, f0o, theory8):
    ok = True
    for name, go in _go_instances()[:2]:
        for f1o in (solve_f1o(f0, f0o, go, theory8),
                    f1o_closed_form(f0, f0o, go, theory8)):
            ok = ok and validate_open_genus1(f0, f0o, f1o, theory8).all_zero
    _report(5, ok, "both genus-1 constructions satisfy the open recursion relations")


def test_criterion_6_closed_genus1(f0, theory8):
    f1 = f1_closed_form(f0, JetPoly.zero(JT8), theory8)
    ok = f1.coefficient(((t_var(1, 1), 1),)) == Fraction(1, 24)
    ok = ok and validate_closed_genus1(f0, f1, theory8).all_zero
    tr = theory8.trunc
    th2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], tr)
    f0_pair = relabel_component(f0, 1, tr) + relabel_component(f0, 2, tr)
    f1_pair = f1_closed_form(f0_pair, JetPoly.zero(JT8), th2)
    ok = ok and validate_closed_genus1(f0_pair, f1_pair, th2).all_zero
    _report(6, ok, "closed genus-1 log-det formula validates (rank 1 and rank-2 sum), "
            "t1 coefficient 1/24")


def test_criterion_7_q_machinery():
    ok = qpoly(0) == JetPoly.const(1, qpoly_truncation(0))
    tr2 = qpoly_truncation(2)
    f1, f2 = JetPoly.var((2, 0, 1), tr2), JetPoly.var((2, 0, 2), tr2)
    ok = ok and qpoly(2) == f1 * f1 + JetPoly.eps(tr2) * f2
    tr3 = qpoly_truncation(3)
    f1, f2, f3 = (JetPoly.var((2, 0, j), tr3) for j in (1, 2, 3))
    eps = JetPoly.eps(tr3)
    ok = ok and qpoly(3) == f1 * f1 * f1 + 3 * eps * f1 * f2 + eps * eps * f3
    for i in range(11):
        res = qpoly_expansion_residual(i)
        ok = ok and res.eps_slice(0).is_zero() and res.eps_slice(1).is_zero()
    # the defining exponential identity, checked symbolically for i <= 6
    from test_laxpde import test_exponential_conjugation_identity
    test_exponential_conjugation_identity()
    _report(7, ok, "Q recursion: frozen values, eps expansion, exponential identity")


def test_criterion_8_evolution_system(f0, f0o, theory8):
    ok = True
    for name, go in _go_instances()[:2]:
        f1o = f1o_closed_form(f0, f0o, go, theory8)
        ok = ok and linear_evolution_residual(f0, f0o, f1o, theory8, go).all_zero
    # negative test: every single-coefficient perturbation inside the
    # detectable window (degree <= 6) moves some residual
    go = JetPoly.zero(JT8)
    f1o = f1o_closed_form(f0, f0o, go, theory8)
    system = EvolutionSystem.build(f0, f0o, f1o, theory8, go)
    undetected = []
    for mono in monomials_up_to(theory8.all_vars(), 6):
        if not mono:
            continue
        if system.perturbation_residual(mono).is_zero():
            undetected.append(mono)
    ok = ok and not undetected
    ok = ok and not system.perturbation_residual(((t_var(1, 1), 1),)).is_zero()
    _report(8, ok, "first-order evolution residuals vanish; all 3002 in-window "
            "single-coefficient perturbations are detected")


def test_criterion_9_lax_cross_validation():
    theory6 = TheoryData.rank1(Truncation.of(6, 2))
    pst = pst_generate(theory6)
    jt = theory6.trunc.jet()
    v, phi = JetPoly.var(vvar(1, 0), jt), JetPoly.var(phivar(0), jt)
    solver = solve_open_order_by_order(
        pst.f0, v * phi + phi * phi * phi * Fraction(1, 6), theory6).series
    ok = pst.report.all_zero
    ok = ok and poly_eq(pst.f0o, solver)
    go = extract_go(pst.f1o, theory6)
    ok = ok and poly_eq(pst.f1o, f1o_closed_form(pst.f0, pst.f0o, go, theory6))
    ok = ok and validate_open_genus0(pst.f0, pst.f0o, theory6).all_zero
    ok = ok and validate_open_genus1(pst.f0, pst.f0o, pst.f1o, theory6).all_zero
    _report(9, ok, "Lax flows agree with the axiomatic solver; extracted initial "
            "data round-trips (degree-6 window)")


def test_criterion_10_infrastructure(f0, theory8, tmp_path):
    text = emit(f0, theory8)
    back, theory_back = parse(text)
    ok = emit(back, theory_back) == text
    shuffled = BigSeries(dict(reversed(list(f0.terms.items()))), theory8.trunc,
                         f0.rel, _checked=True)
    ok = ok and emit(shuffled, theory8) == text

    gen = ["gen-example", "open-rank1", "--degree", "5", "--amax", "1"]
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        proc = subprocess.run([sys.executable, "-m", "ottr.cli"] + gen
                              + ["--outdir", str(outdir)],
                              capture_output=True, text=True)
        ok = ok and proc.returncode == 0
        outs.append((outdir / "f0.ottr").read_bytes())
    ok = ok and outs[0] == outs[1]

    run = lambda *a: subprocess.run([sys.executable, "-m", "ottr.cli"] + list(a),
                                    capture_output=True, text=True).returncode
    ok = ok and run("validate-genus0", str(tmp_path / "a" / "f0.ottr")) == 0
    bad = (tmp_path / "a" / "f0.ottr").read_text().replace(
        "term 1/6 eps=0 vars=t:1:0:3\n", "term 1/5 eps=0 vars=t:1:0:3\n", 1)
    (tmp_path / "corrupt.ottr").write_text(bad)
    ok = ok and run("validate-genus0", str(tmp_path / "corrupt.ottr")) == 1
    (tmp_path / "junk.ottr").write_text("junk\n")
    ok = ok and run("validate-genus0", str(tmp_path / "junk.ottr")) == 2
    _report(10, ok, "round-trip byte identity, deterministic output, CLI exit codes")
