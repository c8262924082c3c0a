"""Every single-coefficient perturbation inside the window is caught.

On the D4/A2 genus1-rank1 window, each dense monomial below an input's
reliable degree is added to that input alone; the validator of the input
must then report some entry NONZERO.  Monomials no equation constrains are
skipped: the solvers' free monomials, and the constant terms of F1o and F1,
which every genus-1 relation sees only through derivatives.  The closed
genus-1 potential is reliable only to degree Dt - 3, so its sweep runs on
D7/A2.
"""

from fractions import Fraction

import pytest

from ottr.algebra import JetPoly, phivar, vvar
from ottr.bigphase import BigSeries, TheoryData, Truncation
from ottr.genus0 import (
    solve_closed_order_by_order,
    solve_open_order_by_order,
    validate_closed_genus0,
    validate_open_genus0,
)
from ottr.genus1 import (
    f1_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)
from monomials import monomials_up_to

TR = Truncation.of(4, 2)
TH = TheoryData.rank1(TR)


@pytest.fixture(scope="module")
def window():
    jt = TR.jet()
    v = JetPoly.var(vvar(1, 0), jt)
    phi = JetPoly.var(phivar(0), jt)
    closed = solve_closed_order_by_order(v * v * v * Fraction(1, 6), TH)
    opened = solve_open_order_by_order(closed.series, v * phi + phi * phi * phi * Fraction(1, 6), TH)
    f1o = solve_f1o(closed.series, opened.series, JetPoly.zero(jt), TH)
    return closed, opened, f1o


def _sweep(f: BigSeries, variables, skip, check) -> int:
    """Perturb f by each monomial below its reliable degree; return the count."""
    assert check(f).all_zero
    monos = [m for m in monomials_up_to(variables, f.rel - 1) if m not in skip]
    for m in monos:
        bumped = f + BigSeries.from_coeffs({m: Fraction(1)}, f.trunc, rel=f.rel)
        assert not check(bumped).all_zero, f"perturbation by {m} not caught"
    return len(monos)


def test_closed_genus0_catches_every_perturbation(window):
    closed, _, _ = window
    count = _sweep(closed.series, TH.t_vars(), set(closed.free),
                   lambda f0: validate_closed_genus0(f0, TH))
    assert count == 15


def test_open_genus0_catches_every_perturbation(window):
    closed, opened, _ = window
    count = _sweep(opened.series, TH.all_vars(), set(opened.free),
                   lambda f0o: validate_open_genus0(closed.series, f0o, TH))
    assert count == 80


def test_open_genus1_catches_every_perturbation(window):
    closed, opened, f1o = window
    count = _sweep(f1o, TH.all_vars(), {()},
                   lambda f: validate_open_genus1(closed.series, opened.series, f, TH))
    assert count == 27


def test_closed_genus1_catches_every_perturbation():
    theory = TheoryData.rank1(Truncation.of(7, 2))
    jt = theory.trunc.jet()
    v = JetPoly.var(vvar(1, 0), jt)
    f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory).series
    f1 = f1_closed_form(f0, JetPoly.zero(jt), theory)
    assert f1.rel == 4
    count = _sweep(f1, theory.t_vars(), {()},
                   lambda f: validate_closed_genus1(f0, f, theory))
    assert count == 19
