"""The restriction oracle: data valid at a large window, restricted to a
smaller one, must pass every check at the smaller window.

The files of ``gen-example genus1-rank1 --go phi3`` at D8/A3 are read back
and restricted with `restrict_window` to every window D3-D7 x Amax 0-3.  On
each, both genus-0 validators PASS, both genus-1 validators PASS (VACUOUS at
Amax 0, where no genus-1 relation has a window), and the genus-1 closed form
and solver, from the same Go = phi^3/6, give the restricted f1o.

The linear evolution residual FAILs at D3/A1-A3, D4/A0-A3 and D5/A3.  That
is the known operator defect that `CHECK_EVOLUTION_GEN_PST` pins on
``gen-pst`` output: a phi power that the jet window cut away counts as an
exact zero.  Those windows are strict xfails, so a mend shows as an XPASS.
"""

from fractions import Fraction

import pytest

from ottr.algebra import JetPoly, phivar, poly_eq
from ottr.bigphase import TheoryData, Truncation, restrict_window
from ottr.cli import main
from ottr.genus0 import validate_closed_genus0, validate_open_genus0
from ottr.genus1 import (
    f1o_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)
from ottr.laxpde import linear_evolution_residual
from ottr.serialize import load

WINDOWS = [(d, a) for d in range(3, 8) for a in range(4)]
EVOLUTION_FAILS = {(3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3), (5, 3)}


@pytest.fixture(scope="module")
def d8a3(tmp_path_factory):
    """The theory and the f0, f0o, f1o and f1 files of the D8/A3 example."""
    outdir = tmp_path_factory.mktemp("d8a3")
    assert main(["gen-example", "genus1-rank1", "--go", "phi3", "--degree", "8",
                 "--amax", "3", "--outdir", str(outdir)]) == 0
    values = {}
    for name in ("f0", "f0o", "f1o", "f1"):
        values[name], theory = load(outdir / f"{name}.ottr")
    return theory, values


def _restricted(d8a3, degree, amax):
    """The theory of the window and every series restricted to it, as the
    CLI's window overrides build them."""
    theory, values = d8a3
    tr = theory.trunc
    small = Truncation(degree, amax, min(tr.deg0_max, degree), tr.jet_max, tr.eps_max)
    return (TheoryData.build(theory.n, theory.eta, theory.avec, small),
            {name: restrict_window(value, small) for name, value in values.items()})


@pytest.mark.parametrize("degree, amax", WINDOWS)
def test_every_validator_passes_on_restricted_data(d8a3, degree, amax):
    theory, f = _restricted(d8a3, degree, amax)
    verdicts = [validate_closed_genus0(f["f0"], theory).verdict,
                validate_open_genus0(f["f0"], f["f0o"], theory).verdict,
                validate_open_genus1(f["f0"], f["f0o"], f["f1o"], theory).verdict,
                validate_closed_genus1(f["f0"], f["f1"], theory).verdict]
    genus1 = "VACUOUS" if amax == 0 else "PASS"
    assert verdicts == ["PASS", "PASS", genus1, genus1]


@pytest.mark.parametrize("degree, amax", WINDOWS)
def test_both_genus1_derivations_give_the_restricted_f1o(d8a3, degree, amax):
    theory, f = _restricted(d8a3, degree, amax)
    phi = JetPoly.var(phivar(0), theory.trunc.jet())
    go = phi * phi * phi * Fraction(1, 6)
    assert poly_eq(f1o_closed_form(f["f0"], f["f0o"], go, theory), f["f1o"])
    assert poly_eq(solve_f1o(f["f0"], f["f0o"], go, theory), f["f1o"])


@pytest.mark.parametrize("degree, amax", [
    pytest.param(d, a, marks=pytest.mark.xfail(
        strict=True, reason="operator defect: a phi power cut by the jet window counts as zero"))
    if (d, a) in EVOLUTION_FAILS else (d, a)
    for d, a in WINDOWS])
def test_the_evolution_check_passes_on_restricted_data(d8a3, degree, amax):
    theory, f = _restricted(d8a3, degree, amax)
    assert linear_evolution_residual(f["f0"], f["f0o"], f["f1o"], theory).verdict == "PASS"
