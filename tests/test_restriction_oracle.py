"""The restriction oracle: data valid at a large window, restricted to a
smaller one, must pass every check at the smaller window, and on any data a
residual at the smaller window must equal the large one up to its window.

The files of ``gen-example genus1-rank1 --go phi3`` at D8/A3 are read back
and restricted with `restrict_window` to every window D3-D7 x Amax 0-3 and
D8 x Amax 0-2.  On each, both genus-0 validators PASS, both genus-1
validators PASS (VACUOUS at Amax 0, where no genus-1 relation has a
window), and the genus-1 closed form and solver, from the same Go = phi^3/6,
give the restricted f1o; through the CLI, `compare` takes the f1o that
``derive-genus1 --method formula`` writes at the window and tells it from
the perturbed one.

The linear evolution residual FAILs at D3/A1-A3, D4/A0-A3 and D5/A3.  That
is the known operator defect that `CHECK_EVOLUTION_GEN_PST` pins on
``gen-pst`` output: a phi power that the jet window cut away counts as an
exact zero.  Those windows are strict xfails, so a mend shows as an XPASS.

At residual level the D8/A3 data are perturbed by one coefficient of each
input (`PERTURBATIONS`), so the large residuals are nonzero.  Every entry of
a small report with a window >= 0 must `poly_eq` its large entry, restricted
to the small window, up to that window.  Two data sets are checked: every
input perturbed, and f1o alone, whose perturbation the defect also
misreads at D3/A0 (`evolution_s (0,)`, window 1), a window whose verdict
the defect leaves a PASS.  The four validators hold everywhere; the
evolution check is a strict xfail where the defect shows (`RESIDUAL_FAILS`).
"""
from fractions import Fraction

import pytest

from ottr.algebra import JetPoly, phivar, poly_eq
from ottr.bigphase import BigSeries, TheoryData, Truncation, restrict_window, s_var, t_var
from ottr.cli import main
from ottr.genus0 import validate_closed_genus0, validate_open_genus0
from ottr.genus1 import (
    f1o_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)
from ottr.laxpde import linear_evolution_residual
from ottr.serialize import dump, load

WINDOWS = [(d, a) for d in range(3, 8) for a in range(4)] + [(8, a) for a in range(3)]
EVOLUTION_FAILS = {(3, 1), (3, 2), (3, 3), (4, 0), (4, 1), (4, 2), (4, 3), (5, 3)}
DEFECT = "operator defect: a phi power cut by the jet window counts as zero"

# one monomial per input, added with coefficient 1/7
PERTURBATIONS = {"f0": ((t_var(1, 0), 2), (t_var(1, 1), 1)),
                 "f0o": ((t_var(1, 0), 1), (s_var(0), 2)),
                 "f1o": ((t_var(1, 0), 1), (s_var(0), 1)),
                 "f1": ((t_var(1, 0), 1), (t_var(1, 1), 1))}
# the inputs perturbed in each data set, and the windows where the small
# evolution residual differs from the large one
PERTURBED = {"all": tuple(PERTURBATIONS), "f1o": ("f1o",)}
RESIDUAL_FAILS = {"all": EVOLUTION_FAILS,
                  "f1o": {(3, 0), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3)}}
VALIDATORS = [
    lambda f, theory: validate_closed_genus0(f["f0"], theory),
    lambda f, theory: validate_open_genus0(f["f0"], f["f0o"], theory),
    lambda f, theory: validate_open_genus1(f["f0"], f["f0o"], f["f1o"], theory),
    lambda f, theory: validate_closed_genus1(f["f0"], f["f1"], theory)]


def _evolution(f, theory):
    return linear_evolution_residual(f["f0"], f["f0o"], f["f1o"], theory)


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


@pytest.fixture(scope="module")
def perturbed(d8a3):
    """Each data set of `PERTURBED`: its D8/A3 theory and values, and its
    large reports, by check (computed on first use)."""
    theory, values = d8a3
    sets = {}

    def get(name):
        if name not in sets:
            f = dict(values)
            for input_name in PERTURBED[name]:
                mono = PERTURBATIONS[input_name]
                f[input_name] = f[input_name] + BigSeries.from_coeffs(
                    {mono: Fraction(1, 7)}, theory.trunc)
            sets[name] = (theory, f, {check: check(f, theory)
                                      for check in VALIDATORS + [_evolution]})
        return sets[name]
    return get


def _mismatches(check, data, degree, amax):
    """The entries of check's report at the window whose residual differs
    from the large one, restricted to the window, up to the entry's window."""
    theory, f, large = data
    theory, f = _restricted((theory, f), degree, amax)
    return [(e.equation, e.indices) for e in check(f, theory).entries
            if e.window is None or e.window >= 0
            if not poly_eq(restrict_window(large[check].entry(e.equation, e.indices).residual,
                                           theory.trunc), e.residual, up_to=e.window)]


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


@pytest.mark.parametrize("degree, amax", WINDOWS)
def test_compare_takes_the_derived_f1o_and_not_the_perturbed_one(d8a3, perturbed, degree,
                                                                 amax, tmp_path):
    """Through the CLI at the window: `compare` finds the restricted f1o equal
    to the one `derive-genus1 --method formula` writes (exit 0), and the
    restricted f1o of the f1o-perturbed data different from it (exit 1)
    wherever the perturbed monomial, of degree 2, lies in the shared window.
    The closed form vouches for degree <= D - 2, so at D3 it does not, and
    `compare` finds the two equal there."""
    theory, f = _restricted(d8a3, degree, amax)
    f["bad"] = _restricted(perturbed("f1o")[:2], degree, amax)[1]["f1o"]
    path = {name: str(tmp_path / f"{name}.ottr") for name in ("f0", "f0o", "f1o", "bad", "new")}
    for name in ("f0", "f0o", "f1o", "bad"):
        dump(f[name], theory, path[name])
    assert main(["derive-genus1", "--f0", path["f0"], "--f0o", path["f0o"], "--go", "phi3",
                 "--method", "formula", "-o", path["new"]]) == 0
    assert main(["compare", path["f1o"], path["new"]]) == 0
    window = min(f["f1o"].rel, load(path["new"])[0].rel)
    assert window == degree - 2
    assert main(["compare", path["bad"], path["new"]]) == (1 if window >= 2 else 0)


@pytest.mark.parametrize("degree, amax", [
    pytest.param(d, a, marks=pytest.mark.xfail(strict=True, reason=DEFECT))
    if (d, a) in EVOLUTION_FAILS else (d, a)
    for d, a in WINDOWS])
def test_the_evolution_check_passes_on_restricted_data(d8a3, degree, amax):
    theory, f = _restricted(d8a3, degree, amax)
    assert linear_evolution_residual(f["f0"], f["f0o"], f["f1o"], theory).verdict == "PASS"


@pytest.mark.parametrize("data", PERTURBED)
@pytest.mark.parametrize("degree, amax", WINDOWS)
def test_every_validator_residual_is_the_restricted_large_one(perturbed, data, degree, amax):
    for check in VALIDATORS:
        assert _mismatches(check, perturbed(data), degree, amax) == []


@pytest.mark.parametrize("data, degree, amax", [
    pytest.param(name, d, a, marks=pytest.mark.xfail(strict=True, reason=DEFECT))
    if (d, a) in RESIDUAL_FAILS[name] else (name, d, a)
    for name in PERTURBED for d, a in WINDOWS])
def test_the_evolution_residual_is_the_restricted_large_one(perturbed, data, degree, amax):
    assert _mismatches(_evolution, perturbed(data), degree, amax) == []
