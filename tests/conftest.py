"""Shared fixtures: the rank-1 example potentials, solved once per session."""

import os
from fractions import Fraction
from pathlib import Path

import pytest

import ottr
from ottr.algebra import JetPoly, phivar, vvar
from ottr.bigphase import TheoryData, Truncation
from ottr.genus0 import solve_closed_order_by_order, solve_open_order_by_order


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    """CLI subprocesses import the same ottr as the tests, installed or not."""
    src = str(Path(ottr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(scope="session")
def theory8():
    return TheoryData.rank1(Truncation.of(8, 3))


@pytest.fixture(scope="session")
def witten_seed(theory8):
    v = JetPoly.var(vvar(1, 0), theory8.trunc.jet())
    return v * v * v * Fraction(1, 6)


@pytest.fixture(scope="session")
def open_seed(theory8):
    jt = theory8.trunc.jet()
    v = JetPoly.var(vvar(1, 0), jt)
    phi = JetPoly.var(phivar(0), jt)
    return v * phi + phi * phi * phi * Fraction(1, 6)


@pytest.fixture(scope="session")
def witten_solve(witten_seed, theory8):
    return solve_closed_order_by_order(witten_seed, theory8)


@pytest.fixture(scope="session")
def f0(witten_solve):
    return witten_solve.series


@pytest.fixture(scope="session")
def open_solve(f0, open_seed, theory8):
    return solve_open_order_by_order(f0, open_seed, theory8)


@pytest.fixture(scope="session")
def f0o(open_solve):
    return open_solve.series
