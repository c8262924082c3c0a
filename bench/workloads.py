"""The benchmark's workloads: fixed step sequences with known answers.

A step is one in-process ``ottr.cli.main(argv)`` call, or a call into the
public API where the CLI has no verb.  Each step names the exit code and the
verdict text it must produce and the files it writes; the runner checks the
SHA-256 of every written file against ``reference.json``.  The seed only
chooses inputs (the genus-1 initial data, which coefficient is perturbed and
by how much); the windows are fixed, so the work per run does not depend on
it.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

FIXTURES = ("f0", "f0o", "f1o", "f1")
GO_CHOICES = ("phi3", "vphi")
PASS = "# overall: PASS"
FAIL = "# overall: FAIL"
EQUAL = "equal on the shared reliable window"
DIFFER = "values differ"
INCONSISTENT = "internal inconsistency"

ANTIDIAGONAL = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
WDVV_BASE = ((Fraction(1, 2), (2, 0, 1)), (Fraction(1, 2), (1, 2, 0)))

class Rank3Solve(NamedTuple):
    """A rank-3 closed solve from a small-phase-space seed, then validation."""

    stem: str
    eta: tuple
    avec: tuple
    degree: int
    amax: int
    seed: tuple  # (coefficient, exponents of v1, v2, v3) per term
    rc: int  # 0: solves and validates; 3: NoSolutionError


RANK3_SOLVES = (
    Rank3Solve("frobenius", IDENTITY, (1, 1, 1), 5, 2,
               ((Fraction(1, 6), (3, 0, 0)), (Fraction(1, 6), (0, 3, 0)),
                (Fraction(1, 6), (0, 0, 3))), 0),
    Rank3Solve("wdvv_t2", ANTIDIAGONAL, (1, 0, 0), 6, 2,
               WDVV_BASE + ((Fraction(1), (0, 4, 0)),), 0),
    Rank3Solve("wdvv_t3", ANTIDIAGONAL, (1, 0, 0), 6, 2,
               WDVV_BASE + ((Fraction(1), (0, 0, 4)),), 3),
)

# build-operators at level bound 3; initial data vphi makes the interior
# operators take x-derivatives of the two-point functions (phi3 would not).
OPERATOR_FILES = tuple(f"ops/Lint_1_{a}.ottr" for a in range(4)) + tuple(
    f"ops/Lboun_{a}.ottr" for a in range(4))

WHY = {
    "generate": "solver-heavy: open/closed/genus-1 solvers at D8/A3 plus three "
                "rank-3 closed solves, so a solver rewrite and any rank-3 "
                "regression it causes both show",
    "verify": "checker-heavy with no solver: D11/A3 validators, genus-1 formula, "
              "operator build and evolution residuals, dominated by BigSeries "
              "products and partials, so a kernel change shows and a solver "
              "change does not",
    "lax": "pseudodifferential calculus: gen-pst at D6/A2 cross-checked against "
           "the axiomatic solver and the genus-1 closed form, many small "
           "eps-sliced products and the x-derivative tower",
}


@dataclass
class Ottr:
    """The ottr modules, looked up at call time so tracing patches apply."""

    algebra: object
    bigphase: object
    cli: object
    genus0: object
    genus1: object
    serialize: object


@dataclass
class Step:
    label: str
    action: Callable[[], tuple[int, str]]
    rc: int
    verdict: str
    outputs: tuple[str, ...] = ()


def run_cli(ottr: Ottr, *argv) -> tuple[int, str]:
    """Run one CLI verb in-process; returns (exit code, stdout + stderr)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            rc = ottr.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def perturb_term(text: str, rng: random.Random) -> str:
    """Add a nonzero rational to one seeded coefficient of a series file.

    Works on the text, so the program under test only sees the result.  The
    term keeps its position, and the coefficient stays nonzero and in lowest
    terms, so the file stays canonical.
    """
    lines = text.split("\n")
    term_rows = [i for i, line in enumerate(lines) if line.startswith("term ")]
    row = term_rows[rng.randrange(len(term_rows))]
    delta = Fraction(rng.randint(1, 9), rng.randint(2, 11)) * rng.choice((1, -1))
    _term, coef, rest = lines[row].split(" ", 2)
    new = Fraction(coef) + delta
    if not new:
        new += delta
    lines[row] = f"term {new} {rest}"
    return "\n".join(lines)


class Workload:
    """Base: ``prepare`` makes seeded inputs once, ``steps`` is one run."""

    name = ""

    def __init__(self, ottr: Ottr, fixtures: Path, work: Path, seed: int):
        self.ottr = ottr
        self.fx = {name: fixtures / f"{name}.ottr" for name in FIXTURES}
        self.inputs = work / "in"
        self.out = work / "out"
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def cli(self, *argv) -> Callable[[], tuple[int, str]]:
        return lambda: run_cli(self.ottr, *argv)


class Generate(Workload):
    name = "generate"

    def prepare(self) -> None:
        super().prepare()
        self.go = self.rng.choice(GO_CHOICES)

    def steps(self) -> list[Step]:
        d = self.out / f"gen-{self.go}"
        rel = f"gen-{self.go}"
        steps = [
            Step("gen-example genus1-rank1 D8/A3",
                 self.cli("gen-example", "genus1-rank1", "--degree", 8, "--amax", 3,
                          "--go", self.go, "--outdir", d),
                 0, "wrote", tuple(f"{rel}/{n}.ottr" for n in FIXTURES)),
            Step("derive-genus1 --method both",
                 self.cli("derive-genus1", "--f0", d / "f0.ottr", "--f0o",
                          d / "f0o.ottr", "--go", self.go, "--method", "both",
                          "-o", d / "f1o_both.ottr"),
                 0, "solver and closed form agree", (f"{rel}/f1o_both.ottr",)),
        ]
        for solve in RANK3_SOLVES:
            outputs = ((f"rank3/{solve.stem}.ottr", f"rank3/{solve.stem}.report.ottr")
                       if solve.rc == 0 else ())
            steps.append(Step(f"rank-3 closed solve {solve.stem}",
                              lambda solve=solve: self._rank3(solve), solve.rc,
                              PASS if solve.rc == 0 else INCONSISTENT, outputs))
        return steps

    def _rank3(self, solve: Rank3Solve) -> tuple[int, str]:
        alg, bp, g0 = self.ottr.algebra, self.ottr.bigphase, self.ottr.genus0
        tr = bp.Truncation.of(solve.degree, solve.amax)
        theory = bp.TheoryData.build(3, [list(r) for r in solve.eta], list(solve.avec), tr)
        jt = tr.jet()
        v = [alg.JetPoly.var(alg.vvar(i, 0), jt) for i in (1, 2, 3)]
        seed = alg.JetPoly.zero(jt)
        for coef, exps in solve.seed:
            term = alg.JetPoly.const(coef, jt)
            for var, e in zip(v, exps):
                for _ in range(e):
                    term = term * var
            seed = seed + term
        try:
            result = g0.solve_closed_order_by_order(seed, theory)
        except g0.NoSolutionError as exc:
            return 3, f"{INCONSISTENT}: {exc}"
        report = g0.validate_closed_genus0(result.series, theory)
        d = self.out / "rank3"
        d.mkdir(parents=True, exist_ok=True)
        self.ottr.serialize.dump(result.series, theory, d / f"{solve.stem}.ottr")
        self.ottr.serialize.dump(report, theory, d / f"{solve.stem}.report.ottr")
        return (0 if report.all_zero else 1), report.summary()


class Verify(Workload):
    name = "verify"

    def prepare(self) -> None:
        super().prepare()
        for stem in ("f0o", "f1o"):
            text = self.fx[stem].read_text(encoding="ascii")
            (self.inputs / f"{stem}_perturbed.ottr").write_text(
                perturb_term(text, self.rng), encoding="ascii")

    def steps(self) -> list[Step]:
        fx, o, i = self.fx, self.out, self.inputs
        return [
            Step("validate-genus0 f0",
                 self.cli("validate-genus0", fx["f0"], "--out", o / "g0.report.ottr"),
                 0, PASS, ("g0.report.ottr",)),
            Step("validate-open f0 f0o",
                 self.cli("validate-open", fx["f0"], fx["f0o"],
                          "--out", o / "open.report.ottr"),
                 0, PASS, ("open.report.ottr",)),
            Step("derive-genus1 --method formula",
                 self.cli("derive-genus1", "--f0", fx["f0"], "--f0o", fx["f0o"],
                          "--go", "phi3", "--method", "formula", "-o", o / "f1o.ottr"),
                 0, "wrote", ("f1o.ottr",)),
            Step("compare derived f1o with stored f1o",
                 self.cli("compare", o / "f1o.ottr", fx["f1o"]), 0, EQUAL),
            Step("check-genus1 open",
                 self.cli("check-genus1", "--f0", fx["f0"], "--f0o", fx["f0o"],
                          "--f1o", fx["f1o"], "--out", o / "g1open.report.ottr"),
                 0, PASS, ("g1open.report.ottr",)),
            Step("check-genus1 closed",
                 self.cli("check-genus1", "--f0", fx["f0"], "--f1", fx["f1"],
                          "--out", o / "g1closed.report.ottr"),
                 0, PASS, ("g1closed.report.ottr",)),
            Step("build-operators --go vphi",
                 self.cli("build-operators", "--f0", fx["f0"], "--f0o", fx["f0o"],
                          "--go", "vphi", "--outdir", o / "ops"),
                 0, "wrote", OPERATOR_FILES),
            Step("check-evolution",
                 self.cli("check-evolution", "--f0", fx["f0"], "--f0o", fx["f0o"],
                          "--f1o", fx["f1o"], "--out", o / "evolution.report.ottr"),
                 0, PASS, ("evolution.report.ottr",)),
            Step("validate-open perturbed f0o",
                 self.cli("validate-open", fx["f0"], i / "f0o_perturbed.ottr"),
                 1, FAIL),
            Step("check-genus1 open perturbed f1o",
                 self.cli("check-genus1", "--f0", fx["f0"], "--f0o", fx["f0o"],
                          "--f1o", i / "f1o_perturbed.ottr"),
                 1, FAIL),
        ]


class Lax(Workload):
    name = "lax"

    def prepare(self) -> None:
        super().prepare()
        self.perturb_seed = self.rng.getrandbits(64)

    def steps(self) -> list[Step]:
        o = self.out
        pst, ax = o / "pst", o / "axiom"
        return [
            Step("gen-pst D6/A2",
                 self.cli("gen-pst", "--degree", 6, "--amax", 2, "--outdir", pst),
                 0, "wrote", tuple(f"pst/{n}.ottr"
                                   for n in ("f0", "f0o", "f1o", "flows.report"))),
            Step("gen-example open-rank1 D6/A2",
                 self.cli("gen-example", "open-rank1", "--degree", 6, "--amax", 2,
                          "--outdir", ax),
                 0, "wrote", ("axiom/f0.ottr", "axiom/f0o.ottr")),
            Step("compare Lax f0 with solver f0",
                 self.cli("compare", pst / "f0.ottr", ax / "f0.ottr"), 0, EQUAL),
            Step("compare Lax f0o with solver f0o",
                 self.cli("compare", pst / "f0o.ottr", ax / "f0o.ottr"), 0, EQUAL),
            Step("extract Go from Lax f1o", self._extract_go, 0, "extracted",
                 ("go.ottr",)),
            Step("derive-genus1 --method formula at extracted Go",
                 self.cli("derive-genus1", "--f0", pst / "f0.ottr", "--f0o",
                          pst / "f0o.ottr", "--go-file", o / "go.ottr",
                          "--method", "formula", "-o", o / "f1o_formula.ottr"),
                 0, "wrote", ("f1o_formula.ottr",)),
            Step("compare Lax f1o with closed form",
                 self.cli("compare", pst / "f1o.ottr", o / "f1o_formula.ottr"),
                 0, EQUAL),
            Step("compare perturbed Lax f0o", self._compare_perturbed, 1, DIFFER),
        ]

    def _extract_go(self) -> tuple[int, str]:
        ser = self.ottr.serialize
        f1o, theory = ser.load(self.out / "pst" / "f1o.ottr")
        go = self.ottr.genus1.extract_go(f1o, theory)
        ser.dump(go, theory, self.out / "go.ottr")
        return 0, f"extracted {go}"

    def _compare_perturbed(self) -> tuple[int, str]:
        text = (self.out / "pst" / "f0o.ottr").read_text(encoding="ascii")
        path = self.out / "f0o_perturbed.ottr"
        path.write_text(perturb_term(text, random.Random(self.perturb_seed)),
                        encoding="ascii")
        return run_cli(self.ottr, "compare", self.out / "pst" / "f0o.ottr", path)


WORKLOADS = {cls.name: cls for cls in (Generate, Verify, Lax)}
