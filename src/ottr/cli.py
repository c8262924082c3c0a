"""Command-line front end for fixture generation, validation, and reporting.

Exit codes: 0 = every checked residual is zero, 1 = some residual is
nonzero, 2 = input, output or format problem, including an input that
cannot be read, an output that cannot be written, a negative ``--degree`` or
``--amax``, files of one verb with different theory blocks, an input whose
reliable window is too small for some check to compare any coefficient, and
a check with no relation in its window, such as ``check-genus1`` at
``--amax 0`` (a report then ends ``# overall: VACUOUS``, and ``compare``
prints a ``vacuous`` line), 3 = internal inconsistency such as a solver
contradiction, 141 = standard output was closed early
(``ottr ... | head -1``); the rest of the output is dropped without a
traceback.  All verbs are deterministic: the same inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .algebra import JetPoly, JetOverflowError, phivar, poly_eq, vvar
from .bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    relabel_component,
    restrict_window,
)
from .genus0 import (
    NoSolutionError,
    SeedError,
    _seed_coeffs,
    solve_closed_order_by_order,
    solve_open_order_by_order,
    two_point_table,
    validate_closed_genus0,
    validate_open_genus0,
)
from .genus1 import (
    f1_closed_form,
    f1o_closed_form,
    solve_f1o,
    validate_closed_genus1,
    validate_open_genus1,
)
from .laxpde import (
    PstIntegrationError,
    linear_evolution_residual,
    operators,
    pst_generate,
    qpoly,
    qpoly_truncation,
)
from . import serialize
from .serialize import ParseError

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # what a shell reports for a writer killed by SIGPIPE

# The examples and the Lax generator start from the cubic seeds v^3/6 and
# phi^3/6, which a smaller degree window would truncate away.
MIN_SEED_DEGREE = 3


class CliInputError(Exception):
    pass


def _default_theory(degree: int, amax: int) -> TheoryData:
    if degree < MIN_SEED_DEGREE:
        raise CliInputError(f"--degree {degree} is too small: the cubic seed "
                            f"needs a degree window of at least {MIN_SEED_DEGREE}")
    return TheoryData.rank1(Truncation.of(degree, amax))


def _load(path: str):
    try:
        return serialize.load(path)
    except FileNotFoundError:
        raise CliInputError(f"{path}: no such file")
    except ParseError as exc:
        raise CliInputError(f"{path}: {exc}")


def _load_inputs(*paths: str, go_file: str | None = None) -> tuple[list, TheoryData]:
    """A verb's bigseries files and, last, its --go-file jetpoly if given; all
    of them must carry the theory block of the first."""
    values, theory = [], None
    for path, cls, kind in [(path, BigSeries, "bigseries") for path in paths] + (
            [(go_file, JetPoly, "jetpoly")] if go_file else []):
        value, file_theory = _load(path)
        if not isinstance(value, cls):
            raise CliInputError(f"{path}: expected a {kind} file")
        if theory is not None and file_theory != theory:
            raise CliInputError(f"{path} and {paths[0]} carry different theory blocks")
        values.append(value)
        theory = file_theory
    return values, theory


def _check_windows(args) -> None:
    """A window bound given on the command line must not be negative."""
    for option in ("degree", "amax"):
        value = getattr(args, option, None)
        if value is not None and value < 0:
            raise CliInputError(f"--{option} {value} is negative")


def _shrink(value: BigSeries, theory: TheoryData, args) -> tuple[BigSeries, TheoryData]:
    degree = getattr(args, "degree", None)
    amax = getattr(args, "amax", None)
    if degree is None and amax is None:
        return value, theory
    tr = theory.trunc
    new_deg = tr.deg_max if degree is None else degree
    new_amax = tr.level_max if amax is None else amax
    if new_deg > tr.deg_max or new_amax > tr.level_max:
        raise CliInputError("truncation overrides may only shrink the window")
    new_tr = Truncation(new_deg, new_amax, min(tr.deg0_max, new_deg),
                        tr.jet_max, tr.eps_max)
    theory2 = TheoryData.build(theory.n, theory.eta, theory.avec, new_tr)
    return restrict_window(value, new_tr), theory2


def _report_exit(report, out: str | None, theory: TheoryData) -> int:
    print(report.summary())
    if out:
        serialize.dump(report, theory, out)
    return {"PASS": EXIT_OK, "FAIL": EXIT_RESIDUAL, "VACUOUS": EXIT_INPUT}[report.verdict]


def _go_poly(name: str, theory: TheoryData) -> JetPoly:
    jt = theory.trunc.jet()
    phi = JetPoly.var(phivar(0), jt)
    v = JetPoly.var(vvar(1, 0), jt)
    if name == "zero":
        return JetPoly.zero(jt)
    if name == "phi3":
        return phi * phi * phi * Fraction(1, 6)
    if name == "vphi":
        return v * phi
    raise CliInputError(f"unknown initial data name {name!r}")


def cmd_gen_example(args) -> int:
    theory = _default_theory(args.degree, args.amax)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tr = theory.trunc
    v = JetPoly.var(vvar(1, 0), tr.jet())
    phi = JetPoly.var(phivar(0), tr.jet())
    f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory).series
    files = {"f0": f0}
    if args.name == "witten-n2":
        theory = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], tr)
        files["f0"] = relabel_component(f0, 1, tr) + relabel_component(f0, 2, tr)
    elif args.name in ("open-rank1", "genus1-rank1"):
        f0o = solve_open_order_by_order(
            f0, v * phi + phi * phi * phi * Fraction(1, 6), theory).series
        files["f0o"] = f0o
        if args.name == "genus1-rank1":
            files["f1o"] = f1o_closed_form(f0, f0o, _go_poly(args.go, theory), theory)
            files["f1"] = f1_closed_form(f0, JetPoly.zero(tr.jet()), theory)
    for name, value in files.items():
        serialize.dump(value, theory, outdir / f"{name}.ottr")
    for name in files:
        print(f"wrote {outdir / (name + '.ottr')}")
    return EXIT_OK


def cmd_validate_genus0(args) -> int:
    (f0,), theory = _load_inputs(args.f0)
    f0, theory = _shrink(f0, theory, args)
    return _report_exit(validate_closed_genus0(f0, theory), args.out, theory)


def cmd_validate_open(args) -> int:
    (f0, f0o), theory = _load_inputs(args.f0, args.f0o)
    f0, theory_s = _shrink(f0, theory, args)
    f0o, _ = _shrink(f0o, theory, args)
    return _report_exit(validate_open_genus0(f0, f0o, theory_s), args.out, theory_s)


def _load_with_go(args) -> tuple[BigSeries, BigSeries, JetPoly, TheoryData]:
    """f0, f0o and Go (--go-file or --go name), refused off the small phase space."""
    values, theory = _load_inputs(args.f0, args.f0o, go_file=args.go_file)
    go = values[2] if args.go_file else _go_poly(args.go, theory)
    _seed_coeffs(go, theory, allow_phi=True)
    return values[0], values[1], go, theory


def cmd_derive_genus1(args) -> int:
    f0, f0o, go, theory = _load_with_go(args)
    if args.method == "formula":
        f1o = f1o_closed_form(f0, f0o, go, theory)
    elif args.method == "solve":
        f1o = solve_f1o(f0, f0o, go, theory)
    else:
        f1o = f1o_closed_form(f0, f0o, go, theory)
        other = solve_f1o(f0, f0o, go, theory)
        if not poly_eq(f1o, other):
            print("derivations disagree", file=sys.stderr)
            return EXIT_INTERNAL
        print("solver and closed form agree on the shared window")
    serialize.dump(f1o, theory, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_check_genus1(args) -> int:
    if args.f1o:
        if not args.f0o:
            raise CliInputError("open check needs --f0o")
        (f0, f0o, f1o), theory = _load_inputs(args.f0, args.f0o, args.f1o)
        return _report_exit(validate_open_genus1(f0, f0o, f1o, theory),
                            args.out, theory)
    if not args.f1:
        raise CliInputError("pass --f1 (closed) or --f0o/--f1o (open)")
    (f0, f1), theory = _load_inputs(args.f0, args.f1)
    return _report_exit(validate_closed_genus1(f0, f1, theory), args.out, theory)


def cmd_qpoly(args) -> int:
    q = qpoly(args.index)
    theory = TheoryData.rank1(Truncation(
        0, 0, 0, qpoly_truncation(args.index).jet_max,
        qpoly_truncation(args.index).eps_max))
    print(q)
    if args.out:
        serialize.dump(q, theory, args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_build_operators(args) -> int:
    f0, f0o, go, theory = _load_with_go(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for _label, op in operators(two_point_table(f0, f0o, theory), go, theory):
        path = outdir / f"L{'_'.join(map(str, op.meta))}.ottr"  # Lint_1_0, Lboun_0, ...
        serialize.dump(op, theory, path)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_check_evolution(args) -> int:
    (f0, f0o, f1o), theory = _load_inputs(args.f0, args.f0o, args.f1o)
    report = linear_evolution_residual(f0, f0o, f1o, theory)
    return _report_exit(report, args.out, theory)


def cmd_gen_pst(args) -> int:
    theory = _default_theory(args.degree, args.amax)
    result = pst_generate(theory)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    serialize.dump(result.f0, theory, outdir / "f0.ottr")
    serialize.dump(result.f0o, theory, outdir / "f0o.ottr")
    serialize.dump(result.f1o, theory, outdir / "f1o.ottr")
    serialize.dump(result.report, theory, outdir / "flows.report.ottr")
    for name in ("f0", "f0o", "f1o", "flows.report"):
        print(f"wrote {outdir / (name + '.ottr')}")
    return EXIT_OK


def cmd_compare(args) -> int:
    (a,), theory_a = _load_inputs(args.first)
    (b,), theory_b = _load_inputs(args.second)
    if theory_a.trunc != theory_b.trunc:
        raise CliInputError("cannot compare across truncations; restrict first")
    window = min((r for r in (a.rel, b.rel, args.up_to_degree) if r is not None),
                 default=None)
    if window is not None and window < 0:
        print(f"vacuous: the shared reliable window degree <= {window} holds no coefficient")
        return EXIT_INPUT
    same = poly_eq(a, b, up_to=args.up_to_degree)
    print("equal on the shared reliable window" if same else "values differ")
    return EXIT_OK if same else EXIT_RESIDUAL


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ottr",
        description="exact verification of open topological recursion data")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-example", help="generate fixture potentials")
    p.add_argument("name", choices=["witten-rank1", "witten-n2", "open-rank1",
                                    "genus1-rank1"])
    p.add_argument("--degree", type=int, default=8)
    p.add_argument("--amax", type=int, default=3)
    p.add_argument("--go", default="zero", help="initial data: zero|phi3|vphi")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_gen_example)

    p = sub.add_parser("validate-genus0", help="check the closed genus-0 axioms")
    p.add_argument("f0")
    p.add_argument("--degree", type=int)
    p.add_argument("--amax", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_genus0)

    p = sub.add_parser("validate-open", help="check the open genus-0 axioms")
    p.add_argument("f0")
    p.add_argument("f0o")
    p.add_argument("--degree", type=int)
    p.add_argument("--amax", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate_open)

    p = sub.add_parser("derive-genus1", help="produce the open genus-1 potential")
    p.add_argument("--f0", required=True)
    p.add_argument("--f0o", required=True)
    p.add_argument("--go", default="zero")
    p.add_argument("--go-file")
    p.add_argument("--method", choices=["formula", "solve", "both"], default="both")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_derive_genus1)

    p = sub.add_parser("check-genus1", help="check genus-1 recursion relations")
    p.add_argument("--f0", required=True)
    p.add_argument("--f1")
    p.add_argument("--f0o")
    p.add_argument("--f1o")
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_genus1)

    p = sub.add_parser("qpoly", help="print an exponential-conjugation polynomial")
    p.add_argument("index", type=int)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("build-operators", help="emit interior/boundary operators")
    p.add_argument("--f0", required=True)
    p.add_argument("--f0o", required=True)
    p.add_argument("--go", default="zero")
    p.add_argument("--go-file")
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_build_operators)

    p = sub.add_parser("check-evolution",
                       help="check the first-order evolution system")
    p.add_argument("--f0", required=True)
    p.add_argument("--f0o", required=True)
    p.add_argument("--f1o", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check_evolution)

    p = sub.add_parser("gen-pst", help="integrate the rank-1 Lax flows")
    p.add_argument("--degree", type=int, default=6)
    p.add_argument("--amax", type=int, default=2)
    p.add_argument("--outdir", default=".")
    p.set_defaults(func=cmd_gen_pst)

    p = sub.add_parser("compare", help="compare two series files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--up-to-degree", type=int)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_windows(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; send what is still buffered nowhere, so that
        # the flush at interpreter exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (NoSolutionError, PstIntegrationError, JetOverflowError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CliInputError, SeedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
