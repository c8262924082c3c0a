"""Genus-0 layer: axiom validation, two-point functions, hierarchies, solvers.

Each recursion relation is written once, as a family of rows (`_Rows`): a
left-hand side of derivatives and a right-hand side of products of derivative
tables, each spec a tuple of variables and a scale.  The family builders
`_closed_families` and `_open_families` (and `genus1._genus1_families`)
serve both the solvers and the validators.  A validator evaluates each
family's residual on the series under test, one report entry per family;
each partial derivative and each table value is computed once per value and
kept with it (`ottr.algebra.spec_sum`, the kernel's derivative sum, which
also gives the unit-direction derivative and the seed check).  Only the dilaton
equations and the boundary normalization are written out by hand.  Every
residual is exact, and a pass means literal zero on a reliable window.  A
negative window compares no coefficient: its entry, and a report without a
nonzero entry, is vacuous, and so is a report with no entry at all.

The solvers extend a small-phase-space seed by marching in descendent weight.
Each is a list of row families run by one engine, `_march`, which keeps the
solution as one series per solved weight.  A derivative table (`_Table`) is
a kernel value at every weight: `spec_sum` of a weight slice of its source.
At weight w each row is affine in the weight-w unknowns, and a family's
right-hand sides are one kernel `dot` over the products of lower-weight table
parts, the same product loop the validators use, evaluated only at the
weights where two nonzero table parts meet below the degree cap.  A table
of a fixed series takes in all its parts at once; a fed table takes in
each new nonzero slice.  Rows and unknowns are packed keys of the series
layout, so the engine reads each right-hand side from its stored rows as
an integer numerator over the series' denominator.  It activates the rows
with a nonzero right-hand side, closes them under shared unknowns, and
solves them by single-unknown propagation over the integers (`_propagate`,
the only one), each value a reduced integer pair; monomials and `Fraction`s
appear only for a conflict's label and an elimination's pivots, both in the
dense row order.  The elimination and `NoSolutionError` live in the kernel
(`ottr.algebra`), where `bigphase` inverts the metric with them too; they
are imported here under their own names.
Every row it skips lies in a connected component whose right-hand sides all
vanish, so it reads 0 = 0 under the zero default: skipping it changes no
coefficient and no inconsistency report.
Monomials no row contains (one-point data and, in the closed case, two-point
data without a unit-direction factor) and non-pivot unknowns are zero and
recorded as free.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm, perm
from typing import Sequence

from .algebra import (
    KIND_PHI,
    KIND_V,
    JetPoly,
    NoSolutionError,
    Spec,
    _eliminate,
    _spec_sum,
    _specs,
    derivative,
    dot,
    dx,
    phivar,
    spec_sum,
    var_name,
    vvar,
)
from .bigphase import (
    BigMonomial,
    BigSeries,
    BigVar,
    TheoryData,
    Truncation,
    big_var_name,
    boundary_pairing,
    mono_from_factors,
    restrict_small,
    s_var,
    t11_partial,
    t_var,
)


class SeedError(ValueError):
    """The seed violates a restriction forced by the string equation."""


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

def index_names(indices: tuple) -> list[str]:
    """Report indices as text: integers as they are, variables by name."""
    return [big_var_name(i) if isinstance(i, tuple) else str(i) for i in indices]


def entry_status(zero: bool, window: int | None) -> str:
    """'nonzero', 'zero', or 'vacuous': a negative window holds no coefficient."""
    return "nonzero" if not zero else "vacuous" if window is not None and window < 0 else "zero"


@dataclass
class ResidualEntry:
    equation: str
    indices: tuple
    residual: BigSeries

    @property
    def window(self) -> int | None:
        """The degree window the entry checked: its residual's rel."""
        return self.residual.rel

    @property
    def is_zero(self) -> bool:
        return self.residual.is_zero()


@dataclass
class ResidualReport:
    entries: list[ResidualEntry] = field(default_factory=list)
    checked: dict[str, str] = field(default_factory=dict)

    def add(self, equation: str, indices: tuple, residual: BigSeries) -> None:
        self.entries.append(ResidualEntry(equation, indices, residual))

    def add_rows(self, families: list["_Rows"], f: BigSeries) -> None:
        """One entry per row family: its residual at f, under its label."""
        values: dict[_Table, BigSeries] = {}  # each table's value at f
        for fam in families:
            equation, *indices = fam.label  # the string equations have no indices
            self.add(equation, indices[0] if indices else (), fam.residual(f, values))

    @property
    def all_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    @property
    def verdict(self) -> str:
        """FAIL on a nonzero residual, else VACUOUS if no entry checked a window, else PASS."""
        statuses = {entry_status(e.is_zero, e.window) for e in self.entries}
        return ("FAIL" if "nonzero" in statuses
                else "VACUOUS" if "vacuous" in statuses or not statuses else "PASS")

    def failures(self) -> list[ResidualEntry]:
        return [e for e in self.entries if not e.is_zero]

    def entry(self, equation: str, indices: tuple = ()) -> ResidualEntry:
        for e in self.entries:
            if e.equation == equation and e.indices == indices:
                return e
        raise KeyError((equation, indices))

    def summary(self) -> str:
        lines = []
        for e in sorted(self.entries, key=lambda e: (e.equation, e.indices)):
            status = entry_status(e.is_zero, e.window).replace("nonzero", "NONZERO")
            idx = index_names(e.indices)
            lines.append(f"{e.equation} ({', '.join(idx)}{',' * (len(idx) == 1)}): "
                         f"{status} (window<= {e.window})")
        for eq, rng in sorted(self.checked.items()):
            lines.append(f"# {eq}: {rng}")
        lines.append(f"# overall: {self.verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _index_pairs(theory: TheoryData) -> list[tuple[int, int, int, int]]:
    """The unordered index pairs (beta, b) <= (gamma, c) of the closed TRR."""
    amax = theory.trunc.level_max
    return [(beta, b, gamma, c)
            for beta in range(1, theory.n + 1) for b in range(amax + 1)
            for gamma in range(1, theory.n + 1) for c in range(amax + 1)
            if (beta, b) <= (gamma, c)]


def _string_and_dilaton(report: ResidualReport, prefix: str, f: BigSeries, scaled: BigSeries,
                        variables: Sequence[BigVar], theory: TheoryData) -> None:
    """The string range line, from the window its entry checked (Dt - 1 if
    exact), and the dilaton equation -X_1 f - scaled + sum_x x df/dx = 0,
    where scaled is f times the dilaton weight."""
    window = report.entry(prefix + "string").window
    window = theory.trunc.deg_max - 1 if window is None else window
    report.checked[prefix + "string"] = f"single equation, degree window <= {window}"
    if theory.trunc.level_max < 1:
        report.checked[prefix + "dilaton"] = "skipped: needs level bound >= 1"
        return
    euler = dot(BigSeries.zero(f.trunc),
                [(BigSeries.var(x, f.trunc), derivative(f, x), 1) for x in variables])
    report.add(prefix + "dilaton", (), -t11_partial(f, 1, theory) - scaled + euler)
    report.checked[prefix + "dilaton"] = "single equation"


# ---------------------------------------------------------------------------
# closed-sector validation
# ---------------------------------------------------------------------------

def validate_closed_genus0(f0: BigSeries, theory: TheoryData) -> ResidualReport:
    """Residuals of the closed genus-0 axioms over the truncation window."""
    amax = theory.trunc.level_max
    nus = range(1, theory.n + 1)
    # one Hessian table per (alpha, a, nu), one second-derivative table per (nu, beta, b)
    hess = {(alpha, a, nu): _Table(_hessian_specs(alpha, a, nu, theory))
            for alpha in nus for a in range(amax) for nu in nus}
    second = {(nu, beta, b): _Table([((t_var(nu, 0), t_var(beta, b)), 1)])
              for nu in nus for beta in nus for b in range(amax)}
    families = _closed_families(theory) + [
        _Rows(("two_point_shift", (alpha, a, beta, b)),
              [((t_var(alpha, a + 1), t_var(beta, b)), 1),
               ((t_var(alpha, a), t_var(beta, b + 1)), 1)],
              [(hess[alpha, a, nu], second[nu, beta, b]) for nu in nus])
        for alpha, a, beta, b in _index_pairs(theory) if max(a, b) < amax]
    report = ResidualReport()
    report.add_rows(families, f0)
    _string_and_dilaton(report, "", f0, f0 * 2, theory.t_vars(), theory)
    report.checked["trr0"] = (f"alpha<= {theory.n}, a<= {amax - 1}, "
                              f"(beta,b)<=(gamma,c) with b,c<= {amax}")
    report.checked["two_point_shift"] = f"a,b<= {amax - 1}, symmetric pairs once"
    return report


# ---------------------------------------------------------------------------
# open-sector validation
# ---------------------------------------------------------------------------

def validate_open_genus0(f0: BigSeries, f0o: BigSeries, theory: TheoryData
                         ) -> ResidualReport:
    """Residuals of the open genus-0 axioms, differentials taken componentwise."""
    tr = theory.trunc
    amax = tr.level_max
    report = ResidualReport()
    report.add_rows(_open_families(f0, theory), f0o)
    _string_and_dilaton(report, "open_", f0o, f0o, theory.all_vars(), theory)
    pairing = boundary_pairing(f0o, theory)
    upper = pairing.layout.field_mask(lambda var: var[2] > 0)  # the positive levels
    level0 = [{k: n for k, n in row.items() if not k & upper} for row in pairing.rows]
    norm = BigSeries.from_rows(pairing.layout, pairing.den, level0, pairing.rel) - 1
    report.add("normalization", (), norm)
    report.checked["normalization"] = ("d^2F0o/dt11_0 ds_0 restricted to "
                                       "positive levels = 0 is identically 1")
    report.checked["open_trr_t"] = f"alpha<= {theory.n}, p<= {amax - 1}, all components"
    report.checked["open_trr_s"] = f"p<= {amax - 1}, all components"
    return report


# ---------------------------------------------------------------------------
# two-point functions and hierarchies
# ---------------------------------------------------------------------------

def omega(f0: BigSeries, alpha: int, a: int, beta: int, b: int,
          theory: TheoryData) -> JetPoly:
    """Small-phase-space restriction of a second t-derivative."""
    amax = theory.trunc.level_max
    if a > amax or b > amax:
        raise IndexError(f"two-point index outside level window {amax}")
    return restrict_small(derivative(f0, t_var(alpha, a), t_var(beta, b)), theory)


def gamma(f0o: BigSeries, alpha: int, a: int, theory: TheoryData) -> JetPoly:
    if a > theory.trunc.level_max:
        raise IndexError("index outside level window")
    return restrict_small(derivative(f0o, t_var(alpha, a)), theory)


def delta(f0o: BigSeries, a: int, theory: TheoryData) -> JetPoly:
    if a > theory.trunc.level_max:
        raise IndexError("index outside level window")
    return restrict_small(derivative(f0o, s_var(a)), theory)


@dataclass
class TwoPointTable:
    """The restricted one-point functions over the index window, and the
    two-point functions Omega_{g,0;alpha,a} with one index at level 0 (the
    only ones the operators read), keyed (g, 0, alpha, a)."""

    omega: dict[tuple[int, int, int, int], JetPoly]
    gamma: dict[tuple[int, int], JetPoly]
    delta: dict[int, JetPoly]


def two_point_table(f0: BigSeries, f0o: BigSeries,
                    theory: TheoryData) -> TwoPointTable:
    amax = theory.trunc.level_max
    idx = [(alpha, a) for alpha in range(1, theory.n + 1) for a in range(amax + 1)]
    om = {(g, 0, *i): omega(f0, g, 0, *i, theory) for g in range(1, theory.n + 1) for i in idx}
    return TwoPointTable(om, {i: gamma(f0o, *i, theory) for i in idx},
                         {a: delta(f0o, a, theory) for a in range(amax + 1)})


def principal_flow(f0: BigSeries, beta: int, b: int, theory: TheoryData
                   ) -> list[JetPoly]:
    """Right-hand sides eta^{alpha mu} dx Omega_{mu,0;beta,b} of the hierarchy."""
    if b > theory.trunc.level_max:
        raise IndexError("flow index outside level window")
    jt = theory.trunc.jet()
    flows = []
    for alpha in range(1, theory.n + 1):
        acc = JetPoly.zero(jt)
        for mu in range(1, theory.n + 1):
            coef = theory.eta_inv[alpha - 1][mu - 1]
            if coef:
                acc = acc + dx(omega(f0, mu, 0, beta, b, theory)) * coef
        flows.append(acc)
    return flows


@dataclass
class FlowRhs:
    """One flow of the extended hierarchy: v-components and the phi component."""

    v: list[JetPoly]
    phi: JetPoly


def extended_flows(f0: BigSeries, f0o: BigSeries, theory: TheoryData, *,
                   t_index: tuple[int, int] | None = None,
                   s_index: int | None = None) -> FlowRhs:
    """Flow right-hand sides for a t-direction or an s-direction."""
    if (t_index is None) == (s_index is None):
        raise ValueError("pass exactly one of t_index, s_index")
    jt = theory.trunc.jet()
    if t_index is not None:
        beta, b = t_index
        return FlowRhs(principal_flow(f0, beta, b, theory),
                       dx(gamma(f0o, beta, b, theory)))
    if s_index > theory.trunc.level_max:
        raise IndexError("flow index outside level window")
    zeros = [JetPoly.zero(jt) for _ in range(theory.n)]
    return FlowRhs(zeros, dx(delta(f0o, s_index, theory)))


# ---------------------------------------------------------------------------
# order-by-order solvers
# ---------------------------------------------------------------------------

def _first_mismatch(got: JetPoly, want: JetPoly) -> str:
    diff = got - want
    (eps, mono), _coef = min(diff.terms.items())
    parts = [f"eps^{eps}"] if eps else []
    parts += [f"{var_name(v)}^{e}" if e > 1 else var_name(v) for v, e in mono]
    return "*".join(parts) or "1"


def _seed_coeffs(seed: JetPoly, theory: TheoryData, *, allow_phi: bool
                 ) -> dict[BigMonomial, Fraction]:
    """Level-zero big-phase coefficients of a small-phase-space polynomial.

    Maps v{alpha}_0 to t{alpha}_0 and, when allow_phi, phi_0 to s_0.  Used for
    genus-0 seeds and for genus-1 initial data Go; f-jets have no image.
    """
    out: dict[BigMonomial, Fraction] = {}
    for (eps, mono), coef in seed.terms.items():
        if eps:
            raise SeedError("seed must be eps-free")
        factors = []
        for (kind, alpha, jet), exp in mono:
            if jet != 0:
                raise SeedError("seed must only use jet-order-zero variables")
            if kind == KIND_V:
                if alpha > theory.n:
                    raise SeedError("seed component index exceeds the rank")
                factors.append((t_var(alpha, 0), exp))
            elif kind != KIND_PHI:
                raise SeedError("seed cannot involve f-jets")
            elif allow_phi:
                factors.append((s_var(0), exp))
            else:
                raise SeedError("closed seed cannot involve phi")
        out[mono_from_factors(factors)] = coef
    return out


# ---------------------------------------------------------------------------
# the order-by-order engine
# ---------------------------------------------------------------------------

_ID = [((), 1)]  # the spec of a table that holds a series as it is


def _weight_grading(layout) -> list[tuple[int, int]]:
    """Descendent weight as a grading of `_grade_slices`: each positive-level
    field, counted with its level."""
    return [(shift, var[2]) for var, shift in layout.items() if var[2]]


def _grade_slices(series: BigSeries, grading: Sequence[tuple[int, int]], drop: int
                  ) -> list[BigSeries]:
    """The terms of series by grade, each slice with the series' rel.  The
    grade of a key is the sum of its exponent fields, each counted with its
    weight, over the (field shift, weight) pairs of grading; the keys that
    meet the mask drop are left out."""
    layout, mask = series.layout, series.layout.mask
    # grade -> degree -> row, so each slice's row list stops at its own top degree
    by_grade: defaultdict[int, defaultdict[int, dict]] = defaultdict(lambda: defaultdict(dict))
    for d, row in enumerate(series.rows):
        for key, n in row.items():
            if not key & drop:
                grade = 0
                for shift, w in grading:
                    grade += w * (key >> shift & mask)
                by_grade[grade][d][key] = n
    slices = []
    for grade in range(max(by_grade, default=-1) + 1):
        part = by_grade.get(grade, {})
        rows = [part.get(d, {}) for d in range(max(part, default=-1) + 1)]
        slices.append(BigSeries.from_rows(layout, series.den, rows, series.rel))
    return slices


class _Table:
    """The derivative sum_spec scale * d^k F / d(spec vars), weight by weight.

    Its weight-w part is `spec_sum(slice, specs)` of the weight-(w + table
    weight) slice of its source: the eps-free `_grade_slices` of the series
    by weight, kept with the series, for a table built from a series, and the
    engine's solved slices for a fed table, one built without, which stands
    for the potential under solution or test.  Every spec has the table
    weight, read off its first variable tuple.  A table holds no solve's
    state: a solve keeps the table's parts in a `_Parts` of its own.
    """

    def __init__(self, specs: Sequence[Spec], series: BigSeries | None = None):
        self.specs = _specs(specs)
        self.weight = sum(var[2] for var in specs[0][0])
        self.series = series


class _Parts:
    """A table's nonzero parts in one solve, by weight (`nonzero`), and their least
    degrees (`low`).  A slice never changes once present, so each is taken in once."""

    def __init__(self, table: _Table, solved: list[BigSeries]):
        series = table.series
        self.table = table
        self.slices = solved if series is None else series.derived(
            ("weight_slices",), _grade_slices, _weight_grading(series.layout),
            series.layout.eps_mask)
        self.seen, self.nonzero, self.low = table.weight, {}, {}

    def refresh(self) -> list[int]:
        """Take in the slices present since the last call; returns the
        weights of the new nonzero parts.  A table built from a series has
        every slice from the start, so the first call takes in every part."""
        slices, weight, specs = self.slices, self.table.weight, self.table.specs
        new = []
        for s in range(self.seen, len(slices)):
            part = slices[s] if slices[s].is_zero() else _spec_sum(slices[s], specs)
            if not part.is_zero():
                self.nonzero[s - weight], self.low[s - weight] = part, part.min_degree()
                new.append(s - weight)
        self.seen = max(self.seen, len(slices))
        return new


class _Rows:
    """One row family: sum_spec scale * d^k F / d(spec vars) = rhs, one row per mu.

    The row at mu is labelled label + (mu,).  Its unknowns are mu times each
    spec's variables, all of one degree (`arity`) and weight (`offset`); its
    right-hand side is the sum of the table `products` at mu.
    """

    def __init__(self, label: tuple, specs: Sequence[Spec],
                 products: list[tuple[_Table, _Table]]):
        self.label = label
        self.products = products
        self.specs = _specs(specs)
        self.offset = sum(var[2] for var in specs[0][0])
        self.arity = len(specs[0][0])

    def rhs(self, weight: int, start: BigSeries, parts: dict[_Table, _Parts]) -> BigSeries:
        """The right-hand sides of the rows whose unknowns have this weight, as
        one series in mu: one `dot` over the pairs of the tables' nonzero
        `parts` onto start, the zero of rel cap - arity, which cuts them there."""
        w = weight - self.offset
        pairs = []
        for a, b in self.products:
            right = parts[b].nonzero
            pairs += [(part, right[w - w1], 1) for w1, part in parts[a].nonzero.items()
                      if w - w1 in right]
        return dot(start, pairs)

    def residual(self, f: BigSeries, values: dict[_Table, BigSeries]) -> BigSeries:
        """The spec derivatives of f minus the sum of the table products, where
        a fed table stands for f.  `values` holds each table's value at f, so
        the families of one validation read a table they share once."""
        for pair in self.products:
            for t in pair:
                if t not in values:
                    values[t] = spec_sum(f if t.series is None else t.series, t.specs)
        return dot(spec_sum(f, self.specs), [(values[a], values[b], -1) for a, b in self.products])


def _row_order(key: tuple, layout) -> tuple:
    """The dense order of the row (family, key of mu): family first, then mu
    by degree and sorted factor list."""
    factors = tuple(var for var, exp in layout.unpack(key[1])[1] for _ in range(exp))
    return key[0], len(factors), factors


def _propagate(active: dict[tuple, tuple[int, int]], lhs: dict[tuple, dict]
               ) -> tuple[dict, list, tuple | None]:
    """Single-unknown propagation over the integers, pass by pass in row order.

    The rows are the keys of `active`, in its order: a row's right-hand side
    is active[key] = (n, den), read as n / den, and its left-hand side is
    lhs[key], whose coefficients are ints, or `Fraction`s for a non-integral
    spec scale.  Returns the pinned values, each a reduced pair (numerator,
    denominator > 0), the rows (reduced lhs, n, den, key) left when a pass
    pins nothing, and the first conflict (key, n, den), n != 0, or None.
    Whether it conflicts, and else its values and the rows left, do not
    depend on the row order; which row conflicts first does."""
    assign: dict = {}
    pending = active
    while pending:
        progressed = False
        deferred, left = {}, {}  # the rows that keep two or more unknowns
        for key, (n, den) in pending.items():
            reduced: dict = {}
            for m, c in lhs[key].items():
                if m not in assign:
                    reduced[m] = c
                    continue
                p, q = assign[m]
                if p:  # n/den - c p/q over the product of the denominators
                    if type(c) is int:
                        n, den = n * q - c * p * den, den * q
                    else:
                        n, den = (n * q * c.denominator - c.numerator * p * den,
                                  den * q * c.denominator)
            if len(reduced) == 1:
                (m, c), = reduced.items()
                if type(c) is not int:
                    n, c = n * c.denominator, c.numerator
                g = gcd(n, den * c)
                assign[m] = (n // g, den * c // g) if c > 0 else (-n // g, -den * c // g)
                progressed = True
            elif reduced:
                deferred[key], left[key] = (n, den), reduced
            elif n:
                return assign, [], (key, n, den)
        if not progressed:
            return assign, [(left[key], n, den, key) for key, (n, den) in deferred.items()], None
        pending, lhs = deferred, left
    return assign, [], None


@dataclass
class SolveResult:
    """A solved potential plus the monomials the equations left unconstrained."""

    series: BigSeries
    free: list[BigMonomial]


def _march(families: list[_Rows], seed: dict[BigMonomial, Fraction],
           variables: Sequence[BigVar], cap: int, trunc: Truncation) -> SolveResult:
    """Solve the row families weight by weight over the nonzero support.

    `seed` holds the weight-0 data.  Each solved weight becomes one slice of
    degree <= cap, the seed the first; the fed tables read these slices.  The
    result has rel = cap and lists the free monomials weight by weight.

    A family's right-hand sides at a weight are nonzero only if two nonzero
    parts of one of its products sum to that weight less the family's
    offset, and their lowest degrees to at most cap - arity, the degree its
    right-hand sides are cut at.  The solve keeps each table's parts in a
    `_Parts` of its own.  Every table takes in its parts at weight 1, a table
    built from a series all of them; after that only the fed tables do, at
    each weight after a nonzero slice.  Each new part marks the families it
    makes due with the parts its partner has, so only those are evaluated.
    A conflict raises `NoSolutionError` with its weight.

    A row is (family, key of mu), its right-hand side the integer pair
    (numerator, den) read off the stored rows, and its unknowns are mu plus
    each spec key, with the falling factorial of the spec's fields (a field
    of exponent 1 is its own).  The rows (`active` and `lhs`) are solved by
    integer propagation (`_propagate`); a conflict is reported where it
    conflicts in `_row_order`, and the rows it stalls on go in that order,
    over monomials, to `_eliminate`.
    """
    solved = [BigSeries.from_coeffs(seed, trunc, rel=cap)]
    layout, mask = solved[0].layout, solved[0].layout.mask
    # each family's specs as (key, scale, (field shift, exponent) per field),
    # and an index of them by the field of their top-level factor
    packed: list[list[tuple[int, Fraction | int, list[tuple[int, int]]]]] = []
    index: dict[int, list[tuple[int, int, list[tuple[int, int]]]]] = {}
    for i, fam in enumerate(families):
        packed.append([])
        for dvars, scale in fam.specs:
            exps, key, level = {}, 0, -1  # repeated variables counted per field
            for var in dvars:
                s = layout[var]
                exps[s] = exps.get(s, 0) + 1
                key += 1 << s
                if var[2] > level:  # the first factor of the top level
                    level, top = var[2], s
            fields = list(exps.items())
            packed[i].append((key, scale, fields))
            index.setdefault(top, []).append((i, key, fields))

    def rows_through(m: int):
        """The rows (family, key of mu) that have the unknown m."""
        for shift, specs in index.items():
            if m >> shift & mask:
                for i, key, fields in specs:
                    for s, c in fields:
                        if m >> s & mask < c:
                            break
                    else:
                        yield i, m - key

    def label(key: tuple) -> tuple:
        """The label of the row (family, key of mu): its family's, then mu."""
        return families[key[0]].label + (layout.unpack(key[1])[1],)

    # Monomials no row contains.  A recursion family reaches every monomial of
    # positive weight and of at least its arity through a positive-level
    # factor, so only lower degrees need a look.
    structural: dict[int, list[BigMonomial]] = {}
    for d in range(1, min(max((fam.arity for fam in families), default=0), cap + 1)):
        for combo in combinations_with_replacement(sorted(variables), d):
            weight = sum(var[2] for var in combo)
            if weight and next(rows_through(sum(1 << layout[var] for var in combo)), None) is None:
                structural.setdefault(weight, []).append(
                    mono_from_factors((var, 1) for var in combo))

    # each table's parts in this solve, and the families they feed with the
    # partner's parts there: held here, since parts holding parts form cycles
    parts: dict[_Table, _Parts] = {}
    feeds: dict[_Parts, list[tuple[int, _Parts]]] = {}
    for i, fam in enumerate(families):
        for a, b in fam.products:
            for t in (a, b):
                if t not in parts:
                    parts[t] = _Parts(t, solved)
            feeds.setdefault(parts[a], []).append((i, parts[b]))
            feeds.setdefault(parts[b], []).append((i, parts[a]))
    fed = [(own, users) for own, users in feeds.items() if own.table.series is None]
    due: dict[int, set[int]] = defaultdict(set)  # weight -> families to evaluate
    # the start of each arity's right-hand sides: the zero that cuts them
    starts = {arity: BigSeries.zero(trunc, cap - arity)
              for arity in {fam.arity for fam in families}}

    free: list[BigMonomial] = []
    values, degrees = {}, {}  # every solved unknown: its value and its degree
    try:
        for w in range(1, cap * trunc.level_max + 1):
            # every table takes in its parts so far at weight 1; after that only
            # a fed table gains one, from the slice solved last if it is nonzero
            for own, users in (feeds.items() if w == 1 else
                               fed if not solved[-1].is_zero() else ()):
                for j in own.refresh():
                    for i, partner in users:
                        room = cap - families[i].arity - own.low[j]  # the partner's degree
                        for k, low in partner.low.items():
                            if low <= room:
                                due[j + k + families[i].offset].add(i)
            # row -> right-hand side (numerator, den); (family, mu, degree of mu)
            active, todo = {}, []
            for i in due.pop(w, ()):
                rhs = families[i].rhs(w, starts[families[i].arity], parts)
                for d, row in enumerate(rhs.rows):
                    for mu, n in row.items():
                        active[i, mu] = n, rhs.den
                        todo.append((i, mu, d))
            # close under shared unknowns: every other row is in a zero component;
            # each row's left-hand side is built once and carried into the solve
            unknowns, lhs = {}, {}  # unknown -> its degree; row -> its left-hand side
            while todo:
                i, mu, d = todo.pop()
                row = lhs[i, mu] = {}
                degree = d + families[i].arity
                for key, scale, fields in packed[i]:
                    m = mu + key
                    k = 1
                    for s, c in fields:  # the falling factorial of each factor's field
                        x = m >> s & mask
                        k *= x if c == 1 else perm(x, c)
                    row[m] = scale * k
                    if m not in unknowns:
                        unknowns[m] = degree
                        for j, nu in rows_through(m):
                            if (j, nu) not in active:
                                active[j, nu] = 0, 1
                                todo.append((j, nu, degree - families[j].arity))
            assign, stalled, conflict = _propagate(active, lhs)
            if conflict:  # the first conflict in the dense order is the one reported
                dense = sorted(active, key=lambda key: _row_order(key, layout))
                key, n, den = _propagate({key: active[key] for key in dense}, lhs)[2]
                raise NoSolutionError(label(key), f"inconsistent constraint {label(key)}: "
                                                  f"0 = {Fraction(n, den)}")
            if stalled:  # eliminated in the dense order, over monomials and Fractions
                stalled.sort(key=lambda row: _row_order(row[3], layout))
                monos = _eliminate([({layout.unpack(m)[1]: Fraction(c) for m, c in left.items()},
                                     Fraction(n, den), label(key))
                                    for left, n, den, key in stalled])
                assign.update({layout.pack(0, m): (v.numerator, v.denominator)
                               for m, v in monos.items()})
            free.extend(sorted([layout.unpack(m)[1] for m in unknowns if m not in assign]
                               + structural.get(w, [])))
            solved.append(_from_values(layout, assign, unknowns, cap))
            values.update(assign)
            degrees.update(unknowns)
        return SolveResult(solved[0] + _from_values(layout, values, degrees, cap), free)
    except NoSolutionError as err:
        err.weight = w
        raise


def _from_values(layout, values: dict, degrees: dict, rel: int) -> BigSeries:
    """The series of the nonzero values, key -> reduced (numerator, den > 0),
    each key at its degree."""
    den = lcm(*(q for _p, q in values.values()))
    rows: list[dict[int, int]] = [{} for _ in range(rel + 1)]
    for key, (p, q) in values.items():
        if p:
            rows[degrees[key]][key] = p * (den // q)
    return BigSeries.from_rows(layout, den, rows, rel)


def _hessian_specs(alpha: int, a: int, nu: int, theory: TheoryData) -> list:
    """Table specs of eta^{mu nu} d^2F0/dt{alpha}_a dt{mu}_0, summed over mu."""
    return [((t_var(alpha, a), t_var(mu, 0)), theory.eta_inv[mu - 1][nu - 1])
            for mu in range(1, theory.n + 1)]


def _string_rows(label: str, d1: dict[BigVar, _Table], source: BigSeries,
                 theory: TheoryData) -> _Rows:
    """-sum_g A^g dF/dt{g}_0 = -sum_b x_{b+1} dF/dx_b - source over the fed
    tables d1[x_b]: the string equation, signed so that its residual is the
    string residual.  The source has weight 0, so the solver never reads it."""
    tr = theory.trunc
    shift = [(table, _Table(_ID, -BigSeries.var((kind, alpha, level + 1), tr)))
             for (kind, alpha, level), table in d1.items()]
    unit = _Table(_ID, BigSeries.const(1, tr))
    return _Rows((label,), [((t_var(g, 0),), -a) for g, a in enumerate(theory.avec, 1)],
                 shift + [(_Table(_ID, -source), unit)])


def _metric_quadratic(cls, var, trunc, theory: TheoryData):
    """(1/2) eta_{alpha beta} x_alpha x_beta as a cls value, x_alpha = var(alpha)."""
    nus = range(1, theory.n + 1)
    return dot(cls.zero(trunc), [(cls.var(var(alpha), trunc), cls.var(var(beta), trunc),
                                  theory.eta[alpha - 1][beta - 1] / 2)
                                 for alpha in nus for beta in nus])


def _closed_families(theory: TheoryData) -> list[_Rows]:
    """The closed genus-0 string equation and recursion relations (trr0).

    Every table stands for the potential F0 under solution or test.  The
    list is built once per theory object and kept in its `memo`, so the
    object's solves and validations share it; it holds no solve's state.
    """
    if "closed_families" in theory.memo:
        return theory.memo["closed_families"]
    tr = theory.trunc
    nus = range(1, theory.n + 1)
    metric = _metric_quadratic(BigSeries, lambda alpha: t_var(alpha, 0), tr, theory)
    pairs = {(beta, b, gamma, c): (t_var(beta, b), t_var(gamma, c))
             for beta, b, gamma, c in _index_pairs(theory)}
    third = {(nu, pair): _Table([((t_var(nu, 0), *dvars), 1)])
             for nu in nus for pair, dvars in pairs.items()}
    d1 = {x: _Table([((x,), 1)]) for x in theory.t_vars(tr.level_max - 1)}
    families = [_string_rows("string", d1, metric, theory)]
    for alpha in nus:
        for a in range(tr.level_max):
            hess = [_Table(_hessian_specs(alpha, a, nu, theory)) for nu in nus]
            for pair, dvars in pairs.items():
                families.append(_Rows(
                    ("trr0", (alpha, a, *pair)), [((t_var(alpha, a + 1), *dvars), 1)],
                    [(hess[nu - 1], third[(nu, pair)]) for nu in nus]))
    theory.memo["closed_families"] = families
    return families


def _open_families(f0: BigSeries, theory: TheoryData) -> list[_Rows]:
    """The open genus-0 string equation and both recursion families, componentwise.

    The Hessian tables hold the closed potential f0; every other table
    stands for the open potential F0o under solution or test.
    """
    tr = theory.trunc
    allvars = theory.all_vars()
    nus = range(1, theory.n + 1)
    d1 = {x: _Table([((x,), 1)]) for x in allvars if x[2] < tr.level_max}
    d2t = {(y, nu): _Table([((y, t_var(nu, 0)), 1)])
           for y in allvars for nu in nus}
    d2s = {y: _Table([((y, s_var(0)), 1)]) for y in allvars}
    families = [_string_rows("open_string", d1, BigSeries.var(s_var(0), tr), theory)]
    for alpha in nus:
        for p in range(tr.level_max):
            hess = [_Table(_hessian_specs(alpha, p, nu, theory), f0) for nu in nus]
            for y in allvars:
                families.append(_Rows(
                    ("open_trr_t", (alpha, p, y)), [((t_var(alpha, p + 1), y), 1)],
                    [(hess[nu - 1], d2t[(y, nu)]) for nu in nus]
                    + [(d1[t_var(alpha, p)], d2s[y])]))
    for p in range(tr.level_max):
        for y in allvars:
            families.append(_Rows(("open_trr_s", (p, y)), [((s_var(p + 1), y), 1)],
                                  [(d1[s_var(p)], d2s[y])]))
    return families


def _check_seed(seed: JetPoly, want: JetPoly, theory: TheoryData, equation: str,
                must: str) -> None:
    """SeedError unless sum_g A^g d seed / dv{g}_0, the string equation on the
    small phase space, equals want."""
    got = spec_sum(seed, _specs([((vvar(g, 0),), a) for g, a in enumerate(theory.avec, 1)]))
    if got.terms != want.terms:
        raise SeedError(f"seed fails the restricted {equation} at "
                        f"{_first_mismatch(got, want)} (unit derivative must {must})")


def solve_closed_order_by_order(seed: JetPoly, theory: TheoryData) -> SolveResult:
    """Extend a small-phase-space seed to a potential killing string + TRR residuals.

    Raises SeedError when the seed violates the restricted string equation and
    NoSolutionError when some stage has no consistent extension.
    """
    tr = theory.trunc
    want = _metric_quadratic(JetPoly, vvar, seed.trunc, theory)
    _check_seed(seed, want, theory, "string equation", "be the metric quadratic")

    return _march(_closed_families(theory), _seed_coeffs(seed, theory, allow_phi=False),
                  theory.t_vars(), tr.deg_max, tr)


def solve_open_order_by_order(f0: BigSeries, seed: JetPoly,
                              theory: TheoryData) -> SolveResult:
    """Extend an open seed to a potential killing the open string/TRR residuals."""
    tr = theory.trunc
    _check_seed(seed, JetPoly.var(phivar(0), seed.trunc), theory, "open string equation",
                "equal phi")

    cap_out = tr.deg_max if f0.rel is None else min(tr.deg_max, f0.rel)
    return _march(_open_families(f0, theory), _seed_coeffs(seed, theory, allow_phi=True),
                  theory.all_vars(), cap_out, tr)
