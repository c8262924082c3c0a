"""Genus-0 layer: axiom validation, two-point functions, hierarchies, solvers.

Validators compute residual series for the closed axioms (string, dilaton,
recursion relations, and the two-point shift identity) and their open
analogues; every residual is exact, and a pass means literal zero on the
reliable window.  The solvers manufacture example potentials from a
small-phase-space seed by marching in descendent weight: at each weight the
imposed equation slices are affine in the unknown coefficients with all
lower-weight data already fixed, so each stage is one sparse exact linear
solve.  Coefficients the imposed equations never touch (one-point data and,
in the closed case, two-point data of purely positive level) are set to zero
and recorded as free.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Sequence

from .algebra import (
    KIND_PHI,
    KIND_V,
    JetPoly,
    dx,
    exponent_of,
    jet_partial,
    mono_div_var,
    phivar,
    var_name,
    vvar,
)
from .bigphase import (
    BigMonomial,
    BigSeries,
    BigVar,
    TheoryData,
    mono_degree,
    mono_from_factors,
    mono_mul_var,
    mono_weight,
    partial,
    partial_many,
    restrict_small,
    s_var,
    t11_partial,
    t_var,
)


class SeedError(ValueError):
    """The seed violates a restriction forced by the string equation."""


class NoSolutionError(Exception):
    """The staged linear system became inconsistent."""

    def __init__(self, label, message):
        self.label = label
        super().__init__(message)


# ---------------------------------------------------------------------------
# residual reports
# ---------------------------------------------------------------------------

@dataclass
class ResidualEntry:
    equation: str
    indices: tuple
    residual: BigSeries
    window: int | None

    @property
    def is_zero(self) -> bool:
        return self.residual.is_zero()


@dataclass
class ResidualReport:
    entries: list[ResidualEntry] = field(default_factory=list)
    checked: dict[str, str] = field(default_factory=dict)

    def add(self, equation: str, indices: tuple, residual: BigSeries) -> None:
        self.entries.append(ResidualEntry(equation, indices, residual, residual.rel))

    @property
    def all_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

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
            status = "zero" if e.is_zero else "NONZERO"
            lines.append(f"{e.equation} {e.indices}: {status} (window<= {e.window})")
        for eq, rng in sorted(self.checked.items()):
            lines.append(f"# {eq}: {rng}")
        verdict = "PASS" if self.all_zero else "FAIL"
        lines.append(f"# overall: {verdict}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def eta_contracted_hessian(f0: BigSeries, alpha: int, a: int,
                           theory: TheoryData) -> list[BigSeries]:
    """For each nu, the eta-raised Hessian row d^2F0/dt{alpha}_a dt{mu}_0."""
    rows = [partial_many(f0, [t_var(alpha, a), t_var(mu, 0)])
            for mu in range(1, theory.n + 1)]
    out = []
    for nu in range(1, theory.n + 1):
        acc = BigSeries.zero(f0.trunc, None if f0.rel is None else f0.rel - 2)
        for mu in range(1, theory.n + 1):
            coef = theory.eta_inv[mu - 1][nu - 1]
            if coef:
                acc = acc + rows[mu - 1] * coef
        out.append(acc)
    return out


def monomials_up_to(variables: Sequence[BigVar], max_deg: int) -> list[BigMonomial]:
    vs = sorted(variables)
    out: list[BigMonomial] = []
    for d in range(max_deg + 1):
        for combo in combinations_with_replacement(vs, d):
            acc: dict[BigVar, int] = {}
            for v in combo:
                acc[v] = acc.get(v, 0) + 1
            out.append(tuple(sorted(acc.items())))
    return out


def weight_buckets(monos: Iterable[BigMonomial]) -> dict[int, list[BigMonomial]]:
    out: dict[int, list[BigMonomial]] = defaultdict(list)
    for m in monos:
        out[mono_weight(m)].append(m)
    return dict(out)


class _Table:
    """Incrementally maintained derivative of a coefficient table.

    Entries are weight-bucketed lists of (degree, monomial, coefficient) for
    the series sum_spec scale * d^k F / d(spec vars), fed one F-coefficient
    at a time.  Duplicate monomials in a bucket are allowed; consumers
    accumulate.
    """

    def __init__(self, specs: Sequence[tuple[tuple[BigVar, ...], Fraction]]):
        self.specs = [(vars_, scale) for vars_, scale in specs if scale]
        self.buckets: dict[int, list[tuple[int, BigMonomial, Fraction]]] = {}

    def push(self, mono: BigMonomial, coef: Fraction) -> None:
        for dvars, scale in self.specs:
            cur = mono
            mult = 1
            for var in dvars:
                e = exponent_of(cur, var)
                if not e:
                    mult = 0
                    break
                mult *= e
                cur = mono_div_var(cur, var)
            if not mult:
                continue
            self.buckets.setdefault(mono_weight(cur), []).append(
                (mono_degree(cur), cur, coef * mult * scale))

    def push_all(self, coeffs: dict[BigMonomial, Fraction]) -> None:
        for mono, coef in coeffs.items():
            self.push(mono, coef)

    def bucket(self, w: int) -> list[tuple[int, BigMonomial, Fraction]]:
        return self.buckets.get(w, ())


def slice_product(a: _Table, b: _Table, weight: int, deg_cap: int
                  ) -> dict[BigMonomial, Fraction]:
    """Coefficients of the product of two tables at one output weight."""
    out: dict[BigMonomial, Fraction] = {}
    for w1 in range(weight + 1):
        lhs = a.bucket(w1)
        rhs = b.bucket(weight - w1)
        if not lhs or not rhs:
            continue
        for d1, m1, c1 in lhs:
            for d2, m2, c2 in rhs:
                if d1 + d2 > deg_cap:
                    continue
                key = m1 if not m2 else (m2 if not m1 else None)
                if key is None:
                    acc = dict(m1)
                    for var, exp in m2:
                        acc[var] = acc.get(var, 0) + exp
                    key = tuple(sorted(acc.items()))
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


class _RowSystem:
    """Sparse exact linear system accumulated row by row."""

    def __init__(self):
        self.rows: list[tuple[dict[BigMonomial, Fraction], Fraction, tuple]] = []

    def add(self, lhs: dict[BigMonomial, Fraction], rhs: Fraction, label: tuple) -> None:
        lhs = {m: c for m, c in lhs.items() if c}
        if not lhs:
            if rhs:
                raise NoSolutionError(label, f"inconsistent constraint {label}: 0 = {rhs}")
            return
        self.rows.append((lhs, rhs, label))

    def solve(self, unknowns: set[BigMonomial]
              ) -> tuple[dict[BigMonomial, Fraction], list[BigMonomial]]:
        assign: dict[BigMonomial, Fraction] = {}
        pending = self.rows
        while True:
            progressed = False
            deferred = []
            for lhs, rhs, label in pending:
                reduced: dict[BigMonomial, Fraction] = {}
                for m, c in lhs.items():
                    if m in assign:
                        rhs -= c * assign[m]
                    else:
                        reduced[m] = c
                if not reduced:
                    if rhs:
                        raise NoSolutionError(
                            label, f"inconsistent constraint {label}: 0 = {rhs}")
                    continue
                if len(reduced) == 1:
                    m, c = next(iter(reduced.items()))
                    assign[m] = rhs / c
                    progressed = True
                else:
                    deferred.append((reduced, rhs, label))
            pending = deferred
            if not pending or not progressed:
                break
        if pending:
            assign.update(self._eliminate(pending))
        free = sorted(m for m in unknowns if m not in assign)
        return assign, free

    @staticmethod
    def _eliminate(rows) -> dict[BigMonomial, Fraction]:
        rows = [(dict(lhs), rhs, label) for lhs, rhs, label in rows]
        pivots: list[tuple[BigMonomial, dict, Fraction]] = []
        for lhs, rhs, label in rows:
            for pvar, plhs, prhs in pivots:
                if pvar in lhs:
                    factor = lhs.pop(pvar)
                    for m, c in plhs.items():
                        s = lhs.get(m, Fraction(0)) - factor * c
                        if s:
                            lhs[m] = s
                        else:
                            lhs.pop(m, None)
                    rhs -= factor * prhs
            if not lhs:
                if rhs:
                    raise NoSolutionError(label, f"inconsistent constraint {label}")
                continue
            pvar = min(lhs)
            pcoef = lhs.pop(pvar)
            plhs = {m: c / pcoef for m, c in lhs.items()}
            pivots.append((pvar, plhs, rhs / pcoef))
        assign: dict[BigMonomial, Fraction] = {}
        for pvar, plhs, prhs in reversed(pivots):
            val = prhs
            for m, c in plhs.items():
                val -= c * assign.get(m, Fraction(0))
            assign[pvar] = val
        return assign


@dataclass
class SolveResult:
    """A solved potential plus the monomials the equations left unconstrained."""

    series: BigSeries
    free: list[BigMonomial]


# ---------------------------------------------------------------------------
# closed-sector validation
# ---------------------------------------------------------------------------

def string_residual(f0: BigSeries, theory: TheoryData) -> BigSeries:
    tr = theory.trunc
    res = -t11_partial(f0, 0, theory)
    for alpha in range(1, theory.n + 1):
        for b in range(tr.level_max):
            res = res + BigSeries.var(t_var(alpha, b + 1), tr) * partial(f0, t_var(alpha, b))
    for alpha in range(1, theory.n + 1):
        for beta in range(1, theory.n + 1):
            coef = theory.eta[alpha - 1][beta - 1]
            if coef:
                res = res + (BigSeries.var(t_var(alpha, 0), tr)
                             * BigSeries.var(t_var(beta, 0), tr)) * (coef / 2)
    return res


def dilaton_residual(f0: BigSeries, theory: TheoryData) -> BigSeries:
    tr = theory.trunc
    res = -t11_partial(f0, 1, theory) - f0 * 2
    for alpha in range(1, theory.n + 1):
        for a in range(tr.level_max + 1):
            res = res + BigSeries.var(t_var(alpha, a), tr) * partial(f0, t_var(alpha, a))
    return res


def validate_closed_genus0(f0: BigSeries, theory: TheoryData) -> ResidualReport:
    """Residuals of the closed genus-0 axioms over the truncation window."""
    tr = theory.trunc
    amax = tr.level_max
    report = ResidualReport()
    report.add("string", (), string_residual(f0, theory))
    report.checked["string"] = f"single equation, degree window <= {tr.deg_max - 1}"
    if amax >= 1:
        report.add("dilaton", (), dilaton_residual(f0, theory))
        report.checked["dilaton"] = "single equation"
    else:
        report.checked["dilaton"] = "skipped: needs level bound >= 1"
    pairs = [(beta, b, gamma, c)
             for beta in range(1, theory.n + 1) for b in range(amax + 1)
             for gamma in range(1, theory.n + 1) for c in range(amax + 1)
             if (beta, b) <= (gamma, c)]
    for alpha in range(1, theory.n + 1):
        for a in range(amax):
            raised = eta_contracted_hessian(f0, alpha, a, theory)
            for beta, b, gamma, c in pairs:
                lhs = partial_many(f0, [t_var(alpha, a + 1), t_var(beta, b), t_var(gamma, c)])
                rhs = BigSeries.zero(tr)
                for nu in range(1, theory.n + 1):
                    rhs = rhs + raised[nu - 1] * partial_many(
                        f0, [t_var(nu, 0), t_var(beta, b), t_var(gamma, c)])
                report.add("trr0", (alpha, a, beta, b, gamma, c), lhs - rhs)
            for beta in range(1, theory.n + 1):
                for b in range(amax):
                    if (alpha, a) > (beta, b):
                        continue
                    lhs = (partial_many(f0, [t_var(alpha, a + 1), t_var(beta, b)])
                           + partial_many(f0, [t_var(alpha, a), t_var(beta, b + 1)]))
                    rhs = BigSeries.zero(tr)
                    for nu in range(1, theory.n + 1):
                        rhs = rhs + raised[nu - 1] * partial_many(
                            f0, [t_var(nu, 0), t_var(beta, b)])
                    report.add("two_point_shift", (alpha, a, beta, b), lhs - rhs)
    report.checked["trr0"] = (f"alpha<= {theory.n}, a<= {amax - 1}, "
                              f"(beta,b)<=(gamma,c) with b,c<= {amax}")
    report.checked["two_point_shift"] = f"a,b<= {amax - 1}, symmetric pairs once"
    return report


# ---------------------------------------------------------------------------
# open-sector validation
# ---------------------------------------------------------------------------

def open_string_residual(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    tr = theory.trunc
    res = -t11_partial(f0o, 0, theory) + BigSeries.var(s_var(0), tr)
    for alpha in range(1, theory.n + 1):
        for b in range(tr.level_max):
            res = res + BigSeries.var(t_var(alpha, b + 1), tr) * partial(f0o, t_var(alpha, b))
    for a in range(tr.level_max):
        res = res + BigSeries.var(s_var(a + 1), tr) * partial(f0o, s_var(a))
    return res


def open_dilaton_residual(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    tr = theory.trunc
    res = -t11_partial(f0o, 1, theory) - f0o
    for alpha in range(1, theory.n + 1):
        for a in range(tr.level_max + 1):
            res = res + BigSeries.var(t_var(alpha, a), tr) * partial(f0o, t_var(alpha, a))
    for a in range(tr.level_max + 1):
        res = res + BigSeries.var(s_var(a), tr) * partial(f0o, s_var(a))
    return res


def validate_open_genus0(f0: BigSeries, f0o: BigSeries, theory: TheoryData
                         ) -> ResidualReport:
    """Residuals of the open genus-0 axioms, differentials taken componentwise."""
    tr = theory.trunc
    amax = tr.level_max
    report = ResidualReport()
    report.add("open_string", (), open_string_residual(f0o, theory))
    report.checked["open_string"] = f"single equation, degree window <= {tr.deg_max - 1}"
    if amax >= 1:
        report.add("open_dilaton", (), open_dilaton_residual(f0o, theory))
        report.checked["open_dilaton"] = "single equation"
    else:
        report.checked["open_dilaton"] = "skipped: needs level bound >= 1"
    pairing = t11_partial(partial(f0o, s_var(0)), 0, theory)
    level0 = {key: coef for key, coef in pairing.terms.items()
              if all(level == 0 for (_k, _a, level), _e in key[1])}
    norm = BigSeries(level0, tr, pairing.rel, _checked=True) - 1
    report.add("normalization", (), norm)
    report.checked["normalization"] = ("d^2F0o/dt11_0 ds_0 restricted to "
                                       "positive levels = 0 is identically 1")
    yvars = theory.all_vars()
    ds0 = partial(f0o, s_var(0))
    for alpha in range(1, theory.n + 1):
        for p in range(amax):
            raised = eta_contracted_hessian(f0, alpha, p, theory)
            dtp1 = partial(f0o, t_var(alpha, p + 1))
            dtp = partial(f0o, t_var(alpha, p))
            for y in yvars:
                lhs = partial(dtp1, y)
                rhs = dtp * partial(ds0, y)
                for nu in range(1, theory.n + 1):
                    rhs = rhs + raised[nu - 1] * partial_many(f0o, [t_var(nu, 0), y])
                report.add("open_trr_t", (alpha, p, y), lhs - rhs)
    for p in range(amax):
        dsp1 = partial(f0o, s_var(p + 1))
        dsp = partial(f0o, s_var(p))
        for y in yvars:
            res = partial(dsp1, y) - dsp * partial(ds0, y)
            report.add("open_trr_s", (p, y), res)
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
    return restrict_small(partial_many(f0, [t_var(alpha, a), t_var(beta, b)]), theory)


def gamma(f0o: BigSeries, alpha: int, a: int, theory: TheoryData) -> JetPoly:
    if a > theory.trunc.level_max:
        raise IndexError("index outside level window")
    return restrict_small(partial(f0o, t_var(alpha, a)), theory)


def delta(f0o: BigSeries, a: int, theory: TheoryData) -> JetPoly:
    if a > theory.trunc.level_max:
        raise IndexError("index outside level window")
    return restrict_small(partial(f0o, s_var(a)), theory)


@dataclass
class TwoPointTable:
    """All restricted one- and two-point functions over the index window."""

    omega: dict[tuple[int, int, int, int], JetPoly]
    gamma: dict[tuple[int, int], JetPoly]
    delta: dict[int, JetPoly]
    theory: TheoryData


def two_point_table(f0: BigSeries, f0o: BigSeries | None,
                    theory: TheoryData) -> TwoPointTable:
    amax = theory.trunc.level_max
    om = {}
    for alpha in range(1, theory.n + 1):
        for a in range(amax + 1):
            for beta in range(1, theory.n + 1):
                for b in range(amax + 1):
                    if (alpha, a) <= (beta, b):
                        om[(alpha, a, beta, b)] = omega(f0, alpha, a, beta, b, theory)
                    else:
                        om[(alpha, a, beta, b)] = om[(beta, b, alpha, a)]
    gm = {}
    dl = {}
    if f0o is not None:
        for alpha in range(1, theory.n + 1):
            for a in range(amax + 1):
                gm[(alpha, a)] = gamma(f0o, alpha, a, theory)
        for a in range(amax + 1):
            dl[a] = delta(f0o, a, theory)
    return TwoPointTable(om, gm, dl, theory)


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


def solve_closed_order_by_order(seed: JetPoly, theory: TheoryData) -> SolveResult:
    """Extend a small-phase-space seed to a potential killing string + TRR residuals.

    Raises SeedError when the seed violates the restricted string equation and
    NoSolutionError when some stage has no consistent extension.
    """
    tr = theory.trunc
    dmax, amax = tr.deg_max, tr.level_max
    want = JetPoly.zero(seed.trunc)
    for alpha in range(1, theory.n + 1):
        for beta in range(1, theory.n + 1):
            coef = theory.eta[alpha - 1][beta - 1]
            if coef:
                want = want + (JetPoly.var(vvar(alpha, 0), seed.trunc)
                               * JetPoly.var(vvar(beta, 0), seed.trunc)) * (coef / 2)
    got = JetPoly.zero(seed.trunc)
    for alpha in range(1, theory.n + 1):
        if theory.avec[alpha - 1]:
            got = got + jet_partial(seed, vvar(alpha, 0)) * theory.avec[alpha - 1]
    if got.terms != want.terms:
        raise SeedError("seed fails the restricted string equation at "
                        f"{_first_mismatch(got, want)} "
                        "(unit derivative must be the metric quadratic)")

    known = _seed_coeffs(seed, theory, allow_phi=False)
    tvars = theory.t_vars()
    by_weight = weight_buckets(monomials_up_to(tvars, dmax))

    hess = {}
    third = {}
    for alpha in range(1, theory.n + 1):
        for a in range(amax):
            for nu in range(1, theory.n + 1):
                hess[(alpha, a, nu)] = _Table(
                    [((t_var(alpha, a), t_var(mu, 0)), theory.eta_inv[mu - 1][nu - 1])
                     for mu in range(1, theory.n + 1)])
    pairs = [(beta, b, gamma, c)
             for beta in range(1, theory.n + 1) for b in range(amax + 1)
             for gamma in range(1, theory.n + 1) for c in range(amax + 1)
             if (beta, b) <= (gamma, c)]
    for nu in range(1, theory.n + 1):
        for beta, b, gamma, c in pairs:
            third[(nu, beta, b, gamma, c)] = _Table(
                [((t_var(nu, 0), t_var(beta, b), t_var(gamma, c)), Fraction(1))])

    def push(coeffs: dict[BigMonomial, Fraction]) -> None:
        for table in hess.values():
            table.push_all(coeffs)
        for table in third.values():
            table.push_all(coeffs)

    push(known)
    free: list[BigMonomial] = []
    for w in range(1, dmax * amax + 1):
        stage = by_weight.get(w)
        if not stage:
            continue
        rows = _RowSystem()
        for mu_mono in stage:
            if mono_degree(mu_mono) > dmax - 1:
                continue
            lhs: dict[BigMonomial, Fraction] = {}
            for g in range(1, theory.n + 1):
                acoef = theory.avec[g - 1]
                if acoef:
                    m2 = mono_mul_var(mu_mono, t_var(g, 0))
                    lhs[m2] = lhs.get(m2, Fraction(0)) + acoef * (
                        exponent_of(mu_mono, t_var(g, 0)) + 1)
            rhs = Fraction(0)
            for beta in range(1, theory.n + 1):
                for b in range(amax):
                    down = mono_div_var(mu_mono, t_var(beta, b + 1))
                    if down is None:
                        continue
                    src = mono_mul_var(down, t_var(beta, b))
                    coef = known.get(src)
                    if coef:
                        rhs += coef * (exponent_of(down, t_var(beta, b)) + 1)
            rows.add(lhs, rhs, ("string", mu_mono))
        for alpha in range(1, theory.n + 1):
            for a in range(amax):
                for beta, b, gamma, c in pairs:
                    wm = w - (a + 1) - b - c
                    if wm < 0:
                        continue
                    mus = [m for m in by_weight.get(wm, ())
                           if mono_degree(m) <= dmax - 3]
                    if not mus:
                        continue
                    rhs_slice: dict[BigMonomial, Fraction] = {}
                    for nu in range(1, theory.n + 1):
                        part = slice_product(hess[(alpha, a, nu)],
                                             third[(nu, beta, b, gamma, c)],
                                             wm, dmax - 3)
                        for m, cval in part.items():
                            s = rhs_slice.get(m, Fraction(0)) + cval
                            if s:
                                rhs_slice[m] = s
                            else:
                                del rhs_slice[m]
                    x1, x2, x3 = t_var(alpha, a + 1), t_var(beta, b), t_var(gamma, c)
                    for mu_mono in mus:
                        m = mono_mul_var(mono_mul_var(mono_mul_var(mu_mono, x1), x2), x3)
                        k = exponent_of(m, x1)
                        m_1 = mono_div_var(m, x1)
                        k *= exponent_of(m_1, x2)
                        m_2 = mono_div_var(m_1, x2)
                        k *= exponent_of(m_2, x3)
                        rows.add({m: Fraction(k)}, rhs_slice.get(mu_mono, Fraction(0)),
                                 ("trr0", (alpha, a, beta, b, gamma, c), mu_mono))
        assign, stage_free = rows.solve(set(stage))
        for m in stage_free:
            assign.setdefault(m, Fraction(0))
        free.extend(stage_free)
        known.update(assign)
        push({m: c for m, c in assign.items() if c})
    series = BigSeries.from_coeffs({m: c for m, c in known.items() if c}, tr, rel=dmax)
    return SolveResult(series, free)


def solve_open_order_by_order(f0: BigSeries, seed: JetPoly,
                              theory: TheoryData) -> SolveResult:
    """Extend an open seed to a potential killing the open string/TRR residuals."""
    tr = theory.trunc
    dmax, amax = tr.deg_max, tr.level_max
    want = JetPoly.var(phivar(0), seed.trunc)
    got = JetPoly.zero(seed.trunc)
    for alpha in range(1, theory.n + 1):
        if theory.avec[alpha - 1]:
            got = got + jet_partial(seed, vvar(alpha, 0)) * theory.avec[alpha - 1]
    if got.terms != want.terms:
        raise SeedError("seed fails the restricted open string equation at "
                        f"{_first_mismatch(got, want)} "
                        "(unit derivative must equal phi)")

    known = _seed_coeffs(seed, theory, allow_phi=True)
    cap_out = dmax if f0.rel is None else min(dmax, f0.rel)
    allvars = theory.all_vars()
    by_weight = weight_buckets(monomials_up_to(allvars, cap_out))

    closed_hess = {}
    for alpha in range(1, theory.n + 1):
        for p in range(amax):
            for nu in range(1, theory.n + 1):
                table = _Table(
                    [((t_var(alpha, p), t_var(mu, 0)), theory.eta_inv[mu - 1][nu - 1])
                     for mu in range(1, theory.n + 1)])
                for (eps, mono), coef in f0.terms.items():
                    if not eps:
                        table.push(mono, coef)
                closed_hess[(alpha, p, nu)] = table

    d2t = {(y, nu): _Table([((y, t_var(nu, 0)), Fraction(1))])
           for y in allvars for nu in range(1, theory.n + 1)}
    d2s = {y: _Table([((y, s_var(0)), Fraction(1))]) for y in allvars}
    d1t = {(alpha, p): _Table([((t_var(alpha, p),), Fraction(1))])
           for alpha in range(1, theory.n + 1) for p in range(amax)}
    d1s = {p: _Table([((s_var(p),), Fraction(1))]) for p in range(amax)}

    def push(coeffs: dict[BigMonomial, Fraction]) -> None:
        for table in d2t.values():
            table.push_all(coeffs)
        for table in d2s.values():
            table.push_all(coeffs)
        for table in d1t.values():
            table.push_all(coeffs)
        for table in d1s.values():
            table.push_all(coeffs)

    push(known)
    s0 = s_var(0)
    free: list[BigMonomial] = []
    for w in range(1, cap_out * amax + 1):
        stage = by_weight.get(w)
        if not stage:
            continue
        rows = _RowSystem()
        for mu_mono in stage:
            if mono_degree(mu_mono) > cap_out - 1:
                continue
            lhs: dict[BigMonomial, Fraction] = {}
            for g in range(1, theory.n + 1):
                acoef = theory.avec[g - 1]
                if acoef:
                    m2 = mono_mul_var(mu_mono, t_var(g, 0))
                    lhs[m2] = lhs.get(m2, Fraction(0)) + acoef * (
                        exponent_of(mu_mono, t_var(g, 0)) + 1)
            rhs = Fraction(0)
            for beta in range(1, theory.n + 1):
                for b in range(amax):
                    down = mono_div_var(mu_mono, t_var(beta, b + 1))
                    if down is None:
                        continue
                    src = mono_mul_var(down, t_var(beta, b))
                    coef = known.get(src)
                    if coef:
                        rhs += coef * (exponent_of(down, t_var(beta, b)) + 1)
            for b in range(amax):
                down = mono_div_var(mu_mono, s_var(b + 1))
                if down is None:
                    continue
                src = mono_mul_var(down, s_var(b))
                coef = known.get(src)
                if coef:
                    rhs += coef * (exponent_of(down, s_var(b)) + 1)
            rows.add(lhs, rhs, ("open_string", mu_mono))
        for alpha in range(1, theory.n + 1):
            for p in range(amax):
                x_t = t_var(alpha, p + 1)
                for y in allvars:
                    wm = w - (p + 1) - y[2]
                    if wm < 0:
                        continue
                    mus = [m for m in by_weight.get(wm, ())
                           if mono_degree(m) <= cap_out - 2]
                    if not mus:
                        continue
                    rhs_slice: dict[BigMonomial, Fraction] = {}
                    for nu in range(1, theory.n + 1):
                        part = slice_product(closed_hess[(alpha, p, nu)],
                                             d2t[(y, nu)], wm, cap_out - 2)
                        for m, cval in part.items():
                            s = rhs_slice.get(m, Fraction(0)) + cval
                            if s:
                                rhs_slice[m] = s
                            else:
                                del rhs_slice[m]
                    part = slice_product(d1t[(alpha, p)], d2s[y], wm, cap_out - 2)
                    for m, cval in part.items():
                        s = rhs_slice.get(m, Fraction(0)) + cval
                        if s:
                            rhs_slice[m] = s
                        else:
                            del rhs_slice[m]
                    for mu_mono in mus:
                        m = mono_mul_var(mono_mul_var(mu_mono, y), x_t)
                        k = exponent_of(m, y)
                        k *= exponent_of(mono_div_var(m, y), x_t)
                        rows.add({m: Fraction(k)}, rhs_slice.get(mu_mono, Fraction(0)),
                                 ("open_trr_t", (alpha, p, y), mu_mono))
        for p in range(amax):
            x_s = s_var(p + 1)
            for y in allvars:
                wm = w - (p + 1) - y[2]
                if wm < 0:
                    continue
                mus = [m for m in by_weight.get(wm, ())
                       if mono_degree(m) <= cap_out - 2]
                if not mus:
                    continue
                rhs_slice = slice_product(d1s[p], d2s[y], wm, cap_out - 2)
                for mu_mono in mus:
                    m = mono_mul_var(mono_mul_var(mu_mono, y), x_s)
                    k = exponent_of(m, y)
                    k *= exponent_of(mono_div_var(m, y), x_s)
                    rows.add({m: Fraction(k)}, rhs_slice.get(mu_mono, Fraction(0)),
                             ("open_trr_s", (p, y), mu_mono))
        assign, stage_free = rows.solve(set(stage))
        for m in stage_free:
            assign.setdefault(m, Fraction(0))
        free.extend(stage_free)
        known.update(assign)
        push({m: c for m, c in assign.items() if c})
    series = BigSeries.from_coeffs({m: c for m, c in known.items() if c}, tr, rel=cap_out)
    return SolveResult(series, free)
