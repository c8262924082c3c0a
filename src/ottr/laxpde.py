"""Exponential-conjugation polynomials, evolution operators, and Lax flows.

Three subsystems live here:

* the Q-polynomials ``(eps d/dx)^i exp(f/eps) = Q_i(f_*, eps) exp(f/eps)``
  with their recursion and low-order eps expansion;
* the interior/boundary linear differential operators whose first-order
  approximation governs ``exp((F0o + eps F1o)/eps)``, together with the
  residual check of that statement on concrete potentials;
* a rank-1 generator that integrates the KdV-Lax flows for the open
  potential of polynomial disk intersection theory and cross-checks the
  result against the axiomatic solvers.

Everything is exact; eps bookkeeping is truncated at first order wherever the
checked statements are first-order statements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .algebra import (
    ONE,
    JetPoly,
    JetTruncation,
    coef_phi_power,
    dx,
    exponent_of,
    fvar,
    jet_partial,
    mono_div_var,
    phi_degree,
    phivar,
    standard_degree,
    vvar,
)
from .bigphase import (
    BigMonomial,
    BigSeries,
    TheoryData,
    Truncation,
    eval_jetpoly,
    mono_degree,
    partial,
    partial_many,
    restrict_window,
    restrict_window_up,
    s_var,
    t11_partial,
    t_var,
    vtop,
)
from .genus0 import (
    ResidualReport,
    TwoPointTable,
    monomials_up_to,
    solve_closed_order_by_order,
    two_point_table,
    weight_buckets,
)
from .genus1 import extract_go


def qpoly_truncation(i: int) -> JetTruncation:
    return JetTruncation(deg0_max=0, jet_max=i + 1, eps_max=max(i, 1))


def qpoly(i: int, trunc: JetTruncation | None = None) -> JetPoly:
    """The i-th exponential-conjugation polynomial from its recursion."""
    if i < 0:
        raise ValueError("index must be >= 0")
    if trunc is None:
        trunc = qpoly_truncation(i)
    q = JetPoly.const(1, trunc)
    f1 = JetPoly.var(fvar(1), trunc)
    eps = JetPoly.eps(trunc)
    for _ in range(i):
        q = f1 * q + eps * dx(q)
    return q


def qpoly_expansion_residual(i: int, trunc: JetTruncation | None = None) -> JetPoly:
    """Q_i minus its two leading eps orders; divisible by eps^2."""
    if trunc is None:
        trunc = qpoly_truncation(i)
    res = qpoly(i, trunc)
    f1 = JetPoly.var(fvar(1), trunc)
    lead = JetPoly.const(1, trunc)
    for _ in range(i):
        lead = lead * f1
    res = res - lead
    if i >= 2:
        sub = JetPoly.eps(trunc) * JetPoly.var(fvar(2), trunc) * comb(i, 2)
        for _ in range(i - 2):
            sub = sub * f1
        res = res - sub
    return res


# ---------------------------------------------------------------------------
# linear differential operators with jet-polynomial coefficients
# ---------------------------------------------------------------------------

@dataclass
class LinearDiffOp:
    """sum_i (C_{i,0} + eps C_{i,1}) (eps d/dx)^i with v-jet coefficients."""

    coeffs: dict[tuple[int, int], JetPoly]
    meta: tuple = ()

    def order(self) -> int:
        return max((i for i, _ in self.coeffs), default=0)

    def check_homogeneity(self) -> None:
        """Coefficient of eps^j must be homogeneous of standard degree j."""
        for (i, j), poly in self.coeffs.items():
            parts = standard_degree(poly)
            if parts and set(parts) != {j}:
                raise ValueError(
                    f"coefficient ({i},{j}) of {self.meta} has degrees "
                    f"{sorted(parts)}, expected {{{j}}}")

    def eval_slices(self, sol_v, theory: TheoryData
                    ) -> dict[int, tuple[BigSeries, BigSeries]]:
        """Evaluate coefficients along a solution: i -> (eps^0, eps^1) series."""
        zero = BigSeries.zero(theory.trunc)
        out: dict[int, tuple[BigSeries, BigSeries]] = {}
        for (i, j), poly in self.coeffs.items():
            val = eval_jetpoly(poly, sol_v, None, theory)
            cur = out.get(i, (zero, zero))
            if j == 0:
                out[i] = (cur[0] + val, cur[1])
            elif j == 1:
                out[i] = (cur[0], cur[1] + val)
            else:
                raise ValueError("operators are truncated at first eps order")
        return out


def _first_order_coeff(two_point: JetPoly, go: JetPoly,
                       extra: JetPoly | None, theory: TheoryData) -> JetPoly:
    jt = theory.trunc.jet()
    go_phi = jet_partial(go, phivar(0))
    tp_phi = jet_partial(two_point, phivar(0))
    acc = JetPoly.zero(jt)
    for beta in range(1, theory.n + 1):
        vb = vvar(beta, 0)
        bracket = (go_phi * jet_partial(two_point, vb)
                   - jet_partial(go, vb) * tp_phi
                   + jet_partial(tp_phi, vb) * Fraction(1, 2))
        acc = acc + bracket * JetPoly.var(vvar(beta, 1), jt)
    if extra is not None:
        acc = acc + extra
    return acc


def build_interior_op(alpha: int, a: int, table: TwoPointTable, go: JetPoly,
                      theory: TheoryData) -> LinearDiffOp:
    """Interior-direction operator from the two-point table and initial data."""
    if a > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    gam = table.gamma[(alpha, a)]
    extra = JetPoly.zero(theory.trunc.jet())
    for beta in range(1, theory.n + 1):
        gvb = jet_partial(go, vvar(beta, 0))
        if gvb.is_zero():
            continue
        for g in range(1, theory.n + 1):
            coef = theory.eta_inv[beta - 1][g - 1]
            if coef:
                extra = extra + gvb * dx(table.omega[(g, 0, alpha, a)]) * coef
    first = _first_order_coeff(gam, go, extra, theory)
    coeffs: dict[tuple[int, int], JetPoly] = {}
    for i in range(phi_degree(gam) + 1):
        c = coef_phi_power(gam, i)
        if not c.is_zero():
            coeffs[(i, 0)] = c
    for i in range(phi_degree(first) + 1):
        c = coef_phi_power(first, i)
        if not c.is_zero():
            coeffs[(i, 1)] = c
    return LinearDiffOp(coeffs, ("int", alpha, a))


def build_boundary_op(a: int, table: TwoPointTable, go: JetPoly,
                      theory: TheoryData) -> LinearDiffOp:
    """Boundary-direction operator; no metric transport term."""
    if a > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    dl = table.delta[a]
    first = _first_order_coeff(dl, go, None, theory)
    coeffs: dict[tuple[int, int], JetPoly] = {}
    for i in range(phi_degree(dl) + 1):
        c = coef_phi_power(dl, i)
        if not c.is_zero():
            coeffs[(i, 0)] = c
    for i in range(phi_degree(first) + 1):
        c = coef_phi_power(first, i)
        if not c.is_zero():
            coeffs[(i, 1)] = c
    return LinearDiffOp(coeffs, ("boun", a))


def first_order_rhs(a_slices: dict[int, tuple[BigSeries, BigSeries]],
                    f0: BigSeries, f1: BigSeries, theory: TheoryData,
                    powers: list[BigSeries] | None = None
                    ) -> tuple[BigSeries, BigSeries]:
    """First-order slices of sum_i a_i Q_i(f) for f = f0 + eps f1.

    The eps^0 slice is sum a_i^{[0]} (Xf0)^i; the eps^1 slice adds the
    coefficient corrections, the linearization in Xf1, and the second-jet
    term from the eps expansion of Q_i.
    """
    tr = theory.trunc
    xf0 = t11_partial(f0, 0, theory)
    xf1 = t11_partial(f1, 0, theory)
    xxf0 = t11_partial(xf0, 0, theory)
    imax = max(a_slices, default=0)
    if powers is None:
        powers = [BigSeries.const(1, tr)]
    while len(powers) <= imax:
        powers.append(powers[-1] * xf0)
    rhs0 = BigSeries.zero(tr)
    rhs1 = BigSeries.zero(tr)
    for i, (a0, a1) in sorted(a_slices.items()):
        rhs0 = rhs0 + a0 * powers[i]
        rhs1 = rhs1 + a1 * powers[i]
        if i >= 1:
            rhs1 = rhs1 + a0 * powers[i - 1] * xf1 * i
        if i >= 2:
            rhs1 = rhs1 + a0 * powers[i - 2] * xxf0 * comb(i, 2)
    return rhs0, rhs1


def pde_first_order_rhs(op: LinearDiffOp, f0: BigSeries, f1: BigSeries,
                        sol_v, theory: TheoryData
                        ) -> tuple[BigSeries, BigSeries]:
    """Evaluate an operator's first-order action on f = f0 + eps f1."""
    return first_order_rhs(op.eval_slices(sol_v, theory), f0, f1, theory)


@dataclass
class EvolutionSystem:
    """All interior/boundary flows of one instance, with shared caches."""

    theory: TheoryData
    f0: BigSeries
    f0o: BigSeries
    f1o: BigSeries
    go: JetPoly
    ops: dict[tuple, LinearDiffOp] = field(default_factory=dict)
    a_evals: dict[tuple, dict[int, tuple[BigSeries, BigSeries]]] = field(default_factory=dict)
    powers: list[BigSeries] = field(default_factory=list)

    @classmethod
    def build(cls, f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
              theory: TheoryData, go: JetPoly | None = None) -> "EvolutionSystem":
        if go is None:
            go = extract_go(f1o, theory)
        table = two_point_table(f0, f0o, theory)
        sys = cls(theory, f0, f0o, f1o, go)
        sol_v = vtop(f0, theory)
        amax = theory.trunc.level_max
        for alpha in range(1, theory.n + 1):
            for a in range(amax + 1):
                op = build_interior_op(alpha, a, table, go, theory)
                op.check_homogeneity()
                sys.ops[("t", alpha, a)] = op
                sys.a_evals[("t", alpha, a)] = op.eval_slices(sol_v, theory)
        for a in range(amax + 1):
            op = build_boundary_op(a, table, go, theory)
            op.check_homogeneity()
            sys.ops[("s", a)] = op
            sys.a_evals[("s", a)] = op.eval_slices(sol_v, theory)
        sys.powers = [BigSeries.const(1, theory.trunc)]
        return sys

    def flow_var(self, label: tuple):
        return t_var(label[1], label[2]) if label[0] == "t" else s_var(label[1])

    def residual(self, label: tuple) -> BigSeries:
        """Joint residual (eps^0 slice) + eps (eps^1 slice) for one flow."""
        var = self.flow_var(label)
        rhs0, rhs1 = first_order_rhs(self.a_evals[label], self.f0o, self.f1o,
                                     self.theory, self.powers)
        res0 = partial(self.f0o, var) - rhs0
        res1 = partial(self.f1o, var) - rhs1
        eps = BigSeries({(1, ONE): Fraction(1)}, self.theory.trunc, None, _checked=True)
        return res0 + eps * res1

    def residual_report(self) -> ResidualReport:
        report = ResidualReport()
        for label in sorted(self.ops):
            kind = "evolution_t" if label[0] == "t" else "evolution_s"
            report.add(kind, label[1:], self.residual(label))
        amax = self.theory.trunc.level_max
        report.checked["evolution_t"] = f"alpha<= {self.theory.n}, a<= {amax}, both eps slices"
        report.checked["evolution_s"] = f"a<= {amax}, both eps slices"
        return report

    def perturbation_residual(self, mono: BigMonomial) -> BigSeries:
        """Change of some flow's eps^1 residual under f1o -> f1o + mono.

        The first-order system is linear in f1o, so the change is
        d(mono)/d(flow) - sum_i i a_i^{[0]} (Xf0)^{i-1} X(mono); the first
        flow with a nonzero change is returned (zero series if none).
        """
        tr = self.theory.trunc
        m_series = BigSeries({(0, mono): Fraction(1)}, tr, None, _checked=True)
        xm = t11_partial(m_series, 0, self.theory)
        last = BigSeries.zero(tr)
        for label in sorted(self.ops):
            var = self.flow_var(label)
            change = partial(m_series, var)
            if not xm.is_zero():
                for i, (a0, _) in self.a_evals[label].items():
                    if i >= 1:
                        change = change - a0 * self.powers_at(i - 1) * xm * i
            if not change.is_zero():
                return change
            last = change
        return last

    def powers_at(self, i: int) -> BigSeries:
        xf0 = t11_partial(self.f0o, 0, self.theory)
        while len(self.powers) <= i:
            self.powers.append(self.powers[-1] * xf0)
        return self.powers[i]


def linear_evolution_residual(f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
                              theory: TheoryData,
                              go: JetPoly | None = None) -> ResidualReport:
    """Residuals of the first-order evolution system for exp((F0o+eps F1o)/eps)."""
    return EvolutionSystem.build(f0, f0o, f1o, theory, go).residual_report()


# ---------------------------------------------------------------------------
# pseudodifferential calculus and the KdV Lax flows, truncated at first order
# ---------------------------------------------------------------------------

def _cap_eps(series: BigSeries, cap: int) -> BigSeries:
    terms = {k: c for k, c in series.terms.items() if k[0] <= cap}
    return BigSeries(terms, series.trunc, series.rel, _checked=True)


def _eps_shift(series: BigSeries, k: int, cap: int) -> BigSeries:
    terms = {}
    for (e, m), c in series.terms.items():
        if e + k <= cap:
            terms[(e + k, m)] = c
    return BigSeries(terms, series.trunc, series.rel, _checked=True)


def _gbinom(i: int, k: int) -> Fraction:
    num = 1
    for t in range(k):
        num *= i - t
    return Fraction(num, _factorial(k))


def _factorial(k: int) -> int:
    out = 1
    for t in range(2, k + 1):
        out *= t
    return out


def _dfact_odd(n: int) -> int:
    out = 1
    for t in range(1, n + 1, 2):
        out *= t
    return out


@dataclass
class PseudoDiffOp:
    """sum_i c_i (eps d/dx)^i with series coefficients, truncated mod eps^2.

    Negative powers are kept down to `floor`; compositions use the symbol
    rule (eps d/dx)^i . c = sum_k binom(i,k) eps^k (X^k c) (eps d/dx)^{i-k},
    which terminates at k=1 under the first-order eps cap.
    """

    coeffs: dict[int, BigSeries]
    theory: TheoryData
    floor: int = -8

    EPS_CAP = 1

    def _clean(self) -> "PseudoDiffOp":
        kept = {}
        for i, c in self.coeffs.items():
            if i < self.floor:
                continue
            c = _cap_eps(c, self.EPS_CAP)
            if not c.is_zero():
                kept[i] = c
        return PseudoDiffOp(kept, self.theory, self.floor)

    @classmethod
    def identity(cls, theory: TheoryData, floor: int = -8) -> "PseudoDiffOp":
        return cls({0: BigSeries.const(1, theory.trunc)}, theory, floor)

    def coefficient(self, i: int) -> BigSeries:
        return self.coeffs.get(i, BigSeries.zero(self.theory.trunc))

    def __add__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        acc = dict(self.coeffs)
        for i, c in other.coeffs.items():
            acc[i] = acc[i] + c if i in acc else c
        return PseudoDiffOp(acc, self.theory, self.floor)._clean()

    def __sub__(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "PseudoDiffOp":
        return PseudoDiffOp({i: s * c for i, s in self.coeffs.items()},
                            self.theory, self.floor)._clean()

    def compose(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        acc: dict[int, BigSeries] = {}
        for i, ci in self.coeffs.items():
            for j, cj in other.coeffs.items():
                shifted = cj
                for k in range(self.EPS_CAP + 1):
                    if i + j - k < self.floor:
                        break
                    coef = _gbinom(i, k)
                    if coef:
                        term = ci * _eps_shift(shifted, k, self.EPS_CAP) * coef
                        key = i + j - k
                        acc[key] = acc[key] + term if key in acc else term
                    shifted = t11_partial(shifted, 0, self.theory)
        return PseudoDiffOp(acc, self.theory, self.floor)._clean()

    def power(self, n: int) -> "PseudoDiffOp":
        out = PseudoDiffOp.identity(self.theory, self.floor)
        for _ in range(n):
            out = out.compose(self)
        return out

    def plus_part(self) -> "PseudoDiffOp":
        return PseudoDiffOp({i: c for i, c in self.coeffs.items() if i >= 0},
                            self.theory, self.floor)

    def slices(self) -> dict[int, tuple[BigSeries, BigSeries]]:
        return {i: (c.eps_slice(0), c.eps_slice(1)) for i, c in self.coeffs.items()}


@dataclass
class KdVLaxContext:
    """The KdV Lax operator (eps d/dx)^2 + 2w and its square root."""

    w: BigSeries
    lax: PseudoDiffOp
    root: PseudoDiffOp
    theory: TheoryData

    @classmethod
    def build(cls, w: BigSeries, theory: TheoryData, depth: int | None = None
              ) -> "KdVLaxContext":
        for (e, _m) in w.terms:
            if e % 2:
                raise ValueError("w must have even eps content only")
        if depth is None:
            depth = 2 * theory.trunc.level_max + 2
        floor = -(depth + 1)
        lax = PseudoDiffOp({2: BigSeries.const(1, theory.trunc), 0: w * 2},
                           theory, floor)._clean()
        root = PseudoDiffOp({1: BigSeries.const(1, theory.trunc)}, theory, floor)
        for k in range(1, depth + 1):
            defect = lax - root.compose(root)
            r = defect.coefficient(1 - k) * Fraction(1, 2)
            if not r.is_zero():
                root = root + PseudoDiffOp({-k: r}, theory, floor)
        return cls(w, lax, root, theory)

    def half_power_plus(self, p: int) -> PseudoDiffOp:
        """(L^{p+1/2})_+ for integer p >= 0."""
        return self.lax.power(p).compose(self.root).plus_part()

    def t_flow_slices(self, p: int) -> dict[int, tuple[BigSeries, BigSeries]]:
        op = self.half_power_plus(p).scale(Fraction(1, _dfact_odd(2 * p + 1)))
        return op.slices()

    def s_flow_slices(self, p: int) -> dict[int, tuple[BigSeries, BigSeries]]:
        op = self.lax.power(p + 1).scale(Fraction(1, 2 ** (p + 1) * _factorial(p + 1)))
        return op.slices()


class PstIntegrationError(Exception):
    """The Lax flows failed a mixed-partial consistency check."""

    def __init__(self, flow, mono, message):
        self.flow = flow
        self.mono = mono
        super().__init__(message)


@dataclass
class PstResult:
    f0: BigSeries
    f0o: BigSeries
    f1o: BigSeries
    report: ResidualReport


def pst_generate(theory: TheoryData, w_eps2: BigSeries | None = None) -> PstResult:
    """Integrate the rank-1 Lax flows for the open potential of disk theory.

    The pure-level-zero sector of both eps slices vanishes (no stable disk
    configurations without boundary data), which together with the flows pins
    every coefficient up to one degree below the window.  Every flow equation
    is then re-checked as an exact residual; the first failure aborts.
    """
    if theory.n != 1 or theory.avec != (Fraction(1),):
        raise ValueError("the Lax generator is a rank-1, unit-direction construction")
    tr = theory.trunc
    dmax, amax = tr.deg_max, tr.level_max
    relout = dmax - 1
    # The flow coefficients carry iterated x-derivatives of w, each of which
    # costs one reliable degree, so the closed sector is solved on an
    # enlarged window and the results are restricted at the end.
    margin = 4 * amax + 6
    tr_big = Truncation(dmax + margin, amax, tr.deg0_max, tr.jet_max, tr.eps_max)
    theory_big = TheoryData.build(theory.n, theory.eta, theory.avec, tr_big)
    jt = tr_big.jet()
    v = JetPoly.var(vvar(1, 0), jt)
    f0_big = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory_big).series
    w = partial_many(f0_big, [t_var(1, 0), t_var(1, 0)])
    if w_eps2 is not None:
        eps2 = BigSeries({(2, ONE): Fraction(1)}, tr_big, None, _checked=True)
        w = w + eps2 * restrict_window_up(w_eps2, tr_big)
    ctx = KdVLaxContext.build(w, theory_big)

    flows: dict[tuple, dict[int, tuple[BigSeries, BigSeries]]] = {}
    for p in range(amax + 1):
        flows[("t", p)] = ctx.t_flow_slices(p)
        flows[("s", p)] = ctx.s_flow_slices(p)

    coeffs: dict[int, dict[BigMonomial, Fraction]] = {0: {}, 1: {}}
    rel_of = {0: dmax, 1: relout}

    def partial_series(g: int) -> BigSeries:
        return BigSeries.from_coeffs(coeffs[g], tr_big, rel=rel_of[g])

    def rhs_slice(label: tuple, g: int) -> BigSeries:
        pair = first_order_rhs(flows[label], partial_series(0), partial_series(1),
                               theory_big)
        return pair[g]

    tvars = [t_var(1, a) for a in range(amax + 1)]
    svars = [s_var(a) for a in range(amax + 1)]

    def integrate_slice(g: int) -> None:
        cap = rel_of[g]
        by_weight = weight_buckets(monomials_up_to(tvars, cap))
        for wgt in range(1, cap * amax + 1):
            batch = [m for m in by_weight.get(wgt, ())
                     if any(var[2] >= 1 for var, _ in m)]
            if not batch:
                continue
            rhs_cache = {p: rhs_slice(("t", p), g) for p in range(1, amax + 1)}
            for m in batch:
                p = max(var[2] for var, _ in m if var[2] >= 1)
                var = t_var(1, p)
                down = mono_div_var(m, var)
                rg = rhs_cache[p]
                if rg.rel is not None and mono_degree(down) > rg.rel:
                    raise PstIntegrationError(("t", p), m,
                                              "flow window too small for target")
                val = rg.coefficient(down) / exponent_of(m, var)
                if val:
                    coeffs[g][m] = val
        by_sdeg: dict[int, list[BigMonomial]] = {}
        for m in monomials_up_to(tvars + svars, cap):
            sd = sum(e for (kind, _a, _l), e in m if kind == 1)
            if sd:
                by_sdeg.setdefault(sd, []).append(m)
        for sd in range(1, cap + 1):
            batch = by_sdeg.get(sd)
            if not batch:
                continue
            rhs_cache = {p: rhs_slice(("s", p), g) for p in range(amax + 1)}
            for m in batch:
                p = max(level for (kind, _a, level), _e in m if kind == 1)
                var = s_var(p)
                down = mono_div_var(m, var)
                rg = rhs_cache[p]
                if rg.rel is not None and mono_degree(down) > rg.rel:
                    raise PstIntegrationError(("s", p), m,
                                              "flow window too small for target")
                val = rg.coefficient(down) / exponent_of(m, var)
                if val:
                    coeffs[g][m] = val

    integrate_slice(0)
    integrate_slice(1)
    f0o_big = partial_series(0)
    f1o_big = partial_series(1)

    report = ResidualReport()
    eps = BigSeries({(1, ONE): Fraction(1)}, tr_big, None, _checked=True)
    for label in sorted(flows):
        kind, p = label
        var = t_var(1, p) if kind == "t" else s_var(p)
        rhs0, rhs1 = first_order_rhs(flows[label], f0o_big, f1o_big, theory_big)
        res = (partial(f0o_big, var) - rhs0) + eps * (partial(f1o_big, var) - rhs1)
        report.add(f"lax_{kind}", (p,), restrict_window(res, tr))
    report.checked["lax_t"] = f"p<= {amax}, both eps slices"
    report.checked["lax_s"] = f"p<= {amax}, both eps slices"
    for entry in report.entries:
        if not entry.is_zero:
            mono = sorted(entry.residual.terms)[0][1]
            raise PstIntegrationError(entry.indices, mono,
                                      f"flow {entry.equation}{entry.indices} fails "
                                      f"mixed-partial consistency at {mono}")
    return PstResult(restrict_window(f0_big, tr), restrict_window(f0o_big, tr),
                     restrict_window(f1o_big, tr), report)
