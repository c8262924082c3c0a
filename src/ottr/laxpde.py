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
from math import comb, factorial, gcd, prod
from typing import Iterator

from .algebra import (
    JetPoly,
    JetTruncation,
    _rel_min,
    coef_phi_power,
    derivative,
    dot,
    dx,
    fvar,
    phi_degree,
    phivar,
    power,
    product_rel,
    standard_degree,
    vvar,
)
from .bigphase import (
    BigMonomial,
    BigSeries,
    BigVar,
    TheoryData,
    Truncation,
    eval_jetpoly,
    restrict_window,
    s_var,
    t11_partial,
    t_var,
    vtop,
    x_jet,
)
from .genus0 import (
    ResidualReport,
    TwoPointTable,
    _from_values,
    _grade_slices,
    _weight_grading,
    solve_closed_order_by_order,
    two_point_table,
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
    f1 = JetPoly.var(fvar(1), trunc)
    res = qpoly(i, trunc) - power(f1, i)
    if i >= 2:
        eps_f2 = JetPoly.eps(trunc) * JetPoly.var(fvar(2), trunc)
        res = res - eps_f2 * comb(i, 2) * power(f1, i - 2)
    return res


# ---------------------------------------------------------------------------
# linear differential operators with jet-polynomial coefficients
# ---------------------------------------------------------------------------

@dataclass
class LinearDiffOp:
    """sum_i (C_{i,0} + eps C_{i,1}) (eps d/dx)^i with v-jet coefficients."""

    coeffs: dict[tuple[int, int], JetPoly]
    meta: tuple = ()

    def check_homogeneity(self) -> None:
        """Coefficient of eps^j must be homogeneous of standard degree j."""
        for (i, j), poly in self.coeffs.items():
            parts = standard_degree(poly)
            if parts and set(parts) != {j}:
                raise ValueError(
                    f"coefficient ({i},{j}) of {self.meta} has degrees "
                    f"{sorted(parts)}, expected {{{j}}}")

    def eval_slices(self, sol_v, theory: TheoryData, memo: dict | None = None
                    ) -> dict[int, tuple[BigSeries, BigSeries]]:
        """Evaluate coefficients along a solution: i -> (eps^0, eps^1) series.
        `memo` keeps the monomial values formed along sol_v (`eval_jetpoly`)."""
        if any(j > 1 for _i, j in self.coeffs):
            raise ValueError("operators are truncated at first eps order")
        vals = {ij: eval_jetpoly(poly, sol_v, None, theory, memo)
                for ij, poly in self.coeffs.items()}
        zero = BigSeries.zero(theory.trunc)
        return {i: (vals.get((i, 0), zero), vals.get((i, 1), zero))
                for i in sorted({i for i, _j in self.coeffs})}


def _first_order_coeff(two_point: JetPoly, go: JetPoly, theory: TheoryData) -> JetPoly:
    jt = theory.trunc.jet()
    go_phi = derivative(go, phivar(0))
    tp_phi = derivative(two_point, phivar(0))
    acc = JetPoly.zero(jt)
    for beta in range(1, theory.n + 1):
        vb = vvar(beta, 0)
        bracket = (go_phi * derivative(two_point, vb)
                   - derivative(go, vb) * tp_phi
                   + derivative(tp_phi, vb) * Fraction(1, 2))
        acc = acc + bracket * JetPoly.var(vvar(beta, 1), jt)
    return acc


def _phi_power_coeffs(*eps_coeffs: JetPoly) -> dict[tuple[int, int], JetPoly]:
    """Split each eps^j coefficient by phi power: (i, j) -> its phi^i part."""
    coeffs: dict[tuple[int, int], JetPoly] = {}
    for j, poly in enumerate(eps_coeffs):
        for i in range(phi_degree(poly) + 1):
            c = coef_phi_power(poly, i)
            if not c.is_zero():
                coeffs[(i, j)] = c
    return coeffs


def build_interior_op(alpha: int, a: int, table: TwoPointTable, go: JetPoly,
                      theory: TheoryData) -> LinearDiffOp:
    """Interior-direction operator from the two-point table and initial data."""
    if a > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    gam = table.gamma[(alpha, a)]
    first = _first_order_coeff(gam, go, theory)
    for beta in range(1, theory.n + 1):
        gvb = derivative(go, vvar(beta, 0))
        if gvb.is_zero():
            continue
        for g in range(1, theory.n + 1):
            coef = theory.eta_inv[beta - 1][g - 1]
            if coef:
                first = first + gvb * dx(table.omega[(g, 0, alpha, a)]) * coef
    return LinearDiffOp(_phi_power_coeffs(gam, first), ("int", alpha, a))


def build_boundary_op(a: int, table: TwoPointTable, go: JetPoly,
                      theory: TheoryData) -> LinearDiffOp:
    """Boundary-direction operator; no metric transport term."""
    if a > theory.trunc.level_max:
        raise IndexError("operator index outside level window")
    dl = table.delta[a]
    first = _first_order_coeff(dl, go, theory)
    return LinearDiffOp(_phi_power_coeffs(dl, first), ("boun", a))


def operators(table: TwoPointTable, go: JetPoly, theory: TheoryData
              ) -> Iterator[tuple[tuple, LinearDiffOp]]:
    """Every interior operator, then every boundary one, under its flow label
    ("t", alpha, a) or ("s", a), each checked homogeneous as it is built."""
    levels = range(theory.trunc.level_max + 1)
    for label in ([("t", alpha, a) for alpha in range(1, theory.n + 1) for a in levels]
                  + [("s", a) for a in levels]):
        op = (build_interior_op(*label[1:], table, go, theory) if label[0] == "t"
              else build_boundary_op(label[1], table, go, theory))
        op.check_homogeneity()
        yield label, op


# A flow's eps slice as a form (start, [(A, j, c), ...]): the value
# start + sum c A (XF)^j, X the unit-direction derivative at level zero.
Form = tuple[BigSeries, list[tuple[BigSeries, int, int]]]


def flow_forms(a_slices: dict[int, tuple[BigSeries, BigSeries]], f0: BigSeries | None,
               theory: TheoryData) -> tuple[Form, Form | None]:
    """The eps^0 and eps^1 slices of sum_i a_i Q_i(f) for f = f0 + eps f1 as
    forms, with F = f0 and f1: sum_i a_i^{[0]} (Xf0)^i, which needs no f0,
    and, affine in f1, K + sum_i i b_i Xf1.  K is the f1-free part, the
    coefficient corrections and the second-jet term from the eps expansion
    of Q_i, as one `dot`; b_i = a_i^{[0]} (Xf0)^{i-1}.  The b_i are kept
    apart: their sum B would give the products with Xf1 another least
    degree, and so another rel, whenever its lowest terms cancel.  Without
    f0 the eps^1 form is None."""
    zero = BigSeries.zero(theory.trunc)
    eps0 = (zero, [(a0, i, 1) for i, (a0, _a1) in sorted(a_slices.items())])
    if f0 is None:
        return eps0, None
    xf0, xxf0 = t11_partial(f0, 0, theory), x_jet(f0, 2, theory)
    free, linear = [], []
    for i, (a0, a1) in sorted(a_slices.items()):
        free.append((a1, power(xf0, i), 1))
        if i >= 1:
            linear.append((a0 * power(xf0, i - 1), 1, i))
        if i >= 2:
            free.append((a0 * power(xf0, i - 2), xxf0, comb(i, 2)))
    return eps0, (dot(zero, free), linear)


def first_order_rhs(forms: tuple[Form, Form], f0: BigSeries, f1: BigSeries,
                    theory: TheoryData) -> tuple[BigSeries, BigSeries]:
    """The values of a flow's eps^0 and eps^1 forms at F = f0 and f1: one
    `dot` each, (XF)^0 the constant 1."""
    return tuple(dot(start, [(a, power(t11_partial(f, 0, theory), j), c)
                             for a, j, c in products])
                 for (start, products), f in zip(forms, (f0, f1)))


def evolution_residual(forms: tuple[Form, Form], f0o: BigSeries, f1o: BigSeries,
                       var: BigVar, theory: TheoryData) -> BigSeries:
    """(dF0o/dvar - rhs0) + eps (dF1o/dvar - rhs1) for the flow along var:
    each slice the value of its residual form, (dF/dvar, [(start, 0, -1),
    (A, j, -c), ...]) for the flow's form (start, [(A, j, c), ...]), so one
    `dot` from the derivative; the eps^1 one shifted by key."""
    res0, res1 = first_order_rhs(
        [(derivative(f, var), [(start, 0, -1)] + [(a, j, -c) for a, j, c in products])
         for (start, products), f in zip(forms, (f0o, f1o))], f0o, f1o, theory)
    return res0 + _eps_shift(res1, 1, theory.trunc.eps_max)


@dataclass
class EvolutionSystem:
    """All interior/boundary flows of one instance, each operator evaluated
    once into its flow's forms."""

    theory: TheoryData
    f0o: BigSeries
    f1o: BigSeries
    ops: dict[tuple, LinearDiffOp] = field(default_factory=dict)
    forms: dict[tuple, tuple[Form, Form]] = field(default_factory=dict)

    @classmethod
    def build(cls, f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
              theory: TheoryData, go: JetPoly | None = None) -> "EvolutionSystem":
        if go is None:
            go = extract_go(f1o, theory)
        sys = cls(theory, f0o, f1o)
        sol_v = vtop(f0, theory)
        memo: dict = {}  # the monomial values along sol_v, shared by every operator
        for label, op in operators(two_point_table(f0, f0o, theory), go, theory):
            sys.ops[label] = op
            sys.forms[label] = flow_forms(op.eval_slices(sol_v, theory, memo), f0o, theory)
        return sys

    def flow_var(self, label: tuple):
        return t_var(label[1], label[2]) if label[0] == "t" else s_var(label[1])

    def residual(self, label: tuple) -> BigSeries:
        """Joint residual (eps^0 slice) + eps (eps^1 slice) for one flow."""
        return evolution_residual(self.forms[label], self.f0o, self.f1o,
                                  self.flow_var(label), self.theory)

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
        d(mono)/d(flow) - sum_i i b_i X(mono) over the b_i of the flow's
        eps^1 form; the first flow with a nonzero change is returned (zero
        series if none).
        """
        tr = self.theory.trunc
        m_series = BigSeries({(0, mono): Fraction(1)}, tr, None, _checked=True)
        xm = t11_partial(m_series, 0, self.theory)
        last = BigSeries.zero(tr)
        for label in sorted(self.ops):
            change = derivative(m_series, self.flow_var(label))
            if not xm.is_zero():
                _k, linear = self.forms[label][1]
                change = dot(change, [(b, xm, -c) for b, _j, c in linear])
            if not change.is_zero():
                return change
            last = change
        return last


def linear_evolution_residual(f0: BigSeries, f0o: BigSeries, f1o: BigSeries,
                              theory: TheoryData,
                              go: JetPoly | None = None) -> ResidualReport:
    """Residuals of the first-order evolution system for exp((F0o+eps F1o)/eps)."""
    return EvolutionSystem.build(f0, f0o, f1o, theory, go).residual_report()


# ---------------------------------------------------------------------------
# pseudodifferential calculus and the KdV Lax flows, truncated at first order
# ---------------------------------------------------------------------------

def _eps_shift(series: BigSeries, k: int, cap: int) -> BigSeries:
    """eps^k * series without the terms past eps^cap (or the eps bound): k
    added to each key's eps field; series itself when that changes nothing,
    so it keeps what was derived from it."""
    mask, cap = series.layout.eps_mask, min(cap, series.trunc.eps_max)
    if not k and not any(key & mask > cap for row in series.rows for key in row):
        return series
    rows = [{key + k: n for key, n in row.items() if (key & mask) + k <= cap}
            for row in series.rows]
    return BigSeries.from_rows(series.layout, series.den, rows, series.rel)


@dataclass
class PseudoDiffOp:
    """sum_i c_i (eps d/dx)^i with series coefficients, truncated mod eps^2.

    Products follow one coefficient rule, `composed_at`: the symbol rule
    (eps d/dx)^i . d = sum_k binom(i,k) eps^k (X^k d) (eps d/dx)^{i-k} stops
    at k=1 under the first-order eps cap, so each coefficient of a product
    is a sum over the coefficients of the left factor.  `compose` keeps only
    the differential part, the only part a flow reads.
    """

    coeffs: dict[int, BigSeries]
    theory: TheoryData

    EPS_CAP = 1

    def _clean(self) -> "PseudoDiffOp":
        kept = {}
        for i, c in self.coeffs.items():
            c = _eps_shift(c, 0, self.EPS_CAP)
            if not c.is_zero():
                kept[i] = c
        return PseudoDiffOp(kept, self.theory)

    @classmethod
    def identity(cls, theory: TheoryData) -> "PseudoDiffOp":
        return cls({0: BigSeries.const(1, theory.trunc)}, theory)

    def coefficient(self, i: int) -> BigSeries:
        return self.coeffs.get(i, BigSeries.zero(self.theory.trunc))

    def scale(self, c) -> "PseudoDiffOp":
        return PseudoDiffOp({i: s * c for i, s in self.coeffs.items()},
                            self.theory)._clean()

    def composed_at(self, other: "PseudoDiffOp", n: int) -> BigSeries | None:
        """The coefficient of (eps d/dx)^n in self . other, cleaned as
        `_clean` cleans; None when it is zero.

        It is sum_i c_i d_{n-i} + sum_i i eps (X d_{n+1-i}) over the
        coefficients c of self and d of other.
        """
        d = other.coeffs
        products = [(c, d[n - i], 1) for i, c in self.coeffs.items() if n - i in d]
        products += [(c, _eps_shift(x_jet(d[n + 1 - i], 1, self.theory), 1, self.EPS_CAP), i)
                     for i, c in self.coeffs.items() if i and n + 1 - i in d]
        if not products:
            return None
        acc = _eps_shift(dot(BigSeries.zero(self.theory.trunc), products), 0, self.EPS_CAP)
        return None if acc.is_zero() else acc

    def compose(self, other: "PseudoDiffOp") -> "PseudoDiffOp":
        """(self . other)_+, the coefficients from the top index down to 0."""
        top = max(self.coeffs, default=0) + max(other.coeffs, default=0)
        out = {}
        for n in range(top, -1, -1):
            c = self.composed_at(other, n)
            if c is not None:
                out[n] = c
        return PseudoDiffOp(out, self.theory)

    def slices(self) -> dict[int, tuple[BigSeries, BigSeries]]:
        return {i: (c.eps_slice(0), c.eps_slice(1)) for i, c in self.coeffs.items()}


@dataclass
class KdVLaxContext:
    """The KdV Lax operator L = (eps d/dx)^2 + 2w, its square root, and the
    powers L^p, each composed once and kept.

    The root r = (eps d/dx) + r_{-1} (eps d/dx)^{-1} + ... comes from the
    triangular recursion: the coefficient of (eps d/dx)^{1-k} in r . r is
    2 r_{-k} plus terms in r_{-1}, ..., r_{1-k} only, so
    r_{-k} = (L_{1-k} - (r . r)_{1-k}) / 2 with r taken through depth k-1.
    It runs to depth 2*Amax: (L^{p+1/2})_+ = (L^p . r)_+ for p <= Amax
    reads r_{-k} only for k <= 2p, since L^p has order 2p.
    """

    lax: PseudoDiffOp
    root: PseudoDiffOp
    theory: TheoryData
    powers: list[PseudoDiffOp]

    @classmethod
    def build(cls, w: BigSeries, theory: TheoryData) -> "KdVLaxContext":
        mask = w.layout.eps_mask
        if any((key & mask) % 2 for row in w.rows for key in row):
            raise ValueError("w must have even eps content only")
        lax = PseudoDiffOp({2: BigSeries.const(1, theory.trunc), 0: w * 2}, theory)._clean()
        root = PseudoDiffOp({1: BigSeries.const(1, theory.trunc)}, theory)
        for k in range(1, 2 * theory.trunc.level_max + 1):
            square = root.composed_at(root, 1 - k)
            defect = lax.coefficient(1 - k)
            if square is not None:
                defect = defect - square
            if not defect.is_zero():
                root.coeffs[-k] = defect * Fraction(1, 2)
        return cls(lax, root, theory, [PseudoDiffOp.identity(theory), lax])

    def lax_power(self, p: int) -> PseudoDiffOp:
        while len(self.powers) <= p:
            self.powers.append(self.powers[-1].compose(self.lax))
        return self.powers[p]

    def half_power_plus(self, p: int) -> PseudoDiffOp:
        """(L^{p+1/2})_+ for integer p >= 0."""
        return self.lax_power(p).compose(self.root)

    def t_flow_slices(self, p: int) -> dict[int, tuple[BigSeries, BigSeries]]:
        op = self.half_power_plus(p).scale(Fraction(1, prod(range(1, 2 * p + 2, 2))))
        return op.slices()

    def s_flow_slices(self, p: int) -> dict[int, tuple[BigSeries, BigSeries]]:
        op = self.lax_power(p + 1).scale(Fraction(1, 2 ** (p + 1) * factorial(p + 1)))
        return op.slices()


class PstIntegrationError(Exception):
    """The Lax flows cannot be integrated on the window, or fail a
    mixed-partial consistency check.

    `flow` is ``(kind, p)``; `mono` is the failing monomial, or None when the
    flow's right-hand side is not reliable up to the degree of its targets.
    """

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


class _Powers:
    """The grade slices of XF and of its powers (XF)^j, j <= top, for F given
    grade by grade, X the unit-direction derivative at level zero.

    Each slice is formed once, when F is complete up to its grade: the slice
    of (XF)^j at grade k is sum_{k1} (XF)^{j-1}[k1] XF[k - k1], one `dot`
    from `zero`, which cuts it at the targets' degree (the relaxed
    product of J. van der Hoeven, "Relax, but don't be too lazy", J. Symbolic
    Comput. 34, 2002).  (XF)^0 is the constant 1 at grade 0 and `zero`
    above it; every zero slice is left out of the products.  `low` is the
    least degree of XF so far, None while it is zero.
    """

    def __init__(self, top: int, zero: BigSeries):
        self.zero, self.low = zero, None
        self.slices: list[list[BigSeries]] = [[] for _ in range(top + 1)]

    def add(self, f: BigSeries, theory: TheoryData) -> None:
        """Take in F's slice of the next grade."""
        pw, k = self.slices, len(self.slices[0])
        x = t11_partial(f, 0, theory)
        self.low = _rel_min(self.low, x.min_degree())
        pw[0].append(self.zero if k else BigSeries.const(1, x.trunc))
        if len(pw) > 1:
            pw[1].append(x)
        for j in range(2, len(pw)):
            pairs = [(a, b, 1) for a, b in zip(pw[j - 1], reversed(pw[1]))
                     if not a.is_zero() and not b.is_zero()]
            pw[j].append(dot(self.zero, pairs) if pairs else self.zero)

    def rhs_rel(self, guard: tuple, rel: int, deg_max: int) -> int | None:
        """The reliable degree of a flow's whole right-hand side from the F
        built so far, whose XF has reliable degree rel, as `dot` gives it.
        `guard` is the start's rel and each product's (rel, least degree, j)
        of A.  power(XF, j) is a chain of `dot`s, and the least degree of a
        product of nonzero eps-free series is the sum of theirs if kept."""
        powers = [(None, 0)]  # (rel, least degree) of power(XF, j)
        for _ in range(len(self.slices) - 1):
            rel_p, low_p = powers[-1]
            r = product_rel(rel_p, low_p, rel, self.low, deg_max)
            low = None if low_p is None or self.low is None else low_p + self.low
            powers.append((r, low if low is not None and low <= r else None))
        out, factors = guard
        for a_rel, a_low, j in factors:
            out = _rel_min(out, product_rel(a_rel, a_low, *powers[j], deg_max))
        return out

    def rhs(self, form: tuple, k: int) -> BigSeries:
        """The grade-k slice of start + sum c A (XF)^j, form holding the
        slices of start and of each A: one `dot` from start's, or from the
        cutting zero."""
        starts, products = form
        pw = self.slices
        pairs = [(a[k1], pw[j][k - k1], c) for a, j, c in products
                 for k1 in range(min(len(a), k + 1))
                 if not a[k1].is_zero() and not pw[j][k - k1].is_zero()]
        rhs = starts[k] if k < len(starts) else self.zero
        return dot(rhs, pairs) if pairs else rhs


def _upto(a: BigSeries, degree: int) -> BigSeries:
    """The terms of a of degree <= degree, vouched for no further than a."""
    return a.cut(_rel_min(a.rel, degree))


def pst_generate(theory: TheoryData) -> PstResult:
    """Integrate the rank-1 Lax flows for the open potential of disk theory.

    The pure-level-zero sector of both eps slices vanishes (no stable disk
    configurations without boundary data), which together with the flows pins
    every coefficient up to one degree below the window.  Each eps slice,
    F = F0o and then F1o, is filled in two phases, each grade by grade: the
    s-free monomials by descendent weight with the t flows t1_p, p >= 1,
    then the rest by s-degree with the s flows s_p.  Both gradings are
    additive under products and X = d/dt1_0 preserves them, so a flow x_p
    pins grade g from the slice of grade g - grade(x_p) of its right-hand
    side, which reads only grades of F already complete.  In the weight
    phase every factor is taken s-free; in the s-degree phase the flow
    coefficients a_i, series in t alone, lie at s-degree 0, as does X of the
    complete s-free part of F.

    The right-hand side of a flow is its form start + sum c A (XF)^j over
    fixed factors A (`flow_forms`): for F0o, sum_i a_i^{[0]} (XF0o)^i; for
    F1o, once F0o is complete, the affine split K + sum_i i b_i XF1o (the
    first-order system is linear in F1o).  Start and each A are sliced once
    per phase, and the slices of XF and its powers are formed once each, as
    F's grades complete (`_Powers`), so each slice of a right-hand side is
    one `dot`, cut at degree cap - 1 for the targets of degree <= cap.

    A term ``down`` of that slice pins m = down * x_p, to its coefficient
    divided by the exponent of x_p in m, exactly when down has no factor of
    x_p's kind above level p: then m has the grade being filled and x_p is
    its top-level factor of that kind, which names the one flow that pins m.
    Every other coefficient stays zero.  A flow with targets at a grade must
    be reliable up to their degree, cap - 1, or the window is too small: its
    whole right-hand side from F built so far, by the rule of `dot`
    (`product_rel`), would be reliable to less.  Every flow equation is then
    re-checked as an exact residual on the enlarged window, from the same
    forms uncut; the first failure aborts.
    """
    if theory.n != 1 or theory.avec != (Fraction(1),):
        raise ValueError("the Lax generator is a rank-1, unit-direction construction")
    tr = theory.trunc
    dmax, amax = tr.deg_max, tr.level_max
    # The flow coefficients carry iterated x-derivatives of w, each of which
    # costs one reliable degree, so the closed sector is solved on a window
    # enlarged by a margin and the results are restricted at the end.  On the
    # window D_big = Dt + margin, the t_p flow is reliable to D_big - 2p - 1
    # (t_0 is exact), s_0 to D_big - 2 and s_p to D_big - 3 for p >= 1, so
    # the least reliable flow is t_Amax, to D_big - 2*Amax - 1, for Amax >= 1
    # and s_0, to D_big - 2, for Amax = 0; its right-hand side is reliable as
    # far.  The targets of slice 0 (cap = Dt) need rel >= Dt - 1 (the guard
    # below), so the margin is max(2*Amax, 1).
    margin = max(2 * amax, 1)
    tr_big = Truncation(dmax + margin, amax, tr.deg0_max, tr.jet_max, tr.eps_max)
    theory_big = TheoryData.build(theory.n, theory.eta, theory.avec, tr_big)
    jt = tr_big.jet()
    v = JetPoly.var(vvar(1, 0), jt)
    f0_big = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory_big).series
    ctx = KdVLaxContext.build(derivative(f0_big, t_var(1, 0), t_var(1, 0)), theory_big)

    flows: dict[tuple, dict[int, tuple[BigSeries, BigSeries]]] = {}
    for p in range(amax + 1):
        flows[("t", p)] = ctx.t_flow_slices(p)
        flows[("s", p)] = ctx.s_flow_slices(p)

    layout, mask, deg_max = f0_big.layout, f0_big.layout.mask, tr_big.deg_max
    fields = {"t": [layout[t_var(1, p)] for p in range(amax + 1)],
              "s": [layout[s_var(p)] for p in range(amax + 1)]}
    # each phase: its grading for `_grade_slices`, the keys it leaves out
    phases = (("t", _weight_grading(layout),
               layout.eps_mask | sum(mask << shift for shift in fields["s"])),
              ("s", [(shift, 1) for shift in fields["s"]], layout.eps_mask))
    # the fields of x_p's kind above level p, which a pinning term lacks
    above = {(kind, p): sum(mask << shift for shift in shifts[p + 1:])
             for kind, shifts in fields.items() for p in range(amax + 1)}
    values: list[dict[int, tuple[int, int]]] = [{}, {}]  # each slice's pinned keys
    degrees: dict[int, int] = {}
    f: list[BigSeries] = []  # F0o, then F1o, once complete
    for g, cap in enumerate((dmax, dmax - 1)):
        # each flow's forms; those built from the complete F0o stay for the check
        forms = {flow: flow_forms(a, f[0] if f else None, theory_big) for flow, a in flows.items()}
        rhs_forms = {flow: pair[g] for flow, pair in forms.items()}
        top = max(j for _start, products in rhs_forms.values() for _a, j, _c in products)
        guards = {flow: (start.rel, [(a.rel, a.min_degree(), j) for a, j, _c in products])
                  for flow, (start, products) in rhs_forms.items()}
        rhs_forms = {flow: (_upto(start, cap - 1),
                            [(_upto(a, cap - 1), j, c) for a, j, c in products])
                     for flow, (start, products) in rhs_forms.items()}
        zero = BigSeries.zero(tr_big, cap - 1)  # cuts each phase's powers at the targets' degree
        for kind, grading, drop in phases:
            sliced = {flow: (_grade_slices(start, grading, drop),
                             [(_grade_slices(a, grading, drop), j, c) for a, j, c in products])
                      for flow, (start, products) in rhs_forms.items()}
            powers = _Powers(top, zero)
            # grade 0: nothing in the weight phase (no target has weight 0),
            # the complete s-free part in the s-degree phase
            powers.add(_from_values(layout, values[g], degrees, cap), theory_big)
            last = cap * amax if kind == "t" else cap
            for grade in range(1, last + 1):
                # the flows with a target of this grade and degree <= cap
                levels = (range(amax + 1) if kind == "s"
                          else [p for p in range(1, amax + 1) if p <= grade <= cap * p])
                pinned: dict[int, tuple[int, int]] = {}  # reduced (numerator, den)
                for p in levels:
                    rel = powers.rhs_rel(guards[kind, p], cap - 1, deg_max)
                    if rel is not None and rel < cap - 1:
                        raise PstIntegrationError((kind, p), None,
                                                  "flow window too small for target")
                    # the slice that x_p raises to this grade
                    rhs = powers.rhs(sliced[kind, p], grade - (p if kind == "t" else 1))
                    shift, skip = fields[kind][p], above[kind, p]
                    for d, row in enumerate(rhs.rows):
                        for down, n in row.items():
                            if not down & skip:
                                m = down + (1 << shift)
                                den = rhs.den * (m >> shift & mask)
                                r = gcd(n, den)
                                pinned[m] = n // r, den // r
                                degrees[m] = d + 1
                values[g].update(pinned)
                if grade < last:
                    powers.add(_from_values(layout, pinned, degrees, cap), theory_big)
        f.append(_from_values(layout, values[g], degrees, cap))
    f0o, f1o = f

    report = ResidualReport()
    for kind, p in sorted(flows):
        var = t_var(1, p) if kind == "t" else s_var(p)
        res = restrict_window(evolution_residual(forms[kind, p], f0o, f1o, var, theory_big), tr)
        if not res.is_zero():
            mono = min(res.terms)[1]
            raise PstIntegrationError((kind, p), mono,
                                      f"flow lax_{kind}({p},) fails mixed-partial "
                                      f"consistency at {BigSeries.from_coeffs({mono: 1}, tr)}")
        report.add(f"lax_{kind}", (p,), res)
    report.checked["lax_t"] = f"p<= {amax}, both eps slices"
    report.checked["lax_s"] = f"p<= {amax}, both eps slices"
    return PstResult(restrict_window(f0_big, tr), restrict_window(f0o, tr),
                     restrict_window(f1o, tr), report)
