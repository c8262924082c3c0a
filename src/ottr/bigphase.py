"""Truncated formal power series on the big phase space.

Series live in the variables ``t{alpha}_{a}`` (1 <= alpha <= N, 0 <= a <=
level bound) and ``s_{a}``, with exact rational coefficients and an optional
eps power per term.  The module also houses the theory context (rank, metric,
unit direction, truncation bounds), the small-phase-space restriction onto
jet variables, the distinguished solutions built from genus-0 potentials and
the boundary pairing, the logarithm of a series, and substitution of
differential polynomials along those solutions.  The genus-1 closed forms
take the logarithm of the boundary pairing and of a determinant; it comes
from its degree recurrence, one kernel `dot` per degree.

The x-direction is never introduced as a variable: every x-dependence enters
through the shift ``t{gamma}_0 -> t{gamma}_0 + A^gamma x``, so d/dx acts on
evaluated quantities as the unit-direction derivative at level zero.

`BigSeries` is the big-phase subclass of the kernel `ottr.algebra.SparseSeries`:
graded by total degree, with the level as the bounded index.  Like every
kernel value it carries a reliable degree ``rel`` that all operations
propagate, so equality checks never compare coefficients that truncation has
already corrupted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .algebra import (
    KIND_PHI,
    KIND_V,
    ONE,
    JetPoly,
    JetTruncation,
    Monomial,
    NoSolutionError,
    SparseSeries,
    Var,
    _eliminate,
    _rel_cap,
    _rel_min,
    _specs,
    derivative,
    dot,
    frac,
    mono_from_factors,
    partial,  # the loop behind `derivative`, re-exported under its own name
    phivar,
    spec_sum,
    vvar,
)

KIND_T = 0
KIND_S = 1

BIG_KIND_NAMES = {KIND_T: "t", KIND_S: "s"}
BIG_KIND_CODES = {name: code for code, name in BIG_KIND_NAMES.items()}

# A big-phase variable is (kind, alpha, level); alpha is 0 for s-variables.
BigVar = Var
BigMonomial = Monomial


class LevelOverflowError(ValueError):
    """Raised when a variable exceeds the declared level bound."""


@dataclass(frozen=True)
class Truncation:
    """Shared truncation bounds: big-phase degree/levels and jet-side bounds."""

    deg_max: int
    level_max: int
    deg0_max: int
    jet_max: int
    eps_max: int

    @classmethod
    def of(cls, deg_max: int, level_max: int, eps_max: int = 2) -> "Truncation":
        """The jet window of the same degree, to jet order 3."""
        return cls(deg_max, level_max, deg_max, 3, eps_max)

    def jet(self) -> JetTruncation:
        return JetTruncation(self.deg0_max, self.jet_max, self.eps_max)


def t_var(alpha: int, level: int) -> BigVar:
    if alpha < 1:
        raise ValueError("t-variables need alpha >= 1")
    if level < 0:
        raise ValueError("level must be >= 0")
    return (KIND_T, alpha, level)


def s_var(level: int) -> BigVar:
    if level < 0:
        raise ValueError("level must be >= 0")
    return (KIND_S, 0, level)


def big_var_name(var: BigVar) -> str:
    kind, alpha, level = var
    if kind == KIND_T:
        return f"t{alpha}_{level}"
    return f"s_{level}"


def mono_degree(m: BigMonomial) -> int:
    return sum(exp for _, exp in m)


class BigSeries(SparseSeries):
    """A degree-truncated formal power series with exact rational coefficients.

    Graded by total degree in every variable; the level is the bounded index.
    """

    __slots__ = ()

    mono_degree = staticmethod(mono_degree)

    @staticmethod
    def var_degree(var: BigVar) -> int:
        return 1

    @staticmethod
    def bounds(trunc) -> tuple[int, int]:
        return trunc.deg_max, trunc.level_max

    @staticmethod
    def base_width(trunc) -> int:
        """Every variable counts toward the degree, so no exponent exceeds it."""
        return max(trunc.deg_max.bit_length(), 1)

    guarded = False
    overflow_error = LevelOverflowError
    index_name = "level"
    var_name = staticmethod(big_var_name)
    kind_names = BIG_KIND_NAMES
    kind_codes = BIG_KIND_CODES

    # Bound in this class's own namespace so each kind's product can be
    # wrapped separately (bench/spans.py traces BigSeries.__mul__).
    __mul__ = __rmul__ = SparseSeries.__mul__

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[BigMonomial, Fraction], trunc: Truncation,
                    rel: int | None = None) -> "BigSeries":
        return cls({(0, mono): c for mono, c in coeffs.items()}, trunc, rel)

    def constant_term(self) -> Fraction:
        return self.coefficient(ONE)


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a small square rational matrix: column k solves
    rows . x = e_k by the solver's elimination, which pins every unknown
    exactly when the matrix is regular."""
    n = len(rows)
    columns = []
    for k in range(n):
        try:
            x = _eliminate([({j: frac(c) for j, c in enumerate(row) if c}, Fraction(i == k), i)
                            for i, row in enumerate(rows)])
        except NoSolutionError:
            x = {}
        if len(x) < n:
            raise ValueError("matrix is singular")
        columns.append(x)
    return tuple(tuple(x[j] for x in columns) for j in range(n))


@dataclass(frozen=True)
class TheoryData:
    """Rank, metric, unit direction and truncation bounds for one computation."""

    n: int
    eta: tuple[tuple[Fraction, ...], ...]
    eta_inv: tuple[tuple[Fraction, ...], ...]
    avec: tuple[Fraction, ...]
    trunc: Truncation
    # what is built once per object (the closed row families); not part of the value
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def build(cls, n: int, eta: Sequence[Sequence], avec: Sequence,
              trunc: Truncation) -> "TheoryData":
        if n < 1:
            raise ValueError("rank must be >= 1")
        eta_t = tuple(tuple(frac(x) for x in row) for row in eta)
        if len(eta_t) != n or any(len(row) != n for row in eta_t):
            raise ValueError("eta must be an N x N matrix")
        for i in range(n):
            for j in range(n):
                if eta_t[i][j] != eta_t[j][i]:
                    raise ValueError("eta must be symmetric")
        a_t = tuple(frac(x) for x in avec)
        if len(a_t) != n:
            raise ValueError("A must have N entries")
        if all(x == 0 for x in a_t):
            raise ValueError("A must not be the zero vector")
        return cls(n, eta_t, invert_matrix(eta_t), a_t, trunc)

    @classmethod
    def rank1(cls, trunc: Truncation) -> "TheoryData":
        return cls.build(1, [[1]], [1], trunc)

    def t_vars(self, max_level: int | None = None) -> list[BigVar]:
        top = self.trunc.level_max if max_level is None else max_level
        return [t_var(alpha, a) for alpha in range(1, self.n + 1)
                for a in range(top + 1)]

    def s_vars(self, max_level: int | None = None) -> list[BigVar]:
        top = self.trunc.level_max if max_level is None else max_level
        return [s_var(a) for a in range(top + 1)]

    def all_vars(self) -> list[BigVar]:
        return self.t_vars() + self.s_vars()


def t11_partial(f: BigSeries, a: int, theory: TheoryData) -> BigSeries:
    """Unit-direction derivative at level a: the spec sum of the A-weighted
    t-partials, computed once per value."""
    return spec_sum(f, _specs([((t_var(g, a),), c) for g, c in enumerate(theory.avec, 1)]))


def x_jet(f: BigSeries, k: int, theory: TheoryData) -> BigSeries:
    """The k-th x-derivative: k unit-direction derivatives at level zero."""
    for _ in range(k):
        f = t11_partial(f, 0, theory)
    return f


def restrict_small(f: BigSeries, theory: TheoryData) -> JetPoly:
    """Restriction to the small phase space: t{g}_0 -> v{g}, s_0 -> phi.
    Only the keys without a positive-level field are unpacked."""
    jt = theory.trunc.jet()
    layout = f.layout
    upper = layout.field_mask(lambda var: var[2] > 0)
    acc = {}
    for row in f.rows:
        for key, n in row.items():
            if not key & upper:
                eps, mono = layout.unpack(key)
                acc[(eps, tuple((vvar(alpha, 0) if kind == KIND_T else phivar(0), exp)
                                for (kind, alpha, _level), exp in mono))] = Fraction(n, f.den)
    return JetPoly(acc, jt, _rel_cap(f.rel, jt.deg0_max))


def vtop(f0: BigSeries, theory: TheoryData) -> list[BigSeries]:
    """The distinguished solution components built from a genus-0 potential:
    the eta-raised t-partials of its unit-direction derivative, each a spec
    sum computed once per value."""
    base = t11_partial(f0, 0, theory)
    return [spec_sum(base, _specs([((t_var(mu, 0),), c) for mu, c in enumerate(row, 1)]))
            for row in theory.eta_inv]


def phitop(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """The distinguished boundary solution: the unit-direction derivative."""
    return t11_partial(f0o, 0, theory)


def boundary_pairing(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """d^2 F0o / dt11_0 ds_0, the series whose log drives the open genus-1
    closed form and whose level-0 part the open normalization checks."""
    return t11_partial(derivative(f0o, s_var(0)), 0, theory)


def series_log(f: BigSeries) -> BigSeries:
    """log f for a series with constant term exactly 1, with f's rel.

    With E the degree operator, f * E(log f) = E(f) gives the degree-n slice
    g_n of log f from the slices f_n of f (f_0 = 1) as
    n g_n = n f_n - sum_{0<k<n} k g_k f_{n-k}: one `dot` per degree (J. C. P.
    Miller's recurrence, Knuth, TAOCP vol. 2, section 4.7).  Eps powers are
    constants for E, so the slices carry them along.
    """
    if not f.rows or f.rows[0] != {0: f.den}:  # the key of eps^0 * 1 is 0
        raise ValueError("series_log needs constant term 1")
    top = f.trunc.deg_max if f.rel is None else min(f.trunc.deg_max, f.rel)
    fs = [BigSeries.from_rows(f.layout, f.den, [{}] * n + f.rows[n:n + 1], None)
          for n in range(top + 1)]
    gs = [BigSeries.zero(f.trunc)]
    for n in range(1, top + 1):
        gs.append(dot(fs[n], [(gs[k], fs[n - k], Fraction(-k, n)) for k in range(1, n)]))
    # g_n holds degree n alone
    den = lcm(*(g.den for g in gs))
    rows = [{k: c * (den // g.den) for k, c in g.rows[n].items()} if len(g.rows) > n else {}
            for n, g in enumerate(gs)]
    return BigSeries.from_rows(f.layout, den, rows, f.rel)


def eval_jetpoly(p: JetPoly, sol_v: Sequence[BigSeries],
                 sol_phi: BigSeries | None, theory: TheoryData,
                 memo: dict | None = None) -> BigSeries:
    """Substitute jet variables by unit-direction derivatives of solutions.

    v{alpha}_i maps to the i-th unit-direction derivative of sol_v[alpha-1],
    phi_i likewise for sol_phi; eps powers pass through unchanged.  Each
    derivative is kept with the solution it came from.  A term is its
    coefficient times the chain eps^e * x1 * x2 * ... over the factors of
    its monomial in their order; each prefix of a chain is formed once per
    call, or once per `memo`, a dict the caller keeps for one solution.
    """
    trunc = theory.trunc
    memo = {} if memo is None else memo
    out = BigSeries.zero(trunc, None)
    sub_val_positive = True
    for (eps, mono), coef in p.terms.items():
        key = (eps,)
        value = memo.get(key)
        if value is None:
            value = memo[key] = BigSeries({(eps, ONE): Fraction(1)}, trunc)
        for var, exp in mono:
            kind, alpha, jet = var
            if kind == KIND_V:
                base = x_jet(sol_v[alpha - 1], jet, theory)
            elif kind == KIND_PHI:
                if sol_phi is None:
                    raise ValueError("phi jets requested but no phi solution supplied")
                base = x_jet(sol_phi, jet, theory)
            else:
                raise ValueError("cannot evaluate f-jets on the big phase space")
            if jet == 0 and base.constant_term() != 0:
                sub_val_positive = False
            for _ in range(exp):
                key += (var,)
                prefix = memo.get(key)
                value = memo[key] = value * base if prefix is None else prefix
        out = out + (value if coef == 1 else value * coef)
    # Terms of p beyond its reliable degree contribute only past that degree
    # provided the order-zero substitutes have no constant term; otherwise
    # nothing beyond the term-product window can be trusted.
    return out.cut(_rel_cap(p.rel, trunc.deg_max) if p.rel is None or sub_val_positive else -1)


def restrict_window(f: BigSeries, trunc: Truncation) -> BigSeries:
    """Project onto a smaller window (degree and level bounds only shrink)."""
    if (trunc.deg_max > f.trunc.deg_max or trunc.level_max > f.trunc.level_max
            or trunc.eps_max > f.trunc.eps_max):
        raise ValueError("windows may only shrink")
    old, new = f.layout, BigSeries.zero(trunc).layout
    high = old.field_mask(lambda var: var[2] > trunc.level_max)
    rows = [{new.pack(*old.unpack(k)): n for k, n in row.items()
             if not k & high and k & old.eps_mask <= trunc.eps_max}
            for row in f.rows[:trunc.deg_max + 1]]
    return BigSeries.from_rows(new, f.den, rows, _rel_min(f.rel, trunc.deg_max))


def relabel_component(f: BigSeries, alpha: int, trunc: Truncation) -> BigSeries:
    """Embed a rank-1 series as component alpha of a higher-rank theory."""
    acc = {}
    for (eps, mono), coef in f.terms.items():
        factors = []
        for (kind, a0, level), exp in mono:
            if kind != KIND_T:
                raise ValueError("only closed-sector series can be relabeled")
            factors.append((t_var(alpha, level), exp))
        acc[(eps, mono_from_factors(factors))] = coef
    return BigSeries(acc, trunc, f.rel)
