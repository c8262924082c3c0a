"""Truncated formal power series on the big phase space.

Series live in the variables ``t{alpha}_{a}`` (1 <= alpha <= N, 0 <= a <=
level bound) and ``s_{a}``, with exact rational coefficients and an optional
eps power per term.  The module also houses the theory context (rank, metric,
unit direction, truncation bounds), the small-phase-space restriction onto
jet variables, the distinguished solutions built from genus-0 potentials, and
substitution of differential polynomials along those solutions.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .algebra import (
    KIND_PHI,
    KIND_V,
    ONE,
    JetPoly,
    JetTruncation,
    Monomial,
    SparseSeries,
    Var,
    _rel_min,
    frac,
    mono_from_factors,
    mono_max_index,
    mono_mul,
    partial,
    phivar,
    poly_eq as series_eq,
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
    def of(cls, deg_max: int, level_max: int, deg0_max: int | None = None,
           jet_max: int = 3, eps_max: int = 2) -> "Truncation":
        if deg0_max is None:
            deg0_max = deg_max
        return cls(deg_max, level_max, deg0_max, jet_max, eps_max)

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


def mono_weight(m: BigMonomial) -> int:
    """Total descendent weight: the level sum counted with exponents."""
    return sum(level * exp for (kind, alpha, level), exp in m)


def mono_mul_var(m: BigMonomial, var: BigVar) -> BigMonomial:
    return mono_mul(m, ((var, 1),))


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

    def constant_term(self, eps: int = 0) -> Fraction:
        return self.terms.get((eps, ONE), Fraction(0))


def invert_matrix(rows: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a small square rational matrix by Gauss-Jordan."""
    n = len(rows)
    aug = [[frac(rows[i][j]) for j in range(n)] +
           [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class TheoryData:
    """Rank, metric, unit direction and truncation bounds for one computation."""

    n: int
    eta: tuple[tuple[Fraction, ...], ...]
    eta_inv: tuple[tuple[Fraction, ...], ...]
    avec: tuple[Fraction, ...]
    trunc: Truncation

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
    def rank1(cls, trunc: Truncation, eta=1, a=1) -> "TheoryData":
        return cls.build(1, [[eta]], [a], trunc)

    def t_vars(self, max_level: int | None = None) -> list[BigVar]:
        top = self.trunc.level_max if max_level is None else max_level
        return [t_var(alpha, a) for alpha in range(1, self.n + 1)
                for a in range(top + 1)]

    def s_vars(self, max_level: int | None = None) -> list[BigVar]:
        top = self.trunc.level_max if max_level is None else max_level
        return [s_var(a) for a in range(top + 1)]

    def all_vars(self) -> list[BigVar]:
        return self.t_vars() + self.s_vars()


def partial_many(f: BigSeries, variables: Sequence[BigVar]) -> BigSeries:
    for var in variables:
        f = partial(f, var)
    return f


def t11_partial(f: BigSeries, a: int, theory: TheoryData) -> BigSeries:
    """Unit-direction derivative at level a: the A-weighted t-partials."""
    out = BigSeries.zero(f.trunc, f.rel if f.rel is None else f.rel - 1)
    for alpha in range(1, theory.n + 1):
        coef = theory.avec[alpha - 1]
        if coef:
            out = out + partial(f, t_var(alpha, a)) * coef
    return out


def restrict_small(f: BigSeries, theory: TheoryData) -> JetPoly:
    """Restriction to the small phase space: t{g}_0 -> v{g}, s_0 -> phi."""
    jt = theory.trunc.jet()
    acc = {}
    for (eps, mono), coef in f.terms.items():
        if mono_max_index(mono) > 0:
            continue
        factors = []
        for (kind, alpha, level), exp in mono:
            if kind == KIND_T:
                factors.append((vvar(alpha, 0), exp))
            else:
                factors.append((phivar(0), exp))
        acc[(eps, mono_from_factors(factors))] = coef
    return JetPoly(acc, jt, f.rel)


def vtop(f0: BigSeries, theory: TheoryData) -> list[BigSeries]:
    """The distinguished solution components built from a genus-0 potential."""
    base = t11_partial(f0, 0, theory)
    out = []
    for alpha in range(1, theory.n + 1):
        acc = BigSeries.zero(f0.trunc, base.rel if base.rel is None else base.rel - 1)
        for mu in range(1, theory.n + 1):
            coef = theory.eta_inv[alpha - 1][mu - 1]
            if coef:
                acc = acc + partial(base, t_var(mu, 0)) * coef
        out.append(acc)
    return out


def phitop(f0o: BigSeries, theory: TheoryData) -> BigSeries:
    """The distinguished boundary solution: the unit-direction derivative."""
    return t11_partial(f0o, 0, theory)


def series_log(f: BigSeries) -> BigSeries:
    """log f for a series with constant term exactly 1."""
    if f.constant_term() != 1 or any(f.terms.get((e, ONE)) for e in range(1, f.trunc.eps_max + 1)):
        raise ValueError("series_log needs constant term 1")
    x = f - 1
    out = BigSeries.zero(f.trunc, f.rel)
    power = BigSeries.const(1, f.trunc)
    top = f.trunc.deg_max if f.rel is None else min(f.trunc.deg_max, f.rel)
    for k in range(1, top + 1):
        power = power * x
        if power.is_zero():
            break
        out = out + power * Fraction((-1) ** (k + 1), k)
    return BigSeries(out.terms, f.trunc, f.rel, _checked=True)


def series_exp(f: BigSeries) -> BigSeries:
    """exp f for a series with zero constant term."""
    if f.constant_term() != 0:
        raise ValueError("series_exp needs zero constant term")
    val = f.valuation()
    if val is not None and val < 1:
        raise ValueError("series_exp needs zero constant term")
    out = BigSeries.const(1, f.trunc, f.rel)
    power = BigSeries.const(1, f.trunc)
    top = f.trunc.deg_max if f.rel is None else min(f.trunc.deg_max, f.rel)
    fact = Fraction(1)
    for k in range(1, top + 1):
        power = power * f
        if power.is_zero():
            break
        fact *= k
        out = out + power * (1 / fact)
    return BigSeries(out.terms, f.trunc, f.rel, _checked=True)


class _SolutionJets:
    """Cache of unit-direction derivative towers of solution series."""

    def __init__(self, sol_v: Sequence[BigSeries], sol_phi: BigSeries | None,
                 theory: TheoryData):
        self.theory = theory
        self._v: dict[tuple[int, int], BigSeries] = {}
        for alpha, s in enumerate(sol_v, start=1):
            self._v[(alpha, 0)] = s
        self._phi: dict[int, BigSeries] = {}
        if sol_phi is not None:
            self._phi[0] = sol_phi

    def v(self, alpha: int, jet: int) -> BigSeries:
        key = (alpha, jet)
        if key not in self._v:
            self._v[key] = t11_partial(self.v(alpha, jet - 1), 0, self.theory)
        return self._v[key]

    def phi(self, jet: int) -> BigSeries:
        if not self._phi:
            raise ValueError("phi jets requested but no phi solution supplied")
        if jet not in self._phi:
            self._phi[jet] = t11_partial(self.phi(jet - 1), 0, self.theory)
        return self._phi[jet]


def eval_jetpoly(p: JetPoly, sol_v: Sequence[BigSeries],
                 sol_phi: BigSeries | None, theory: TheoryData) -> BigSeries:
    """Substitute jet variables by unit-direction derivatives of solutions.

    v{alpha}_i maps to the i-th unit-direction derivative of sol_v[alpha-1],
    phi_i likewise for sol_phi; eps powers pass through unchanged.
    """
    jets = _SolutionJets(sol_v, sol_phi, theory)
    trunc = theory.trunc
    out = BigSeries.zero(trunc, None)
    sub_val_positive = True
    for (eps, mono), coef in p.terms.items():
        term = BigSeries({(eps, ONE): coef}, trunc, None, _checked=True)
        for (kind, alpha, jet), exp in mono:
            if kind == KIND_V:
                base = jets.v(alpha, jet)
            elif kind == KIND_PHI:
                base = jets.phi(jet)
            else:
                raise ValueError("cannot evaluate f-jets on the big phase space")
            if jet == 0 and base.constant_term() != 0:
                sub_val_positive = False
            for _ in range(exp):
                term = term * base
        out = out + term
    # Terms of p beyond its reliable degree contribute only past that degree
    # provided the order-zero substitutes have no constant term; otherwise
    # nothing beyond the term-product window can be trusted.
    if p.rel is None or sub_val_positive:
        rel = _rel_min(out.rel, p.rel)
    else:
        rel = -1
    terms = out.terms
    if rel is not None:
        terms = {k: c for k, c in terms.items() if mono_degree(k[1]) <= rel}
    return BigSeries(terms, trunc, rel, _checked=True)


def restrict_window(f: BigSeries, trunc: Truncation) -> BigSeries:
    """Project onto a smaller window (degree and level bounds only shrink)."""
    if (trunc.deg_max > f.trunc.deg_max or trunc.level_max > f.trunc.level_max
            or trunc.eps_max > f.trunc.eps_max):
        raise ValueError("windows may only shrink")
    acc = {}
    for (eps, mono), coef in f.terms.items():
        if eps > trunc.eps_max:
            continue
        if mono_max_index(mono) > trunc.level_max:
            continue
        if mono_degree(mono) > trunc.deg_max:
            continue
        acc[(eps, mono)] = coef
    rel = _rel_min(f.rel, trunc.deg_max)
    return BigSeries(acc, trunc, rel, _checked=True)


def restrict_window_up(f: BigSeries, trunc: Truncation) -> BigSeries:
    """Re-home a series into a wider window (bounds may only grow)."""
    if (trunc.deg_max < f.trunc.deg_max or trunc.level_max < f.trunc.level_max
            or trunc.eps_max < f.trunc.eps_max):
        raise ValueError("windows may only grow")
    return BigSeries(dict(f.terms), trunc, f.rel, _checked=True)


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
