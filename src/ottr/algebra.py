"""Sparse graded series over exact rationals: the shared kernel and jet polynomials.

`SparseSeries` is the one sparse-polynomial kernel of the package.  Its terms
map ``(eps power, monomial)`` to a nonzero `fractions.Fraction`; a monomial is
a sorted tuple of ``((kind, alpha, index), exponent)`` pairs.  Values are
truncated in three directions: a degree bound, a bound on the variables'
``index``, and a maximal eps power.  A subclass fixes the grading (which
variables count toward the degree) and which truncation fields bound the
degree and the index; `ottr.bigphase.BigSeries` is the other subclass.

This module's own subclass, `JetPoly`, is the ring of differential
polynomials in jet variables

* ``v{alpha}_{i}`` -- the i-th x-derivative of the field component alpha,
* ``phi_{i}``     -- the i-th x-derivative of the boundary scalar,
* ``f_{i}``       -- the i-th x-derivative of an auxiliary scalar used by
  the exponential-conjugation polynomials,

graded by total degree in jet-order-zero variables, with the jet order as the
bounded index.  Coefficients are `fractions.Fraction`, so canonical forms
compare exactly; there is no floating-point mode.

Each value also carries a *reliable degree* ``rel``: the degree up to which
its coefficients agree with the untruncated object it approximates.
``rel=None`` means the value is exact.  Arithmetic propagates ``rel``
conservatively and drops stored terms beyond it, so a value never holds
coefficients it cannot vouch for.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

KIND_V = 0
KIND_PHI = 1
KIND_F = 2

KIND_NAMES = {KIND_V: "v", KIND_PHI: "phi", KIND_F: "f"}
KIND_CODES = {name: code for code, name in KIND_NAMES.items()}

# A variable is (kind, alpha, index); alpha is 0 except for the kind-0
# (component-indexed) variables.  For jet variables the index is the jet order.
Var = tuple[int, int, int]
# A monomial is a sorted tuple of (Var, positive exponent) pairs.
Monomial = tuple[tuple[Var, int], ...]
# Terms are keyed by (eps power, monomial).
TermKey = tuple[int, Monomial]

ONE = ()  # the empty monomial


class TruncationMismatchError(ValueError):
    """Raised when two operands carry different truncation metadata."""


class JetOverflowError(ValueError):
    """Raised when a derivation would exceed the declared jet bound."""


class PhiJetError(ValueError):
    """Raised when a positive phi jet is present where none is allowed."""


@dataclass(frozen=True)
class JetTruncation:
    """Truncation triple for differential polynomials.

    deg0_max bounds the total degree in jet-order-zero variables,
    jet_max the highest jet order, eps_max the highest eps power.
    """

    deg0_max: int
    jet_max: int
    eps_max: int


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def jet_var(kind: int, alpha: int, jet: int) -> Var:
    if kind not in KIND_NAMES:
        raise ValueError(f"unknown jet-variable kind {kind!r}")
    if kind == KIND_V and alpha < 1:
        raise ValueError("v-variables need alpha >= 1")
    if kind != KIND_V and alpha != 0:
        raise ValueError("phi/f-variables carry no alpha index")
    if jet < 0:
        raise ValueError("jet order must be >= 0")
    return (kind, alpha, jet)


def vvar(alpha: int, jet: int = 0) -> Var:
    return jet_var(KIND_V, alpha, jet)


def phivar(jet: int = 0) -> Var:
    return jet_var(KIND_PHI, 0, jet)


def fvar(jet: int) -> Var:
    return jet_var(KIND_F, 0, jet)


def var_name(var: Var) -> str:
    kind, alpha, jet = var
    if kind == KIND_V:
        return f"v{alpha}_{jet}"
    return f"{KIND_NAMES[kind]}_{jet}"


# -- monomials ---------------------------------------------------------------

def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for var, exp in m2:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def mono_from_factors(factors: Iterable[tuple[Var, int]]) -> Monomial:
    acc: dict[Var, int] = {}
    for var, exp in factors:
        if exp < 0:
            raise ValueError("negative exponent")
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def exponent_of(m: Monomial, var: Var) -> int:
    for v, e in m:
        if v == var:
            return e
    return 0


def mono_div_var(m: Monomial, var: Var) -> Monomial | None:
    """Remove one factor of var, or None if absent."""
    for idx, (v, e) in enumerate(m):
        if v == var:
            factors = list(m)
            if e == 1:
                del factors[idx]
            else:
                factors[idx] = (v, e - 1)
            return tuple(factors)
    return None


def mono_max_index(m: Monomial) -> int:
    """Highest variable index (jet order or level) in a monomial."""
    return max((index for (kind, alpha, index), exp in m), default=0)


def mono_deg0(m: Monomial) -> int:
    return sum(exp for (kind, alpha, jet), exp in m if jet == 0)


def mono_std_degree(m: Monomial) -> int:
    """Standard degree of a monomial: deg v{a}_i = deg phi_i = i, deg f_i = i-1."""
    total = 0
    for (kind, alpha, jet), exp in m:
        total += exp * (jet - 1 if kind == KIND_F else jet)
    return total


def _rel_min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _rel_add(rel: int | None, val: int | None) -> int | None:
    if rel is None or val is None:
        return None
    return rel + val


# -- the kernel --------------------------------------------------------------

class SparseSeries:
    """A truncated sparse series with exact rational coefficients.

    Subclasses declare the grading and the bounds; everything else lives here.
    Operands of different subclasses never mix: arithmetic between them is a
    TypeError, and equal truncations are required within one subclass.
    """

    __slots__ = ("terms", "trunc", "rel")

    # Declared by each subclass.
    mono_degree: Callable[[Monomial], int]  # the grading of a monomial
    var_degree: Callable[[Var], int]  # the degree of one variable
    bounds: Callable[[object], tuple[int, int]]  # trunc -> (degree, index) bounds
    overflow_error: type[ValueError]  # raised for a variable past the index bound
    index_name: str
    var_name: Callable[[Var], str]
    kind_names: dict[int, str]
    kind_codes: dict[str, int]

    def __init__(self, terms: Mapping[TermKey, Fraction], trunc,
                 rel: int | None = None, _checked: bool = False):
        if _checked:
            self.terms = dict(terms)
        else:
            deg_max, index_max = self.bounds(trunc)
            kept: dict[TermKey, Fraction] = {}
            for (eps, mono), coef in terms.items():
                coef = frac(coef)
                if not coef:
                    continue
                if eps < 0:
                    raise ValueError("negative eps power")
                if eps > trunc.eps_max:
                    continue
                if mono_max_index(mono) > index_max:
                    raise self.overflow_error(
                        f"{self.index_name} exceeds bound {index_max} in {mono}")
                d = self.mono_degree(mono)
                if d > deg_max:
                    continue
                if rel is not None and d > rel:
                    continue
                kept[(eps, mono)] = coef
            self.terms = kept
        self.trunc = trunc
        self.rel = rel

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc, rel: int | None = None):
        return cls({}, trunc, rel, _checked=True)

    @classmethod
    def const(cls, value, trunc, rel: int | None = None):
        value = frac(value)
        if not value:
            return cls.zero(trunc, rel)
        return cls({(0, ONE): value}, trunc, rel)

    @classmethod
    def var(cls, var: Var, trunc):
        return cls({(0, ((var, 1),)): Fraction(1)}, trunc)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial, eps: int = 0) -> Fraction:
        return self.terms.get((eps, mono), Fraction(0))

    def eps_slice(self, j: int):
        terms = {(0, m): c for (e, m), c in self.terms.items() if e == j}
        return type(self)(terms, self.trunc, self.rel, _checked=True)

    def valuation(self) -> int | None:
        """Effective degree valuation for reliability bookkeeping."""
        v = min((self.mono_degree(m) for _, m in self.terms), default=None)
        if self.rel is None:
            return v
        return self.rel + 1 if v is None else min(v, self.rel + 1)

    def sorted_terms(self) -> list[tuple[TermKey, Fraction]]:
        return sorted(self.terms.items())

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparseSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatchError(
                f"incompatible truncations {self.trunc} vs {other.trunc}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other, self.trunc)
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_compatible(other)
        rel = _rel_min(self.rel, other.rel)
        acc = dict(self.terms)
        for key, coef in other.terms.items():
            s = acc.get(key, Fraction(0)) + coef
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        if rel is not None:
            deg = self.mono_degree
            acc = {k: c for k, c in acc.items() if deg(k[1]) <= rel}
        return type(self)(acc, self.trunc, rel, _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, self.trunc,
                          self.rel, _checked=True)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.const(other, self.trunc)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            if not c:
                return cls.zero(self.trunc, self.rel)
            return cls({k: c * v for k, v in self.terms.items()},
                       self.trunc, self.rel, _checked=True)
        if not isinstance(other, cls):
            return NotImplemented
        self._check_compatible(other)
        rel = _rel_min(_rel_add(self.rel, other.valuation()),
                       _rel_add(other.rel, self.valuation()))
        tr = self.trunc
        deg_max = self.bounds(tr)[0]
        cap = deg_max if rel is None else min(deg_max, rel)
        deg = self.mono_degree
        # Both factors sorted by degree, so each loop stops at the first pair
        # past the cap.
        a = sorted(((deg(m), e, m, c) for (e, m), c in self.terms.items()))
        b = sorted(((deg(m), e, m, c) for (e, m), c in other.terms.items()))
        acc: dict[TermKey, Fraction] = {}
        for d1, e1, m1, c1 in a:
            if b and d1 + b[0][0] > cap:
                break
            for d2, e2, m2, c2 in b:
                if d1 + d2 > cap:
                    break
                eps = e1 + e2
                if eps > tr.eps_max:
                    continue
                key = (eps, mono_mul(m1, m2))
                s = acc.get(key, Fraction(0)) + c1 * c2
                if s:
                    acc[key] = s
                else:
                    del acc[key]
        return cls(acc, tr, rel, _checked=True)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.terms == other.terms and self.trunc == other.trunc
                and self.rel == other.rel)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.trunc, self.rel))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eps, mono), coef in self.sorted_terms():
            factors = []
            if coef != 1 or (not mono and not eps):
                factors.append(str(coef))
            if eps:
                factors.append("eps" if eps == 1 else f"eps^{eps}")
            for var, exp in mono:
                name = self.var_name(var)
                factors.append(name if exp == 1 else f"{name}^{exp}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def poly_eq(p: SparseSeries, q: SparseSeries, *, up_to: int | None = None) -> bool:
    """Equality of stored terms up to the shared reliable degree."""
    if p.trunc != q.trunc:
        raise TruncationMismatchError("cannot compare across truncations")
    window = _rel_min(_rel_min(p.rel, q.rel), up_to)
    if window is None:
        return p.terms == q.terms
    deg = p.mono_degree
    for a, b in ((p, q), (q, p)):
        for key, coef in a.terms.items():
            if deg(key[1]) <= window and b.terms.get(key) != coef:
                return False
    return True


def partial(p: SparseSeries, var: Var) -> SparseSeries:
    """Formal partial derivative; rel drops by the degree of var."""
    acc: dict[TermKey, Fraction] = {}
    for (eps, mono), coef in p.terms.items():
        for idx, (v, exp) in enumerate(mono):
            if v != var:
                continue
            factors = list(mono)
            if exp == 1:
                del factors[idx]
            else:
                factors[idx] = (v, exp - 1)
            # distinct monomials stay distinct after removing one factor of var
            acc[(eps, tuple(factors))] = coef * exp
            break
    rel = None if p.rel is None else p.rel - p.var_degree(var)
    return type(p)(acc, p.trunc, rel, _checked=True)


jet_partial = partial


# -- differential polynomials -------------------------------------------------

class JetPoly(SparseSeries):
    """A truncated differential polynomial with exact rational coefficients.

    Graded by total degree in jet-order-zero variables; the jet order is the
    bounded index.
    """

    __slots__ = ()

    mono_degree = staticmethod(mono_deg0)

    @staticmethod
    def var_degree(var: Var) -> int:
        return 1 if var[2] == 0 else 0

    @staticmethod
    def bounds(trunc) -> tuple[int, int]:
        return trunc.deg0_max, trunc.jet_max

    overflow_error = JetOverflowError
    index_name = "jet order"
    var_name = staticmethod(var_name)
    kind_names = KIND_NAMES
    kind_codes = KIND_CODES

    # Bound in this class's own namespace so each kind's product can be
    # wrapped separately (bench/spans.py traces JetPoly.__mul__).
    __mul__ = __rmul__ = SparseSeries.__mul__

    @classmethod
    def eps(cls, trunc: JetTruncation, power: int = 1) -> "JetPoly":
        return cls({(power, ONE): Fraction(1)}, trunc)


def dx(p: JetPoly) -> JetPoly:
    """Total x-derivative: bumps one jet order per term by the Leibniz rule."""
    tr = p.trunc
    acc: dict[TermKey, Fraction] = {}
    has_deg0 = False
    for (eps, mono), coef in p.terms.items():
        for var, exp in mono:
            kind, alpha, jet = var
            if jet == 0:
                has_deg0 = True
            if jet + 1 > tr.jet_max:
                raise JetOverflowError(
                    f"dx would raise {var_name(var)} past jet bound {tr.jet_max}")
            raised = ((kind, alpha, jet + 1), 1)
            key = (eps, mono_mul(mono_div_var(mono, var), (raised,)))
            s = acc.get(key, Fraction(0)) + coef * exp
            if s:
                acc[key] = s
            else:
                del acc[key]
    rel = p.rel if (p.rel is None or not has_deg0) else p.rel - 1
    return JetPoly(acc, tr, rel)


def standard_degree(p: JetPoly) -> dict[int, JetPoly]:
    """Decompose into homogeneous slices of the standard gradation (deg eps = -1)."""
    buckets: dict[int, dict[TermKey, Fraction]] = {}
    for (eps, mono), coef in p.terms.items():
        d = mono_std_degree(mono) - eps
        buckets.setdefault(d, {})[(eps, mono)] = coef
    return {d: JetPoly(terms, p.trunc, p.rel, _checked=True)
            for d, terms in sorted(buckets.items())}


def coef_phi_power(p: JetPoly, i: int) -> JetPoly:
    """Coefficient of phi^i; requires that no positive phi jets are present."""
    if i < 0:
        raise ValueError("phi power must be >= 0")
    phi0 = phivar(0)
    for _, mono in p.terms:
        for (kind, alpha, jet), _ in mono:
            if kind == KIND_PHI and jet > 0:
                raise PhiJetError("positive phi jets present; eliminate them first")
    acc: dict[TermKey, Fraction] = {}
    for (eps, mono), coef in p.terms.items():
        entry = dict(mono)
        if entry.pop(phi0, 0) != i:
            continue
        acc[(eps, tuple(sorted(entry.items())))] = coef
    rel = None if p.rel is None else p.rel - i
    return JetPoly(acc, p.trunc, rel, _checked=True)


def phi_degree(p: JetPoly) -> int:
    """Highest power of phi (jet order zero) appearing in p."""
    phi0 = phivar(0)
    best = 0
    for _, mono in p.terms:
        for var, exp in mono:
            if var == phi0:
                best = max(best, exp)
    return best
