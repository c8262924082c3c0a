"""Sparse graded series over exact rationals: the shared kernel and jet polynomials.

`SparseSeries` is the one sparse-polynomial kernel of the package.  A value
stores its terms in one form: packed integer rows over one denominator.
``rows[d]`` maps the packed key of each term of degree d to an integer
numerator, and the term's coefficient is that numerator over `den`, the lcm
of the reduced denominators, so equal values have equal stored forms and
``==`` and ``hash`` read them directly.  Values are truncated in three
directions: a degree bound, a bound on the variables' ``index``, and a
maximal eps power.  A subclass fixes the grading (which variables count
toward the degree) and which truncation fields bound the degree and the
index; `ottr.bigphase.BigSeries` is the other subclass.

A key holds the eps power in its lowest field, wide enough for the eps sum
of two factors; then one exponent field per kind and index for the kinds
with alpha 0 (``s``, or ``phi`` then ``f``); then, on top, one field per
``(alpha, index)`` of kind 0 (``t``/``v``), so the rank needs no bound.  A
monomial product is a sum of keys, a partial derivative subtracts one unit
from a field, and an eps shift adds to the lowest one.  There is one layout
per class and truncation, at the class's `base_width`.  Every variable of a
`BigSeries` counts toward its degree and no product above the degree bound
is kept, so no exponent exceeds the bound.  A `JetPoly`'s jet order >= 1
exponents have no such bound, so its fields carry a guard bit (Monagan &
Pearce, CASC 2007): a stored exponent is at most `max_exponent` =
2^bitlen(Dv + J) - 1 >= Dv + J, a sum of two keys never carries into the
next field, and a result past the bound sets a guard bit and is refused:
the constructor, `dot` and `dx` raise `JetOverflowError` naming the
variable and the bound, and the parser refuses the piece.

A value is read and moved through its keys.  `SparseSeries.items` unpacks
a whole value, each key as ``(eps power, monomial)`` with its nonzero
`fractions.Fraction`, and keeps nothing; a monomial is a sorted tuple of
``((kind, alpha, index), exponent)`` pairs.  `remap` moves a value's keys
into another layout, field by field, in one pass.

This module's own subclass, `JetPoly`, is the ring of differential
polynomials in jet variables

* ``v{alpha}_{i}`` -- the i-th x-derivative of the field component alpha,
* ``phi_{i}``     -- the i-th x-derivative of the boundary scalar,
* ``f_{i}``       -- the i-th x-derivative of an auxiliary scalar used by
  the exponential-conjugation polynomials,

graded by total degree in jet-order-zero variables, with the jet order as the
bounded index.  Coefficients are exact rationals, so canonical forms compare
exactly; there is no floating-point mode.

Each value also carries a *reliable degree* ``rel``: the degree up to which
its coefficients agree with the untruncated object it approximates.
``rel=None`` means the value is exact.  Arithmetic propagates ``rel``
conservatively and drops stored terms beyond it, so a value never holds
coefficients it cannot vouch for.

A value never changes after construction, so it can keep what is derived
from it: `SparseSeries.derived` computes each derived series (a partial
derivative, a unit-direction derivative, a power, ...) once per value, and
the result lives exactly as long as that value.

Beside the kernel sit the jobs every layer above shares, each written once:
the derivative sum `spec_sum` and the dense Gaussian elimination
`_eliminate`, with its `NoSolutionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping

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
    """Raised past the declared jet bound, or past an exponent field's bound."""


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

def mono_from_factors(factors: Iterable[tuple[Var, int]]) -> Monomial:
    acc: dict[Var, int] = {}
    for var, exp in factors:
        if exp < 0:
            raise ValueError("negative exponent")
        if exp:
            acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


def mono_max_index(m: Monomial) -> int:
    """Highest variable index (jet order or level) in a monomial."""
    return max((index for (kind, alpha, index), exp in m), default=0)


def mono_deg0(m: Monomial) -> int:
    return sum(exp for (kind, alpha, jet), exp in m if jet == 0)


def _rel_min(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _rel_cap(rel: int | None, bound: int) -> int | None:
    """Nothing is stored above the degree bound, so no value vouches beyond it."""
    return rel if rel is None or rel <= bound else bound


def product_rel(a_rel: int | None, a_low: int | None, b_rel: int | None,
                b_low: int | None, deg_max: int) -> int | None:
    """The reliable degree of a product a * b from the factors' reliable and
    least degrees (None for a zero factor), as `dot` gives it: a factor's
    valuation (its least degree, or rel + 1 if lower) counts only beside a
    finite rel of its partner; None when both factors are exact."""
    r = None
    if a_rel is not None:
        v = b_low if b_rel is None else b_rel + 1 if b_low is None else min(b_low, b_rel + 1)
        if v is not None:
            r = a_rel + v
    if b_rel is not None:
        v = a_low if a_rel is None else a_rel + 1 if a_low is None else min(a_low, a_rel + 1)
        if v is not None and (r is None or b_rel + v < r):
            r = b_rel + v
    return r if r is None or r <= deg_max else deg_max


# -- the kernel --------------------------------------------------------------

Rows = list[dict[int, int]]  # rows[d]: packed key -> numerator, for degree d


class SparseSeries:
    """A truncated sparse series with exact rational coefficients, kept as
    packed integer rows over one denominator (see the module docstring).

    Subclasses declare the grading and the bounds; everything else lives here.
    Operands of different subclasses never mix: arithmetic between them is a
    TypeError, and equal truncations are required within one subclass.

    No code may write `den`, `rows`, `layout`, `trunc` or `rel` after
    construction, nor change a row: values share rows, and the memo of
    derived series (`derived`) is valid only because a value never changes.
    """

    __slots__ = ("den", "rows", "layout", "trunc", "rel", "_memo")

    # Declared by each subclass.
    mono_degree: Callable[[Monomial], int]  # the grading of a monomial
    var_degree: Callable[[Var], int]  # the degree of one variable
    bounds: Callable[[object], tuple[int, int]]  # trunc -> (degree, index) bounds
    base_width: Callable[[object], int]  # trunc -> the field width
    guarded: bool  # exponents are bounded by no degree: guarded fields
    overflow_error: type[ValueError]  # raised for a variable past the index bound
    index_name: str
    var_name: Callable[[Var], str]
    kind_names: dict[int, str]
    kind_codes: dict[str, int]

    def __init__(self, terms: Mapping[TermKey, Fraction], trunc, rel: int | None = None):
        """The value of (eps power, monomial) -> coefficient terms; terms past
        the eps, degree or reliable-degree bound are dropped, and a kept
        exponent past `max_exponent` raises the class's overflow error."""
        deg_max, index_max = self.bounds(trunc)
        layout = _layout(type(self), trunc)
        if rel is not None and rel > deg_max:
            raise ValueError(f"reliable degree {rel} above the degree bound {deg_max}")
        parts = []
        for (eps, mono), coef in terms.items():
            coef = frac(coef)
            if not coef:
                continue
            d = self.mono_degree(mono)
            if eps < 0:
                raise ValueError("negative eps power")
            if eps > trunc.eps_max:
                continue
            if mono_max_index(mono) > index_max:
                raise self.overflow_error(
                    f"{self.index_name} exceeds bound {index_max} in {mono}")
            if d > deg_max or (rel is not None and d > rel):
                continue
            for var, x in mono:
                if x > layout.max_exponent:
                    raise layout.overflow(var, x)
            parts.append((d, eps, mono, coef.numerator, coef.denominator))
        den = lcm(*(q for *_, q in parts))
        rows: Rows = [{} for _ in range(max((d for d, *_ in parts), default=-1) + 1)]
        for d, eps, mono, n, q in parts:
            rows[d][layout.pack(eps, mono)] = n * (den // q)
        self.den, self.rows, self.layout = den, rows, layout
        self.trunc, self.rel, self._memo = layout.trunc, rel, None

    @staticmethod
    def from_rows(layout: "_Layout", den: int, rows: Rows, rel: int | None):
        """The value of packed rows over den in layout, put in canonical form:
        trailing empty rows trimmed and den reduced.  Only trailing empty
        rows are removed from the list in place.  The gcd that reduces den
        takes one `gcd` call per nonempty row, from degree 0, and stops once
        it is 1."""
        cls, trunc = layout.cls, layout.trunc
        while rows and not rows[-1]:
            rows.pop()
        if den != 1:
            g = den
            for row in rows:
                if row:
                    g = gcd(g, *row.values())
                    if g == 1:
                        break
            if g != 1:
                den //= g
                rows = [{k: n // g for k, n in row.items()} for row in rows]
        p = object.__new__(cls)
        p.den, p.rows, p.layout, p.trunc, p.rel, p._memo = den, rows, layout, trunc, rel, None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, trunc, rel: int | None = None):
        return cls.from_rows(_layout(cls, trunc), 1, [], rel)

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
        return not self.rows

    @property
    def terms(self) -> "_Terms":
        """The count of stored terms, read by ``len``."""
        return _Terms(self)

    def items(self) -> Iterator[tuple[TermKey, Fraction]]:
        """Each term as ((eps power, monomial), coefficient), in row order, kept nowhere."""
        unpack, den = self.layout.unpack, self.den
        for row in self.rows:
            for k, n in row.items():
                yield unpack(k), Fraction(n, den)

    def min_degree(self) -> int | None:
        """The least degree of a stored term; None for zero."""
        for d, row in enumerate(self.rows):
            if row:
                return d
        return None

    def coefficient(self, mono: Monomial) -> Fraction:
        """The eps-free coefficient of mono."""
        layout, d = self.layout, self.mono_degree(mono)
        if (d < len(self.rows) and mono_max_index(mono) <= layout.index_max
                and all(x <= layout.max_exponent for _v, x in mono)):
            n = self.rows[d].get(layout.pack(0, mono))
            if n:
                return Fraction(n, self.den)
        return Fraction(0)

    def eps_slice(self, j: int):
        """The terms of eps power j, moved to eps power 0."""
        mask = self.layout.eps_mask
        rows = [{k - j: n for k, n in row.items() if k & mask == j} for row in self.rows]
        return self.from_rows(self.layout, self.den, rows, self.rel)

    def cut(self, rel: int | None):
        """The terms of degree <= rel, with reliable degree the lesser of rel
        and the value's own: a cut never raises rel."""
        rel = _rel_min(self.rel, rel)
        rows = self.rows if rel is None else self.rows[:max(rel + 1, 0)]
        return self.from_rows(self.layout, self.den, rows, rel)

    def derived(self, key: tuple, make: Callable, *args):
        """make(self, *args), computed once per value and key and kept with it."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        else:
            value = memo.get(key)
            if value is not None:
                return value
        value = memo[key] = make(self, *args)
        return value

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "SparseSeries") -> None:
        if self.trunc != other.trunc:
            raise TruncationMismatchError(
                f"incompatible truncations {self.trunc} vs {other.trunc}")

    def _operand(self, other):
        """other as a value of this class, or None if it cannot be one."""
        if isinstance(other, (int, Fraction)):
            return self.const(other, self.trunc)
        if not isinstance(other, type(self)):
            return None
        self._check_compatible(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else _sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        rows = [{k: -n for k, n in row.items()} for row in self.rows]
        return self.from_rows(self.layout, self.den, rows, self.rel)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else _sum(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        cls = type(self)
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            rows = [{k: n * c.numerator for k, n in row.items()} for row in self.rows] if c else []
            return self.from_rows(self.layout, self.den * c.denominator, rows, self.rel)
        if not isinstance(other, cls):
            return NotImplemented
        return dot(cls.zero(self.trunc), [(self, other, 1)])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.trunc == other.trunc and self.rel == other.rel and self.den == other.den
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.den, tuple(frozenset(row.items()) for row in self.rows),
                     self.trunc, self.rel))

    def __str__(self):
        if not self.rows:
            return "0"
        parts = []
        for (eps, mono), coef in sorted(self.items()):
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


class _Terms:
    """A value's term count, which bench/spans.py reads by ``len``."""

    __slots__ = ("_p",)

    def __init__(self, p: SparseSeries):
        self._p = p

    def __len__(self):
        return sum(map(len, self._p.rows))


class _Layout(dict):
    """The packed-key layout of one class and truncation, at the class's
    `base_width`: maps each variable to the shift of its exponent field.

    The eps power takes the lowest field, wide enough for the eps sum of two
    factors.  Above it come the kinds with alpha 0 (``s``, or ``phi`` then
    ``f``), one field per kind and index; kind 0 (``t``/``v``) takes one field
    per ``(alpha, index)`` on top, so the rank needs no bound.  A variable past
    the class's index bound would alias the next field, so it raises the
    class's overflow error.  A `guarded` class keeps the top bit of each
    field as its guard, so no stored exponent exceeds `max_exponent`.
    """

    def __init__(self, cls: type[SparseSeries], trunc):
        super().__init__()
        self.cls, self.trunc = cls, trunc
        self.width = width = cls.base_width(trunc)
        self.mask = (1 << width) - 1
        self.max_exponent = self.mask >> 1 if cls.guarded else self.mask
        self.deg_max, self.index_max = cls.bounds(trunc)
        self.eps_bits = (2 * trunc.eps_max).bit_length()
        n = self.index_max + 1
        self.low = [(kind, 0, i) for kind in sorted(cls.kind_names)[1:] for i in range(n)]
        self.top_shift = self.eps_bits + len(self.low) * width
        self.eps_mask = (1 << self.eps_bits) - 1
        self.low_mask = (1 << self.top_shift) - 1
        self.top: list[Var] = []  # the kind-0 variable of each top field so far
        for f, var in enumerate(self.low):
            self[var] = self.eps_bits + f * width

    def __missing__(self, var: Var) -> int:
        kind, alpha, index = var
        if kind or index > self.index_max:
            raise self.cls.overflow_error(
                f"{self.cls.index_name} exceeds bound {self.index_max} "
                f"in {self.cls.var_name(var)}")
        n = self.index_max + 1
        field = (alpha - 1) * n + index
        while len(self.top) <= field:
            self.top.append((0, len(self.top) // n + 1, len(self.top) % n))
        self[var] = shift = self.top_shift + field * self.width
        return shift

    def pack(self, eps: int, mono: Monomial) -> int:
        key = eps
        for var, exp in mono:
            key += exp << self[var]
        return key

    def unpack(self, key: int) -> TermKey:
        """The (eps power, monomial) of a key, kind-0 factors first as they sort."""
        width, mask = self.width, self.mask
        mono = []
        for fields, names in ((key >> self.top_shift, self.top),
                              ((key & self.low_mask) >> self.eps_bits, self.low)):
            i = 0
            while fields:
                if fields & mask:
                    mono.append((names[i], fields & mask))
                fields >>= width
                i += 1
        return key & self.eps_mask, tuple(mono)

    def field_mask(self, keep: Callable[[Var], bool]) -> int:
        """The fields, so far, of the variables that keep accepts."""
        return sum(self.mask << shift for var, shift in self.items() if keep(var))

    def overflow(self, var: Var, exp: int) -> ValueError:
        """The class's overflow error for var at exponent exp, past the bound."""
        return self.cls.overflow_error(f"exponent {exp} of {self.cls.var_name(var)} "
                                       f"exceeds bound {self.max_exponent}")

    def check_guard(self, rows: Rows) -> None:
        """Raise `overflow` if a key of rows sets the top bit of a field,
        which no stored exponent does."""
        guard = sum(1 << (shift + self.width - 1) for shift in self.values())
        for row in rows:
            for k in row:
                if k & guard:  # the largest exponent of k is past the bound
                    raise self.overflow(*max(self.unpack(k)[1], key=lambda f: f[1]))


# One layout per class and truncation: values of equal truncations share it,
# and with it one truncation object, so `dot` finds them compatible by identity.
_layout = cache(_Layout)


def _sum(a: SparseSeries, b: SparseSeries, sign: int) -> SparseSeries:
    """a + sign * b; the sum's rel is the lesser, and both are cut at it."""
    rel = _rel_min(a.rel, b.rel)
    ra, rb = a.rows, b.rows
    size = max(len(ra), len(rb))
    if rel is not None:
        size = min(size, max(rel + 1, 0))
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, sign * (den // b.den)
    rows = []
    for d in range(size):
        x = ra[d] if d < len(ra) else {}
        y = rb[d] if d < len(rb) else {}
        if not y or not x:
            row, s = (x, sa) if x else (y, sb)
            rows.append(row if s == 1 else {k: n * s for k, n in row.items()})
            continue
        row = dict(x) if sa == 1 else {k: n * sa for k, n in x.items()}
        for k, n in y.items():
            s = row.get(k, 0) + n * sb
            if s:
                row[k] = s
            else:
                del row[k]
        rows.append(row)
    return SparseSeries.from_rows(a.layout, den, rows, rel)


def dot(start: SparseSeries,
        products: Iterable[tuple[SparseSeries, SparseSeries, int | Fraction]]
        ) -> SparseSeries:
    """start + the sum of c * a * b over the (a, b, c) in products, as the
    chain ``start + a*b*c + ...`` of `*` and `+` gives it: the sum's rel is
    the least of start's and each ``a * b``'s (`product_rel`).

    Start's rows and all products add into accumulators over the lcm of the
    operands' denominators, one plain dict per degree that start or a live
    product (one with a nonzero scale whose least degrees sum below the
    sum's cap) reaches, each updated through its bound `get`, and the
    accumulators are the result's rows.  The set-up costs what the live
    terms cost: `product_rel` runs only for a factor with a finite rel, the
    lcm grows only by a denominator it does not already hold, each operand's
    rows are read as stored, and each factor's rows run from its least
    degree to the cap, so no product above it is formed.  A product key
    whose eps field exceeds the bound is dropped, and one past a guarded
    field's bound raises.  With nothing to add or cut, the result is start."""
    tr = start.trunc
    deg_max = start.layout.deg_max
    live, rel = [], start.rel
    for a, b, c in products:
        if a.trunc is not tr:
            start._check_compatible(a)
        if b.trunc is not tr:
            start._check_compatible(b)
        low_a, low_b = a.min_degree(), b.min_degree()
        if a.rel is not None or b.rel is not None:
            r = product_rel(a.rel, low_a, b.rel, low_b, deg_max)
            if r is not None and (rel is None or r < rel):
                rel = r
        if c and low_a is not None and low_b is not None and low_a + low_b <= deg_max:
            live.append((a, b, c, low_a, low_b))
    # Every product stops at the sum's cap: what lies past it is dropped anyway.
    size = deg_max + 1 if rel is None else max(rel + 1, 0)  # the degrees kept
    if rel is not None:
        live = [p for p in live if p[3] + p[4] < size]
    if not live and rel == start.rel and len(start.rows) <= size:
        return start  # nothing to add
    den = start.den
    for a, b, c, *_ in live:
        q = a.den * b.den * c.denominator
        if den % q:
            den = lcm(den, q)
    scale = den // start.den
    acc: dict[int, dict[int, int]] = {
        d: dict(row) if scale == 1 else {k: n * scale for k, n in row.items()}
        for d, row in enumerate(start.rows[:size]) if row}
    for a, b, c, low_a, low_b in live:
        ra, rb = a.rows, b.rows
        scale = c.numerator * (den // (a.den * b.den * c.denominator))
        for d1 in range(low_a, min(len(ra), size - low_b)):
            row = ra[d1]
            if not row:
                continue
            parts = []
            for d2 in range(low_b, min(len(rb), size - d1)):
                if rb[d2]:
                    target = acc.get(d1 + d2)
                    if target is None:
                        target = acc[d1 + d2] = {}
                    parts.append((target, target.get, rb[d2]))
            for k1, n1 in row.items():
                n1 *= scale
                for target, get, r2 in parts:
                    for k2, n2 in r2.items():
                        k = k1 + k2
                        target[k] = get(k, 0) + n1 * n2
    layout = start.layout
    eps_mask, eps_max = layout.eps_mask, tr.eps_max
    out = [{}] * (max(acc, default=-1) + 1)  # rows are never written, so one {} serves
    for d, row in acc.items():
        out[d] = {k: n for k, n in row.items() if n and k & eps_mask <= eps_max}
    if layout.cls.guarded:
        layout.check_guard(out)
    return SparseSeries.from_rows(layout, den, out, rel)


def remap(p: SparseSeries, layout: _Layout, image: Callable[[Var], Var], drop: int,
          rel: int | None) -> SparseSeries:
    """p moved into layout with reliable degree rel, in one pass over its keys:
    a key that meets the mask drop, or lies past layout's degree or eps bound,
    is left out, and each field var of another key moves to image(var)'s in
    layout.  A variable must keep its degree, so every term keeps its row."""
    src = p.layout
    mask, eps_mask, eps_max = src.mask, src.eps_mask, layout.trunc.eps_max
    # a snapshot (image may add fields to layout, perhaps src); drop's fields are not moved
    moves = [(shift, layout[image(var)]) for var, shift in list(src.items())
             if drop >> shift & mask != mask]
    rows = []
    for row in p.rows[:layout.deg_max + 1]:
        out = {}
        for k, n in row.items():
            if not k & drop and k & eps_mask <= eps_max:
                key = k & eps_mask
                for shift, target in moves:
                    x = k >> shift & mask
                    if x:
                        key += x << target
                out[key] = n
        rows.append(out)
    return SparseSeries.from_rows(layout, p.den, rows, rel)


def poly_eq(p: SparseSeries, q: SparseSeries, *, up_to: int | None = None) -> bool:
    """Equality of stored terms up to the shared reliable degree and up_to."""
    if p.trunc != q.trunc:
        raise TruncationMismatchError("cannot compare across truncations")
    return (p - q).cut(up_to).is_zero()


def partial(p: SparseSeries, var: Var) -> SparseSeries:
    """Formal partial derivative; rel drops by the degree of var.  Each key
    loses one unit of var's field, its numerator gaining the exponent."""
    drop = p.var_degree(var)
    rel = None if p.rel is None else p.rel - drop
    layout = p.layout
    rows = []
    if var[2] <= layout.index_max:  # no term holds a variable past the bound
        shift, mask = layout[var], layout.mask
        unit = 1 << shift
        for row in p.rows[drop:]:
            out = {}
            for k, n in row.items():
                x = k >> shift & mask
                if x:
                    out[k - unit] = n * x
            rows.append(out)
    return SparseSeries.from_rows(layout, p.den, rows, rel)


def derivative(p: SparseSeries, *variables: Var) -> SparseSeries:
    """d^k p / d(variables), each first partial computed once per value.

    The variables are taken in sorted order, so every ordering of them reads
    one chain of memoized first partials.
    """
    for var in sorted(variables):
        p = p.derived(("d", var), partial, var)
    return p


def power(p: SparseSeries, k: int) -> SparseSeries:
    """p^k as 1 * p * ... * p, each power computed once per value; p^1 is p
    itself (1 * p has its terms, rel, den and layout), kept out of p's memo."""
    return p if k == 1 else p.derived(("pow", k), _power, k)


def _power(p: SparseSeries, k: int) -> SparseSeries:
    return power(p, k - 1) * p if k else type(p).const(1, p.trunc)


Spec = tuple[tuple[Var, ...], Fraction | int]  # (variables, scale); `_specs` sorts them


def _specs(specs: Iterable[Spec]) -> tuple[Spec, ...]:
    """The specs with their variables sorted, zero scales dropped and an
    integral scale kept as an int, so a memo key holding them hashes no
    `Fraction`."""
    return tuple([(tuple(sorted(dvars)), scale if type(scale) is int
                   else scale.numerator if scale.denominator == 1 else scale)
                  for dvars, scale in specs if scale])


def spec_sum(p: SparseSeries, specs: tuple[Spec, ...]) -> SparseSeries:
    """sum_spec scale * d^k p / d(spec vars), computed once per value: the
    derivative tables of the solvers, the unit-direction derivative, and
    the derivatives raised by the inverse metric."""
    return p.derived(("spec", specs), _spec_sum, specs)


def _spec_sum(p: SparseSeries, specs: tuple[Spec, ...]) -> SparseSeries:
    terms = []
    for dvars, scale in specs:
        term = derivative(p, *dvars)
        terms.append(term * scale if scale != 1 else term)
    return sum(terms[1:], terms[0])


# -- dense elimination ---------------------------------------------------------

class NoSolutionError(Exception):
    """The staged linear system became inconsistent.

    `label` names the conflicting row.  The solver engine sets `weight`, the
    descendent weight whose rows conflict, and `free`, the free monomials of
    the weights below it, which the solve set to zero, as `SolveResult.free`
    lists them; outside a weight stage they stay None and empty.
    """

    weight: int | None = None
    free: list[Monomial] | tuple = ()

    def __init__(self, label, message):
        self.label = label
        super().__init__(message)


def _eliminate(rows) -> dict:
    """Gaussian elimination of the rows (lhs: unknown -> `Fraction`, rhs,
    label) in row order, pivoting on each row's least unknown: the value of
    each pivot, every other unknown at zero.  A row that reduces to 0 = rhs
    != 0 raises `NoSolutionError` with its label."""
    pivots: list[tuple[object, dict, Fraction]] = []
    for lhs, rhs, label in rows:  # fresh dicts, reduced in place
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
    assign: dict = {}
    for pvar, plhs, prhs in reversed(pivots):
        val = prhs
        for m, c in plhs.items():
            val -= c * assign.get(m, Fraction(0))
        assign[pvar] = val
    return assign


# -- differential polynomials -------------------------------------------------

class JetPoly(SparseSeries):
    """A truncated differential polynomial with exact rational coefficients.

    Graded by total degree in jet-order-zero variables; the jet order is the
    bounded index.  Its exponent fields are `guarded`: they hold exponents up
    to `max_exponent`, at least the degree bound plus the jet bound, and an
    exponent past it raises `JetOverflowError` (see the module docstring).
    """

    __slots__ = ()

    mono_degree = staticmethod(mono_deg0)

    @staticmethod
    def var_degree(var: Var) -> int:
        return 1 if var[2] == 0 else 0

    @staticmethod
    def bounds(trunc) -> tuple[int, int]:
        return trunc.deg0_max, trunc.jet_max

    @staticmethod
    def base_width(trunc) -> int:
        return (trunc.deg0_max + trunc.jet_max).bit_length() + 1

    guarded = True
    overflow_error = JetOverflowError
    index_name = "jet order"
    var_name = staticmethod(var_name)
    kind_names = KIND_NAMES
    kind_codes = KIND_CODES

    # Bound in this class's own namespace so each kind's product can be
    # wrapped separately (bench/spans.py traces JetPoly.__mul__).
    __mul__ = __rmul__ = SparseSeries.__mul__

    @classmethod
    def eps(cls, trunc: JetTruncation) -> "JetPoly":
        return cls({(1, ONE): Fraction(1)}, trunc)


def dx(p: JetPoly) -> JetPoly:
    """Total x-derivative: bumps one jet order per term by the Leibniz rule,
    moving one unit of a key from a variable's field to the next jet's; past
    the jet or the exponent bound it raises `JetOverflowError`."""
    tr, layout = p.trunc, p.layout
    edge = layout.field_mask(lambda var: var[2] == tr.jet_max)
    if any(k & edge for row in p.rows for k in row):
        var = next(v for (_e, mono), _c in sorted(p.items()) for v, _x in mono
                   if v[2] == tr.jet_max)
        raise JetOverflowError(f"dx would raise {var_name(var)} past jet bound {tr.jet_max}")
    rows: Rows = [{} for _ in p.rows]
    has_deg0 = False
    for d, row in enumerate(p.rows):
        for k, n in row.items():
            for var, exp in layout.unpack(k)[1]:
                kind, alpha, jet = var
                has_deg0 = has_deg0 or jet == 0
                target = rows[d - 1] if jet == 0 else rows[d]
                key = k - (1 << layout[var]) + (1 << layout[(kind, alpha, jet + 1)])
                s = target.get(key, 0) + n * exp
                if s:
                    target[key] = s
                else:
                    del target[key]
    rel = p.rel if (p.rel is None or not has_deg0) else p.rel - 1
    if rel is not None:
        rows = rows[:max(rel + 1, 0)]
    layout.check_guard(rows)
    return JetPoly.from_rows(layout, p.den, rows, rel)


def grade_parts(p: SparseSeries, grading: Iterable[tuple[int, int, int]], drop: int = 0
                ) -> dict[int, SparseSeries]:
    """The one split of a value by a linear grading of its keys: grade ->
    part, the nonzero grades in rising order, each part with p's rel.  The
    grade of a key is the sum of weight * (key >> shift & mask) over the
    (shift, mask, weight) triples of grading; the keys that meet the mask
    drop are left out."""
    by_grade: dict[int, Rows] = {}
    for d, row in enumerate(p.rows):
        for key, n in row.items():
            if not key & drop:
                grade = 0
                for shift, mask, w in grading:
                    grade += w * (key >> shift & mask)
                rows = by_grade.get(grade)
                if rows is None:
                    rows = by_grade[grade] = [{} for _ in p.rows]
                rows[d][key] = n
    return {g: SparseSeries.from_rows(p.layout, p.den, by_grade[g], p.rel)
            for g in sorted(by_grade)}


def standard_degree(p: JetPoly) -> dict[int, JetPoly]:
    """Decompose into homogeneous slices of the standard gradation, read off
    each key: deg v{a}_i = deg phi_i = i, deg f_i = i - 1, deg eps = -1."""
    layout = p.layout
    return grade_parts(p, [(shift, layout.mask, jet - (kind == KIND_F))
                           for (kind, _a, jet), shift in layout.items()]
                       + [(0, layout.eps_mask, -1)])


def phi_parts(p: JetPoly) -> dict[int, JetPoly]:
    """p by phi power, i -> the coefficient of phi^i, each nonzero one in
    rising i; requires that no positive phi jets are present.  Each part
    loses phi^i from its keys, and its degrees and rel drop by i."""
    layout = p.layout
    jets = layout.field_mask(lambda var: var[0] == KIND_PHI and var[2] > 0)
    if any(k & jets for row in p.rows for k in row):
        raise PhiJetError("positive phi jets present; eliminate them first")
    shift = layout[phivar(0)]
    return {i: JetPoly.from_rows(layout, part.den,
                                 [{k - (i << shift): n for k, n in row.items()}
                                  for row in part.rows[i:]],
                                 None if p.rel is None else p.rel - i)
            for i, part in grade_parts(p, [(shift, layout.mask, 1)]).items()}
