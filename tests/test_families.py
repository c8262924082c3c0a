"""Row families and derivative tables built from variable tuples.

Every `_Table` and `_Rows` that the family builders and the closed validator
make is checked against a reference made here with `mono_from_factors`: its
specs, each mapped to (monomial, scale), its weight (a table) or offset and
arity (a family).  The whole family lists, labels and table sharing
included, are pinned by digests recorded with earlier builders, which kept
each spec as a monomial, passed every scale as a `Fraction` and read weight
and arity off the monomial; the digests hash the specs mapped to monomials.
The solver's structural free monomials, the ones no row contains, are
checked against a reference search over monomials.
"""

import hashlib
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import ottr.genus0 as genus0
from ottr.algebra import JetPoly, vvar
from ottr.bigphase import (
    BigSeries,
    TheoryData,
    Truncation,
    mono_degree,
    mono_from_factors,
    t_var,
)
from ottr.genus0 import (
    _closed_families,
    _open_families,
    solve_closed_order_by_order,
    solve_open_order_by_order,
    validate_closed_genus0,
)
from ottr.genus1 import _genus1_families

ANTIDIAGONAL = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

# name: (rank, eta, A, degree bound, level bound) and the digest of the
# closed, open and genus-1 families and the closed validator's families
THEORIES = {
    "rank1-D6-A3": ((1, [[1]], [1], 6, 3),
                    "7b74ef59f7df387c85832691b1d65e47b6735a6196c601bdd89b66dedaa8c879"),
    "rank2-D5-A1": ((2, [[1, 0], [0, 1]], [1, 1], 5, 1),
                    "9672c081f1118ac2c5861ca228b01ebf7ef1f85b9b520955f91f8fe778476a81"),
    "rank3-antidiagonal-D6-A2": ((3, ANTIDIAGONAL, [1, 0, 0], 6, 2),
                                 "f4824b52d5358226963efa980d7351d41d08073c17a125fc90dfcdfe4934417b"),
    "rank3-identity-D5-A2": ((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1], 5, 2),
                             "e4051de2201a05c1ac62f37758cc6b4aff5792dfe7f4c82fdd5f045b2dccfed9"),
    # the non-integral scales of tests/test_rank2.py: eta_inv = diag(1/2, 1), A = (1/2, 0)
    "rank2-diag21-D5-A2": ((2, [[2, 0], [0, 1]], [Fraction(1, 2), 0], 5, 2),
                           "93c730b6102df60c3f7fc87d791fbe2c3ccba7e94502605df0d60bffb21784c6"),
}


def _theory(name: str) -> TheoryData:
    n, eta, avec, degree, amax = THEORIES[name][0]
    return TheoryData.build(n, eta, avec, Truncation.of(degree, amax))


def mono_weight(m) -> int:
    """Descendent weight: the level sum counted with exponents."""
    return sum(level * exp for (_kind, _alpha, level), exp in m)


def _monomials(specs) -> tuple:
    """Built specs, (sorted variables, scale), as (monomial, scale)."""
    return tuple((mono_from_factors((var, 1) for var in dvars), scale)
                 for dvars, scale in specs)


def _reference_specs(specs) -> tuple:
    """The specs as the builders made them through `mono_from_factors`."""
    return tuple((mono_from_factors((var, 1) for var in dvars),
                  Fraction(scale).numerator if Fraction(scale).denominator == 1 else scale)
                 for dvars, scale in specs if scale)


def _describe(families, shared: bool) -> str:
    """Each family's label, specs, offset, arity and product tables; a table
    is its specs, weight and whether it is fed, and, if shared, its index
    in the order of first use."""
    index: dict = {}

    def table(t):
        body = (_monomials(t.specs), t.weight, t.series is None)
        return (index.setdefault(t, len(index)), body) if shared else body

    return repr([(f.label, _monomials(f.specs), f.offset, f.arity,
                  [(table(a), table(b)) for a, b in f.products]) for f in families])


def _validation_families(f0: BigSeries, theory: TheoryData) -> list:
    """The families `validate_closed_genus0` evaluates."""
    seen = []
    real = genus0.ResidualReport.add_rows

    def spy(self, families, f):
        seen.append(families)
        return real(self, families, f)

    genus0.ResidualReport.add_rows = spy
    try:
        validate_closed_genus0(f0, theory)
    finally:
        genus0.ResidualReport.add_rows = real
    return seen[0]


@pytest.mark.parametrize("name", THEORIES)
def test_every_table_and_family_matches_the_reference(name, monkeypatch):
    built = []  # (table or family, the specs it was given)
    for cls in (genus0._Table, genus0._Rows):
        real = cls.__init__

        def spy(self, *args, _real=real, **kwargs):
            _real(self, *args, **kwargs)
            built.append((self, args[1] if isinstance(self, genus0._Rows) else args[0]))

        monkeypatch.setattr(cls, "__init__", spy)
    th = _theory(name)
    zero = BigSeries.zero(th.trunc)
    text = "\n".join([_describe(_closed_families(th), True),
                      _describe(_open_families(zero, th), True),
                      _describe(_genus1_families(zero, zero, th), True),
                      _describe(_validation_families(zero, th), False)])
    assert hashlib.sha256(text.encode()).hexdigest() == THEORIES[name][1]
    assert len(built) > 100
    for obj, specs in built:
        reference = _reference_specs(specs)
        assert _monomials(obj.specs) == reference
        first = reference[0][0]
        if isinstance(obj, genus0._Rows):
            assert (obj.offset, obj.arity) == (mono_weight(first), mono_degree(first))
        else:
            assert obj.weight == mono_weight(first)
        assert all(mono_weight(m) == mono_weight(first) for m, _scale in reference)
        assert all(type(scale) is int for _m, scale in obj.specs if scale == int(scale))


def test_repeated_variables_give_exponent_two():
    """(beta, b) = (gamma, c) in the closed recursion relations."""
    th = _theory("rank3-antidiagonal-D6-A2")
    families = {f.label: f for f in _closed_families(th)}
    t20 = t_var(2, 0)
    trr = families["trr0", (1, 0, 2, 0, 2, 0)]
    assert trr.specs == (((t_var(1, 1), t20, t20), 1),)
    assert _monomials(trr.specs) == ((((t_var(1, 1), 1), (t20, 2)), 1),)
    assert (trr.offset, trr.arity) == (1, 3)
    third = trr.products[1][1]
    assert third.specs == (((t20, t20, t20), 1),) and third.weight == 0


def test_two_point_shift_rows_share_their_tables():
    """One Hessian table per (alpha, a, nu) and one second-derivative table
    per (nu, beta, b) serve every `two_point_shift` row of a validation."""
    th = _theory("rank3-antidiagonal-D6-A2")
    families = [f for f in _validation_families(BigSeries.zero(th.trunc), th)
                if f.label[0] == "two_point_shift"]
    hess, second = {}, {}
    for fam in families:
        alpha, a, beta, b = fam.label[1]
        for nu, (h, s) in enumerate(fam.products, 1):
            assert hess.setdefault((alpha, a, nu), h) is h
            assert second.setdefault((nu, beta, b), s) is s
            assert _monomials(h.specs) == _reference_specs(
                genus0._hessian_specs(alpha, a, nu, th))
            assert _monomials(s.specs) == _reference_specs([((t_var(nu, 0), t_var(beta, b)), 1)])
    assert len(families) == 21
    assert len({id(t) for fam in families for pair in fam.products for t in pair}) == 36
    assert (len(hess), len(second)) == (18, 18)


def _contained(mono, families) -> bool:
    """Whether some spec monomial of some family divides mono."""
    exps = dict(mono)
    return any(all(exps.get(var, 0) >= e for var, e in d)
               for fam in families for d, _scale in _monomials(fam.specs))


def _structural(families, variables, cap) -> list:
    """The monomials of positive weight no row contains, below the largest
    arity and up to cap, by weight."""
    top = min(max(fam.arity for fam in families), cap + 1)
    found = [mono_from_factors((var, 1) for var in combo) for d in range(1, top)
             for combo in combinations_with_replacement(sorted(variables), d)]
    return sorted((m for m in found if mono_weight(m) and not _contained(m, families)),
                  key=lambda m: (mono_weight(m), m))


@pytest.mark.parametrize("rank, degree, amax", [(1, 6, 3), (3, 6, 2)])
def test_structural_free_monomials_match_the_reference(rank, degree, amax):
    tr = Truncation.of(degree, amax)
    jt = tr.jet()
    v = [JetPoly.var(vvar(alpha, 0), jt) for alpha in range(1, rank + 1)]
    if rank == 1:
        th, seed = TheoryData.rank1(tr), v[0] * v[0] * v[0] * Fraction(1, 6)
    else:
        th = TheoryData.build(3, ANTIDIAGONAL, [1, 0, 0], tr)
        seed = ((v[0] * v[0] * v[2] + v[0] * v[1] * v[1]) * Fraction(1, 2)
                + v[1] * v[1] * v[1] * v[1])
    closed = solve_closed_order_by_order(seed, th)
    families = _closed_families(th)
    free = [m for m in closed.free if not _contained(m, families)]
    assert free == _structural(families, th.t_vars(), degree) != []
    if rank == 1:
        phi = JetPoly.var((1, 0, 0), jt)
        opened = solve_open_order_by_order(closed.series, v[0] * phi
                                           + phi * phi * phi * Fraction(1, 6), th)
        families = _open_families(closed.series, th)
        free = [m for m in opened.free if not _contained(m, families)]
        assert free == _structural(families, th.all_vars(), degree) != []
