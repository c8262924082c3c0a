"""Monomial helpers for the tests: dense enumeration for the exhaustive
sweeps, and tuple products and quotients for the kernel's reference loops."""

from itertools import combinations_with_replacement
from typing import Sequence

from ottr.algebra import Monomial, Var
from ottr.bigphase import BigMonomial, BigVar, mono_from_factors


def monomials_up_to(variables: Sequence[BigVar], max_deg: int) -> list[BigMonomial]:
    """Every monomial in the variables of degree <= max_deg, by degree."""
    vs = sorted(variables)
    return [mono_from_factors((v, 1) for v in combo)
            for d in range(max_deg + 1) for combo in combinations_with_replacement(vs, d)]


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two sorted monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    acc = dict(m1)
    for var, exp in m2:
        acc[var] = acc.get(var, 0) + exp
    return tuple(sorted(acc.items()))


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


def terms(value) -> dict:
    """A value's terms, (eps power, monomial) -> coefficient."""
    return dict(value.items())
