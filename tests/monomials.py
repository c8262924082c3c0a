"""Dense monomial enumeration for the tests' exhaustive sweeps."""

from itertools import combinations_with_replacement
from typing import Sequence

from ottr.bigphase import BigMonomial, BigVar, mono_from_factors


def monomials_up_to(variables: Sequence[BigVar], max_deg: int) -> list[BigMonomial]:
    """Every monomial in the variables of degree <= max_deg, by degree."""
    vs = sorted(variables)
    return [mono_from_factors((v, 1) for v in combo)
            for d in range(max_deg + 1) for combo in combinations_with_replacement(vs, d)]
