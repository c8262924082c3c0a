"""Independent check of a stored rank-1 closed genus-0 potential.

The Witten-Kontsevich genus-0 correlators are
<tau_{d1} ... tau_{dn}>_0 = (n-3)! / prod d_i!  when  sum d_i = n - 3,
and 0 otherwise, so the coefficient of prod_d (t_d)^{k_d} in F0 is that
number divided by the symmetry factor prod_d k_d!.  The file is read with
its own small parser, not with ottr's, so a fault in the solver, the emitter
or the parser cannot make a wrong fixture look right.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


class OracleError(ValueError):
    pass


def _header(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split()[1:])


def read_rank1_series(text: str) -> tuple[dict[str, str], int, dict[tuple, Fraction]]:
    """(theory fields, rel, {sorted ((level, exp), ...): coefficient})."""
    lines = text.splitlines()
    if len(lines) < 4 or lines[0] != "ottr-series-v1" or lines[-1] != "end":
        raise OracleError("not an ottr-series-v1 file")
    theory = _header(lines[1])
    kind = lines[2].split()
    if kind[:2] != ["kind", "bigseries"] or not kind[2].startswith("rel="):
        raise OracleError("not a bigseries")
    rel = int(kind[2][len("rel="):])
    terms: dict[tuple, Fraction] = {}
    for line in lines[3:-1]:
        _term, coef, eps, vars_txt = line.split(" ")
        if eps != "eps=0":
            raise OracleError(f"closed genus-0 term with {eps}: {line}")
        mono = []
        for factor in vars_txt[len("vars="):].split(","):
            kind_name, alpha, level, exp = factor.split(":")
            if kind_name != "t" or alpha != "1":
                raise OracleError(f"unexpected variable in {line}")
            mono.append((int(level), int(exp)))
        terms[tuple(sorted(mono))] = Fraction(coef)
    return theory, rel, terms


def witten_kontsevich_genus0(deg_max: int, level_max: int) -> dict[tuple, Fraction]:
    """Every nonzero coefficient of the rank-1 F0 with degree <= deg_max."""
    out: dict[tuple, Fraction] = {}

    def walk(level: int, mono: list[tuple[int, int]], n: int, weight: int) -> None:
        if level > level_max:
            if n >= 3 and weight == n - 3:
                denom = 1
                for d, k in mono:
                    denom *= factorial(d) ** k * factorial(k)
                out[tuple(mono)] = Fraction(factorial(n - 3), denom)
            return
        for k in range(deg_max - n + 1):
            walk(level + 1, mono + [(level, k)] if k else mono, n + k,
                 weight + level * k)

    walk(0, [], 0, 0)
    return out


def check_closed_fixture(text: str) -> int:
    """Raise OracleError unless the file is exactly the Witten-Kontsevich F0.

    Returns the number of coefficients compared.
    """
    theory, rel, terms = read_rank1_series(text)
    if theory.get("rank") != "1" or theory.get("eta") != "1" or theory.get("A") != "1":
        raise OracleError(f"not the rank-1 unit theory: {theory}")
    deg_max, level_max = int(theory["Dt"]), int(theory["Amax"])
    if rel != deg_max:
        raise OracleError(f"reliable degree {rel} is not the window {deg_max}")
    want = witten_kontsevich_genus0(deg_max, level_max)
    for mono in sorted(set(want) | set(terms)):
        got, expected = terms.get(mono, Fraction(0)), want.get(mono, Fraction(0))
        if got != expected:
            raise OracleError(f"coefficient of {mono}: stored {got}, "
                              f"Witten-Kontsevich {expected}")
    return len(want)
