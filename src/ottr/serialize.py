"""Canonical text serialization for every value type.

One value per file: a format tag line, a theory block, a kind line, term
lines in canonical order, and ``end``.  Emission is deterministic, terms are
sorted, coefficients are in lowest terms, and parsing a file then re-emitting
it reproduces the bytes exactly.  The parser is strict: non-canonical
coefficients or integers, stray spaces, unknown variable kinds, terms outside
the declared truncation, reliable degrees above the degree bound, carriage
returns, non-ASCII text, a missing or doubled final newline, and term lines,
operator blocks, report entries or range lines out of their sorted order are
rejected with line and column positions.  The grading and the variable names
of a series come from its class, so both series kinds share one code path.

A series is read in one pass straight into the packed rows of its layout
(`ottr.algebra`).  Term lines are split once and checked on their fields;
each distinct ``kind:alpha:index:exponent`` piece and coefficient token is
checked once per series.  A piece is kept as its key increment and its
degree, so a term's key is its eps power plus a sum of increments; a jet
exponent too wide for the layout moves the rows read so far to the wider
one.  The numerators are brought to one denominator at the end, and a
column is computed only for a refusal.  The emitter formats each distinct
piece once per value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .algebra import JetPoly, SparseSeries, Var, _layout
from .bigphase import BigSeries, TheoryData, Truncation, big_var_name
from .genus0 import ResidualReport, entry_status, index_names
from .laxpde import LinearDiffOp

FORMAT_TAG = "ottr-series-v1"

# Series kinds by file tag: the class, and its truncation within a theory.
_SERIES_KINDS = {
    "bigseries": (BigSeries, lambda tr: tr),
    "jetpoly": (JetPoly, Truncation.jet),
}
_SERIES_TAGS = {cls: tag for tag, (cls, _) in _SERIES_KINDS.items()}

# Coefficients as ``str(Fraction)`` writes them, up to two more checks: a
# denominator above 1 and coprime to the numerator.
_RATIONAL = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?|0").fullmatch
# Integers as ``str(int)`` writes them; ASCII digits only, and no ``-0``.
_INT = re.compile(r"0|-?[1-9][0-9]*").fullmatch
_NAT = r"(0|[1-9][0-9]*)"
# One variable of a term line: kind:alpha:index:exponent.
_VAR = re.compile(rf"([^:]*):{_NAT}:{_NAT}:{_NAT}").fullmatch
# Characters the emitter never writes: carriage returns and non-ASCII text.
_STRAY = re.compile("[\r\x80-\U0010ffff]").search


class ParseError(ValueError):
    """Malformed input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


@dataclass
class ReportFile:
    """Round-trippable digest of a residual report."""

    entries: list[tuple[str, tuple, bool, int | None]]
    ranges: dict[str, str] = field(default_factory=dict)


def _fmt_vec(vec) -> str:
    return ",".join(map(str, vec))


def _fmt_mat(mat) -> str:
    return ";".join(_fmt_vec(row) for row in mat)


def _fmt_rel(rel: int | None) -> str:
    return "-" if rel is None else str(rel)


def _fmt_idx(idx: tuple) -> str:
    return ":".join(index_names(idx)) or "-"


def emit_theory(theory: TheoryData) -> str:
    tr = theory.trunc
    return (f"theory rank={theory.n} eta={_fmt_mat(theory.eta)} "
            f"A={_fmt_vec(theory.avec)} Dt={tr.deg_max} Amax={tr.level_max} "
            f"Dv={tr.deg0_max} J={tr.jet_max} E={tr.eps_max}")


class _PieceTexts(dict):
    """The ``name:alpha:index:exponent`` text of each (var, exponent) pair,
    formatted on first use."""

    def __init__(self, names: dict[int, str]):
        super().__init__()
        self.names = names

    def __missing__(self, pair: tuple[Var, int]) -> str:
        (kind, alpha, index), exp = pair
        text = self[pair] = f"{self.names[kind]}:{alpha}:{index}:{exp}"
        return text


def _emit_terms(value: SparseSeries) -> list[str]:
    """The term lines in (eps, monomial) order, coefficients as `str(Fraction)`."""
    unpack, den = value.layout.unpack, value.den
    piece = _PieceTexts(value.kind_names).__getitem__
    lines = []
    for (eps, mono), n in sorted((unpack(k), n) for row in value.rows for k, n in row.items()):
        g = gcd(n, den)
        coef = str(n // g) if g == den else f"{n // g}/{den // g}"
        lines.append(f"term {coef} eps={eps} vars={','.join(map(piece, mono)) or '-'}")
    return lines


def emit(value, theory: TheoryData) -> str:
    """Serialize a BigSeries, JetPoly, LinearDiffOp, or ResidualReport."""
    lines = [FORMAT_TAG, emit_theory(theory)]
    tag = _SERIES_TAGS.get(type(value))
    if tag is not None:
        lines.append(f"kind {tag} rel={_fmt_rel(value.rel)}")
        lines.extend(_emit_terms(value))
    elif isinstance(value, LinearDiffOp):
        meta = ":".join(str(x) for x in value.meta) or "-"
        lines.append(f"kind operator meta={meta}")
        for (i, j) in sorted(value.coeffs):
            poly = value.coeffs[(i, j)]
            lines.append(f"coef i={i} j={j} rel={_fmt_rel(poly.rel)}")
            lines.extend(_emit_terms(poly))
    elif isinstance(value, (ResidualReport, ReportFile)):
        lines.append("kind report")
        if isinstance(value, ResidualReport):
            entries = [(e.equation, e.indices, e.is_zero, e.window)
                       for e in value.entries]
            ranges = value.checked
        else:
            entries = value.entries
            ranges = value.ranges
        for eq, idx, zero, window in sorted(entries, key=lambda t: (t[0], t[1])):
            status = entry_status(zero, window)
            lines.append(f"entry eq={eq} idx={_fmt_idx(idx)} status={status} "
                         f"window={_fmt_rel(window)}")
        for eq in sorted(ranges):
            lines.append(f"range {eq} {ranges[eq]}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _fields(line: str, line_no: int) -> list[tuple[str, int]]:
    """Split a line at single spaces into (token, 1-based column) pairs."""
    out = []
    col = 1
    for tok in line.split(" "):
        if not tok:
            raise ParseError("empty field (doubled, leading or trailing space)",
                             line_no, col)
        out.append((tok, col))
        col += len(tok) + 1
    return out


def _parse_coef(tok: str, line_no: int, col: int) -> tuple[int, int]:
    """(numerator, denominator) of a rational token, which must be written as
    `str(Fraction)` writes it."""
    match = _RATIONAL(tok)
    if match is not None:
        num, den = int(match[1] or 0), int(match[2] or 1)
        if match[2] is None or (den > 1 and gcd(num, den) == 1):
            return num, den
    try:
        val = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed coefficient {tok!r}", line_no, col) from None
    raise ParseError(f"coefficient {tok!r} is not canonical (expected {val!s})", line_no, col)


def _parse_int(tok: str, what: str, line_no: int, col: int) -> int:
    if not _INT(tok):
        raise ParseError(f"bad {what} {tok!r}", line_no, col)
    return int(tok)


def _parts(txt: str, sep: str, col: int):
    """The sep-separated parts of a field value, each with its column."""
    for part in txt.split(sep):
        yield part, col
        col += len(part) + 1


def _parse_index(txt: str, names: dict, line_no: int, col: int) -> tuple:
    """A report index: canonical integers and the theory's variable names."""
    out = []
    for part, col in _parts(txt, ":", col) if txt != "-" else ():
        val = int(part) if _INT(part) else names.get(part)
        if val is None:
            raise ParseError(f"bad index part {part!r}", line_no, col)
        out.append(val)
    return tuple(out)


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of a character offset."""
    return text.count("\n", 0, index) + 1, index - text.rfind("\n", 0, index)


def _kv(fld: tuple[str, int], key: str, line_no: int) -> tuple[str, int]:
    """The value of a ``key=value`` field, with the value's column."""
    tok, col = fld
    if not tok.startswith(key + "="):
        raise ParseError(f"expected {key}=..., got {tok!r}", line_no, col)
    return tok[len(key) + 1:], col + len(key) + 1


def _int_kv(fld: tuple[str, int], key: str, line_no: int) -> int:
    txt, col = _kv(fld, key, line_no)
    return _parse_int(txt, key, line_no, col)


def _parse_rel(fld: tuple[str, int], key: str, line_no: int,
               bound: int | None = None) -> int | None:
    txt, col = _kv(fld, key, line_no)
    if txt == "-":
        return None
    rel = _parse_int(txt, "reliable degree", line_no, col)
    if bound is not None and rel > bound:
        raise ParseError(f"reliable degree {rel} above the degree bound {bound}",
                         line_no, col)
    return rel


def _parse_theory(line: str, line_no: int) -> TheoryData:
    fields = _fields(line, line_no)
    if len(fields) != 9 or fields[0][0] != "theory":
        raise ParseError("malformed theory line", line_no)
    rank = _int_kv(fields[1], "rank", line_no)
    eta_txt, col = _kv(fields[2], "eta", line_no)
    eta = [[Fraction(*_parse_coef(x, line_no, c)) for x, c in _parts(row, ",", row_col)]
           for row, row_col in _parts(eta_txt, ";", col)]
    a_txt, col = _kv(fields[3], "A", line_no)
    avec = [Fraction(*_parse_coef(x, line_no, c)) for x, c in _parts(a_txt, ",", col)]
    tr = Truncation(*(_int_kv(f, key, line_no) for f, key in
                      zip(fields[4:], ("Dt", "Amax", "Dv", "J", "E"))))
    try:
        return TheoryData.build(rank, eta, avec, tr)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _check_piece(piece: str, cls: type[SparseSeries], rank: int, index_max: int):
    """A kind:alpha:index:exponent piece as (kind, alpha, index, exponent,
    degree); ValueError with the reason if it is refused."""
    match = _VAR(piece)
    if match is None:
        raise ValueError(f"malformed variable {piece!r}")
    name = match[1]
    kind = cls.kind_codes.get(name)
    if kind is None:
        raise ValueError(f"unknown variable kind {name!r}")
    alpha, idx, exp = int(match[2]), int(match[3]), int(match[4])
    if exp < 1:
        raise ValueError("exponents must be positive")
    if kind == 0 and not 1 <= alpha <= rank:  # v resp. t, the only kind with a component index
        raise ValueError(f"component index {alpha} outside rank")
    if kind != 0 and alpha != 0:
        raise ValueError(f"{name}-variables carry no component index")
    if idx > index_max:
        raise ValueError(f"{cls.index_name} {idx} outside truncation")
    return kind, alpha, idx, exp, cls.var_degree((kind, alpha, idx)) * exp


def _parse_series(numbered: list[tuple[int, str]], cls: type[SparseSeries],
                  trunc, rel: int | None, theory: TheoryData) -> SparseSeries:
    """A series from its term lines, read in one pass into the packed rows of
    its layout; every term is checked here."""
    deg_max, index_max = cls.bounds(trunc)
    layout = _layout(cls, trunc, cls.base_width(trunc))
    eps_fields = {f"eps={e}": e for e in range(trunc.eps_max + 1)}
    # Each distinct coefficient token and piece is checked once per call.  The
    # caches are local: kind codes, rank and index bound differ between
    # theories and kinds.  A piece is kept as its (var, exponent) pair, its
    # var, its key increment in the layout and its degree.
    coefs: dict[str, tuple[int, int]] = {}
    seen: dict[str, tuple[tuple[Var, int], Var, int, int]] = {}
    rows: list[dict[int, str]] = [{} for _ in range(deg_max + 1)]  # key -> coefficient token
    last = None  # the (eps, factors) of the previous term
    for line_no, line in numbered:
        fields = line.split(" ")
        if len(fields) != 4 or fields[0] != "term" or "" in fields:
            if not line.startswith("term "):
                raise ParseError(f"unexpected line {line!r}", line_no)
            _fields(line, line_no)  # refuses an empty field at its column
            raise ParseError("malformed term line", line_no)
        _, coef, eps_txt, vars_txt = fields
        parsed = coefs.get(coef)
        if parsed is None:
            parsed = coefs[coef] = _parse_coef(coef, line_no, 6)
        eps = eps_fields.get(eps_txt)
        if eps is None:  # refused: every canonical E not in the truncation is outside it
            col = 7 + len(coef)
            if not eps_txt.startswith("eps="):
                raise ParseError(f"expected eps=..., got {eps_txt!r}", line_no, col)
            eps = _parse_int(eps_txt[4:], "eps", line_no, col + 4)
            raise ParseError(f"eps power {eps} outside truncation", line_no, col)
        if not vars_txt.startswith("vars="):
            raise ParseError(f"expected vars=..., got {vars_txt!r}", line_no,
                             8 + len(coef) + len(eps_txt))
        key, degree, factors = eps, 0, []
        prev, ordered, start = (), True, layout
        pieces = vars_txt[5:].split(",") if vars_txt != "vars=-" else ()
        for piece in pieces:
            got = seen.get(piece)
            if got is None:
                try:
                    kind, alpha, idx, exp, d = _check_piece(piece, cls, theory.n, index_max)
                except ValueError as exc:
                    raise ParseError(str(exc), line_no, len(line) - len(vars_txt) + 6 + sum(
                        len(p) + 1 for p in pieces[:pieces.index(piece)])) from None
                if cls.widens and exp > layout.max_exponent:
                    # the width `_fitted` would pick; the rows so far move to it
                    wide = _layout(cls, trunc, exp.bit_length() + 1)
                    rows = layout.moved(rows, wide)
                    seen = {p: (pair, v, pair[1] << wide[v], dg)
                            for p, (pair, v, _inc, dg) in seen.items()}
                    layout = wide
                var = (kind, alpha, idx)
                got = seen[piece] = ((var, exp), var, exp << layout[var], d)
            pair, var, inc, d = got
            ordered = ordered and prev < var
            prev = var
            factors.append(pair)
            key += inc
            degree += d
        if layout is not start:  # widened on this line: its key so far was in the old layout
            key = eps + sum(seen[p][2] for p in pieces)
        if not ordered:
            raise ParseError("variables not in canonical order", line_no)
        if degree > deg_max:
            raise ParseError("term degree outside truncation", line_no)
        order = (eps, factors)
        if last is not None and order <= last:  # the terms so far rise
            # equal keys are equal monomials, so of one degree
            if key in rows[degree]:
                raise ParseError("duplicate term", line_no)
            raise ParseError("terms must be sorted by eps power and monomial", line_no,
                             7 + len(coef))
        if not parsed[0]:
            raise ParseError("zero coefficients are not stored", line_no)
        if rel is not None and degree > rel:
            raise ParseError("term beyond the declared reliable degree", line_no)
        rows[degree][key] = coef
        last = order
    den = lcm(*(q for _n, q in coefs.values()))
    nums = {tok: n * (den // q) for tok, (n, q) in coefs.items()}
    return cls.from_rows(layout, den, [{k: nums[tok] for k, tok in row.items()} for row in rows],
                         rel)


def parse(text: str):
    """Parse a serialized file; returns (value, theory)."""
    stray = None if text.isascii() and "\r" not in text else _STRAY(text)
    if stray:
        what = ("carriage return" if stray[0] == "\r"
                else f"non-ASCII character {stray[0]!r}")
        raise ParseError(what, *_position(text, stray.start()))
    if not text.endswith("\n"):
        raise ParseError("missing final newline", *_position(text, len(text)))
    lines = text[:-1].split("\n")
    if lines[0] != FORMAT_TAG:
        raise ParseError(f"missing format tag {FORMAT_TAG!r}", 1)
    if len(lines) < 3:
        raise ParseError("truncated file", len(lines) or 1)
    theory = _parse_theory(lines[1], 2)
    kind_fields = _fields(lines[2], 3)
    if kind_fields[0][0] != "kind":
        raise ParseError("expected kind line", 3)
    kind = kind_fields[1][0] if len(kind_fields) > 1 else ""
    body = lines[3:]
    if not body or body[-1] != "end":
        if "end" in body:
            raise ParseError("text after the end marker", body.index("end") + 5)
        raise ParseError("missing end marker", len(lines))
    numbered = list(enumerate(body[:-1], start=4))
    if kind in _SERIES_KINDS:
        cls, trunc_of = _SERIES_KINDS[kind]
        if len(kind_fields) != 3:
            raise ParseError("malformed kind line", 3)
        rel = _parse_rel(kind_fields[2], "rel", 3, cls.bounds(theory.trunc)[0])
        return _parse_series(numbered, cls, trunc_of(theory.trunc), rel, theory), theory
    if kind == "operator":
        if len(kind_fields) != 3:
            raise ParseError("malformed kind line", 3)
        meta_txt, _ = _kv(kind_fields[2], "meta", 3)
        meta = tuple(int(x) if _INT(x) else x for x in meta_txt.split(":")) \
            if meta_txt != "-" else ()
        # each coef line opens a block of the term lines that follow it
        blocks: list[tuple[int, str, list]] = []
        for line_no, line in numbered:
            if line.startswith("coef "):
                blocks.append((line_no, line, []))
            elif blocks and line.startswith("term "):
                blocks[-1][2].append((line_no, line))
            elif line.startswith("term "):
                raise ParseError("term before coef block", line_no)
            else:
                raise ParseError(f"unexpected line {line!r}", line_no)
        coeffs: dict[tuple[int, int], JetPoly] = {}
        jt = theory.trunc.jet()
        for line_no, line, term_lines in blocks:
            fields = _fields(line, line_no)
            if len(fields) != 4:
                raise ParseError("malformed coef line", line_no)
            key = (_int_kv(fields[1], "i", line_no), _int_kv(fields[2], "j", line_no))
            rel = _parse_rel(fields[3], "rel", line_no, jt.deg0_max)
            if key in coeffs:
                raise ParseError("duplicate coefficient block", line_no)
            if coeffs and key < next(reversed(coeffs)):
                raise ParseError("coefficient blocks must be sorted by (i, j)",
                                 line_no, fields[1][1])
            coeffs[key] = _parse_series(term_lines, JetPoly, jt, rel, theory)
        return LinearDiffOp(coeffs, meta), theory
    if kind == "report":
        if len(kind_fields) != 2:
            raise ParseError("malformed kind line", 3)
        entries = []
        ranges = {}
        names = {big_var_name(var): var for var in theory.all_vars()}
        for line_no, line in numbered:
            if line.startswith("entry "):
                if ranges:
                    raise ParseError("entry after the range lines", line_no)
                fields = _fields(line, line_no)
                if len(fields) != 5:
                    raise ParseError("malformed entry line", line_no)
                eq, _ = _kv(fields[1], "eq", line_no)
                idx_txt, col = _kv(fields[2], "idx", line_no)
                idx = _parse_index(idx_txt, names, line_no, col)
                try:
                    ordered = not entries or entries[-1][:2] < (eq, idx)
                except TypeError:  # an integer and a variable at one index position
                    ordered = False
                if not ordered:
                    raise ParseError("entries must be sorted by equation and index, "
                                     "each once", line_no, fields[1][1])
                status, col = _kv(fields[3], "status", line_no)
                if status not in ("zero", "nonzero", "vacuous"):
                    raise ParseError(f"bad status {status!r}", line_no, col)
                window = _parse_rel(fields[4], "window", line_no)
                if (status == "vacuous") != (window is not None and window < 0):
                    raise ParseError(f"status {status} does not fit window "
                                     f"{_fmt_rel(window)} (vacuous exactly when "
                                     "negative)", line_no, col)
                entries.append((eq, idx, status != "nonzero", window))
            elif line.startswith("range "):
                parts = line.split(" ", 2)
                if len(parts) != 3:
                    raise ParseError("malformed range line", line_no)
                if ranges and parts[1] <= next(reversed(ranges)):
                    raise ParseError("range lines must be sorted by equation, "
                                     "each once", line_no, 7)
                ranges[parts[1]] = parts[2]
            else:
                raise ParseError(f"unexpected line {line!r}", line_no)
        return ReportFile(entries, ranges), theory
    raise ParseError(f"unknown kind {kind!r}", 3)


def dump(value, theory: TheoryData, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(value, theory))


def load(path):
    # one character per byte: the parser places every CR and non-ASCII byte
    with open(path, encoding="latin-1", newline="") as fh:
        return parse(fh.read())
