"""Canonical text serialization for every value type.

One value per file: a format tag line, a theory block, a kind line, term
lines in canonical order, and ``end``.  Emission is deterministic, terms are
sorted, coefficients are in lowest terms, and parsing a file then re-emitting
it reproduces the bytes exactly.  The parser is strict: non-canonical
coefficients or integers, stray spaces, unknown variable kinds, terms outside
the declared truncation, and reliable degrees above the degree bound are
rejected with line and column positions.  The grading and the variable names
of a series come from its class, so both series kinds share one code path.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import JetPoly, SparseSeries
from .bigphase import BigSeries, TheoryData, Truncation, big_var_name
from .genus0 import ResidualReport
from .laxpde import LinearDiffOp

FORMAT_TAG = "ottr-series-v1"

# Series kinds by file tag: the class, and its truncation within a theory.
_SERIES_KINDS = {
    "bigseries": (BigSeries, lambda tr: tr),
    "jetpoly": (JetPoly, Truncation.jet),
}
_SERIES_TAGS = {cls: tag for tag, (cls, _) in _SERIES_KINDS.items()}

# Integers as ``str(int)`` writes them; ASCII digits only.
_INT = re.compile(r"-?(?:0|[1-9][0-9]*)").fullmatch
_NAT = r"(0|[1-9][0-9]*)"
# One variable of a term line: kind:alpha:index:exponent.
_VAR = re.compile(rf"([^:]*):{_NAT}:{_NAT}:{_NAT}").fullmatch


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

    @property
    def all_zero(self) -> bool:
        return all(zero for _, _, zero, _ in self.entries)


def _fmt_frac(x: Fraction) -> str:
    return str(x)


def _fmt_vec(vec) -> str:
    return ",".join(_fmt_frac(x) for x in vec)


def _fmt_mat(mat) -> str:
    return ";".join(_fmt_vec(row) for row in mat)


def _fmt_rel(rel: int | None) -> str:
    return "-" if rel is None else str(rel)


def _fmt_idx(idx: tuple) -> str:
    if not idx:
        return "-"
    parts = []
    for i in idx:
        parts.append(big_var_name(i) if isinstance(i, tuple) else str(i))
    return ":".join(parts)


def emit_theory(theory: TheoryData) -> str:
    tr = theory.trunc
    return (f"theory rank={theory.n} eta={_fmt_mat(theory.eta)} "
            f"A={_fmt_vec(theory.avec)} Dt={tr.deg_max} Amax={tr.level_max} "
            f"Dv={tr.deg0_max} J={tr.jet_max} E={tr.eps_max}")


def _emit_terms(value: SparseSeries) -> list[str]:
    names = value.kind_names
    lines = []
    for (eps, mono), coef in value.sorted_terms():
        vars_txt = ",".join(f"{names[k]}:{a}:{i}:{e}"
                            for (k, a, i), e in mono) or "-"
        lines.append(f"term {_fmt_frac(coef)} eps={eps} vars={vars_txt}")
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
            status = "zero" if zero else "nonzero"
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


def _parse_frac(tok: str, line_no: int, col: int) -> Fraction:
    try:
        val = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed coefficient {tok!r}", line_no, col) from None
    if str(val) != tok:
        raise ParseError(f"coefficient {tok!r} is not canonical "
                         f"(expected {val!s})", line_no, col)
    return val


def _parse_int(tok: str, what: str, line_no: int, col: int) -> int:
    if not _INT(tok):
        raise ParseError(f"bad {what} {tok!r}", line_no, col)
    return int(tok)


def _int_or_text(tok: str):
    """An index part: an int when written canonically, else the text itself."""
    return int(tok) if _INT(tok) else tok


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
    eta = [[_parse_frac(x, line_no, col) for x in row.split(",")]
           for row in eta_txt.split(";")]
    a_txt, col = _kv(fields[3], "A", line_no)
    avec = [_parse_frac(x, line_no, col) for x in a_txt.split(",")]
    tr = Truncation(*(_int_kv(f, key, line_no) for f, key in
                      zip(fields[4:], ("Dt", "Amax", "Dv", "J", "E"))))
    try:
        return TheoryData.build(rank, eta, avec, tr)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _parse_term(line: str, line_no: int, cls: type[SparseSeries],
                theory: TheoryData):
    fields = _fields(line, line_no)
    if len(fields) != 4:
        raise ParseError("malformed term line", line_no)
    coef = _parse_frac(fields[1][0], line_no, fields[1][1])
    tr = theory.trunc
    eps = _int_kv(fields[2], "eps", line_no)
    if eps < 0 or eps > tr.eps_max:
        raise ParseError(f"eps power {eps} outside truncation", line_no, fields[2][1])
    vars_txt, col = _kv(fields[3], "vars", line_no)
    deg_max, index_max = cls.bounds(tr)  # a theory's bounds cover both kinds
    factors = []
    if vars_txt != "-":
        for piece in vars_txt.split(","):
            match = _VAR(piece)
            if match is None:
                raise ParseError(f"malformed variable {piece!r}", line_no, col)
            name = match[1]
            kind = cls.kind_codes.get(name)
            if kind is None:
                raise ParseError(f"unknown variable kind {name!r}", line_no, col)
            alpha, idx, exp = int(match[2]), int(match[3]), int(match[4])
            if exp < 1:
                raise ParseError("exponents must be positive", line_no, col)
            if kind == 0:  # v resp. t, the only kind with a component index
                if not 1 <= alpha <= theory.n:
                    raise ParseError(f"component index {alpha} outside rank",
                                     line_no, col)
            elif alpha != 0:
                raise ParseError(f"{name}-variables carry no component index",
                                 line_no, col)
            if idx > index_max:
                raise ParseError(f"{cls.index_name} {idx} outside truncation",
                                 line_no, col)
            factors.append(((kind, alpha, idx), exp))
            col += len(piece) + 1
        if factors != sorted(factors) or len({v for v, _ in factors}) != len(factors):
            raise ParseError("variables not in canonical order", line_no)
    mono = tuple(factors)
    degree = cls.mono_degree(mono)
    if degree > deg_max:
        raise ParseError("term degree outside truncation", line_no)
    return (eps, mono), coef, degree


def _parse_series(numbered: list[tuple[int, str]], cls: type[SparseSeries],
                  trunc, rel: int | None, theory: TheoryData) -> SparseSeries:
    """A series from its term lines; every term is checked here."""
    terms = {}
    for line_no, line in numbered:
        if not line.startswith("term "):
            raise ParseError(f"unexpected line {line!r}", line_no)
        key, coef, degree = _parse_term(line, line_no, cls, theory)
        if key in terms:
            raise ParseError("duplicate term", line_no)
        if not coef:
            raise ParseError("zero coefficients are not stored", line_no)
        if rel is not None and degree > rel:
            raise ParseError("term beyond the declared reliable degree", line_no)
        terms[key] = coef
    return cls(terms, trunc, rel, _checked=True)


def parse(text: str):
    """Parse a serialized file; returns (value, theory)."""
    lines = text.splitlines()
    if not lines or lines[0] != FORMAT_TAG:
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
        meta = tuple(_int_or_text(x) for x in meta_txt.split(":")) \
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
            coeffs[key] = _parse_series(term_lines, JetPoly, jt, rel, theory)
        return LinearDiffOp(coeffs, meta), theory
    if kind == "report":
        entries = []
        ranges = {}
        for line_no, line in numbered:
            if line.startswith("entry "):
                fields = _fields(line, line_no)
                if len(fields) != 5:
                    raise ParseError("malformed entry line", line_no)
                eq, _ = _kv(fields[1], "eq", line_no)
                idx_txt, _ = _kv(fields[2], "idx", line_no)
                idx = () if idx_txt == "-" else tuple(
                    _int_or_text(x) for x in idx_txt.split(":"))
                status, col = _kv(fields[3], "status", line_no)
                if status not in ("zero", "nonzero"):
                    raise ParseError(f"bad status {status!r}", line_no, col)
                window = _parse_rel(fields[4], "window", line_no)
                entries.append((eq, idx, status == "zero", window))
            elif line.startswith("range "):
                parts = line.split(" ", 2)
                if len(parts) != 3:
                    raise ParseError("malformed range line", line_no)
                ranges[parts[1]] = parts[2]
            else:
                raise ParseError(f"unexpected line {line!r}", line_no)
        return ReportFile(entries, ranges), theory
    raise ParseError(f"unknown kind {kind!r}", 3)


def dump(value, theory: TheoryData, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(emit(value, theory))


def load(path):
    with open(path, encoding="ascii") as fh:
        return parse(fh.read())
