"""Serialization: byte-identical round trips and strict rejection."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ottr.algebra import JetPoly, phivar, vvar
from ottr.bigphase import BigSeries, TheoryData, Truncation, s_var, t_var
from ottr.genus0 import (
    solve_closed_order_by_order,
    solve_open_order_by_order,
    two_point_table,
    validate_closed_genus0,
    validate_open_genus0,
)
from ottr.laxpde import LinearDiffOp, build_interior_op
from ottr.serialize import (
    FORMAT_TAG,
    ParseError,
    ReportFile,
    _parse_coef,
    emit,
    emit_theory,
    load,
    parse,
)

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)
JT = TR.jet()


def sample_series():
    t0 = BigSeries.var(t_var(1, 0), TR)
    s0 = BigSeries.var(s_var(0), TR)
    eps = BigSeries({(1, ()): Fraction(1)}, TR)
    return (t0 * t0 * Fraction(-1, 6) + s0 * t0 + eps * s0 * Fraction(3, 7),
            TH)


def sample_jetpoly():
    v = JetPoly.var(vvar(1, 0), JT)
    phi = JetPoly.var(phivar(0), JT)
    return v * v * Fraction(5, 2) - phi * JetPoly.var(vvar(1, 1), JT), TH


class TestRoundTrip:
    def test_bigseries(self):
        value, theory = sample_series()
        text = emit(value, theory)
        back, theory2 = parse(text)
        assert back == value
        assert theory2 == theory
        assert emit(back, theory2) == text

    def test_jetpoly(self):
        value, theory = sample_jetpoly()
        text = emit(value, theory)
        back, _ = parse(text)
        assert back == value
        assert emit(back, theory) == text

    def test_operator(self):
        poly, theory = sample_jetpoly()
        op = LinearDiffOp({(0, 0): poly, (2, 1): JetPoly.var(vvar(1, 1), JT)},
                          ("int", 1, 0))
        text = emit(op, theory)
        back, _ = parse(text)
        assert back.coeffs == op.coeffs
        assert back.meta == op.meta
        assert emit(back, theory) == text

    def test_report(self, f0, theory8):
        report = validate_closed_genus0(f0, theory8)
        text = emit(report, theory8)
        back, _ = parse(text)
        assert isinstance(back, ReportFile)
        assert back.entries == sorted((e.equation, tuple(e.indices), e.is_zero, e.window)
                                      for e in report.entries)
        assert back.ranges == report.checked
        assert emit(back, theory8) == text

    def test_reliable_degree_none(self):
        value = BigSeries.var(t_var(1, 2), TR)
        text = emit(value, TH)
        assert "rel=-" in text
        back, _ = parse(text)
        assert back.rel is None


def sample_operator():
    poly, theory = sample_jetpoly()
    return LinearDiffOp({(0, 0): poly, (2, 1): JetPoly.var(vvar(1, 1), JT)},
                        ("int", 1, 0)), theory


def sample_report():
    # t1_0 sorts before s_0 as a variable, though not as a name
    return ReportFile([("open_trr_t", (1, 0, t_var(1, 0)), True, 4),
                       ("open_trr_t", (1, 0, s_var(0)), False, 4),
                       ("string", (), True, -1)],
                      {"open_trr_t": "alpha<= 1", "string": "single equation"}), TH


def sample_rank2():
    # theory rank=2 eta=1,0;0,1 A=1,1: eta's last entry at col 25, A's at 31
    th = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], TR)
    return BigSeries.var(t_var(1, 0), TR) * BigSeries.var(t_var(2, 0), TR), th


SAMPLES = {"bigseries": sample_series, "jetpoly": sample_jetpoly,
           "operator": sample_operator, "report": sample_report, "rank2": sample_rank2}


class TestStrictness:
    def base(self):
        return emit(*sample_series())

    @pytest.mark.parametrize("sample, old, new, culprit", [
        ("bigseries", "eps=1 ", "eps=q ", "q"),
        ("bigseries", "t:1:0:2", "t:1:zz:2", "t:1:zz:2"),
        ("bigseries", "t:1:0:2", "t:x:0:2", "t:x:0:2"),
        ("bigseries", "t:1:0:2", "t:1:0:2.0", "t:1:0:2.0"),
        ("bigseries", "s:0:0:1\nend", "s:0:0:01\nend", "s:0:0:01"),
        ("bigseries", "eps=0 vars=t:1:0:2", "eps=+0 vars=t:1:0:2", "+0"),
        ("bigseries", "rank=1", "rank=x", "x"),
        ("bigseries", "Dt=8", "Dt=8x", "8x"),
        ("bigseries", "Amax=3", "Amax=", " Dv"),
        ("bigseries", "Dv=8", "Dv=٨", "٨"),
        ("bigseries", "J=3", "J=+3", "+3"),
        ("bigseries", "E=2", "E=1_0", "1_0"),
        ("bigseries", "rel=-", "rel=r", "r"),
        ("bigseries", "term -1/6 eps=0", "term -1/6  eps=0", " eps=0"),
        ("bigseries", "term 1 eps=0", "term  1 eps=0", " 1 eps"),
        ("bigseries", "vars=t:1:0:2", "vars=t:1:0:2 ", ""),
        ("jetpoly", "eps=0 vars=v:1:0:2", "eps=q vars=v:1:0:2", "q"),
        ("operator", "coef i=0", "coef i=x", "x"),
        ("operator", "j=1", "j=01", "01"),
        ("operator", "coef i=2 j=1", "coef i=2  j=1", " j=1"),
        ("rank2", "eta=1,0;0,1", "eta=1,0;0,x", "x A="),
        ("rank2", "eta=1,0;0,1", "eta=1,0;q,1", "q,1 "),
        ("rank2", "eta=1,0;0,1", "eta=1,0;0,1/1", "1/1 "),
        ("rank2", "A=1,1", "A=1,2/4", "2/4 "),
        ("rank2", "A=1,1", "A=,1", ",1 "),
    ])
    def test_malformed_field_rejected_with_position(self, sample, old, new, culprit):
        good = emit(*SAMPLES[sample]())
        assert old in good
        bad = good.replace(old, new, 1)
        with pytest.raises(ParseError) as err:
            parse(bad)
        line = bad.splitlines()[err.value.line - 1]
        assert line[err.value.col - 1:].startswith(culprit), (line, err.value)

    @pytest.mark.parametrize("sample, rel_field", [
        ("bigseries", "kind bigseries rel=-"),
        ("jetpoly", "kind jetpoly rel=-"),
        ("operator", "coef i=0 j=0 rel=-"),
    ])
    def test_reliable_degree_above_bound_rejected(self, sample, rel_field):
        """rel may not exceed Dt (bigseries) resp. Dv (jetpoly, operator)."""
        good = emit(*SAMPLES[sample]())
        at_bound = good.replace(rel_field, rel_field[:-1] + "8")
        assert emit(*parse(at_bound)) == at_bound
        with pytest.raises(ParseError, match="above the degree bound 8"):
            parse(good.replace(rel_field, rel_field[:-1] + "9"))

    @pytest.mark.parametrize("sample, old, new, line, culprit", [
        ("bigseries", "end\n", "end", 7, ""),
        ("report", "end\n", "end", 9, ""),
        ("report", "end\n", "end\n\n", 10, ""),
        ("report", "end\n", "end\nend\n", 9, "end"),
        ("report", "\n", "\r\n", 1, "\r"),
        ("jetpoly", "rel=-\n", "rel=-\r", 3, "\r"),
        ("report", "single equation", "single \u00e9quation", 8, "\u00e9"),
        ("report", "idx=1:0:s_0", "idx=1:0:t1_0", 5, "eq="),
        ("report", "eq=string", "eq=a", 6, "eq=a"),
        ("report", "idx=1:0:t1_0", "idx=1:0:0", 5, "eq="),
        ("report", "idx=1:0:t1_0", "idx=1:0:u1_0", 4, "u1_0"),
        ("report", "range string", "range open_trr_t", 8, "open_trr_t"),
        ("report", "range open_trr_t", "range zeta", 8, "string"),
        ("report", "range string single equation",
         "entry eq=zeta idx=- status=zero window=1", 8, "entry"),
        ("report", "status=vacuous window=-1", "status=vacuous window=1", 6, "vacuous"),
        ("report", "status=zero window=4", "status=zero window=-4", 4, "zero"),
        ("report", "status=nonzero window=4", "status=nonzero window=-4", 5, "nonzero"),
        ("report", "kind report", "kind report x", 3, "kind"),
        ("bigseries", "eps=1 vars=s", "eps=-0 vars=s", 6, "-0"),
        ("operator", "j=1", "j=-0", 7, "-0"),
        ("report", "status=zero window=4", "status=zero window=-0", 4, "-0"),
        ("bigseries", "term 1 eps=0", "term 1 eps=1", 5, "eps=0"),
        ("operator", "term 5/2 eps=0", "term 5/2 eps=1", 6, "eps=0"),
        ("operator", "coef i=0 j=0", "coef i=3 j=0", 7, "i=2"),
    ])
    def test_line_ends_and_report_order_rejected(self, sample, old, new, line, culprit):
        """Each input either re-emits byte for byte or is refused at a position."""
        good = emit(*SAMPLES[sample]())
        assert emit(*parse(good)) == good
        assert old in good
        bad = good.replace(old, new, 1)
        with pytest.raises(ParseError) as err:
            parse(bad)
        assert err.value.line == line, err.value
        text = bad.split("\n")[line - 1]
        assert text[err.value.col - 1:].startswith(culprit), (text, err.value)

    def test_load_sees_carriage_returns(self, tmp_path):
        path = tmp_path / "crlf.ottr"
        path.write_bytes(emit(*sample_series()).replace("\n", "\r\n").encode())
        with pytest.raises(ParseError, match="carriage return") as err:
            load(path)
        assert (err.value.line, err.value.col) == (1, len("ottr-series-v1") + 1)

    def test_non_lowest_terms_rejected(self):
        text = self.base().replace("-1/6", "-2/12")
        with pytest.raises(ParseError, match="not canonical"):
            parse(text)

    def test_integer_with_denominator_rejected(self):
        value = BigSeries.var(t_var(1, 0), TR)
        text = emit(value, TH).replace("term 1 ", "term 1/1 ")
        with pytest.raises(ParseError, match="not canonical"):
            parse(text)

    def test_unknown_kind_rejected(self):
        text = self.base().replace("vars=t:1:0:1,s:0:0:1", "vars=u:1:0:1,s:0:0:1")
        with pytest.raises(ParseError, match="unknown variable kind"):
            parse(text)

    def test_truncation_violation_rejected(self):
        good = emit(BigSeries.var(t_var(1, 3), TR), TH)
        bad = good.replace("t:1:3:1", "t:1:4:1")
        with pytest.raises(ParseError, match="level"):
            parse(bad)

    def test_degree_violation_rejected(self):
        good = emit(BigSeries.var(t_var(1, 0), TR), TH)
        bad = good.replace("t:1:0:1", "t:1:0:9")
        with pytest.raises(ParseError, match="degree outside"):
            parse(bad)

    def test_missing_tag(self):
        with pytest.raises(ParseError, match="format tag"):
            parse("garbage\n")

    def test_error_carries_position(self):
        text = self.base().replace("-1/6", "-2/12")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line >= 4
        assert err.value.col > 1

    def test_term_beyond_reliable_degree_rejected(self):
        good = emit(BigSeries.var(t_var(1, 0), TR), TH)
        bad = good.replace("rel=-", "rel=0")
        with pytest.raises(ParseError, match="reliable degree"):
            parse(bad)

    def test_unsorted_vars_rejected(self):
        good = emit(BigSeries.var(t_var(1, 0), TR) * BigSeries.var(s_var(0), TR), TH)
        bad = good.replace("t:1:0:1,s:0:0:1", "s:0:0:1,t:1:0:1")
        with pytest.raises(ParseError, match="canonical order"):
            parse(bad)


def test_determinism_repeated_emission(f0, theory8):
    assert emit(f0, theory8) == emit(f0, theory8)


def test_determinism_under_assembly_order(f0, theory8):
    shuffled = BigSeries(dict(reversed(list(f0.terms.items()))), theory8.trunc,
                         f0.rel)
    assert emit(shuffled, theory8) == emit(f0, theory8)


@pytest.mark.parametrize("tok", ["+1", "01", "-0", "0", "2/4", "3/1", "1/-2", "1/0", "1_0",
                                 "1e3", "-1/3", "7"])
def test_coefficient_tokens_follow_the_fraction_rule(tok):
    """The coefficient reader accepts exactly the tokens with
    str(Fraction(tok)) == tok, each as that rational, and refuses every other
    token with that rule's message at the token's column."""
    try:
        want = Fraction(tok)
        message = None if str(want) == tok else (
            f"coefficient {tok!r} is not canonical (expected {want})")
    except (ValueError, ZeroDivisionError):
        message = f"malformed coefficient {tok!r}"
    text = (f"{FORMAT_TAG}\n{emit_theory(TH)}\nkind bigseries rel=-\n"
            f"term {tok} eps=0 vars=t:1:0:1\nend\n")
    if message is None:
        assert _parse_coef(tok, 4, 6) == (want.numerator, want.denominator)
        if want:  # a zero coefficient is refused later, as never stored
            assert parse(text)[0].coefficient(((t_var(1, 0), 1),)) == want
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line 4, col 6: {message}", 4, 6)


def _fuzz_files() -> list[str]:
    """A D4/A1 bigseries, jetpoly, operator and report file, as emitted."""
    theory = TheoryData.rank1(Truncation.of(4, 1))
    jt = theory.trunc.jet()
    v, phi = JetPoly.var(vvar(1, 0), jt), JetPoly.var(phivar(0), jt)
    f0 = solve_closed_order_by_order(v * v * v * Fraction(1, 6), theory).series
    f0o = solve_open_order_by_order(f0, v * phi + phi * phi * phi * Fraction(1, 6),
                                    theory).series
    go = phi * phi * phi * Fraction(-2, 3) + v * Fraction(1, 2)
    op = build_interior_op(1, 1, two_point_table(f0, f0o, theory), go, theory)
    return [emit(value, theory)
            for value in (f0o, go, op, validate_open_genus0(f0, f0o, theory))]


FUZZ_FILES = _fuzz_files()


@st.composite
def _mutations(draw) -> str:
    """One valid file with one byte replaced, inserted or deleted, read as
    `load` reads it.  Half the positions are digits and half the bytes are
    small digits or a minus sign, where sign and ordering mistakes hide."""
    data = draw(st.sampled_from(FUZZ_FILES)).encode("ascii")
    digits = [i for i, ch in enumerate(data) if chr(ch).isdigit()]
    at = draw(st.one_of(st.sampled_from(digits), st.integers(0, len(data) - 1)))
    how = draw(st.sampled_from(["replace", "insert", "delete"]))
    byte = draw(st.one_of(st.sampled_from(b"-012"), st.integers(0, 255)))
    new = bytes([byte]) if how != "delete" else b""
    return (data[:at] + new + data[at + (how != "insert"):]).decode("latin-1")


@settings(derandomize=True, max_examples=500, deadline=None)
@given(_mutations())
def test_byte_mutation_reemits_or_is_refused(mutated):
    """The parser is total: a mutated file re-emits byte for byte or raises
    ParseError, and nothing else."""
    try:
        value, theory = parse(mutated)
    except ParseError:
        return
    assert emit(value, theory) == mutated


# sha256 of the outcomes of every single-byte mutant of FUZZ_FILES (each byte
# deleted, or replaced by each of `_SWEEP_BYTES`), recorded before the term
# reader checked each variable piece once per call.
_SWEEP_SHA256 = "33f254455fd42b38b8e5c1ba76cbceeaf604de96e6adfc1e2afa57cec07698dc"
_SWEEP_BYTES = ("-", "0", "2", " ", ",", ":")


def test_single_byte_mutants_keep_their_errors():
    """Every mutant parses or is refused with the same message, line and
    column as before, and every mutant that parses re-emits byte for byte."""
    rows = []
    for f, text in enumerate(FUZZ_FILES):
        for at in range(len(text)):
            for new in ("", *_SWEEP_BYTES):
                mutant = text[:at] + new + text[at + 1:]
                try:
                    value, theory = parse(mutant)
                except ParseError as exc:
                    outcome = str(exc)
                else:
                    assert emit(value, theory) == mutant, (f, at, new)
                    outcome = "ok"
                rows.append(f"{f}\t{at}\t{new or 'del'}\t{outcome}")
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == _SWEEP_SHA256


def _series_text(theory: TheoryData, kind: str, *vars_fields: str) -> str:
    """A series file with one coefficient-1 term line per `eps=E vars=...`."""
    terms = [f"term 1 {fld}" for fld in vars_fields]
    return "\n".join([FORMAT_TAG, emit_theory(theory), f"kind {kind} rel=-", *terms,
                      "end"]) + "\n"


def _refusal(text: str) -> tuple[str, int, str]:
    """The message, line and refused text of a file that must not parse."""
    with pytest.raises(ParseError) as err:
        parse(text)
    line = text.split("\n")[err.value.line - 1]
    return str(err.value).split(": ", 1)[1], err.value.line, line[err.value.col - 1:]


class TestPieceChecks:
    """Each distinct variable piece is checked once per series, against that
    series' own theory and kind, and before the checks of the whole line."""

    def test_component_index_is_checked_against_each_files_rank(self):
        rank2 = TheoryData.build(2, [[1, 0], [0, 1]], [1, 1], TR)
        parse(_series_text(rank2, "bigseries", "eps=0 vars=t:1:0:1,t:2:0:1"))
        assert _refusal(_series_text(TH, "bigseries", "eps=0 vars=t:1:0:1,t:2:0:1")) == (
            "component index 2 outside rank", 4, "t:2:0:1")

    def test_kind_names_are_checked_against_each_files_kind(self):
        parse(_series_text(TH, "jetpoly", "eps=0 vars=v:1:0:1"))
        assert _refusal(_series_text(TH, "bigseries", "eps=0 vars=v:1:0:1")) == (
            "unknown variable kind 'v'", 4, "v:1:0:1")

    @pytest.mark.parametrize("vars_field", ["t:1:0:1,t:1:0:1", "t:1:0:1,t:1:0:2",
                                            "s:0:0:1,t:1:0:1"])
    def test_seen_pieces_still_obey_the_canonical_order(self, vars_field):
        text = _series_text(TH, "bigseries", "eps=0 vars=t:1:0:1", "eps=0 vars=s:0:0:1",
                            f"eps=1 vars={vars_field}")
        assert _refusal(text) == ("variables not in canonical order", 6,
                                  text.split("\n")[5])

    def test_a_malformed_piece_outranks_the_order_of_the_line(self):
        text = _series_text(TH, "bigseries", "eps=0 vars=s:0:0:1,t:1:0:1,t:1:x:1")
        assert _refusal(text) == ("malformed variable 't:1:x:1'", 4, "t:1:x:1")

    def test_an_exponent_past_the_base_width_widens_the_layout(self):
        """A jet exponent too wide for the base layout moves the rows read
        so far, and the line it appears on, to the layout a direct build
        picks."""
        theory = TheoryData.rank1(Truncation(3, 1, 3, 2, 1))
        jt = theory.trunc.jet()
        v, eps = JetPoly.var(vvar(1, 0), jt), JetPoly.eps(jt)
        wide = JetPoly({(0, ((vvar(1, 1), 12),)): Fraction(1)}, jt)
        value = v * 3 + v * wide * Fraction(-1, 2) + wide + eps * JetPoly.var(phivar(1), jt)
        assert value.layout.width > JetPoly.base_width(jt)
        text = emit(value, theory)
        assert "term 3 eps=0 vars=v:1:0:1\nterm -1/2 eps=0 vars=v:1:0:1,v:1:1:12\n" in text
        parsed = parse(text)[0]
        assert parsed == value and parsed.layout is value.layout
        assert emit(parsed, theory) == text

    def test_seen_pieces_still_count_toward_the_degree(self):
        text = _series_text(TH, "bigseries", "eps=0 vars=t:1:0:8", "eps=0 vars=s:0:0:1",
                            "eps=1 vars=t:1:0:8,s:0:0:1")
        assert _refusal(text) == ("term degree outside truncation", 6,
                                  text.split("\n")[5])
