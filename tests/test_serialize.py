"""Serialization: byte-identical round trips and strict rejection."""

from fractions import Fraction

import pytest

from ottr.algebra import JetPoly, phivar, vvar
from ottr.bigphase import BigSeries, TheoryData, Truncation, s_var, t_var
from ottr.genus0 import validate_closed_genus0
from ottr.laxpde import LinearDiffOp
from ottr.serialize import ParseError, ReportFile, emit, parse

TR = Truncation.of(8, 3)
TH = TheoryData.rank1(TR)
JT = TR.jet()


def sample_series():
    t0 = BigSeries.var(t_var(1, 0), TR)
    s0 = BigSeries.var(s_var(0), TR)
    eps = BigSeries({(1, ()): Fraction(1)}, TR, None, _checked=True)
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
        assert back.all_zero == report.all_zero
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


SAMPLES = {"bigseries": sample_series, "jetpoly": sample_jetpoly,
           "operator": sample_operator}


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
                         f0.rel, _checked=True)
    assert emit(shuffled, theory8) == emit(f0, theory8)
