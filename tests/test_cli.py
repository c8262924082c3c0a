"""CLI behaviour: fixtures, validation verbs, exit codes, determinism."""

import subprocess
import sys

import pytest

import ottr.cli as cli
from ottr.bigphase import BigSeries, t_var
from ottr.cli import EXIT_INTERNAL, EXIT_PIPE, main
from ottr.serialize import emit, parse

GEN = ["gen-example", "open-rank1", "--degree", "5", "--amax", "1"]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(GEN + ["--outdir", str(outdir)]) == 0
    return outdir


def test_validate_genus0_passes(fixture_dir, capsys):
    code = main(["validate-genus0", str(fixture_dir / "f0.ottr")])
    out = capsys.readouterr().out
    assert code == 0
    assert "# overall: PASS" in out


def test_validate_open_passes(fixture_dir):
    code = main(["validate-open", str(fixture_dir / "f0.ottr"),
                 str(fixture_dir / "f0o.ottr")])
    assert code == 0


def test_corrupted_fixture_fails_with_residual_code(fixture_dir, tmp_path, capsys):
    text = (fixture_dir / "f0.ottr").read_text()
    bad = text.replace("term 1/6 eps=0 vars=t:1:0:3\n",
                       "term 1/5 eps=0 vars=t:1:0:3\n", 1)
    assert bad != text
    target = tmp_path / "f0_bad.ottr"
    target.write_text(bad)
    code = main(["validate-genus0", str(target)])
    out = capsys.readouterr().out
    assert code == 1
    assert "string (): NONZERO" in out


def test_parse_error_exit_code(tmp_path, capsys):
    target = tmp_path / "junk.ottr"
    target.write_text("not a series\n")
    code = main(["validate-genus0", str(target)])
    assert code == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["unreadable input", "unwritable --out", "--outdir a file"])
def test_io_errors_exit_with_input_code(case, fixture_dir, tmp_path, capsys):
    """An input that cannot be read or an output that cannot be written is an
    input/output problem, exit 2 with one `error:` line, not a residual."""
    f0 = str(fixture_dir / "f0.ottr")
    argv = {
        "unreadable input": ["validate-genus0", str(fixture_dir)],
        "unwritable --out": ["validate-genus0", f0, "--out", str(tmp_path / "no" / "r.ottr")],
        "--outdir a file": ["gen-example", "witten-rank1", "--degree", "3", "--amax", "1",
                            "--outdir", f0],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


EMPTY_D6 = ("ottr-series-v1\ntheory rank=1 eta=1 A=1 Dt=6 Amax=2 Dv=6 J=3 E=2\n"
            "kind bigseries rel=0\nend\n")


@pytest.mark.parametrize("verb, nfiles", [("validate-genus0", 1), ("validate-open", 2)])
def test_negative_windows_are_vacuous_not_pass(verb, nfiles, tmp_path, capsys):
    """An empty rel=0 series leaves every window negative: nothing was checked."""
    empty = tmp_path / "empty.ottr"
    empty.write_text(EMPTY_D6)
    report = tmp_path / "report.ottr"
    code = main([verb, *[str(empty)] * nfiles, "--out", str(report)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.rstrip().endswith("# overall: VACUOUS")
    assert "PASS" not in out and "NONZERO" not in out
    text = report.read_text()
    assert "status=vacuous" in text and "status=zero" not in text
    assert emit(*parse(text)) == text


def test_window_zero_still_compares_coefficients(tmp_path, capsys):
    """A window of 0 is not vacuous: the constant term of a third derivative
    is a degree-3 coefficient, so an extra t1_0^2 t1_1 breaks trr0 there."""
    assert main(["gen-example", "witten-rank1", "--degree", "3", "--amax", "1",
                 "--outdir", str(tmp_path)]) == 0
    f0 = tmp_path / "f0.ottr"
    cubic = "term 1/6 eps=0 vars=t:1:0:3\n"
    f0.write_text(f0.read_text().replace(cubic, "term 1 eps=0 vars=t:1:0:2,t:1:1:1\n" + cubic))
    capsys.readouterr()
    code = main(["validate-genus0", str(f0)])
    out = capsys.readouterr().out
    assert code == 1
    assert "trr0 (1, 0, 1, 0, 1, 0): NONZERO (window<= 0)" in out


def test_upward_truncation_override_rejected(fixture_dir, capsys):
    code = main(["validate-genus0", str(fixture_dir / "f0.ottr"),
                 "--degree", "9"])
    assert code == 2
    assert "shrink" in capsys.readouterr().err


def test_downward_truncation_override(fixture_dir):
    code = main(["validate-genus0", str(fixture_dir / "f0.ottr"),
                 "--degree", "4", "--amax", "1"])
    assert code == 0


def test_derive_and_check_genus1(fixture_dir, tmp_path, capsys):
    out = tmp_path / "f1o.ottr"
    code = main(["derive-genus1", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--go", "phi3", "--method", "both", "-o", str(out)])
    assert code == 0
    assert "agree" in capsys.readouterr().out
    code = main(["check-genus1", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"), "--f1o", str(out)])
    assert code == 0


def test_derive_genus1_both_refuses_a_disagreement(fixture_dir, tmp_path, capsys, monkeypatch):
    """With the solver off by one coefficient inside the shared window,
    --method both exits with the internal code and writes no file."""
    real = cli.solve_f1o

    def off_by_one(f0, f0o, go, theory):
        f1o = real(f0, f0o, go, theory)
        return f1o + BigSeries.from_coeffs({((t_var(1, 1), 1),): 1}, f1o.trunc, rel=f1o.rel)

    monkeypatch.setattr(cli, "solve_f1o", off_by_one)
    out = tmp_path / "f1o.ottr"
    code = main(["derive-genus1", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--go", "phi3", "--method", "both", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and "derivations disagree" in captured.err
    assert "agree on" not in captured.out and not out.exists()


def test_check_evolution(fixture_dir, tmp_path):
    out = tmp_path / "f1o.ottr"
    assert main(["derive-genus1", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--method", "formula", "-o", str(out)]) == 0
    assert main(["check-evolution", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--f1o", str(out)]) == 0


@pytest.mark.parametrize("method", ["solve", "formula", "both"])
def test_go_file_with_f_jets_rejected(fixture_dir, tmp_path, capsys, method):
    """Go = f_0^3 has no image on the big phase space, whichever the method."""
    theory_line = (fixture_dir / "f0.ottr").read_text().splitlines()[1]
    go = tmp_path / "go.ottr"
    go.write_text(f"ottr-series-v1\n{theory_line}\nkind jetpoly rel=-\n"
                  "term 1 eps=0 vars=f:0:0:3\nend\n")
    out = tmp_path / "f1o.ottr"
    code = main(["derive-genus1", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"), "--go-file", str(go),
                 "--method", method, "-o", str(out)])
    assert code == 2
    assert "f-jets" in capsys.readouterr().err
    assert not out.exists()


def test_qpoly_verb(tmp_path, capsys):
    out = tmp_path / "q3.ottr"
    assert main(["qpoly", "3", "-o", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "f_1^3" in printed
    assert out.exists()


def test_build_operators(fixture_dir, tmp_path):
    outdir = tmp_path / "ops"
    assert main(["build-operators", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "Lint_1_0.ottr").exists()
    assert (outdir / "Lboun_1.ottr").exists()


def test_compare_verb(fixture_dir, tmp_path, capsys):
    same = main(["compare", str(fixture_dir / "f0.ottr"),
                 str(fixture_dir / "f0.ottr")])
    assert same == 0
    differs = main(["compare", str(fixture_dir / "f0.ottr"),
                    str(fixture_dir / "f0o.ottr")])
    assert differs == 1


@pytest.fixture(scope="module")
def compare_d4(tmp_path_factory):
    """The D4/A1 f0 and f0o, a copy g0 of f0 with its cubic coefficient
    changed, and an empty series with rel=-1."""
    outdir = tmp_path_factory.mktemp("compare")
    assert main(["gen-example", "open-rank1", "--degree", "4", "--amax", "1",
                 "--outdir", str(outdir)]) == 0
    f0 = (outdir / "f0.ottr").read_text()
    cubic = "term 1/6 eps=0 vars=t:1:0:3\n"
    assert cubic in f0
    (outdir / "g0.ottr").write_text(f0.replace(cubic, "term 1/5 eps=0 vars=t:1:0:3\n"))
    (outdir / "empty.ottr").write_text(
        "ottr-series-v1\ntheory rank=1 eta=1 A=1 Dt=4 Amax=1 Dv=4 J=3 E=2\n"
        "kind bigseries rel=-1\nend\n")
    return outdir


@pytest.mark.parametrize("first, second, extra", [
    ("f0.ottr", "g0.ottr", ["--up-to-degree", "-1"]),
    ("f0.ottr", "f0o.ottr", ["--up-to-degree", "-1"]),
    ("empty.ottr", "f0.ottr", []),
])
def test_compare_on_a_negative_window_is_vacuous(compare_d4, first, second, extra, capsys):
    capsys.readouterr()
    code = main(["compare", str(compare_d4 / first), str(compare_d4 / second), *extra])
    out = capsys.readouterr().out
    assert code == 2
    assert out == "vacuous: the shared reliable window degree <= -1 holds no coefficient\n"


def test_gen_example_variants(tmp_path):
    for name in ("witten-rank1", "witten-n2", "genus1-rank1"):
        outdir = tmp_path / name
        assert main(["gen-example", name, "--degree", "5", "--amax", "1",
                     "--outdir", str(outdir)]) == 0
        assert (outdir / "f0.ottr").exists()
    assert (tmp_path / "genus1-rank1" / "f1.ottr").exists()
    code = main(["validate-genus0", str(tmp_path / "witten-n2" / "f0.ottr")])
    assert code == 0
    code = main(["check-genus1",
                 "--f0", str(tmp_path / "genus1-rank1" / "f0.ottr"),
                 "--f1", str(tmp_path / "genus1-rank1" / "f1.ottr")])
    assert code == 0


def test_gen_pst_smoke(tmp_path):
    outdir = tmp_path / "pst"
    assert main(["gen-pst", "--degree", "4", "--amax", "1",
                 "--outdir", str(outdir)]) == 0
    assert (outdir / "f1o.ottr").exists()
    assert (outdir / "flows.report.ottr").exists()


@pytest.mark.xfail(strict=True, reason="known defect: check-evolution claims a window "
                   "that gen-pst's D3/A1 output cannot vouch for")
def test_check_evolution_passes_gen_pst_output(tmp_path, capsys):
    """`gen-pst` output is right up to its `rel`, so `check-evolution` on it
    must pass.  At D3/A1 it reports `evolution_s (1,)` NONZERO at
    `window<= 1`; the Go extracted from that `f1o` is 0 with `rel` 2."""
    d = tmp_path
    assert main(["gen-pst", "--degree", "3", "--amax", "1", "--outdir", str(d)]) == 0
    capsys.readouterr()
    code = main(["check-evolution", "--f0", str(d / "f0.ottr"), "--f0o", str(d / "f0o.ottr"),
                 "--f1o", str(d / "f1o.ottr")])
    assert "NONZERO" not in capsys.readouterr().out
    assert code == 0


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("verb", [["gen-example", "witten-rank1"], ["gen-example", "witten-n2"],
                                  ["gen-example", "open-rank1"],
                                  ["gen-example", "genus1-rank1"], ["gen-pst"]])
def test_window_below_cubic_seed_rejected(verb, degree, tmp_path, capsys):
    """v^3/6 and phi^3/6 do not fit a degree window below 3."""
    outdir = tmp_path / "out"
    code = main([*verb, "--degree", str(degree), "--amax", "1", "--outdir", str(outdir)])
    assert code == 2
    assert "at least 3" in capsys.readouterr().err
    assert not outdir.exists()


def test_closed_output_pipe_exits_quietly(tmp_path, capsys):
    """`ottr validate-genus0 f0.ottr | head -1`: no traceback, exit EXIT_PIPE.

    At level bound 16 the report is over 100 kB, more than a pipe holds, so
    the writer is still writing when the reader closes after one line.
    """
    assert main(["gen-example", "witten-rank1", "--degree", "3", "--amax", "16",
                 "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    proc = subprocess.Popen([sys.executable, "-m", "ottr.cli", "validate-genus0",
                             str(tmp_path / "f0.ottr")],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == EXIT_PIPE
    assert first.startswith("dilaton ")
    assert "Traceback" not in err and "Exception ignored" not in err


def test_byte_identical_across_processes(tmp_path):
    """The same verb in two fresh processes produces identical bytes."""
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        cmd = [sys.executable, "-m", "ottr.cli"] + GEN + ["--outdir", str(outdir)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((outdir / "f0.ottr").read_bytes()
                    + (outdir / "f0o.ottr").read_bytes())
    assert outs[0] == outs[1]


@pytest.fixture(scope="module")
def mixed_dir(tmp_path_factory):
    """D5/A2 files of two theories: a rank-2 f0 and the rank-1 genus-1 set."""
    outdir = tmp_path_factory.mktemp("mixed")
    for name in ("witten-n2", "genus1-rank1"):
        assert main(["gen-example", name, "--degree", "5", "--amax", "2",
                     "--outdir", str(outdir / name)]) == 0
    return outdir


MIXED_VERBS = {
    "check-genus1 open": ["check-genus1", "--f0", "n2/f0", "--f0o", "g1/f0o", "--f1o", "g1/f1o"],
    "check-genus1 closed": ["check-genus1", "--f0", "n2/f0", "--f1", "g1/f1"],
    "check-evolution": ["check-evolution", "--f0", "n2/f0", "--f0o", "g1/f0o", "--f1o", "g1/f1o"],
    "build-operators": ["build-operators", "--f0", "n2/f0", "--f0o", "g1/f0o", "--outdir", "ops"],
    "validate-open": ["validate-open", "n2/f0", "g1/f0o"],
    "derive-genus1": ["derive-genus1", "--f0", "n2/f0", "--f0o", "g1/f0o", "-o", "f1o.ottr"],
    "derive-genus1 go-file": ["derive-genus1", "--f0", "g1/f0", "--f0o", "g1/f0o",
                              "--go-file", "go", "-o", "f1o.ottr"],
}


@pytest.mark.parametrize("verb", sorted(MIXED_VERBS))
def test_files_of_different_theories_rejected(verb, mixed_dir, tmp_path, capsys):
    """Every file a verb reads, --go-file included, must carry one theory block."""
    go = tmp_path / "go.ottr"  # the initial data phi^3/6, but in a D5/A1 theory
    go.write_text("ottr-series-v1\ntheory rank=1 eta=1 A=1 Dt=5 Amax=1 Dv=5 J=3 E=2\n"
                  "kind jetpoly rel=-\nterm 1/6 eps=0 vars=phi:0:0:3\nend\n")
    paths = {"n2/f0": mixed_dir / "witten-n2" / "f0.ottr", "go": go,
             "ops": tmp_path / "ops", "f1o.ottr": tmp_path / "f1o.ottr"}
    for name in ("f0", "f0o", "f1o", "f1"):
        paths[f"g1/{name}"] = mixed_dir / "genus1-rank1" / f"{name}.ottr"
    code = main([str(paths.get(arg, arg)) for arg in MIXED_VERBS[verb]])
    captured = capsys.readouterr()
    assert code == 2
    assert "carry different theory blocks" in captured.err
    assert "PASS" not in captured.out
    assert list(tmp_path.iterdir()) == [go]


def test_build_operators_rejects_bigseries_go_file(fixture_dir, tmp_path, capsys):
    """--go-file must hold a jet polynomial; a bigseries is an input error."""
    outdir = tmp_path / "ops"
    code = main(["build-operators", "--f0", str(fixture_dir / "f0.ottr"),
                 "--f0o", str(fixture_dir / "f0o.ottr"),
                 "--go-file", str(fixture_dir / "f0o.ottr"), "--outdir", str(outdir)])
    assert code == 2
    assert "expected a jetpoly file" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("option", ["--degree", "--amax"])
@pytest.mark.parametrize("verb", [["gen-example", "open-rank1"], ["gen-pst"],
                                  ["validate-genus0", "F0"], ["validate-open", "F0", "F0O"]])
def test_negative_window_rejected(verb, option, fixture_dir, tmp_path, capsys):
    files = {"F0": str(fixture_dir / "f0.ottr"), "F0O": str(fixture_dir / "f0o.ottr")}
    argv = [files.get(arg, arg) for arg in verb] + [option, "-1"]
    if verb[0].startswith("gen-"):
        argv += ["--outdir", str(tmp_path / "out")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert f"{option} -1 is negative" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_summary_names_index_variables(fixture_dir, capsys):
    """Summary lines name variables as the report file does."""
    assert main(["validate-open", str(fixture_dir / "f0.ottr"),
                 str(fixture_dir / "f0o.ottr")]) == 0
    out = capsys.readouterr().out
    assert "open_trr_t (1, 0, s_1): zero" in out
    assert "open_trr_s (0, t1_0): zero" in out
    assert "open_string (): zero" in out
