"""CLI behaviour: fixtures, validation verbs, exit codes, determinism."""

import subprocess
import sys

import pytest

from ottr.cli import main

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
