"""Golden outputs of every verb over the window grid D3-D8 x Amax 0-3.

Each run calls `ottr.cli.main` in-process in a directory of its own and is
pinned by one SHA-256 over its exit code, its stdout, its stderr and every
file it wrote (by name), with the temporary root replaced by a fixed token.
The table, keyed by the run's arguments (its window is in its paths), is
`output_grid.json` beside this file, together with each run's exit code.

Per window, from the fixtures of ``gen-example genus1-rank1 --go phi3``:
both validators, ``derive-genus1 --method both`` with phi3 and vphi,
``compare``, ``check-genus1`` open and closed, ``build-operators --go vphi``
and ``check-evolution``; ``gen-pst`` up to D7.  Beside the grid: one
perturbed input per validator (exit 1), the rank-2 ``witten-n2`` fixture
and its validation, a vacuous and a differing ``compare``, the exit-2
input errors, ``derive-genus1 --method solve`` on the perturbed ``f0o``
(exit 3), ``derive-genus1 --method formula --go-file`` on a hand-written
jetpoly Go of phi^3/6 and on one with a jet exponent past its bound (exit 2),
both validators with ``--degree``/``--amax`` shrinking the D8/A3 files, and
``qpoly`` 0-6.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_output_grid.py

which prints each key it adds, drops or changes against the committed table
before it rewrites it; name every one of them in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from ottr.cli import main

TABLE = Path(__file__).with_name("output_grid.json")
TOKEN = "<tmp>"
DEGREES = range(3, 9)
AMAXES = range(4)
PST_DEGREES = range(3, 8)


def _run(root: Path, name: str, argv: list[str]) -> tuple[str, list]:
    """The key of one run and its [exit code, digest].  In argv, ``~`` stands
    for root and ``@`` for root/name, the directory the run writes into."""
    out = root / name
    out.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([arg.replace("@", str(out)).replace("~", str(root)) for arg in argv])
    h = hashlib.sha256(f"{code}\n".encode())
    for text in (stdout.getvalue(), stderr.getvalue()):
        text = text.replace(str(root), TOKEN).encode()
        h.update(b"%d\n%s" % (len(text), text))
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(b"%s %d\n%s" % (path.relative_to(out).as_posix().encode(), len(data), data))
    return f"{name}: {' '.join(argv).replace('~/', '')}", [code, h.hexdigest()]


def _perturbed(root: Path, name: str) -> str:
    """D6A2/gen/name.ottr with the coefficient of its first term line raised
    by one, written to bad/name.ottr; its path as argv gives it."""
    lines = (root / f"D6A2/gen/{name}.ottr").read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("term "))
    _, coef, rest = lines[i].split(" ", 2)
    lines[i] = f"term {Fraction(coef) + 1} {rest}"
    (root / "bad").mkdir(exist_ok=True)
    (root / f"bad/{name}.ottr").write_text("\n".join(lines))
    return f"~/bad/{name}.ottr"


def record(root: Path) -> dict[str, list]:
    """Every run of the grid and beside it, in order, under root."""
    table = {}

    def run(name, *argv):
        key, value = _run(root, name, list(argv))
        table[key] = value

    for d in DEGREES:
        for a in AMAXES:
            w = f"D{d}A{a}"
            f0, f0o, f1o, f1 = (f"~/{w}/gen/{x}.ottr" for x in ("f0", "f0o", "f1o", "f1"))
            run(f"{w}/gen", "gen-example", "genus1-rank1", "--go", "phi3",
                "--degree", str(d), "--amax", str(a), "--outdir", "@")
            run(f"{w}/validate-genus0", "validate-genus0", f0, "--out", "@/report.ottr")
            run(f"{w}/validate-open", "validate-open", f0, f0o, "--out", "@/report.ottr")
            for go in ("phi3", "vphi"):
                run(f"{w}/derive-{go}", "derive-genus1", "--f0", f0, "--f0o", f0o,
                    "--go", go, "--method", "both", "-o", "@/f1o.ottr")
            run(f"{w}/compare", "compare", f1o, f"~/{w}/derive-phi3/f1o.ottr")
            run(f"{w}/check-open", "check-genus1", "--f0", f0, "--f0o", f0o, "--f1o", f1o,
                "--out", "@/report.ottr")
            run(f"{w}/check-closed", "check-genus1", "--f0", f0, "--f1", f1,
                "--out", "@/report.ottr")
            run(f"{w}/operators", "build-operators", "--f0", f0, "--f0o", f0o,
                "--go", "vphi", "--outdir", "@")
            run(f"{w}/evolution", "check-evolution", "--f0", f0, "--f0o", f0o,
                "--f1o", f1o, "--out", "@/report.ottr")
            if d in PST_DEGREES:
                run(f"{w}/gen-pst", "gen-pst", "--degree", str(d), "--amax", str(a),
                    "--outdir", "@")

    # beside the grid, at D6/A2
    f0, f0o, f1o, f1 = (f"~/D6A2/gen/{x}.ottr" for x in ("f0", "f0o", "f1o", "f1"))
    bad = {x: _perturbed(root, x) for x in ("f0", "f0o", "f1o", "f1")}
    run("bad/validate-genus0", "validate-genus0", bad["f0"])
    run("bad/validate-open", "validate-open", f0, bad["f0o"])
    run("bad/check-open", "check-genus1", "--f0", f0, "--f0o", f0o, "--f1o", bad["f1o"])
    run("bad/check-closed", "check-genus1", "--f0", f0, "--f1", bad["f1"])
    run("bad/evolution", "check-evolution", "--f0", f0, "--f0o", f0o, "--f1o", bad["f1o"])
    run("n2/gen", "gen-example", "witten-n2", "--degree", "6", "--amax", "2", "--outdir", "@")
    run("n2/validate-genus0", "validate-genus0", "~/n2/gen/f0.ottr", "--out", "@/report.ottr")
    run("compare/vacuous", "compare", f1o, f1o, "--up-to-degree", "-1")
    run("compare/differ", "compare", "~/D6A2/derive-phi3/f1o.ottr",
        "~/D6A2/derive-vphi/f1o.ottr")
    run("error/missing", "validate-genus0", "~/error/none.ottr")
    run("error/theories", "validate-open", f0, "~/D5A2/gen/f0o.ottr")
    run("error/degree", "gen-example", "witten-rank1", "--degree", "-1", "--outdir", "@")
    text = (root / "n2/gen/f0.ottr").read_text()
    (root / "error/eta.ottr").write_text(text.replace("eta=1,0;0,1", "eta=1,1;1,1"))
    run("error/singular", "validate-genus0", "~/error/eta.ottr")
    run("bad/derive-solve", "derive-genus1", "--f0", f0, "--f0o", bad["f0o"], "--go", "phi3",
        "--method", "solve", "-o", "@/f1o.ottr")
    theory = (root / "D6A2/gen/f0.ottr").read_text().split("\n")[1]
    go = f"ottr-series-v1\n{theory}\nkind jetpoly rel=-\nterm 1/6 eps=0 vars=phi:0:0:3\nend\n"
    (root / "go").mkdir()
    (root / "go/phi3.ottr").write_text(go)
    run("go/formula", "derive-genus1", "--f0", f0, "--f0o", f0o, "--go-file", "~/go/phi3.ottr",
        "--method", "formula", "-o", "@/f1o.ottr")
    # a jet exponent past the bound 15 of Dv + J = 9
    (root / "go/past.ottr").write_text(go.replace("phi:0:0:3", "phi:0:0:3,phi:0:1:16"))
    run("go/past", "derive-genus1", "--f0", f0, "--f0o", f0o, "--go-file", "~/go/past.ottr",
        "--method", "formula", "-o", "@/f1o.ottr")
    # the validators' window shrink of the D8/A3 files, and qpoly's printed form
    f0, f0o = "~/D8A3/gen/f0.ottr", "~/D8A3/gen/f0o.ottr"
    for window in (["--degree", "5", "--amax", "2"], ["--degree", "4"], ["--amax", "0"]):
        tag = "".join(window).replace("--degree", "D").replace("--amax", "A")
        run(f"shrink/genus0-{tag}", "validate-genus0", f0, *window, "--out", "@/report.ottr")
        run(f"shrink/open-{tag}", "validate-open", f0, f0o, *window, "--out", "@/report.ottr")
    for index in range(7):
        run(f"qpoly/{index}", "qpoly", str(index), "-o", "@/q.ottr")
    return table


def test_every_output_matches_the_golden_table():
    want = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory() as tmp:
        got = record(Path(tmp))
    assert list(got) == list(want)
    changed = [key for key in want if got[key] != want[key]]
    assert changed == []


if __name__ == "__main__":
    committed = json.loads(TABLE.read_text()) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table = record(Path(tmp))
    for what, keys in (("added", [key for key in table if key not in committed]),
                       ("dropped", [key for key in committed if key not in table]),
                       ("changed", [key for key in table
                                    if key in committed and table[key] != committed[key]])):
        for key in keys:
            print(f"{what}: {key}")
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    codes = {}
    for value in table.values():
        codes[value[0]] = codes.get(value[0], 0) + 1
    print(f"recorded {len(table)} runs to {TABLE.name}; exit codes {dict(sorted(codes.items()))}",
          file=sys.stderr)
