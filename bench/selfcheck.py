"""The benchmark's own tests.

    python3 bench/selfcheck.py

Kept out of the repository's pytest run on purpose: it runs the benchmark
itself, two traced runs per workload, about a minute in all.  It checks that

* the deterministic per-layer counters (call counts, term counts, the
  product-pairs bound, serialized bytes) repeat exactly between two traced
  runs with the same seed, and every run is correct;
* the Witten-Kontsevich oracle rejects a stored f0 with one changed
  coefficient;
* a seeded perturbation changes exactly one coefficient of a fixture and
  leaves a file ottr parses back to the same bytes.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import oracle
import run
import workloads


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_counters_repeat() -> None:
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, 7), traced_run(workload, 7)
        assert first["correct"] and second["correct"], workload
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if v["unit"] in ("count", "bytes")}
        again = {k: v["value"] for k, v in second["metrics"].items()
                 if v["unit"] in ("count", "bytes")}
        assert counts and counts == again, (workload, counts, again)
        assert all(v is not None for v in counts.values()), (workload, counts)
        print(f"ok {workload}: {len(counts)} counters repeat exactly")


def check_oracle_rejects_perturbed_f0() -> None:
    text = (run.FIXTURES / "f0.ottr").read_text(encoding="ascii")
    assert oracle.check_closed_fixture(text) > 0
    for seed in range(5):
        bad = workloads.perturb_term(text, random.Random(seed))
        try:
            oracle.check_closed_fixture(bad)
        except oracle.OracleError:
            continue
        raise AssertionError(f"oracle accepted a perturbed f0 (seed {seed})")
    print("ok oracle rejects perturbed f0")


def check_perturbation_is_canonical() -> None:
    ottr = run.import_ottr()
    for stem in ("f0o", "f1o"):
        text = (run.FIXTURES / f"{stem}.ottr").read_text(encoding="ascii")
        for seed in range(5):
            bad = workloads.perturb_term(text, random.Random(seed))
            changed = [a for a, b in zip(text.split("\n"), bad.split("\n")) if a != b]
            assert len(changed) == 1 and changed[0].startswith("term "), changed
            value, theory = ottr.serialize.parse(bad)
            assert ottr.serialize.emit(value, theory) == bad
    print("ok perturbations change one coefficient and stay canonical")


def main() -> int:
    check_oracle_rejects_perturbed_f0()
    check_perturbation_is_canonical()
    check_counters_repeat()
    return 0


if __name__ == "__main__":
    sys.exit(main())
