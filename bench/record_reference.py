"""Write bench/reference.json: the digests the benchmark checks outputs against.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are known to be right; the benchmark
then holds every later commit to the same bytes.  It records the SHA-256 of
the stored fixtures and of every file each workload writes, for each choice
of initial data the seed can make, after checking exit codes and verdicts.
The fixtures themselves were made with

    ottr gen-example genus1-rank1 --degree 11 --amax 3 --go phi3
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    reference = {"fixtures": {f"{stem}.ottr": run.sha256(run.FIXTURES / f"{stem}.ottr")
                              for stem in workloads.FIXTURES},
                 "outputs": {}}
    work = run.WORK_ROOT / f"record-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            digests: dict[str, str] = {}
            for go in workloads.GO_CHOICES if name == "generate" else (None,):
                workload = run.setup(name, 0, work, reference)
                if go is not None:
                    workload.go = go
                workload.out.mkdir(parents=True)
                for step in workload.steps():
                    rc, text = step.action()
                    if rc != step.rc or step.verdict not in text:
                        print(f"{name}: {step.label}: exit {rc}\n{text}", file=sys.stderr)
                        return 1
                    for rel in step.outputs:
                        digests[rel] = run.sha256(workload.out / rel)
            reference["outputs"][name] = dict(sorted(digests.items()))
    finally:
        run.remove_work(work)
    same = [(reference["outputs"]["verify"]["f1o.ottr"], reference["fixtures"]["f1o.ottr"])]
    same += [(reference["outputs"]["generate"][f"gen-{go}/f1o.ottr"],
              reference["outputs"]["generate"][f"gen-{go}/f1o_both.ottr"])
             for go in workloads.GO_CHOICES]
    if any(a != b for a, b in same):
        print("derived f1o files differ from their references", file=sys.stderr)
        return 1
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="ascii")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
