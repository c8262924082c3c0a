"""Benchmark driver for ottr: times fixed workloads and checks every verdict.

    python3 bench/run.py --workload {generate,verify,lax} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; paths resolve against this file.  Set-up (importing ottr
from ``src``, loading and checking the stored fixtures, making the seeded
inputs) is repeated and timed on its own.  Then whole workload runs repeat
while one more still ends within ``--seconds``.  Reported times are medians
normalized to reference host speed (see ``hostspeed``); the raw ones are
printed beside them.  With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` untraced and traced runs alternate
and it reports the per-layer metrics of ``spans.LAYERS`` plus the tracing
overhead.  Any failed step makes the result ``correct: false`` and the exit
code 1; a set-up failure exits 2 without a result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
FIXTURES = BENCH / "fixtures"
REFERENCE = BENCH / "reference.json"
WORK_ROOT = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"
SETUP_REPEATS = 25

sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    pass


@dataclass
class Timing:
    """One workload run: raw wall and CPU seconds of its steps, the same
    normalized to reference host speed (``hostspeed``), and the factor used."""

    raw_wall: float
    raw_cpu: float
    wall: float
    cpu: float
    factor: float


class Terminated(BaseException):
    """SIGTERM, raised past every handler a step has so the work dir is removed."""


def _terminate(_signum, _frame):
    raise Terminated


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still uses it
        pass


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="ascii"))


def import_ottr() -> workloads.Ottr:
    """Import ottr afresh from the checkout's ``src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n.split(".")[0] == "ottr"]:
        del sys.modules[name]
    try:
        mods = {name: importlib.import_module(f"ottr.{name}")
                for name in ("algebra", "bigphase", "cli", "genus0", "genus1",
                             "serialize")}
    except ImportError as exc:
        raise SetupError(f"cannot import ottr from {src}: {exc}") from exc
    found = Path(mods["cli"].__file__).resolve()
    if not found.is_relative_to(ROOT / "src"):
        raise SetupError(f"imported ottr from {found}, not from {src}")
    return workloads.Ottr(**mods)


def setup(name: str, seed: int, work: Path, reference: dict) -> workloads.Workload:
    """Import, load and check the fixtures, and make the seeded inputs."""
    ottr = import_ottr()
    for stem in workloads.FIXTURES:
        path = FIXTURES / f"{stem}.ottr"
        if not path.is_file() or sha256(path) != reference["fixtures"][f"{stem}.ottr"]:
            raise SetupError(f"fixture {path} is missing or differs from reference.json")
        try:
            ottr.serialize.parse(path.read_text(encoding="ascii"))
        except ValueError as exc:
            raise SetupError(f"fixture {path} does not parse: {exc}") from exc
    try:
        oracle.check_closed_fixture((FIXTURES / "f0.ottr").read_text(encoding="ascii"))
    except oracle.OracleError as exc:
        raise SetupError(f"stored f0 fails the Witten-Kontsevich oracle: {exc}") from exc
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.WORKLOADS[name](ottr, FIXTURES, work, seed)
    workload.prepare()
    return workload


def check_step(step: workloads.Step, rc: int, text: str, workload, reference: dict
               ) -> str | None:
    """Why the step's result is wrong, or None when it matches the reference."""
    tail = " | ".join(text.strip().splitlines()[-3:])
    if rc != step.rc:
        return f"exit code {rc}, expected {step.rc}: {tail}"
    if step.verdict not in text:
        return f"verdict {step.verdict!r} missing from output: {tail}"
    digests = reference["outputs"][workload.name]
    for rel in step.outputs:
        path = workload.out / rel
        if not path.is_file():
            return f"{rel} was not written"
        if sha256(path) != digests.get(rel):
            return f"{rel} differs from the reference digest"
    return None


def run_once(workload, reference: dict, failures: list[str]) -> tuple[Timing, int]:
    """One full workload run under the host-speed probe; returns its timing
    and the number of steps attempted."""
    shutil.rmtree(workload.out, ignore_errors=True)
    workload.out.mkdir(parents=True)
    wall = cpu = probed = 0.0
    steps = workload.steps()
    with hostspeed.SpeedProbe() as probe:
        for step in steps:
            p0 = probe.probe_seconds()
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                rc, text = step.action()
            except Exception as exc:  # any unexpected raise is a failed step
                rc, text = None, f"raised {type(exc).__name__}: {exc}"
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            probed += probe.probe_seconds() - p0
            problem = check_step(step, rc, text, workload, reference)
            if problem:
                failures.append(f"{step.label}: {problem}")
    factor = probe.factor()
    return Timing(wall, cpu, (wall - probed) * factor, (cpu - probed) * factor,
                  factor), len(steps)


def describe(values: list[float]) -> str:
    """Median, quartiles, count and the highest percentile with >= 10 beyond."""
    n = len(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else values * 3
    tail = [p for p in (50, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    p_txt = f"p{tail[-1]}" if tail else "none (needs >= 20 runs for p50)"
    return (f"median {statistics.median(values):.6f} q1 {q1:.6f} q3 {q3:.6f} "
            f"n {n} highest percentile with >= 10 beyond: {p_txt}")


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()} nproc {os.cpu_count()} "
            f"cpu {cpu!r} platform {platform.platform()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return measure(args, work)
    except SetupError as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        return 128 + signal.SIGTERM
    finally:
        remove_work(work)


def measure(args, work: Path) -> int:
    try:
        reference = load_reference()
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {REFERENCE}: {exc}") from exc
    setup_raw, setup_norm = [], []
    for _ in range(SETUP_REPEATS):
        with hostspeed.SpeedProbe() as probe:
            t0 = time.perf_counter()
            workload = setup(args.workload, args.seed, work, reference)
            elapsed = time.perf_counter() - t0
        setup_raw.append(elapsed)
        setup_norm.append(probe.normalize(elapsed))

    print(f"# env {environment()}")
    print(f"# workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"# seed {args.seed} seconds {args.seconds} trace {args.trace}")

    failures: list[str] = []
    attempted = 0
    runs: dict[bool, list[Timing]] = {False: [], True: []}
    layer_times: dict[str, list[float]] = {}
    counter_runs: list[dict[str, int]] = []
    tracer = spans.Tracer()
    deadline = time.perf_counter() + args.seconds
    traced = False
    while True:
        started = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            timing, n = run_once(workload, reference, failures)
        finally:
            tracer.uninstall()
        attempted += n
        runs[traced].append(timing)
        if traced:
            timings, counters = tracer.metrics()
            for key, value in timings.items():
                layer_times.setdefault(key, []).append(value * timing.factor)
            counter_runs.append(counters)
        # Start another run only if one more like the last still ends in time.
        now = time.perf_counter()
        if args.trace:
            traced = not traced
            if not runs[traced]:
                continue
        if now + (now - started) > deadline:
            break

    plain = runs[False]
    print(f"# host speed (probe reference time / probe time): "
          f"{describe([t.factor for t in plain])}")
    for label, values in (("setup_s raw", setup_raw), ("setup_s", setup_norm),
                          ("wall_s raw", [t.raw_wall for t in plain]),
                          ("wall_s", [t.wall for t in plain]),
                          ("cpu_s raw", [t.raw_cpu for t in plain]),
                          ("cpu_s", [t.cpu for t in plain])):
        print(f"# {label} {describe(values)}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}", file=sys.stderr)
    if any(c != counter_runs[0] for c in counter_runs[1:]):
        failures.append("deterministic counters differ between traced runs")
        attempted += 1
    print(f"# fail_ratio {len(failures) / attempted:.6f} ratio "
          f"({len(failures)} of {attempted} steps)")

    if args.trace:
        metrics = per_layer(tracer, layer_times, counter_runs[0], runs)
        write_spans(tracer, SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {
            "wall_s": (statistics.median(t.wall for t in plain), "s"),
            "cpu_s": (statistics.median(t.cpu for t in plain), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MB"),
            "setup_s": (statistics.median(setup_norm), "s"),
        }
    for key, (value, unit) in metrics.items():
        print(f"# {key} {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


def write_spans(tracer: spans.Tracer, path: Path) -> None:
    """The last traced run's spans, one JSON list per line:
    [name, start s, end s, parent line index or -1], raw times from the first span."""
    path.parent.mkdir(exist_ok=True)
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", encoding="ascii") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")
    print(f"# spans of the last traced run: {path.relative_to(ROOT)}")


def per_layer(tracer: spans.Tracer, layer_times: dict[str, list[float]],
              counters: dict[str, int], runs: dict[bool, list[Timing]]) -> dict:
    """Per-layer metrics: median timings, counters, and the tracing overhead."""
    traced_wall = statistics.median(t.wall for t in runs[True])
    print(f"# wall_s traced {describe([t.wall for t in runs[True]])}")
    if tracer.absent:
        print(f"# absent layers: {', '.join(tracer.absent)}")
    metrics: dict[str, tuple[float | int | None, str]] = {}
    for key, unit in spans.metric_names().items():
        if key in layer_times:
            metrics[key] = (statistics.median(layer_times[key]), unit)
        elif key in counters:
            metrics[key] = (counters[key], unit)
        else:
            metrics[key] = (None, unit)
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(t.wall for t in runs[False]), "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
