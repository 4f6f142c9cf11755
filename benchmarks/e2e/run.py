"""The repo's benchmark: end-to-end and per-layer numbers, one command.

    python3 benchmarks/e2e/run.py                          # all workloads, end to end
    python3 benchmarks/e2e/run.py --trace --out out.json   # ... plus the traced runs
    python3 benchmarks/e2e/run.py --workload sigma_cs12 --seed 7 --seconds 15 --trace 0

With ``--workload`` this process *is* the workload's fresh process; without
it, each workload (and each of its traced runs) is a child process of its
own, so peak RSS, imports and caches never leak from one to the next.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero when an
output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
WORKLOAD_NAMES = ("sigma_cs12", "sigma_shm2_os12", "solve_h2o_631g", "solve_ooc_h2o_631g")
# Set before NumPy is imported.  One BLAS thread because parallelism is the
# program's own ranks (one MSP = one rank in the paper).  No
# madvise(MADV_HUGEPAGE) because with THP in "madvise" mode the kernel's
# huge-page compaction stalls a sigma apply by ~0.5 s at random: a 9.0 s solve
# then reads anything from 7.1 to 9.7 s, and no repetition count that fits a
# run steadies that.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
# layers that have no span have no self time: a true zero, whatever the workload
ALWAYS_ZERO_FILLED = ("self.",)


def parse_args(argv=None):
    with open(REPO / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, help="run only this one, in-process")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="how long the timed loop of one run measures")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: the traced run (per-layer metrics and a Chrome trace)")
    p.add_argument("--out", help="write the full report (provenance, spreads, skipped) here")
    return p.parse_args(argv), spec


def fill_not_on_path(record: dict, spec: dict, not_on_path: tuple[str, ...]) -> None:
    """A per-layer metric of a layer this workload never enters reads 0."""
    have = record["per_layer"]
    for m in spec["per_layer"]:
        if m["name"] not in have and m["name"].startswith(not_on_path + ALWAYS_ZERO_FILLED):
            have[m["name"]] = {"value": 0, "unit": m["unit"], "not_on_path": True}


def emitted_metrics(record: dict, spec: dict) -> dict:
    """Exactly the metrics BENCHMARK.json names for this kind of run.

    One that was not measured is an error, as is a unit that disagrees.
    """
    have = record["per_layer" if record["trace"] else "end_to_end"]
    out = {}
    for m in spec["per_layer" if record["trace"] else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name not in have:
            raise RuntimeError(f"{record['workload']}: metric {name} was not measured")
        if have[name]["unit"] != unit:
            raise RuntimeError(f"{name}: unit {have[name]['unit']!r}, declared {unit!r}")
        out[name] = {"value": have[name]["value"], "unit": unit}
    return out


def print_metrics(record: dict) -> None:
    section = "per_layer" if record["trace"] else "end_to_end"
    for name, m in sorted(record[section].items()):
        value = m["value"]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        spread = ""
        if "n" in m:
            spread = (f"   (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, min {m['min']:.6g}, "
                      f"max {m['max']:.6g}, n {m['n']})")
        print(f"{record['workload']:<20} {name:<38} = {text} {m['unit']}{spread}")
    for entry in record.get("skipped", []):
        print(f"{record['workload']:<20} skipped {entry['name']}: {entry['reason']}")
    for failure in record["failures"]:
        print(f"{record['workload']:<20} FAILED {failure}")


def run_one(args, spec) -> int:
    """This process is the workload: measure, print, report."""
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(REPO / "src"))
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"cannot import the program under test from {REPO / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    import_s = time.perf_counter() - _T0
    prov = harness.provenance(args.seed, PINNED_ENV)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        record = harness.measure_traced(workload, args.seconds)
        trace_path = harness.OUT_DIR / f"{args.workload}.trace.json"
        harness.write_json(trace_path, record.pop("trace_events"))
        print(f"{args.workload:<20} trace written to {trace_path.relative_to(REPO)}")
    else:
        record = harness.measure(workload, args.seconds, import_s=import_s)
    record.update(workload=args.workload, why=workload.why, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    prov["loadavg_end"] = list(os.getloadavg())
    if args.trace:
        fill_not_on_path(record, spec, workload.not_on_path)
    metrics = emitted_metrics(record, spec)
    print_metrics(record)
    if args.out:
        harness.write_json(args.out, {"schema": "e2e-bench/1", "provenance": prov,
                                      "runs": [record]})
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in a child process of its own; with --trace, twice."""
    from harness import OUT_DIR, write_json

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    runs, provenance = [], None
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1) if args.trace else (0,):
            part = OUT_DIR / f"{name}.{'traced' if trace else 'untraced'}.json"
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace), "--out", str(part)],
                stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if child.returncode not in (0, 1):
                print(f"{name}: run exited with code {child.returncode}", file=sys.stderr)
                return child.returncode
            with open(part) as fh:
                report = json.load(fh)
            provenance = provenance or report["provenance"]
            runs += report["runs"]
            last = json.loads(lines[-1])
            correct &= last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    if args.out:
        write_json(args.out, {"schema": "e2e-bench/1", "provenance": provenance,
                              "runs": runs})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.workload:
        return run_one(args, spec)
    return run_all(args)


def stop_children() -> None:
    """Leave no process behind: stop and wait for everything this one started.

    ``multiprocessing`` starts a resource tracker beside the first spawned
    worker and never waits for it; it outlives this process by a moment, and
    where nothing reaps orphans it stays as a zombie.  Whatever else is still
    a child here (a pool a failed ``close`` lost) is killed first, so the
    tracker sees its pipe close and unlinks the segments they held.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker = tracker and tracker._resource_tracker
    me = str(os.getpid())
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # gone since listdir
        if stat[stat.rindex(")") + 2:].split()[1] == me and not (
                tracker and int(pid) == tracker._pid):
            os.kill(int(pid), signal.SIGKILL)
    if tracker:
        tracker._stop()  # closes its pipe, then waits for it
    with contextlib.suppress(ChildProcessError):
        while True:
            os.waitpid(-1, 0)


def _terminated(signum, frame):
    sys.exit(128 + signum)  # unwinds through every ``finally``, then stop_children


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
