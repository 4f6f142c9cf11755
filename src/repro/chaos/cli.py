"""``python -m repro.chaos`` - fuzz, replay, and inspect chaos scenarios.

Subcommands:

``fuzz``
    Run a seeded batch of generated FaultPlans through the harnesses.
    ``--seeds N`` (count), ``--start S`` (first seed), ``--time-budget``
    (wall seconds; the batch truncates rather than overruns),
    ``--min-executed`` (fail if truncation cut below this floor),
    ``--reproducers DIR`` (where shrunk failures are persisted),
    ``--report FILE`` (write the batch report JSON).  Exit 1 on any
    violation, 2 if fewer than ``--min-executed`` cases ran.

``replay``
    Re-run one case: ``replay 1234`` regenerates seed 1234's case from
    scratch; ``replay --file repro.json`` loads a persisted reproducer
    (the shrunk case when present).  Exit 1 if the invariant is (still)
    violated - so a fixed bug replays to exit 0; exit 2 (one line on
    stderr, no traceback) if the file is unreadable or not a valid case.

``scenarios``
    List the registered fixed, X1, service and backend chaos scenarios.

``scenario``
    The CI chaos matrix: ``scenario NAME --seeds 0 1 2`` runs one named
    scenario - a fixed one from :data:`repro.faults.SCENARIOS` or a seeded
    generator from :data:`CHAOS_SCENARIOS` - through the resilient
    ``--n-msps``-rank parallel sigma once per seed, prints each seed's
    ``max|diff|`` against the serial sigma and its fault counters, and
    with ``--trace-dir`` writes the first seed's Chrome trace (one track
    per MSP, ``fault:*`` markers, requeued work).  Exit 1 if any seed
    breaks its invariant.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from ..faults import SCENARIOS, ChaosConfig, scenario_names
from ..obs import ChromeTracer
from .fuzz import FuzzBudget, FuzzCase, FuzzRunner, SigmaHarness
from .plans import (
    CHAOS_SCENARIOS,
    ChaosEnv,
    backend_scenario_names,
    build_fault_plan,
    chaos_scenario_names,
    service_scenario_names,
)

__all__ = ["main"]


def _cmd_fuzz(args) -> int:
    runner = FuzzRunner(FuzzBudget())
    seeds = range(args.start, args.start + args.seeds)
    report = runner.fuzz(
        seeds,
        time_budget=args.time_budget,
        reproducer_dir=args.reproducers,
        do_shrink=not args.no_shrink,
    )
    payload = report.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
    if report.violations:
        for v in report.violations:
            shrunk = v["shrunk"]
            print(
                f"VIOLATION seed={v['seed']} {v['harness']}/{v['invariant']}: "
                f"{v['detail']}\n  minimal reproducer: {json.dumps(shrunk)}",
                file=sys.stderr,
            )
        return 1
    if args.min_executed and report.executed < args.min_executed:
        print(
            f"only {report.executed} cases executed "
            f"(< --min-executed {args.min_executed})",
            file=sys.stderr,
        )
        return 2
    print(
        f"ok: {report.executed} cases, 0 violations ({report.elapsed_s:.1f}s)",
        file=sys.stderr,
    )
    return 0


def _cmd_replay(args) -> int:
    runner = FuzzRunner(FuzzBudget())
    if args.file:
        try:
            with open(args.file) as f:
                payload = json.load(f)
            if not isinstance(payload, dict):
                raise ValueError("expected a JSON object")
            case_dict = payload.get("shrunk") or payload.get("case") or payload
            case = FuzzCase.from_dict(case_dict)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            print(
                f"{args.file}: not a fuzz case ({type(exc).__name__}: {exc})", file=sys.stderr
            )
            return 2
        print(f"replaying persisted case (seed {case.seed}, {case.harness})")
    elif args.seed is not None:
        case = runner.case_for_seed(args.seed)
        print(f"replaying seed {args.seed}: {case.harness} {list(case.scenarios)}")
    else:
        print("replay needs a seed or --file", file=sys.stderr)
        return 2
    failure = runner.run_case(case)
    if failure is None:
        print("ok: all invariants held")
        return 0
    invariant, detail = failure
    print(f"VIOLATION {invariant}: {detail}", file=sys.stderr)
    print(json.dumps(case.to_dict(), indent=2, sort_keys=True))
    return 1


def _cmd_scenarios(_args) -> int:
    print("fixed X1 scenarios (ChaosConfig; `scenario NAME` runs them too):")
    for name in scenario_names():
        print(f"  {name}")
    print("X1 chaos scenarios (compose into a FaultPlan):")
    for name in chaos_scenario_names():
        print(f"  {name}")
    print("service chaos scenarios (compose into a ServiceFaultPlan):")
    for name in service_scenario_names():
        print(f"  {name}")
    print("backend chaos scenarios (compose into a real-process knob dict):")
    for name in backend_scenario_names():
        print(f"  {name}")
    return 0


def _cmd_scenario(args) -> int:
    name, n_msps = args.name, args.n_msps
    if name not in SCENARIOS and name not in CHAOS_SCENARIOS:
        print(
            f"unknown scenario {name!r}; fixed: {scenario_names()}; "
            f"generators: {chaos_scenario_names()}",
            file=sys.stderr,
        )
        return 2
    harness = SigmaHarness(n_ranks=n_msps)
    print(
        f"scenario={name} n_msps={n_msps} "
        f"fault-free horizon={harness.horizon:.3e} virtual s"
    )
    env = ChaosEnv(n_msps, harness.horizon, FuzzBudget().n_spans)
    failures = 0
    for i, seed in enumerate(args.seeds):
        if name in SCENARIOS:
            plan = ChaosConfig(
                [name], seed=seed, victim=seed % n_msps, at=0.5, horizon=harness.horizon
            ).build_plan()
        else:
            plan = build_fault_plan([name], env, seed)
        tracer = ChromeTracer() if args.trace_dir and i == 0 else None
        out, injector, failure = harness.execute(plan, tracer)
        failures += failure is not None
        err = float(np.max(np.abs(out - harness.ref))) if out is not None else float("nan")
        counters = ", ".join(
            f"{k.removeprefix('faults.')}={v:g}" for k, v in sorted(injector.counts().items())
        )
        verdict = "OK" if failure is None else f"FAIL {failure[0]}: {failure[1]}"
        print(f"  seed={seed}: max|diff|={err:.3e} {verdict}  [{counters or 'none fired'}]")
        if tracer is not None:
            os.makedirs(args.trace_dir, exist_ok=True)
            path = tracer.write(os.path.join(args.trace_dir, f"{name}-seed{seed}.json"))
            print(f"  trace: {path} ({tracer.n_events} events)")
    if failures:
        print(f"{failures} seed(s) broke an invariant", file=sys.stderr)
        return 1
    print(f"all {len(args.seeds)} seeds held their invariants")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="property-based fuzzing of the fault/recovery machinery",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fuzz", help="run a seeded batch of generated fault plans")
    p.add_argument("--seeds", type=int, default=200, help="number of seeds (default 200)")
    p.add_argument("--start", type=int, default=0, help="first seed (default 0)")
    p.add_argument(
        "--time-budget", type=float, default=None, help="wall-clock cap in seconds"
    )
    p.add_argument(
        "--min-executed",
        type=int,
        default=0,
        help="fail (exit 2) if the time budget cut the batch below this",
    )
    p.add_argument(
        "--reproducers", default=None, help="directory for shrunk failing cases"
    )
    p.add_argument("--report", default=None, help="write the batch report JSON here")
    p.add_argument("--no-shrink", action="store_true", help="skip shrinking failures")
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser("replay", help="re-run one seed or a persisted reproducer")
    p.add_argument("seed", type=int, nargs="?", help="seed to regenerate and run")
    p.add_argument("--file", default=None, help="persisted reproducer JSON")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("scenarios", help="list registered chaos scenarios")
    p.set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("scenario", help="run one named scenario over a few seeds")
    p.add_argument("name", help="fixed scenario or generator name (see `scenarios`)")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    p.add_argument("--n-msps", type=int, default=4)
    p.add_argument("--trace-dir", default=None, help="write the first seed's Chrome trace here")
    p.set_defaults(fn=_cmd_scenario)

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
