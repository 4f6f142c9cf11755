"""Chaos-engineering benchmark: fuzz throughput, shrink cost, hook overhead.

Four claims, extending the robustness benchmark one layer up the stack:

* the *service-layer* fault hooks (worker-crash, telemetry, result-rot,
  torn-journal consultations) cost < 2% wall-clock on a warm service solve
  when the injector is idle - chaos-readiness is free in production,
* a seeded fuzz batch executes a meaningful plan mix through the sigma /
  solver / service harnesses with zero invariant violations,
* the mutation-catch proof: with recovery deliberately disabled the fuzzer
  finds a violating plan and shrinks it to a 1-minimal reproducer in a
  bounded number of iterations,
* a composed multi-scenario chaos run (deaths + stalls + flaky network)
  still recovers the serial sigma exactly, with the injected/recovered
  ledger attached as evidence.
"""

import time

import numpy as np

from repro.core import sigma_dgemm
from repro.faults import ChaosConfig, FaultInjector, ServiceFaultInjector, ServiceFaultPlan
from repro.faults import fuzz as fuzz_mod
from repro.faults.fuzz import FuzzBudget, FuzzRunner, shrink
from repro.molecule import Molecule
from repro.parallel import ParallelSigma
from repro.service import JobRecord, JobSpec
from repro.service.cache import ArtifactCache
from repro.service.executor import SolveExecutor
from repro.x1 import X1Config

from conftest import write_result


def _interleaved_best(run_a, run_b, k=7):
    """min-of-k for two workloads, alternated so machine drift cancels."""
    best_a = best_b = float("inf")
    for _ in range(k):
        t0 = time.perf_counter()
        run_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def test_chaos_fuzz_and_overhead(tmp_path):
    # --- idle service-hook overhead on a warm service solve ------------------
    water = Molecule.from_atoms(
        [
            ("O", (0.0, 0.0, 0.2217)),
            ("H", (0.0, 1.4309, -0.8867)),
            ("H", (0.0, -1.4309, -0.8867)),
        ],
        name="H2O",
    )
    spec = JobSpec.from_molecule(water, "sto-3g")
    cache = ArtifactCache(tmp_path / "bench")
    executor = SolveExecutor(cache, tmp_path / "bench")
    idle = ServiceFaultInjector(ServiceFaultPlan())
    record = JobRecord(key=spec.job_key, spec=spec)

    def _batch(**kw):
        # one warm solve is ~25 ms; batch several per timed sample so the
        # 2% gate sits above scheduler jitter, not inside it
        for _ in range(4):
            executor.execute(record, **kw)

    _batch()  # warm the workspace + sigma plan
    _batch(service_faults=idle)  # ...and both code paths, before timing
    t_none, t_idle = _interleaved_best(
        lambda: _batch(),
        lambda: _batch(service_faults=idle),
        k=9,
    )
    overhead = (t_idle - t_none) / t_none

    # --- seeded fuzz batch: the CI invariants at benchmark scale -------------
    runner = FuzzRunner(FuzzBudget())
    seeds = [s for s in range(60) if runner.case_for_seed(s).harness != "service"]
    report = runner.fuzz(seeds, do_shrink=False)

    # --- mutation catch + shrink cost ----------------------------------------
    fuzz_mod._RECOVERY_ENABLED = False
    try:
        caught = None
        for seed in range(60):
            case = runner.case_for_seed(seed)
            if case.harness != "sigma" or not case.plan.deaths:
                continue
            if runner.run_case(case) is not None:
                caught = case
                break
        assert caught is not None, "mutated recovery not caught"
        shrunk, shrink_iters = shrink(caught, runner.run_case)
    finally:
        fuzz_mod._RECOVERY_ENABLED = True
    still_fails_mutated = shrunk.plan.any_faults()
    healthy_passes = runner.run_case(shrunk) is None

    # --- composed chaos recovery ledger --------------------------------------
    plan = ChaosConfig(
        ["correlated_failures", "adversarial_stalls", "flaky_interconnect"],
        seed=7,
        horizon=runner.sigma.horizon,
    ).build_plan()
    fi = FaultInjector(plan)
    out = ParallelSigma(runner.sigma.problem, X1Config(n_msps=4), faults=fi)(
        runner.sigma.C
    )
    err = float(np.max(np.abs(out - sigma_dgemm(runner.sigma.problem, runner.sigma.C))))
    counts = fi.counts()
    injected = {k: v for k, v in counts.items() if k.startswith("faults.injected.")}
    recovered = {k: v for k, v in counts.items() if k.startswith("faults.recovered.")}

    lines = [
        "Chaos: fuzz batch, shrink cost, idle service-hook overhead",
        "-" * 62,
        "warm water service solve (4-solve batches, best of 9, interleaved):",
        f"  service_faults=None wall-clock  {t_none:8.3f} s",
        f"  idle injector wall-clock        {t_idle:8.3f} s",
        f"  disabled-hook overhead          {100 * overhead:+8.2f} %   (budget < 2%)",
        f"fuzz batch ({len(seeds)} seeds, sigma+solver lanes):",
        f"  plans executed                  {report.executed}",
        f"  violations                      {len(report.violations)}",
        f"  elapsed                         {report.elapsed_s:8.1f} s",
        "mutation-catch proof (recovery disabled):",
        f"  violating seed found            {caught.seed}",
        f"  shrink iterations               {shrink_iters}",
        f"  shrunk plan still minimal-fails {still_fails_mutated}",
        f"  healthy stack passes reproducer {healthy_passes}",
        "composed 3-scenario chaos run:",
        f"  max |sigma - serial|            {err:.3e}",
    ]
    for name in sorted(counts):
        lines.append(f"  {name:32s}{counts[name]:g}")
    write_result(
        "BENCH_chaos",
        "\n".join(lines),
        rows=[
            ["idle service-hook overhead %", "< 2", round(100 * overhead, 3)],
            ["fuzz plans executed", len(seeds), report.executed],
            ["fuzz violations", 0, len(report.violations)],
            ["shrink iterations", "> 0", shrink_iters],
            ["composed-chaos recovery max |diff|", "< 1e-10", err],
        ],
        metrics={
            "fuzz": report.to_dict(),
            "shrink_iterations": shrink_iters,
            "faults_injected": injected,
            "faults_recovered": recovered,
        },
    )

    assert overhead < 0.02
    assert report.executed == len(seeds)
    assert report.violations == []
    assert shrink_iters > 0
    assert healthy_passes
    assert err < 1e-10
