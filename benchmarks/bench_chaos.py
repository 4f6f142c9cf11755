"""Chaos-engineering benchmark: fuzz throughput and shrink cost.

Three claims, extending the robustness benchmark:

* a seeded fuzz batch executes a meaningful plan mix through the sigma /
  solver harnesses with zero invariant violations,
* the mutation-catch proof: with recovery deliberately disabled the fuzzer
  finds a violating plan and shrinks it to a 1-minimal reproducer in a
  bounded number of iterations,
* a composed multi-scenario chaos run (deaths + stalls + flaky network)
  still recovers the serial sigma exactly, with the injected/recovered
  ledger attached as evidence.
"""

import numpy as np

from repro.core import sigma_dgemm
from repro.faults import ChaosConfig, FaultInjector
from repro.faults import fuzz as fuzz_mod
from repro.faults.fuzz import FuzzBudget, FuzzRunner, shrink
from repro.parallel import ParallelSigma
from repro.x1 import X1Config

from conftest import write_result


def test_chaos_fuzz_and_shrink():
    # --- seeded fuzz batch: the CI invariants at benchmark scale -------------
    runner = FuzzRunner(FuzzBudget())
    seeds = list(range(60))
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
        "Chaos: fuzz batch and shrink cost",
        "-" * 62,
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

    assert report.executed == len(seeds)
    assert report.violations == []
    assert shrink_iters > 0
    assert healthy_passes
    assert err < 1e-10
