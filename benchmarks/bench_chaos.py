"""Chaos-engineering benchmark: fuzz throughput, shrink cost, hook overhead.

Four claims, extending the robustness benchmark one layer up the stack:

* the *service-layer* fault hooks (worker-crash, telemetry, result-rot,
  torn-journal consultations) cost < 2% wall-clock on a warm service solve
  when the injector is idle - chaos-readiness is free in production.  The
  hooks' own calls are timed inside the solve they run in, so the figure
  is a share of one run, not the difference of two runs' noisy totals;
  a planted 5% hook slowdown must read above the budget in the same run,
  so the gate is shown able to fail,
* a seeded fuzz batch executes a meaningful plan mix through the sigma /
  solver / service harnesses with zero invariant violations,
* the mutation-catch proof: with recovery deliberately disabled the fuzzer
  finds a violating plan and shrinks it to a 1-minimal reproducer in a
  bounded number of iterations,
* a composed multi-scenario chaos run (deaths + stalls + flaky network)
  still recovers the serial sigma exactly, with the injected/recovered
  ledger attached as evidence.
"""

import statistics
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


class _TimedIdleInjector(ServiceFaultInjector):
    """An idle service injector that sums the wall time spent inside its
    own hook calls (``seconds``, over ``calls`` calls).

    ``spin`` plants a slowdown: every hook call busy-waits that long.
    """

    def __init__(self, spin: float = 0.0):
        super().__init__(ServiceFaultPlan())
        self.spin = spin
        self.seconds = 0.0
        self.calls = 0


def _timed_hook(name):
    hook = getattr(ServiceFaultInjector, name)

    def timed(self, *args):
        t0 = time.perf_counter()
        try:
            return hook(self, *args)
        finally:
            while time.perf_counter() - t0 < self.spin:
                pass
            self.seconds += time.perf_counter() - t0
            self.calls += 1

    return timed


for _name in (
    "worker_crashes",
    "io_fails",
    "telemetry_write_fails",
    "corrupt_result",
    "torn_journal_write",
):
    setattr(_TimedIdleInjector, _name, _timed_hook(_name))


def _hook_share(batch, spin=0.0, k=5):
    """Median over ``k`` batches of (time inside the idle hooks) / (batch
    wall time), each ratio taken within one batch; plus the last batch's
    (hook calls, wall seconds)."""
    shares = []
    for _ in range(k):
        hooks = _TimedIdleInjector(spin)
        t0 = time.perf_counter()
        batch(service_faults=hooks)
        wall = time.perf_counter() - t0
        shares.append(hooks.seconds / wall)
    return statistics.median(shares), hooks.calls, wall


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
    record = JobRecord(key=spec.job_key, spec=spec)

    def _batch(**kw):
        for _ in range(4):
            executor.execute(record, **kw)

    _batch()  # warm the workspace + sigma plan
    overhead, n_calls, t_idle = _hook_share(_batch)
    # the same statistic with every hook call made slower by 5% of the
    # batch's wall time, spread over its calls: it must read over budget
    planted, _, _ = _hook_share(_batch, spin=0.05 * t_idle / max(n_calls, 1))

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
        "warm water service solve (4-solve batches, median of 5):",
        f"  idle injector batch wall-clock  {t_idle:8.3f} s",
        f"  idle hook calls per batch       {n_calls}",
        f"  time inside idle hooks          {100 * overhead:8.4f} %   (budget < 2%)",
        f"  same, planted 5% hook slowdown  {100 * planted:8.4f} %   (must be > 2%)",
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
            ["idle service-hook overhead %", "< 2", round(100 * overhead, 4)],
            ["planted 5% hook slowdown, read %", "> 2", round(100 * planted, 3)],
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
    assert planted > 0.02
    assert report.executed == len(seeds)
    assert report.violations == []
    assert shrink_iters > 0
    assert healthy_passes
    assert err < 1e-10
