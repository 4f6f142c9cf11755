"""Property-based fuzzing of the fault/recovery machinery.

The repo proves its reliability invariants *pointwise*: hand-written chaos
scenarios, each with a test.  This module turns them into *searched-for
counterexamples*: a seeded generator draws random :class:`FaultPlan`
schedules inside a budget grammar, executes each through one of two
harnesses, and checks the machine-verifiable invariants the pointwise tests
pin:

========  ====================================================================
harness   invariants
--------  --------------------------------------------------------------------
sigma     resilient ``ParallelSigma`` under any plan reproduces the serial
          sigma to 1e-10 (exact recovery implies no double accumulation);
          a fault-free plan is *bitwise* identical to the no-injector run;
          silent bit-flips are seeded-reproducible bit-for-bit
solver    a solve killed at a random iteration (and battered by injected
          checkpoint-I/O errors) resumes to the uninterrupted energy within
          1e-10; olsen/auto replay the exact energy sequence
========  ====================================================================

Everything is derived from one integer seed (virtual time makes even the
fault *schedules* machine-independent), so a failure is replayable with
``python -m repro.faults replay <seed>``.  On failure the case is **shrunk**
greedily - drop one death, zero one probability, simplify one knob at a
time, keeping the move only if the violation survives - down to a minimal
reproducer persisted as JSON next to its seed.
"""

from __future__ import annotations

import json
import logging
import os
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .injector import FaultInjector, FaultPlan
from .scenarios import SCENARIOS, ChaosConfig

__all__ = [
    "FuzzBudget",
    "FuzzCase",
    "FuzzReport",
    "FuzzRunner",
    "shrink",
]

logger = logging.getLogger(__name__)

# mutation hook for the harness-validation tests: setting this False runs
# the sigma lane with recovery disabled, a deliberately broken stack the
# fuzzer must catch (proof it can find real bugs, not just pass)
_RECOVERY_ENABLED = True

_TOL = 1e-10
_SOLVER_MAX_ATTEMPTS = 40

_PROB_FIELDS = ("drop_get", "drop_put", "delay_prob", "mutex_jitter", "corrupt", "io_error")
_HARNESSES = ("sigma", "solver")


@dataclass(frozen=True)
class FuzzBudget:
    """The grammar bounds: how hard a generated plan may push.

    Caps keep generated plans inside the envelope the stack *contracts* to
    survive (e.g. drop rates low enough that the DDI retry budget cannot
    be legitimately exhausted) - outside it, failure is expected and tells
    us nothing.
    """

    n_ranks: int = 4
    max_deaths: int = 2  # always leaves a survivor on 4 ranks
    max_drop: float = 0.12  # P(9 consecutive drops) ~ 5e-9 << one per batch
    max_delay_prob: float = 0.2
    max_corrupt: float = 0.2
    max_io_error: float = 0.4
    max_scenarios: int = 3
    min_retries: int = 8
    # harness mix: sigma cases are cheap, the rest are solver cases
    w_sigma: float = 0.75

    def clamp(self, plan: FaultPlan) -> FaultPlan:
        """Clamp a composed plan into the budget (deterministically)."""
        d = plan.to_dict()
        d["drop_get"] = min(d["drop_get"], self.max_drop)
        d["drop_put"] = min(d["drop_put"], self.max_drop)
        d["delay_prob"] = min(d["delay_prob"], self.max_delay_prob)
        d["corrupt"] = min(d["corrupt"], self.max_corrupt)
        d["io_error"] = min(d["io_error"], self.max_io_error)
        d["max_retries"] = max(d["max_retries"], self.min_retries)
        if len(d["deaths"]) > self.max_deaths:
            d["deaths"] = dict(sorted(d["deaths"].items())[: self.max_deaths])
        return FaultPlan.from_dict(d)


@dataclass
class FuzzCase:
    """One generated test case: a plan plus the knobs of its harness."""

    seed: int
    harness: str  # "sigma" | "solver"
    scenarios: tuple = ()
    plan: FaultPlan | None = None
    knobs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "harness": self.harness,
            "scenarios": list(self.scenarios),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "knobs": dict(self.knobs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        case = cls(
            seed=int(data["seed"]),
            harness=data["harness"],
            scenarios=tuple(data.get("scenarios", ())),
            plan=(
                FaultPlan.from_dict(data["plan"]) if data.get("plan") is not None else None
            ),
            knobs=dict(data.get("knobs", {})),
        )
        if case.harness not in _HARNESSES:
            raise ValueError(
                f"a fuzz case runs one of {', '.join(_HARNESSES)}; "
                f"got harness {case.harness!r}"
            )
        if case.harness == "sigma" and case.plan is None:
            raise ValueError("a sigma case needs a 'plan'")
        if case.harness == "solver":
            method = case.knobs.get("method", "auto")
            if method not in SolverHarness._METHODS:
                raise ValueError(
                    f"a solver case runs one of {', '.join(SolverHarness._METHODS)}; "
                    f"got method {method!r}"
                )
        return case


@dataclass
class FuzzReport:
    """Outcome of one fuzz batch."""

    executed: int = 0
    by_harness: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)  # one dict per broken seed
    fault_counters: dict = field(default_factory=dict)
    shrink_iterations: int = 0
    elapsed_s: float = 0.0
    seeds: list = field(default_factory=list)
    truncated: bool = False  # time budget cut the batch short

    def to_dict(self) -> dict:
        return {
            "executed": self.executed,
            "by_harness": dict(self.by_harness),
            "violations": list(self.violations),
            "fault_counters": dict(self.fault_counters),
            "shrink_iterations": self.shrink_iterations,
            "elapsed_s": self.elapsed_s,
            "seeds": [self.seeds[0], self.seeds[-1]] if self.seeds else [],
            "truncated": self.truncated,
        }


# -- harnesses ----------------------------------------------------------------


def _random_problem(n: int = 6, n_alpha: int = 3, n_beta: int = 3):
    """The chaos workload: a seeded random CI problem (diag-dominant h)."""
    from ..core import CIProblem
    from ..scf.mo import MOIntegrals

    rng = np.random.default_rng(42)
    h = rng.standard_normal((n, n))
    h = 0.5 * (h + h.T) + np.diag(np.linspace(-3, 2, n)) * 2
    g = rng.standard_normal((n, n, n, n))
    g = g + g.transpose(1, 0, 2, 3)
    g = g + g.transpose(0, 1, 3, 2)
    g = g + g.transpose(2, 3, 0, 1)
    return CIProblem(MOIntegrals(h=h, g=g, e_core=0.0, n_orbitals=n), n_alpha, n_beta)


class SigmaHarness:
    """Runs a FaultPlan through the resilient simulated parallel sigma."""

    def __init__(self, n_ranks: int = 4):
        from ..core import sigma_dgemm
        from ..parallel import ParallelSigma
        from ..x1 import X1Config

        self._ParallelSigma = ParallelSigma
        self.config = X1Config(n_msps=n_ranks)
        self.problem = _random_problem()
        self.C = self.problem.random_vector(0)
        self.ref = sigma_dgemm(self.problem, self.C)
        probe = ParallelSigma(self.problem, self.config, resilient=True)
        self.baseline = probe(self.C)  # fault-free resilient run (bitwise ref)
        self.horizon = probe.report.elapsed  # deterministic virtual seconds

    def _run(self, injector: FaultInjector, tracer=None) -> np.ndarray:
        resilient = None if _RECOVERY_ENABLED else False
        op = self._ParallelSigma(
            self.problem, self.config, faults=injector, resilient=resilient, tracer=tracer
        )
        # bit-flipped payloads legitimately overflow inside the DGEMMs; the
        # invariants below judge the output, not the arithmetic en route
        with np.errstate(over="ignore", invalid="ignore"):
            return op(self.C)

    def execute(self, plan: FaultPlan, tracer=None):
        """Run ``plan`` once and judge it: ``(sigma, injector, failure)`` with
        ``failure`` None or the broken ``(invariant, detail)`` (``sigma`` is
        None when the run itself raised)."""
        fi = FaultInjector(plan)
        try:
            out = self._run(fi, tracer)
        except Exception as exc:
            return None, fi, ("no_crash", f"{type(exc).__name__}: {exc}")
        return out, fi, self._judge(plan, out)

    def _judge(self, plan: FaultPlan, out: np.ndarray) -> tuple[str, str] | None:
        if plan.corrupt and plan.corrupt_mode == "bitflip":
            # silent bit-flips: the contract is seeded reproducibility
            out2 = self._run(FaultInjector(plan))
            if not np.array_equal(out, out2):
                return ("bitflip_reproducible", "two runs of one seed differ bitwise")
            return None
        if not plan.any_faults():
            if not np.array_equal(out, self.baseline):
                return (
                    "bitwise_faultfree",
                    "idle injector perturbed the fault-free sigma",
                )
            return None
        err = float(np.max(np.abs(out - self.ref)))
        if not err < _TOL:
            return ("exact_recovery", f"max|sigma - serial| = {err:.3e}")
        return None

    def run(self, case: FuzzCase) -> tuple[str, str] | None:
        """None, or ``(invariant, detail)`` for the broken invariant."""
        return self.execute(case.plan)[2]


class _Killed(Exception):
    """Deterministic mid-solve kill (the fuzzer's process-death stand-in)."""


class SolverHarness:
    """Kills and resumes checkpointed solves; asserts exact replay.

    Beyond the in-RAM methods, the lane covers the storage layer:
    ``davidson-mmap`` runs Davidson with its held subspace in an
    out-of-core :class:`~repro.core.vectors.MmapStore`, killed the same
    way, via sigma-call counting.
    """

    _METHODS = ("olsen", "auto", "davidson", "davidson-mmap")

    def __init__(self):
        from ..core import ModelSpacePreconditioner

        self.problem = _random_problem()
        self.precond = ModelSpacePreconditioner(self.problem, 50)
        self.guess = self.precond.ground_state_guess()
        self._refs: dict = {}

    def _sigma(self, C):
        from ..core import sigma_dgemm

        return sigma_dgemm(self.problem, C)

    def _solve(self, method: str, sigma, **options):
        from ..core import auto_adjusted_solve, davidson_solve, olsen_solve

        if method == "olsen":
            options.update(step=0.7, max_iterations=250)
            solve = olsen_solve
        else:
            solve = auto_adjusted_solve if method == "auto" else davidson_solve
        return solve(sigma, self.guess, self.precond, **options)

    def reference(self, method: str):
        if method not in self._refs:
            res = self._solve(method, self._sigma)
            assert res.converged
            self._refs[method] = res
        return self._refs[method]

    def run(self, case: FuzzCase) -> tuple[str, str] | None:
        from ..core import Checkpointer
        from ..core.vectors import MmapStore

        method = case.knobs.get("method", "auto")
        ref = self.reference(method)
        kill_frac = case.knobs.get("kill_frac")
        kill_at = (
            max(2, int(ref.n_iterations * kill_frac)) if kill_frac is not None else None
        )
        plan = case.plan if case.plan is not None else FaultPlan()
        fi = FaultInjector(plan) if plan.io_error else None

        with tempfile.TemporaryDirectory(prefix="chaos-solver-") as d:
            ckpt = Checkpointer(os.path.join(d, "solve.npz"), faults=fi)
            result = None
            attempts = 0
            while attempts < _SOLVER_MAX_ATTEMPTS:
                attempts += 1
                this_kill = kill_at if attempts == 1 else None
                if this_kill is not None:
                    calls = [0]

                    def sig(C, _calls=calls, _kill=this_kill):
                        _calls[0] += 1
                        if _calls[0] > _kill:
                            raise _Killed
                        return self._sigma(C)

                else:
                    sig = self._sigma
                store = (
                    MmapStore(self.problem.shape, directory=d)
                    if method == "davidson-mmap"
                    else None
                )
                try:
                    result = self._solve(method, sig, checkpoint=ckpt, store=store)
                    break
                except (_Killed, OSError):
                    continue  # injected death or checkpoint I/O crash: retry
                except Exception as exc:
                    return ("no_crash", f"{type(exc).__name__}: {exc}")
                finally:
                    if store is not None:
                        store.close()

        if result is None:
            return (
                "solver_resume_energy",
                f"{method} did not survive {_SOLVER_MAX_ATTEMPTS} chaos restarts",
            )
        if not result.converged:
            return ("solver_resume_energy", f"{method} resumed but failed to converge")
        err = abs(result.energy - ref.energy)
        if not err < _TOL:
            return ("solver_resume_energy", f"|E - E_ref| = {err:.3e} for {method}")
        if method in ("olsen", "auto") and list(result.energies) != list(ref.energies):
            # the single-vector methods replay their exact iteration
            # sequence from any checkpoint; davidson restarts from a
            # collapsed subspace (a few extra iterations are its contract),
            # so only the energy invariant above applies to it
            return (
                "solver_replay",
                f"{method} resumed energy sequence differs from uninterrupted run",
            )
        return None


# -- generation ---------------------------------------------------------------


def generate_case(seed: int, budget: FuzzBudget, env: ChaosConfig) -> FuzzCase:
    """The case for one seed - a pure function of (seed, budget, env)."""
    rng = random.Random(seed)
    if rng.random() < budget.w_sigma:
        pool = SCENARIOS.names()
        names = tuple(rng.sample(pool, 1 + rng.randrange(budget.max_scenarios)))
        plan = budget.clamp(replace(env, scenarios=list(names), seed=seed).build_plan())
        return FuzzCase(seed=seed, harness="sigma", scenarios=names, plan=plan)
    method = rng.choice(SolverHarness._METHODS)
    kill_frac = round(rng.uniform(0.2, 0.9), 3) if rng.random() < 0.7 else None
    # every save failure kills the attempt, so survival over an
    # ~25-iteration solve goes like (1-p)^25: keep p where finishing
    # within the retry budget is near-certain, not a coin flip
    io_error = rng.choice((0.0, 0.02, 0.05))
    return FuzzCase(
        seed=seed,
        harness="solver",
        scenarios=("checkpointed_solve",),
        plan=FaultPlan(seed=seed, io_error=io_error),
        knobs={"method": method, "kill_frac": kill_frac},
    )


# -- shrinking ----------------------------------------------------------------


def _shrink_moves(case: FuzzCase):
    """Yield candidate cases, each one component simpler than ``case``."""
    if case.plan is not None:
        d = case.plan.to_dict()
        for rank in list(d["deaths"]):
            nd = dict(d, deaths={r: t for r, t in d["deaths"].items() if r != rank})
            yield _with_plan(case, nd)
        for i in range(len(d["stalls"])):
            nd = dict(d, stalls=d["stalls"][:i] + d["stalls"][i + 1 :])
            yield _with_plan(case, nd)
        for name in _PROB_FIELDS:
            if d[name]:
                yield _with_plan(case, dict(d, **{name: 0.0}))
    if case.knobs.get("kill_frac") is not None:
        nc = FuzzCase.from_dict(case.to_dict())
        nc.knobs["kill_frac"] = None
        yield nc


def _with_plan(case: FuzzCase, plan_dict: dict) -> FuzzCase:
    nc = FuzzCase.from_dict(case.to_dict())
    nc.plan = FaultPlan.from_dict(plan_dict)
    return nc


def shrink(case: FuzzCase, run_fn, max_iterations: int = 200) -> tuple[FuzzCase, int]:
    """Greedy delta-debugging: keep any single simplification that still
    violates *some* invariant; stop at a fixpoint (a 1-minimal case).

    ``run_fn(case)`` returns None or ``(invariant, detail)``.  Returns the
    shrunk case and the number of candidate executions spent.
    """
    iterations = 0
    current = case
    progress = True
    while progress and iterations < max_iterations:
        progress = False
        for candidate in _shrink_moves(current):
            iterations += 1
            if iterations > max_iterations:
                break
            if run_fn(candidate) is not None:
                current = candidate
                progress = True
                break
    return current, iterations


# -- the batch runner ---------------------------------------------------------


class FuzzRunner:
    """Generates, executes, shrinks, and reports on seeded fuzz cases."""

    def __init__(self, budget: FuzzBudget | None = None):
        self.budget = budget if budget is not None else FuzzBudget()
        self._sigma: SigmaHarness | None = None
        self._solver: SolverHarness | None = None
        self._env: ChaosConfig | None = None

    @property
    def sigma(self) -> SigmaHarness:
        if self._sigma is None:
            self._sigma = SigmaHarness(n_ranks=self.budget.n_ranks)
        return self._sigma

    @property
    def env(self) -> ChaosConfig:
        """The generation environment (probed once; virtual time, so stable)."""
        if self._env is None:
            self._env = ChaosConfig(horizon=self.sigma.horizon, n_ranks=self.budget.n_ranks)
        return self._env

    def case_for_seed(self, seed: int) -> FuzzCase:
        return generate_case(seed, self.budget, self.env)

    def run_case(self, case: FuzzCase) -> tuple[str, str] | None:
        """Execute one case; None or the ``(invariant, detail)`` it broke."""
        if case.harness == "sigma":
            return self.sigma.run(case)
        if self._solver is None:
            self._solver = SolverHarness()
        return self._solver.run(case)

    def fuzz(
        self,
        seeds,
        *,
        time_budget: float | None = None,
        reproducer_dir=None,
        do_shrink: bool = True,
    ) -> FuzzReport:
        """Run a batch of seeds; shrink and persist every violation."""
        report = FuzzReport()
        t0 = time.monotonic()
        counters: Counter = Counter()
        for seed in seeds:
            if time_budget is not None and time.monotonic() - t0 > time_budget:
                report.truncated = True
                logger.warning(
                    "fuzz time budget (%.0fs) exhausted after %d cases; "
                    "remaining seeds dropped",
                    time_budget,
                    report.executed,
                )
                break
            case = self.case_for_seed(seed)
            failure = self.run_case(case)
            report.executed += 1
            report.seeds.append(seed)
            report.by_harness[case.harness] = report.by_harness.get(case.harness, 0) + 1
            self._collect_counters(case, counters)
            if failure is None:
                continue
            invariant, detail = failure
            logger.error(
                "seed %d broke %s (%s); shrinking...", seed, invariant, detail
            )
            shrunk, iters = (
                shrink(case, self.run_case) if do_shrink else (case, 0)
            )
            report.shrink_iterations += iters
            payload = {
                "seed": seed,
                "harness": case.harness,
                "invariant": invariant,
                "detail": detail,
                "case": case.to_dict(),
                "shrunk": shrunk.to_dict(),
                "shrink_iterations": iters,
            }
            report.violations.append(payload)
            if reproducer_dir is not None:
                os.makedirs(reproducer_dir, exist_ok=True)
                path = os.path.join(reproducer_dir, f"seed{seed}.json")
                with open(path, "w") as f:
                    json.dump(payload, f, indent=2, sort_keys=True)
                logger.error("minimal reproducer written to %s", path)
        report.fault_counters = dict(counters)
        report.elapsed_s = time.monotonic() - t0
        return report

    def _collect_counters(self, case: FuzzCase, counters: Counter) -> None:
        """Tally a case's plan shape for the batch report: deaths, stall
        windows, and how many plans switch each fault kind on (the per-op
        draws happen inside the harness and are not re-run)."""
        plan = case.plan
        if plan is None:
            return
        counters["deaths"] += len(plan.deaths)
        counters["stall_windows"] += len(plan.stalls)
        for name in _PROB_FIELDS:
            if getattr(plan, name):
                counters[f"plans_with.{name}"] += 1
