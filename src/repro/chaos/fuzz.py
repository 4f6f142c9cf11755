"""Property-based fuzzing of the fault/recovery machinery.

The repo proves its reliability invariants *pointwise*: hand-written chaos
scenarios, each with a test.  This module turns them into *searched-for
counterexamples*: a seeded generator draws random :class:`FaultPlan` /
:class:`ServiceFaultPlan` schedules inside a budget grammar, executes each
through one of three harnesses, and checks the machine-verifiable
invariants the pointwise tests pin:

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
service   a chaotic :class:`FCIService` (worker deaths, torn journals,
          result rot, telemetry blackouts) still lands every submitted job
          on the fault-free energy after reap/resume and a restart; journal
          recovery re-adopts every readable ACTIVE job; the artifact cache
          never serves a CRC-invalid result
========  ====================================================================

Everything is derived from one integer seed (virtual time makes even the
fault *schedules* machine-independent), so a failure is replayable with
``python -m repro.chaos replay <seed>``.  On failure the case is **shrunk**
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
from dataclasses import dataclass, field

import numpy as np

from ..faults import FaultInjector, FaultPlan, ServiceFaultInjector, ServiceFaultPlan
from .plans import (
    ChaosEnv,
    build_fault_plan,
    build_service_plan,
    chaos_scenario_names,
    service_scenario_names,
)

__all__ = [
    "FuzzBudget",
    "FuzzCase",
    "Violation",
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
_SERVICE_PROB_FIELDS = (
    "worker_crash",
    "checkpoint_io_error",
    "result_corrupt",
    "journal_torn_write",
    "telemetry_io_error",
)


@dataclass(frozen=True)
class FuzzBudget:
    """The grammar bounds: how hard a generated plan may push.

    Caps keep generated plans inside the envelope the stack *contracts* to
    survive (e.g. drop rates low enough that the DDI retry budget cannot
    be legitimately exhausted) - outside it, failure is expected and tells
    us nothing.
    """

    n_ranks: int = 4
    n_spans: int = 8
    max_deaths: int = 2  # always leaves a survivor on 4 ranks
    max_drop: float = 0.12  # P(9 consecutive drops) ~ 5e-9 << one per batch
    max_delay_prob: float = 0.2
    max_corrupt: float = 0.2
    max_io_error: float = 0.4
    max_scenarios: int = 3
    min_retries: int = 8
    # harness mix (sigma is cheap, service is seconds per case)
    w_sigma: float = 0.75
    w_solver: float = 0.15
    service_max_jobs: int = 3

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
    harness: str  # "sigma" | "solver" | "service"
    scenarios: tuple = ()
    plan: FaultPlan | None = None
    service_plan: ServiceFaultPlan | None = None
    knobs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "harness": self.harness,
            "scenarios": list(self.scenarios),
            "plan": self.plan.to_dict() if self.plan is not None else None,
            "service_plan": (
                self.service_plan.to_dict() if self.service_plan is not None else None
            ),
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
            service_plan=(
                ServiceFaultPlan.from_dict(data["service_plan"])
                if data.get("service_plan") is not None
                else None
            ),
            knobs=dict(data.get("knobs", {})),
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
class Violation:
    """A broken invariant, with enough context to replay and shrink it."""

    seed: int
    harness: str
    invariant: str
    detail: str
    case: dict  # FuzzCase.to_dict() of the case that broke it

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "harness": self.harness,
            "invariant": self.invariant,
            "detail": self.detail,
            "case": self.case,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz batch."""

    executed: int = 0
    by_harness: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)  # Violation dicts (shrunk)
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

    _METHODS = {
        "olsen": dict(step=0.7, max_iterations=250),
        "auto": {},
        "davidson": {},
        "davidson-mmap": {},
    }

    def __init__(self):
        from ..core import (
            ModelSpacePreconditioner,
            auto_adjusted_solve,
            davidson_solve,
            olsen_solve,
        )

        self._solvers = {
            "olsen": olsen_solve,
            "auto": auto_adjusted_solve,
            "davidson": davidson_solve,
            "davidson-mmap": davidson_solve,
        }
        self.problem = _random_problem()
        self.precond = ModelSpacePreconditioner(self.problem, 50)
        self.guess = self.precond.ground_state_guess()
        self._refs: dict = {}

    def _sigma(self, C):
        from ..core import sigma_dgemm

        return sigma_dgemm(self.problem, C)

    def reference(self, method: str):
        if method not in self._refs:
            res = self._solvers[method](
                self._sigma, self.guess, self.precond, **self._METHODS[method]
            )
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
                    result = self._solvers[method](
                        sig,
                        self.guess,
                        self.precond,
                        checkpoint=ckpt,
                        store=store,
                        **self._METHODS[method],
                    )
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


class ServiceHarness:
    """Drives the full FCIService stack under service-layer chaos.

    Phase 1 submits a family of jobs into a service wired with the case's
    :class:`ServiceFaultInjector`, reaping/resuming through a few chaos
    rounds, then shuts down (preempting, so checkpoints are durable).
    Phase 2 restarts a *clean* service on the same workdir and requires:
    every readable journal is re-adopted (ACTIVE ones as PREEMPTED), torn
    journals are skipped+counted (never a startup crash), every job can be
    driven to the fault-free reference energy, and the artifact cache
    serves either a CRC-valid result or a miss - never garbage.
    """

    _METHODS = ("auto", "davidson", "olsen")

    def __init__(self):
        from ..core.solver import FCISolver
        from ..molecule.geometry import Molecule

        self.molecule = Molecule.from_atoms(
            [("H", (0, 0, 0)), ("H", (0, 0, 1.4))], name="H2"
        )
        self._refs: dict = {}
        self._FCISolver = FCISolver

    def reference(self, method: str) -> float:
        if method not in self._refs:
            self._refs[method] = self._FCISolver(
                self.molecule, "sto-3g", method=method
            ).run().energy
        return self._refs[method]

    def run(self, case: FuzzCase) -> tuple[str, str] | None:
        from ..service import FCIService, JobState, JobSpec

        knobs = case.knobs
        n_jobs = max(1, min(int(knobs.get("n_jobs", 1)), len(self._METHODS)))
        methods = self._METHODS[:n_jobs]
        specs = {
            m: JobSpec.from_molecule(self.molecule, "sto-3g", method=m) for m in methods
        }
        sfi = ServiceFaultInjector(case.service_plan or ServiceFaultPlan())

        with tempfile.TemporaryDirectory(prefix="chaos-service-") as workdir:
            # -- phase 1: chaos ------------------------------------------------
            svc = FCIService(
                workdir,
                max_workers=int(knobs.get("n_workers", 1)),
                service_faults=sfi,
            )
            try:
                keys = {}
                for i, m in enumerate(methods):
                    rec = svc.submit(
                        specs[m],
                        preempt_after=(
                            2 if (i == 0 and knobs.get("preempt_first")) else None
                        ),
                    )
                    keys[m] = rec.key
                if knobs.get("cancel_one") and len(methods) > 1:
                    svc.cancel(keys[methods[1]])  # may land queued, running, or late
                for _ in range(int(knobs.get("chaos_rounds", 2))):
                    for m in methods:
                        try:
                            svc.wait(keys[m], timeout=2.0)
                        except TimeoutError:
                            pass
                    svc.reap()  # recover any jobs abandoned by crashed workers
                    for m in methods:
                        if svc.get(keys[m]).state in JobState.RESUMABLE:
                            svc.resume(keys[m])
            except Exception as exc:
                return ("no_crash", f"phase1 {type(exc).__name__}: {exc}")
            finally:
                svc.stop(preempt=True)

            # -- journal ground truth -----------------------------------------
            readable, torn = {}, 0
            for name in os.listdir(svc.jobs_dir):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(svc.jobs_dir, name)) as f:
                        data = json.load(f)
                    readable[data["key"]] = data["state"]
                except Exception:
                    torn += 1

            # -- phase 2: clean restart ---------------------------------------
            try:
                svc2 = FCIService(workdir, max_workers=2)
            except Exception as exc:
                return ("journal_recovery", f"restart crashed: {type(exc).__name__}: {exc}")
            try:
                if svc2.recovery["skipped_journals"] != torn:
                    return (
                        "journal_recovery",
                        f"skipped {svc2.recovery['skipped_journals']} journals, "
                        f"expected {torn} torn",
                    )
                active = [k for k, s in readable.items() if s in JobState.ACTIVE]
                for k in readable:
                    try:
                        rec = svc2.get(k)
                    except KeyError:
                        return ("journal_recovery", f"readable journal {k[:12]} not adopted")
                    if k in active and rec.state != JobState.PREEMPTED:
                        return (
                            "journal_recovery",
                            f"ACTIVE job {k[:12]} re-adopted as {rec.state}, "
                            "expected preempted",
                        )
                if svc2.recovery["readopted"] != len(active):
                    return (
                        "journal_recovery",
                        f"readopted {svc2.recovery['readopted']} != {len(active)} ACTIVE",
                    )

                # cache must serve CRC-valid results or nothing
                for m in methods:
                    cached = svc2.cache.get_result(keys[m])
                    if cached is not None:
                        err = abs(cached[0]["energy"] - self.reference(m))
                        if not err < _TOL:
                            return ("cache_crc", f"cached energy off by {err:.3e}")

                # every job must still be drivable to the reference energy
                for m in methods:
                    k = keys[m]
                    try:
                        rec = svc2._records.get(k)
                        if rec is None:  # journal torn: resubmit the same spec
                            rec = svc2.submit(specs[m])
                        elif rec.state != JobState.COMPLETED:
                            svc2.resume(k)
                        energy = svc2.result(k, timeout=120)["energy"]
                    except Exception as exc:
                        return (
                            "service_energy",
                            f"driving {m} to completion failed: "
                            f"{type(exc).__name__}: {exc}",
                        )
                    err = abs(energy - self.reference(m))
                    if not err < _TOL:
                        return ("service_energy", f"|E - E_ref| = {err:.3e} for {m}")
            finally:
                svc2.stop(preempt=True)
        return None


# -- generation ---------------------------------------------------------------


def generate_case(seed: int, budget: FuzzBudget, env: ChaosEnv) -> FuzzCase:
    """The case for one seed - a pure function of (seed, budget, env)."""
    rng = random.Random(seed)
    r = rng.random()
    if r < budget.w_sigma:
        pool = chaos_scenario_names()
        names = tuple(rng.sample(pool, 1 + rng.randrange(budget.max_scenarios)))
        plan = budget.clamp(build_fault_plan(names, env, seed))
        return FuzzCase(seed=seed, harness="sigma", scenarios=names, plan=plan)
    if r < budget.w_sigma + budget.w_solver:
        method = rng.choice(tuple(SolverHarness._METHODS))
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
    pool = service_scenario_names()
    names = tuple(rng.sample(pool, 1 + rng.randrange(2)))
    return FuzzCase(
        seed=seed,
        harness="service",
        scenarios=names,
        service_plan=build_service_plan(names, env, seed),
        knobs={
            "n_jobs": 1 + rng.randrange(budget.service_max_jobs),
            "n_workers": rng.choice((1, 2)),
            "chaos_rounds": 1 + rng.randrange(2),
            "preempt_first": rng.random() < 0.5,
            "cancel_one": rng.random() < 0.3,
        },
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
    if case.service_plan is not None:
        sd = case.service_plan.to_dict()
        for name in _SERVICE_PROB_FIELDS:
            if sd[name]:
                nc = FuzzCase.from_dict(case.to_dict())
                nc.service_plan = ServiceFaultPlan.from_dict(dict(sd, **{name: 0.0}))
                yield nc
    simpler_knobs = {
        "kill_frac": None,
        "n_jobs": 1,
        "n_workers": 1,
        "chaos_rounds": 1,
        "preempt_first": False,
        "cancel_one": False,
    }
    for name, simple in simpler_knobs.items():
        if name in case.knobs and case.knobs[name] != simple:
            nc = FuzzCase.from_dict(case.to_dict())
            nc.knobs[name] = simple
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
        self._service: ServiceHarness | None = None
        self._env: ChaosEnv | None = None

    @property
    def sigma(self) -> SigmaHarness:
        if self._sigma is None:
            self._sigma = SigmaHarness(n_ranks=self.budget.n_ranks)
        return self._sigma

    @property
    def env(self) -> ChaosEnv:
        """The generation environment (probed once; virtual time, so stable)."""
        if self._env is None:
            self._env = ChaosEnv(
                n_ranks=self.budget.n_ranks,
                horizon=self.sigma.horizon,
                n_spans=self.budget.n_spans,
            )
        return self._env

    def case_for_seed(self, seed: int) -> FuzzCase:
        return generate_case(seed, self.budget, self.env)

    def run_case(self, case: FuzzCase) -> tuple[str, str] | None:
        """Execute one case; None or the ``(invariant, detail)`` it broke."""
        if case.harness == "sigma":
            return self.sigma.run(case)
        if case.harness == "solver":
            if self._solver is None:
                self._solver = SolverHarness()
            return self._solver.run(case)
        if case.harness == "service":
            if self._service is None:
                self._service = ServiceHarness()
            return self._service.run(case)
        return ("no_crash", f"unknown harness {case.harness!r}")

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
        counters: dict[str, float] = {}
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
            violation = Violation(
                seed=seed,
                harness=case.harness,
                invariant=invariant,
                detail=detail,
                case=case.to_dict(),
            )
            payload = violation.to_dict()
            payload["shrunk"] = shrunk.to_dict()
            payload["shrink_iterations"] = iters
            report.violations.append(payload)
            if reproducer_dir is not None:
                os.makedirs(reproducer_dir, exist_ok=True)
                path = os.path.join(reproducer_dir, f"seed{seed}.json")
                with open(path, "w") as f:
                    json.dump(payload, f, indent=2, sort_keys=True)
                logger.error("minimal reproducer written to %s", path)
        report.fault_counters = counters
        report.elapsed_s = time.monotonic() - t0
        return report

    def _collect_counters(self, case: FuzzCase, counters: dict) -> None:
        """Re-derive a case's injected-fault ledger for the batch report.

        Sigma runs consume their injector inside the harness, so the cheap,
        exact way to aggregate is to count one representative re-run; to
        keep the batch fast we only aggregate the *plan's* static shape
        (deaths, stall windows) plus the per-kind booleans, not per-op
        draws.
        """
        plan = case.plan
        if plan is not None:
            counters["deaths"] = counters.get("deaths", 0) + len(plan.deaths)
            counters["stall_windows"] = counters.get("stall_windows", 0) + len(plan.stalls)
            for name in _PROB_FIELDS:
                if getattr(plan, name):
                    counters[f"plans_with.{name}"] = (
                        counters.get(f"plans_with.{name}", 0) + 1
                    )
        if case.service_plan is not None:
            for name in _SERVICE_PROB_FIELDS:
                if getattr(case.service_plan, name):
                    counters[f"plans_with.{name}"] = (
                        counters.get(f"plans_with.{name}", 0) + 1
                    )
