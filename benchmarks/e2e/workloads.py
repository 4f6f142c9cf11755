"""The four workloads: what each sets up, repeats, checks and why.

Each makes a different part of the stack the blocking step, so that a
change to one layer moves the workload that exercises it and leaves the one
that bypasses it alone:

=====================  ==============================================
``sigma_cs12``         ``core.kernels`` alone, full size, closed shell
``sigma_shm2_os12``    the same sweeps split over two real processes
``solve_h2o_631g``     geometry -> energy with the one-vector solver
``solve_ooc_h2o_631g`` the same solve through Davidson + mmap + restart
=====================  ==============================================

All are closed loops with one client: the next operation starts when the
previous one has been checked.  Sizes are constructor arguments only so the
harness tests can run the same code on FCI(3+3,6)-sized inputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics

import numpy as np

import inputs
import layers
from harness import HERE, clock, metric, scratch_dir, timing

from repro.core import (
    CIProblem,
    DgemmKernel,
    DiagonalPreconditioner,
    FCISolver,
    HamiltonianOperator,
    SigmaPlan,
    build_dense_hamiltonian,
    davidson_solve,
)
from repro.parallel import ParallelSigma

with open(HERE / "pins.json") as _fh:
    PINS = json.load(_fh)

SIGMA_REL_TOL = 1e-9  # <v|sigma(v)> and |sigma| against their pins
ADJOINT_REL_TOL = 1e-10  # <X|H C> = <H X|C>
ORACLE_REL_TOL = 1e-10  # kernel against the dense Hamiltonian
ENERGY_TOL = 1e-8  # Eh, against the tight reference and the pin
RESTART_TOL = 1e-9  # Eh, restart energy against the first solve
# H2O/6-31G FCI(4+4,12) at the unstretched geometry; a 0.02 bohr stretch lowers
# the energy by 0.7e-3 Eh, an excited state lies far above
UNSTRETCHED_ENERGY = -76.1199080366
STRETCH_WINDOW = 5e-3


class Workload:
    """One set of inputs and the operation repeated on it."""

    name = ""
    why = ""
    has_children = False  # worker processes whose peak RSS counts
    not_on_path: tuple[str, ...] = ()  # per-layer prefixes this workload never enters

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.setup_failures: list[str] = []
        self.setup_checks = 0

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` acquired; safe to call twice."""

    def targets(self):
        return layers.targets()

    def layer_metrics(self, tracer, setup_span, roots, direct_s) -> tuple[dict, list, list]:
        """``(metrics, skipped lanes, failures)`` of a traced run.

        ``direct_s`` is the median untraced operation of the same process.
        """
        raise NotImplementedError

    def _span(self, name: str, layer: str = "harness"):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)

    def _pins(self, is_default_size: bool) -> dict:
        if not is_default_size:
            return {}
        return PINS.get(self.name, {}).get(str(self.seed), {})

    def _setup_check(self, ok: bool, message: str) -> None:
        self.setup_checks += 1
        if not ok:
            self.setup_failures.append(message)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _sigma_stats(v, sigma) -> dict:
    return {"vdot": float(np.vdot(v, sigma)), "norm": float(np.linalg.norm(sigma))}


def _against_pins(stats: dict, pins: dict | None, label: str) -> list[str]:
    return [
        f"{label}: {key} = {stats[key]!r}, pinned {pins[key]!r}"
        for key in (pins or {})
        if _relative(stats[key], pins[key]) > SIGMA_REL_TOL
    ]


def _common_lanes(tracer, problem, kernel, C, apply_samples, cold_apply_s, seed, failures,
                  skipped) -> dict:
    """The lanes every workload runs on its own problem."""
    out = layers.probe_lanes(kernel.plan, kernel.block_columns)
    out.update(layers.plan_lanes(problem))
    out.update(layers.kernel_lanes(
        kernel, C, apply_samples, cold_apply_s,
        out["probe.dgemm_shape_gflops"]["value"], failures))
    out.update(layers.operator_lane(tracer, problem, kernel, C))
    out.update(layers.storage_lanes(problem.shape, seed, failures))
    out.update(layers.optional_lanes(
        problem, C, out["core.kernels.apply_s"]["value"], skipped))
    return out


def _cold_kernel_apply(tracer, setup_span) -> float:
    """The slowest apply of set-up: the first one at full size in this process."""
    return max(s.duration for s in tracer.named("core.kernels.apply", setup_span))


# -- sigma, serial ----------------------------------------------------------------


class SigmaSerial(Workload):
    name = "sigma_cs12"
    why = ("serial DgemmKernel.apply on closed-shell FCI(6+6,12), 853,776 determinants: "
           "core.kernels is the whole wall, no solver, no transport")
    not_on_path = ("integrals.", "scf.", "core.solver.", "core.checkpoint.saves",
                   "parallel.", "service.", "obs.")

    def __init__(self, seed, space=(12, 6, 6), oracle_space=(6, 3, 3)):
        super().__init__(seed)
        self.space = space
        self.oracle_space = oracle_space
        self.pins = self._pins(space == (12, 6, 6))

    def _oracle(self) -> None:
        """The kernel against the dense Hamiltonian on a space small enough to build."""
        n, na, nb = self.oracle_space
        mo = inputs.random_integrals(n, self.seed)
        problem = CIProblem(mo, na, nb)
        (c,) = inputs.ci_vectors(problem.shape, self.seed, 1)
        dense = build_dense_hamiltonian(mo, problem.space_a, problem.space_b) @ c.ravel()
        sigma = DgemmKernel(SigmaPlan.for_problem(problem)).apply(c).ravel()
        err = np.abs(sigma - dense).max() / np.linalg.norm(dense)
        self._setup_check(
            err <= ORACLE_REL_TOL,
            f"FCI({na}+{nb},{n}) kernel differs from the dense Hamiltonian by {err:.2e}",
        )

    def setup(self) -> None:
        self._oracle()
        n, na, nb = self.space
        self.problem = CIProblem(inputs.random_integrals(n, self.seed), na, nb)
        self.kernel = DgemmKernel(SigmaPlan.for_problem(self.problem))
        self.vectors = inputs.ci_vectors(self.problem.shape, self.seed, 2)
        # the cold apply; X (vectors[1]) stays untouched until the first timed one
        self.sigmas = [self.kernel.apply(self.vectors[0]), None]
        self._setup_check(
            not _against_pins(_sigma_stats(self.vectors[0], self.sigmas[0]),
                              self.pins.get("C"), "C"),
            "cold sigma(C) does not match its pins",
        )
        self.calls = 0

    def operation(self):
        self.calls += 1
        which = self.calls % 2  # X, C, X, ...
        return which, self.kernel.apply(self.vectors[which])

    def check(self, result) -> list[str]:
        which, sigma = result
        label = "CX"[which]
        failed = _against_pins(_sigma_stats(self.vectors[which], sigma),
                               self.pins.get(label), label)
        if self.sigmas[which] is None:
            self.sigmas[which] = sigma
        elif not np.array_equal(sigma, self.sigmas[which]):
            failed.append(f"sigma({label}) changed between applies")
        if self.sigmas[0] is not None and self.sigmas[1] is not None:
            c, x = self.vectors
            lhs, rhs = np.vdot(x, self.sigmas[0]), np.vdot(self.sigmas[1], c)
            if abs(lhs - rhs) > ADJOINT_REL_TOL * np.linalg.norm(self.sigmas[0]):
                failed.append(f"<X|sigma(C)> = {lhs!r} but <sigma(X)|C> = {rhs!r}")
        return failed

    def layer_metrics(self, tracer, setup_span, roots, direct_s):
        failures, skipped = [], []
        out = _common_lanes(
            tracer, self.problem, self.kernel, self.vectors[0],
            layers.span_durations(tracer, roots, "core.kernels.apply"),
            _cold_kernel_apply(tracer, setup_span), self.seed, failures, skipped)
        return out, skipped, failures


# -- sigma, two processes ----------------------------------------------------------


class SigmaShm(Workload):
    name = "sigma_shm2_os12"
    why = ("ParallelSigma(shm, 2 workers) on open-shell FCI(6+5,12), 731,808 determinants: "
           "the only workload with spawn, dispatch, reduction and imbalance on the blocking path")
    has_children = True
    not_on_path = ("integrals.", "scf.", "core.solver.", "core.checkpoint.saves",
                   "service.", "obs.")

    def __init__(self, seed, space=(12, 6, 5), n_workers=2):
        super().__init__(seed)
        self.space = space
        self.n_workers = n_workers
        self.pins = self._pins(space == (12, 6, 5))
        self.pool = None

    def setup(self) -> None:
        n, na, nb = self.space
        self.problem = CIProblem(inputs.random_integrals(n, self.seed), na, nb)
        self.kernel = DgemmKernel(SigmaPlan.for_problem(self.problem))
        (self.c,) = inputs.ci_vectors(self.problem.shape, self.seed, 1)
        # the single-process baseline, and the bitwise reference of every call
        self.reference = self.kernel.apply(self.c)
        self._setup_check(
            not _against_pins(_sigma_stats(self.c, self.reference), self.pins.get("C"), "C"),
            "serial sigma(C) does not match its pins",
        )
        self.pool = ParallelSigma(self.problem, backend="shm", n_workers=self.n_workers)
        with self._span("parallel.shm.spawn", "parallel"):
            self.pool.backend.engine(self.pool.plan, self.pool.block_columns)
        with self._span("parallel.shm.cold_call"):
            cold = self.pool(self.c)
        self._setup_check(np.array_equal(cold, self.reference),
                          "cold parallel sigma differs from the serial kernel")

    def operation(self):
        return self.pool(self.c)

    def check(self, result) -> list[str]:
        if np.array_equal(result, self.reference):
            return []
        worst = np.abs(result - self.reference).max()
        return [f"parallel sigma differs from the serial kernel (max |diff| {worst:.3e})"]

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def layer_metrics(self, tracer, setup_span, roots, direct_s):
        failures, skipped = [], []
        serial = layers.timed(lambda: self.kernel.apply(self.c), 2)
        out = _common_lanes(
            tracer, self.problem, self.kernel, self.c, serial,
            _cold_kernel_apply(tracer, setup_span), self.seed, failures, skipped)
        serial_s = statistics.median(serial)
        out["parallel.serial_apply_s"] = timing(serial)

        w = self.n_workers
        calls = [r.duration for r in roots]
        apply_s = statistics.median(calls)
        runs = [tracer.named("parallel.shm.run_sigma", r)[0].info for r in roots]
        phase = {
            key: [max(rank.get(label, 0.0) for rank in run["ranks"]) for run in runs]
            for key, label in (("one_electron", "one-electron"), ("alpha_alpha", "alpha-alpha"),
                               ("beta_beta", "beta-beta"), ("alpha_beta", "alpha-beta"))
        }
        busy = [sum(sum(rank.values()) for rank in run["ranks"]) for run in runs]
        (spawn,) = tracer.named("parallel.shm.spawn", setup_span)
        out["parallel.shm.spawn_s"] = metric(spawn.duration, "s")
        out["parallel.shm.apply_s"] = timing(calls)
        out["parallel.shm.efficiency"] = metric(serial_s / (w * apply_s), "ratio")
        out["parallel.shm.overhead_s"] = metric(apply_s - serial_s / w, "s")
        out["parallel.shm.imbalance"] = timing([run["imbalance"] for run in runs])
        out["parallel.shm.bytes_moved"] = metric(int(runs[0]["bytes"]), "bytes")
        for key, samples in phase.items():
            out[f"parallel.shm.phase.{key}_s"] = timing(samples)
        out["parallel.shm.reduce_wait_s"] = timing(
            [w * call - b for call, b in zip(calls, busy)])

        # release the measured pool first: never more busy processes than CPUs
        self.close()
        _, one, _ = layers.pool_lane(self.problem, self.c, self.reference, "shm", 1, 2,
                                     failures)
        out["parallel.shm.w1_apply_s"] = timing(one)
        spawn_s, sock, wire = layers.pool_lane(self.problem, self.c, self.reference,
                                               "sockets", w, 3, failures)
        out["parallel.sockets.spawn_s"] = metric(spawn_s, "s")
        out["parallel.sockets.apply_s"] = timing(sock)
        out["parallel.sockets.vs_shm"] = metric(statistics.median(sock) / apply_s, "ratio")
        out["parallel.sockets.wire_bytes"] = metric(int(wire), "bytes")
        out.update(layers.sockets_verb_lanes())
        return out, skipped, failures


# -- solves -------------------------------------------------------------------------


class SolveWater(Workload):
    name = "solve_h2o_631g"
    why = ("H2O/6-31G from geometry to a converged FCI(4+4,12) energy with the paper's "
           "one-vector solver in RAM: the user's number, solver and per-call overheads visible")
    not_on_path = ("core.solver.restart", "core.checkpoint.saves", "parallel.")
    method = "auto"
    cold_iterations = 3  # the untimed cold solve stops here: every code path, a fifth of the cost

    def __init__(self, seed, basis="6-31g"):
        super().__init__(seed)
        self.basis = basis
        self.is_default_size = basis == "6-31g"
        self.pins = self._pins(self.is_default_size)
        self.reference_energy = None

    def _solver(self, **options) -> FCISolver:
        return FCISolver(self.mol, self.basis, frozen_core="auto", method=self.method,
                         **options)

    def setup(self) -> None:
        self.mol = inputs.water(self.seed)
        self._solver(max_iterations=self.cold_iterations).run()

    def operation(self):
        return self._solver().run()

    def _reference(self, result) -> float:
        """A tight Davidson energy on the same space, warm-started from ``result``.

        Three sigma instead of a second full solve; a wrong state cannot hide
        behind the warm start because the pin and E < E_SCF are checked too.
        """
        if self.reference_energy is None:
            op = HamiltonianOperator(result.problem, "dgemm")
            tight = davidson_solve(op, result.vector, DiagonalPreconditioner(result.problem),
                                   energy_tol=1e-12, residual_tol=1e-7)
            self.reference_energy = tight.energy + result.mo.e_core
        return self.reference_energy

    def _check_energy(self, result, label="") -> list[str]:
        failed = []
        if not result.solve.converged:
            failed.append(f"{label}solve did not converge")
        if not result.energy < result.scf_energy:
            failed.append(f"{label}E = {result.energy!r} is not below E_SCF")
        ref = self._reference(result)
        if abs(result.energy - ref) > ENERGY_TOL:
            failed.append(f"{label}E = {result.energy!r}, tight reference {ref!r}")
        pin = self.pins.get("energy")
        if pin is not None and abs(result.energy - pin) > ENERGY_TOL:
            failed.append(f"{label}E = {result.energy!r}, pinned {pin!r}")
        if self.is_default_size and abs(result.energy - UNSTRETCHED_ENERGY) > STRETCH_WINDOW:
            failed.append(f"{label}E = {result.energy!r} is not the ground state's")
        return failed

    def check(self, result) -> list[str]:
        self.last = result
        return self._check_energy(result)

    def _solve_metrics(self, tracer, roots, result) -> dict:
        per = lambda name: layers.per_root(tracer, roots, name)  # noqa: E731
        walls = [r.duration for r in roots]
        sigma = per("core.operator.apply")
        solver_self = [tracer.layer_self_times(r).get("core.solver", 0.0) for r in roots]
        ao = [s for r in roots for s in tracer.named("integrals.ao", r)]
        return {
            "integrals.ao_s": timing(per("integrals.ao")),
            "integrals.eri_quartets": metric(ao[0].info["eri_quartets"], "count"),
            "scf.rhf_s": timing(per("scf.rhf")),
            "scf.iterations": metric(int(result.scf.n_iterations), "count"),
            "scf.mo_transform_s": timing(per("scf.mo_transform")),
            "core.solver.iterations": metric(int(result.solve.n_iterations), "count"),
            "core.solver.sigma_calls": metric(int(result.n_sigma), "count"),
            "core.solver.sigma_s": timing(sigma),
            "core.solver.self_s": timing(solver_self),
            "core.solver.sigma_share": timing([s / w for s, w in zip(sigma, walls)], "ratio"),
            "core.solver.precond_build_s": timing(per("core.solver.precond_build")),
            "core.solver.energy_abs_err": metric(
                abs(result.energy - self.reference_energy), "Eh"),
        }

    def _lanes(self, tracer, setup_span, roots, failures, skipped) -> dict:
        result = self.last
        kernel = DgemmKernel(SigmaPlan.for_problem(result.problem))
        return _common_lanes(
            tracer, result.problem, kernel, result.vector,
            layers.span_durations(tracer, roots, "core.kernels.apply"),
            _cold_kernel_apply(tracer, setup_span), self.seed, failures, skipped)

    def layer_metrics(self, tracer, setup_span, roots, direct_s):
        from repro import Telemetry
        from repro.service import FCIService

        failures, skipped = [], []
        out = self._lanes(tracer, setup_span, roots, failures, skipped)
        out.update(self._solve_metrics(tracer, roots, self.last))
        t = layers.timed(lambda: self._solver(telemetry=Telemetry()).run(), 1)[0]
        out["obs.telemetry_overhead_frac"] = metric(t / direct_s - 1.0, "ratio")

        workdir = scratch_dir("service-")
        try:
            with FCIService(workdir, max_workers=1) as service:
                def timed_solve(**extra) -> float:
                    t0 = clock()
                    job = service.submit(molecule=self.mol, basis=self.basis,
                                         frozen_core="auto", method=self.method, **extra)
                    energy = service.result(job.key, timeout=170)["energy"]
                    seconds = clock() - t0
                    if abs(energy - self.reference_energy) > ENERGY_TOL:
                        failures.append(f"service E = {energy!r}, "
                                        f"reference {self.reference_energy!r}")
                    return seconds

                cold = timed_solve()
                warm = timed_solve(force=True)  # re-solve on the cached workspace
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out["service.cold_solve_s"] = metric(cold, "s")
        out["service.warm_solve_s"] = metric(warm, "s")
        out["service.overhead_s"] = metric(cold - direct_s, "s")
        return out, skipped, failures


class SolveWaterOutOfCore(SolveWater):
    name = "solve_ooc_h2o_631g"
    why = ("the same molecule through Davidson with an mmap vector store, a checkpoint per "
           "iteration and a restart from it: core.vectors and core.checkpoint block only here")
    not_on_path = ("parallel.", "service.", "obs.")
    method = "davidson"

    def __init__(self, seed, basis="6-31g"):
        super().__init__(seed, basis)
        self.directory = None

    def _solve_and_restart(self, directory, **options):
        vectors = os.path.join(directory, "vectors")
        stored = dict(vector_store={"kind": "mmap", "directory": vectors},
                      checkpoint=os.path.join(directory, "solve.ckpt.npz"), **options)
        with self._span("solve"):
            first = self._solver(**stored).run()
        with self._span("restart"):
            again = self._solver(**stored).run()
        return first, again, sorted(os.listdir(vectors))

    def _fresh_directory(self) -> str:
        self.close()
        self.directory = scratch_dir("ooc-")
        return self.directory

    def setup(self) -> None:
        self.mol = inputs.water(self.seed)
        self._solve_and_restart(self._fresh_directory(), max_iterations=self.cold_iterations)

    def operation(self):
        return self._solve_and_restart(self._fresh_directory())

    def check(self, result) -> list[str]:
        first, again, leaked = result
        self.last = first
        failed = self._check_energy(first) + self._check_energy(again, "restart: ")
        if abs(again.energy - first.energy) > RESTART_TOL:
            failed.append(f"restart E = {again.energy!r}, first solve {first.energy!r}")
        if leaked:
            failed.append(f"map files left after close: {leaked}")
        return failed

    def close(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def layer_metrics(self, tracer, setup_span, roots, direct_s):
        failures, skipped = [], []
        out = self._lanes(tracer, setup_span, roots, failures, skipped)
        firsts = [tracer.named("solve", r)[0] for r in roots]
        restarts = [tracer.named("restart", r)[0] for r in roots]
        out.update(self._solve_metrics(tracer, firsts, self.last))
        out["core.solver.restart_s"] = timing([s.duration for s in restarts])
        out["core.solver.restart_sigma_calls"] = metric(
            len(tracer.named("core.operator.apply", restarts[0])), "count")
        out["core.checkpoint.saves"] = metric(
            len(tracer.named("core.checkpoint.save", roots[0])), "count")
        return out, skipped, failures


WORKLOADS = {w.name: w for w in (SigmaSerial, SigmaShm, SolveWater, SolveWaterOutOfCore)}
