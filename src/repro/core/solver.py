"""High-level FCI driver: molecule -> SCF -> MO integrals -> eigen solve.

This is the main user-facing entry point of the library:

    from repro import Molecule, FCISolver
    mol = Molecule.from_atoms([("H", (0, 0, 0)), ("H", (0, 0, 1.4))])
    result = FCISolver(mol, basis="sto-3g").run()
    print(result.energy)
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..molecule.geometry import Molecule
from ..molecule.symmetry import PointGroup, ao_representation, assign_orbital_irreps
from ..scf.mo import MOIntegrals, freeze_core, transform
from ..scf.rhf import AOIntegrals, SCFResult, compute_ao_integrals, rhf
from ..scf.rohf import rohf
from .auto_single import auto_adjusted_solve
from .checkpoint import Checkpointer
from .davidson import davidson_solve
from .kernels import add_transpose, kernel_names
from .model_space import DiagonalPreconditioner, ModelSpacePreconditioner
from .olsen import SolveResult, olsen_solve
from .operator import HamiltonianOperator
from .problem import CIProblem
from .spin import SpinOperator
from .strings import string_irrep
from .vectors import make_store, publish_store_metrics, store_kinds

__all__ = [
    "FCISolver",
    "FCIResult",
    "MultiRootFCIResult",
    "fci",
    "register_method",
    "method_names",
]

logger = logging.getLogger(__name__)

# -- eigensolver method registry ------------------------------------------
# Mirrors the kernel registry in repro.core.kernels: methods register a
# dispatch function and FCISolver validates/routes by name, so adding a
# solver never edits the driver's if/elif chain.
_METHODS: dict = {}


def register_method(name: str):
    """Class-less registration decorator for eigensolver dispatchers.

    The registered callable is invoked as
    ``fn(solver, problem, sigma_fn, guess, precond, store, kwargs)`` and
    must return a :class:`~repro.core.olsen.SolveResult`.
    """

    def decorate(fn):
        _METHODS[name] = fn
        return fn

    return decorate


def method_names() -> tuple[str, ...]:
    """Registered eigensolver method names, sorted."""
    return tuple(sorted(_METHODS))


@register_method("davidson")
def _dispatch_davidson(solver, problem, sigma_fn, guess, precond, store, kwargs):
    return davidson_solve(sigma_fn, guess, precond, store=store, **kwargs)


@register_method("auto")
def _dispatch_auto(solver, problem, sigma_fn, guess, precond, store, kwargs):
    return auto_adjusted_solve(sigma_fn, guess, precond, store=store, **kwargs)


@register_method("olsen")
def _dispatch_olsen(solver, problem, sigma_fn, guess, precond, store, kwargs):
    return olsen_solve(sigma_fn, guess, precond, step=1.0, store=store, **kwargs)


@register_method("olsen-damped")
def _dispatch_olsen_damped(solver, problem, sigma_fn, guess, precond, store, kwargs):
    return olsen_solve(
        sigma_fn, guess, precond, step=solver.olsen_step, store=store, **kwargs
    )


@dataclass
class FCIResult:
    """Complete outcome of an FCI calculation."""

    energy: float  # total energy (electronic + core/nuclear)
    scf_energy: float
    correlation_energy: float
    vector: np.ndarray
    problem: CIProblem
    solve: SolveResult
    scf: SCFResult
    mo: MOIntegrals
    n_sigma: int
    s_squared: float

    def __repr__(self) -> str:
        return (
            f"FCIResult(E={self.energy:.10f}, Ecorr={self.correlation_energy:.8f}, "
            f"dim={self.problem.dimension}, iters={self.solve.n_iterations})"
        )


class FCISolver:
    """Configurable FCI calculation on a molecule.

    Parameters
    ----------
    mol:
        Molecule (defines electron count and spin through its multiplicity).
    basis:
        Basis-set name understood by :func:`repro.basis.build_basis`.
    frozen_core:
        Number of frozen doubly-occupied orbitals, or "auto" (one 1s core per
        non-hydrogen/helium atom).
    point_group:
        Optional abelian point group name; enables symmetry blocking.
    wavefunction_irrep:
        Target irrep name (requires point_group); default = irrep of the SCF
        determinant.
    algorithm:
        Name of a registered sigma kernel: "dgemm" (the paper's algorithm;
        "compiled", the name of a retired lane, still resolves to it) or
        "moc" (baseline).  Validated against the kernel registry
        (:func:`repro.core.kernels.kernel_names`) at construction time.
    kernel:
        Alias for ``algorithm`` (the registry's own vocabulary).  When
        both are given, ``kernel`` wins.
    method:
        A registered eigensolver method (:func:`method_names`): "auto"
        (paper's automatically adjusted single-vector method), "davidson",
        "olsen" or "olsen-damped".
    vector_store:
        CI-vector storage backend for the solver's held vectors: a
        registered store kind (:func:`repro.core.vectors.store_kinds` -
        "dense", "mmap") or an option dict such as
        ``{"kind": "mmap", "directory": "/scratch"}``.  The default None
        keeps plain in-RAM arrays (bitwise identical to the
        pre-storage-layer behaviour, including the kernel block-width
        heuristic).  "mmap" keeps Davidson's subspace / the single-vector
        iterate out of core, and the kernel block budget is recomputed
        from the store's *resident* footprint.  The dict's other keys are
        the store's constructor options.
    block_columns:
        Column-block width of the sigma kernel's dense intermediates; the
        default None sizes it to keep them cache-resident via
        :meth:`repro.core.plans.SigmaPlan.default_block_columns`.
    parallel:
        Run sigma through :class:`repro.parallel.ParallelSigma` instead of
        the serial kernel: an execution-backend name (``"simulated"`` for
        the discrete-event X1, ``"shm"`` for real worker processes over
        shared memory, ``"sockets"`` for real worker processes behind a
        TCP coordinator) or an option dict passed to ``ParallelSigma``
        (e.g. ``{"backend": "sockets", "n_workers": 4}``).  Requires
        ``algorithm="dgemm"`` (or its alias ``"compiled"``): the parallel
        decomposition is the paper's DGEMM sigma.  The default None keeps
        the serial kernel.
        Worker pools are shut down when :meth:`run` returns.
    telemetry:
        Optional :class:`repro.obs.Telemetry`.  When given, per-iteration
        solver telemetry (energy, residual norm, step length) and
        per-sigma FLOP/byte accounting are recorded in its metrics
        registry.  The default None is a strict no-op: results are
        bitwise identical with and without telemetry.
    checkpoint:
        Optional checkpoint path (str/Path) or a preconfigured
        :class:`repro.core.checkpoint.Checkpointer`.  The eigensolve then
        persists its restart state (atomically, CRC-verified) after each
        iteration and resumes from the file when it exists, so an
        interrupted campaign restarts instead of starting over.
    """

    def __init__(
        self,
        mol: Molecule,
        basis: str = "sto-3g",
        *,
        frozen_core: int | str = 0,
        n_active: int | None = None,
        point_group: str | None = None,
        wavefunction_irrep: str | None = None,
        algorithm: str = "dgemm",
        kernel: str | None = None,
        method: str = "auto",
        vector_store: str | dict | None = None,
        block_columns: int | None = None,
        model_space_size: int = 50,
        spin_penalty: float = 0.0,
        olsen_step: float = 0.7,
        energy_tol: float = 1e-10,
        residual_tol: float = 1e-5,
        max_iterations: int = 60,
        ao_integrals: AOIntegrals | None = None,
        scf_result: SCFResult | None = None,
        parallel: str | dict | None = None,
        telemetry=None,
        checkpoint=None,
    ):
        if kernel is not None:
            algorithm = kernel
        # validate against the kernel registry at construction time, so an
        # unknown algorithm fails here instead of silently falling back later
        if algorithm not in kernel_names():
            raise ValueError(
                f"algorithm must be a registered sigma kernel "
                f"({', '.join(kernel_names())}); got {algorithm!r}"
            )
        if method not in _METHODS:
            raise ValueError(
                f"method must be a registered eigensolver "
                f"({', '.join(method_names())}); got {method!r}"
            )
        if vector_store is not None:
            if isinstance(vector_store, str):
                vector_store = {"kind": vector_store}
            if not isinstance(vector_store, dict) or "kind" not in vector_store:
                raise ValueError(
                    "vector_store must be a store kind, a dict with a 'kind' "
                    f"key, or None; got {vector_store!r}"
                )
            if vector_store["kind"] not in store_kinds():
                raise ValueError(
                    f"vector_store kind must be one of "
                    f"{', '.join(store_kinds())}; got {vector_store['kind']!r}"
                )
        self.vector_store = vector_store
        if parallel is not None:
            if algorithm not in ("dgemm", "compiled"):
                raise ValueError(
                    "parallel execution runs the DGEMM sigma decomposition "
                    "(kernel 'dgemm' or its alias 'compiled'); it cannot be "
                    f"combined with algorithm={algorithm!r}"
                )
            from ..parallel.backend import backend_names

            if isinstance(parallel, str):
                parallel = {"backend": parallel}
            if not isinstance(parallel, dict):
                raise ValueError(
                    "parallel must be a backend name, an option dict, or None; "
                    f"got {parallel!r}"
                )
            name = parallel.get("backend", "simulated")
            if name not in backend_names():
                raise ValueError(
                    f"parallel backend must be one of "
                    f"{', '.join(backend_names())}; got {name!r}"
                )
        self.parallel = parallel
        self.mol = mol
        self.basis = basis
        self.frozen_core = frozen_core
        self.n_active = n_active
        self.point_group = point_group
        self.wavefunction_irrep = wavefunction_irrep
        self.algorithm = algorithm
        self.method = method
        self.block_columns = block_columns
        self.model_space_size = model_space_size
        self.spin_penalty = float(spin_penalty)
        self.olsen_step = olsen_step
        self.energy_tol = energy_tol
        self.residual_tol = residual_tol
        self.max_iterations = max_iterations
        self.telemetry = telemetry
        if checkpoint is None or isinstance(checkpoint, Checkpointer):
            self.checkpoint = checkpoint
        else:
            self.checkpoint = Checkpointer(checkpoint, telemetry=telemetry)
        self._ao = ao_integrals
        self._scf = scf_result

    # -- pipeline pieces ---------------------------------------------------
    def _n_frozen(self) -> int:
        if self.frozen_core == "auto":
            return sum(1 for a in self.mol.atoms if a.Z > 2)
        return int(self.frozen_core)

    def build_problem(self) -> tuple[CIProblem, SCFResult, MOIntegrals]:
        """Run SCF, transform integrals, and build the CI problem."""
        if self._ao is None:
            self._ao = compute_ao_integrals(
                self.mol,
                self.basis,
                registry=self.telemetry.registry if self.telemetry else None,
            )
        ao = self._ao

        group = None
        sym_ops = None
        if self.point_group is not None:
            group = PointGroup.get(self.point_group)
            bas = self.mol.basis(self.basis)
            sym_ops = [
                ao_representation(bas, self.mol.coordinates(), g) for g in group.ops
            ]

        if self._scf is None:
            if self.mol.multiplicity == 1:
                self._scf = rhf(self.mol, ao, symmetry_ops=sym_ops)
            else:
                self._scf = rohf(self.mol, ao, symmetry_ops=sym_ops)
        scf = self._scf
        if not scf.converged:
            raise RuntimeError("SCF did not converge; cannot define orbitals")

        orbital_irreps = None
        product_table = None
        target = None
        C_mo = scf.mo_coeff
        if group is not None:
            C_mo, orbital_irreps = assign_orbital_irreps(
                group,
                bas,
                self.mol.coordinates(),
                scf.mo_coeff,
                ao.S,
                scf.mo_energy,
            )
            product_table = group.product_table()
            if self.wavefunction_irrep is not None:
                target = group.irrep_id(self.wavefunction_irrep)
            else:
                # irrep of the SCF determinant: doubly-occupied orbitals
                # contribute trivially; singly occupied ones multiply up.
                na, nb = scf.n_alpha, scf.n_beta
                open_orbs = list(range(nb, na))
                target = string_irrep(open_orbs, orbital_irreps, product_table)

        mo = transform(ao, C_mo, orbital_irreps)
        nf = self._n_frozen()
        if nf or self.n_active is not None:
            if nf > self.mol.n_beta:
                raise ValueError("cannot freeze more orbitals than beta electrons")
            if self.n_active is not None and self.n_active < self.mol.n_alpha - nf:
                raise ValueError("active space too small for the electrons")
            mo = freeze_core(mo, nf, self.n_active)
        problem = CIProblem(
            mo,
            self.mol.n_alpha - nf,
            self.mol.n_beta - nf,
            target_irrep=target,
            product_table=product_table,
        )
        return problem, scf, mo

    @contextmanager
    def _open_store(self, problem: CIProblem):
        """The run's CI-vector store template, or None for plain arrays.

        ``None`` (the default backend) deliberately bypasses the store layer
        entirely so the solvers execute the exact pre-refactor code path.
        On exit the store's footprint is published and the template closed.
        """
        if self.vector_store is None:
            yield None
            return
        opts = {k: v for k, v in self.vector_store.items() if k != "kind"}
        store = make_store(self.vector_store["kind"], problem.shape, **opts)
        try:
            yield store
        finally:
            if self.telemetry:
                publish_store_metrics(self.telemetry.registry, [store])
            store.close()

    def _store_block_columns(self, problem: CIProblem) -> int | None:
        """Kernel block width, recomputed from the store's resident footprint.

        Only an *explicit* ``vector_store`` changes the heuristic: the
        default run must keep the pre-storage-layer block width so dense
        results stay bitwise identical.  Dense stores pin their full held
        vectors (C, sigma and a scratch per single-vector method - the
        subspace methods' extra holds only widen the block conservatively);
        mmap stores pin nothing, so only the kernels' in-flight working
        copy is charged.
        """
        if self.block_columns is not None or self.vector_store is None:
            return self.block_columns
        from .plans import SigmaPlan

        vec_bytes = 8 * problem.dimension
        if self.vector_store["kind"] == "mmap":
            resident = vec_bytes  # the kernels' in-flight working copy
        else:
            resident = 3 * vec_bytes
        return SigmaPlan.for_problem(problem).default_block_columns(
            resident_bytes=resident
        )

    def build_operator(self, problem: CIProblem, **overrides) -> HamiltonianOperator:
        """The solver's sigma operator for an already-built problem."""
        spin_op = SpinOperator(problem)
        s_target = 0.5 * (self.mol.multiplicity - 1)
        kwargs = dict(
            block_columns=self._store_block_columns(problem),
            spin_penalty=self.spin_penalty,
            s2_target=s_target * (s_target + 1.0),
            telemetry=self.telemetry,
            spin_operator=spin_op,
        )
        kwargs.update(overrides)
        kernel: str = self.algorithm
        if self.parallel is not None:
            from ..parallel import ParallelSigma

            popts = dict(self.parallel)
            popts.setdefault("backend", "simulated")
            if popts["backend"] == "simulated" and self.vector_store is not None:
                # the simulated machine's distributed C/sigma ride the same
                # storage backend as the solver's held vectors
                popts.setdefault("vector_store", dict(self.vector_store))
            popts.setdefault("kernel", self.algorithm)
            kernel = ParallelSigma(
                problem,
                block_columns=kwargs["block_columns"],
                telemetry=self.telemetry,
                **popts,
            )
        return HamiltonianOperator(problem, kernel, **kwargs)

    @staticmethod
    def _close_kernel(sigma_fn: HamiltonianOperator) -> None:
        """Shut down kernel-owned resources (a real-process parallel
        backend's worker pool)."""
        close = getattr(sigma_fn.kernel, "close", None)
        if close is not None:
            close()

    def run(self, *, prebuilt=None) -> FCIResult:
        """Execute the full pipeline and return the converged result.

        ``prebuilt`` is an optional ``(problem, scf, mo)`` triple from an
        earlier :meth:`build_problem` - the service layer's content-addressed
        artifact cache hands the same compiled problem (whose cached
        :class:`~repro.core.plans.SigmaPlan` and excitation tables ride
        along) to every job that shares the molecule/basis/CI-space digest,
        so only the first job in a family pays the compilation.
        """
        problem, scf, mo = prebuilt if prebuilt is not None else self.build_problem()
        sigma_fn = self.build_operator(problem)
        try:
            return self._run_solve(problem, scf, mo, sigma_fn)
        finally:
            self._close_kernel(sigma_fn)

    def _run_solve(self, problem, scf, mo, sigma_fn) -> FCIResult:
        spin_op = sigma_fn._spin_op

        if self.model_space_size > 0:
            precond: DiagonalPreconditioner = ModelSpacePreconditioner(
                problem, self.model_space_size
            )
            guess = precond.ground_state_guess()
        else:
            precond = DiagonalPreconditioner(problem)
            flat = np.zeros(problem.dimension)
            diag = problem.diagonal.ravel().copy()
            mask = problem.symmetry_mask
            if mask is not None:
                diag = np.where(mask.ravel(), diag, np.inf)
            flat[int(np.argmin(diag))] = 1.0
            guess = flat.reshape(problem.shape)

        if problem.n_alpha == problem.n_beta:
            # Ms = 0: the ground state has C = eps * C^T and the guess is
            # within round-off of it (9.8e-17 on H2O/6-31G).  Start *exactly*
            # in the sector - any guess is legitimate - and the
            # preconditioner keeps every iterate there, so every sigma of
            # the solve takes the kernel's half sweep (model_space docstring)
            for eps in (1, -1):
                in_sector = 0.5 * add_transpose(guess, eps)
                if np.abs(guess - in_sector).max() <= 1e-8 * np.abs(guess).max():
                    guess = in_sector
                    break

        kwargs = dict(
            energy_tol=self.energy_tol,
            residual_tol=self.residual_tol,
            max_iterations=self.max_iterations,
            telemetry=self.telemetry,
            checkpoint=self.checkpoint,
        )
        with self._open_store(problem) as store:
            solve = _METHODS[self.method](
                self, problem, sigma_fn, guess, precond, store, kwargs
            )

        total = solve.energy + mo.e_core
        if self.telemetry:
            self.telemetry.solver_result(
                solve.method,
                total,
                solve.converged,
                solve.n_iterations,
                sigma_fn.n_calls,
                dimension=problem.dimension,
            )
        if not solve.converged:
            logger.warning(
                "FCI %s did not converge in %d iterations (E=%.10f)",
                solve.method,
                solve.n_iterations,
                total,
            )
        else:
            logger.info(
                "FCI %s converged: E=%.10f (%d iterations, dim %d)",
                solve.method,
                total,
                solve.n_iterations,
                problem.dimension,
            )
        return FCIResult(
            energy=total,
            scf_energy=scf.energy,
            correlation_energy=total - scf.energy,
            vector=solve.vector,
            problem=problem,
            solve=solve,
            scf=scf,
            mo=mo,
            n_sigma=sigma_fn.n_calls or solve.n_sigma,
            s_squared=spin_op.expectation(solve.vector),
        )


    def run_multiroot(self, n_roots: int) -> "MultiRootFCIResult":
        """Solve for the ``n_roots`` lowest states with block Davidson."""
        from .multiroot import davidson_multiroot

        problem, scf, mo = self.build_problem()
        spin_op = SpinOperator(problem)
        # multiroot targets all spins in the block: no spin penalty
        sigma_fn = self.build_operator(problem, spin_penalty=0.0)

        size = max(self.model_space_size, 4 * n_roots)
        precond = ModelSpacePreconditioner(problem, size)
        evals, evecs = np.linalg.eigh(precond.h_model)
        guesses = []
        for i in range(min(2 * n_roots, precond.size)):
            g = np.zeros(problem.dimension)
            g[precond.selection] = evecs[:, i]
            guesses.append(g.reshape(problem.shape))
        try:
            with self._open_store(problem) as store:
                res = davidson_multiroot(
                    sigma_fn,
                    guesses,
                    precond,
                    n_roots=n_roots,
                    energy_tol=self.energy_tol,
                    residual_tol=self.residual_tol,
                    max_iterations=self.max_iterations,
                    store=store,
                )
        finally:
            self._close_kernel(sigma_fn)
        return MultiRootFCIResult(
            energies=res.energies + mo.e_core,
            vectors=res.vectors,
            s_squared=np.array([spin_op.expectation(v) for v in res.vectors]),
            converged=res.converged,
            n_iterations=res.n_iterations,
            problem=problem,
            scf=scf,
            mo=mo,
        )


@dataclass
class MultiRootFCIResult:
    """Several lowest FCI states of one molecule."""

    energies: np.ndarray
    vectors: list[np.ndarray]
    s_squared: np.ndarray
    converged: bool
    n_iterations: int
    problem: CIProblem
    scf: SCFResult
    mo: MOIntegrals

    def excitation_energies(self) -> np.ndarray:
        """Vertical excitation energies (Hartree) relative to the lowest root."""
        return self.energies - self.energies[0]


def fci(mol: Molecule, basis: str = "sto-3g", **kwargs) -> FCIResult:
    """One-call FCI: ``fci(mol, "sto-3g", method="davidson")``."""
    return FCISolver(mol, basis, **kwargs).run()
