"""One solve session: everything around an eigensolver that is not its math.

Every iterative solver (:mod:`~repro.core.olsen`,
:mod:`~repro.core.auto_single`, :mod:`~repro.core.davidson`,
:mod:`~repro.core.multiroot`) runs inside one :class:`SolveSession`, which
owns what they share and the four parameters that configure it:

``store`` (a :class:`repro.core.vectors.CIVectorStore` template)
    Where the vectors a solver holds *between* iterations live - the one
    iterate of the single-vector methods, Davidson's whole subspace.
    Values are copied in bit-for-bit, so a ``DenseStore`` run is bitwise
    identical to ``store=None`` (which hands the solver its own arrays
    back); an ``MmapStore`` keeps them on disk.  Every buffer the session
    allocated is closed when it exits, by return or by exception.
``checkpoint`` (a :class:`Checkpointer`)
    The restart state - one vector, the method's scalars, the histories -
    is offered to ``maybe_save`` exactly once per iteration, forced when
    the solve converges, and forced once more if it ends on an iteration
    the ``every`` grid skipped: the final state is always durable.  A solve
    that finds a checkpoint of its store's kind resumes from it.
``telemetry`` (a :class:`repro.obs.Telemetry`), ``divergence_threshold``
    One ``solver.iterations`` sample per iteration (None is a strict no-op),
    each iterate checked by :class:`repro.core.guards.IterateGuard`.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from dataclasses import dataclass, field, replace

import numpy as np

from .checkpoint import Checkpointer, CheckpointState, FinalStateSaver
from .guards import DEFAULT_DIVERGENCE_THRESHOLD, IterateGuard

__all__ = ["SolveResult", "SolveSession"]


@dataclass
class SolveResult:
    """Outcome of an iterative eigensolve."""

    energy: float
    vector: np.ndarray
    converged: bool
    n_iterations: int
    n_sigma: int
    energies: list[float] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    method: str = ""

    def __repr__(self) -> str:
        tag = "converged" if self.converged else "NOT converged"
        return (
            f"SolveResult({self.method}: E={self.energy:.10f}, "
            f"{self.n_iterations} iterations, {tag})"
        )


@dataclass
class SolveSession(AbstractContextManager):
    """One solve's context manager.  ``state`` is its restart state minus the
    vector - ``method`` tags checkpoints and telemetry samples - so what a
    checkpoint persists is what a result reports."""

    method: str
    telemetry: object = None
    checkpoint: Checkpointer | None = None
    divergence_threshold: float | None = DEFAULT_DIVERGENCE_THRESHOLD
    store: object = None

    def __post_init__(self):
        kind = self.store.kind if self.store is not None else "dense"
        self.state = CheckpointState(self.method, 0, 0, None, store_kind=kind)
        self._saver = FinalStateSaver(self.checkpoint)
        self._guard = IterateGuard(self.divergence_threshold, telemetry=self.telemetry)
        self._held: list = []

    def __exit__(self, *exc) -> None:
        self.close_held()

    def hold(self, x: np.ndarray, *, reuse: bool = False) -> np.ndarray:
        """Move ``x`` into store-backed memory (no-op without a store);
        ``reuse`` overwrites the newest buffer - the single-vector slot."""
        if self.store is None:
            return x
        if not (reuse and self._held):
            self._held.append(self.store.allocate())
        self._held[-1].write(x)
        return self._held[-1].as_ndarray().reshape(x.shape)

    def close_held(self) -> None:
        """Close every buffer handed out so far (its views stay readable)."""
        while self._held:
            self._held.pop().close()

    def restore(self, guess: np.ndarray) -> tuple[np.ndarray, dict]:
        """The starting vector and the method's restart scalars: ``(guess,
        {})``, or a checkpoint's, its histories and counters taken over."""
        found = None
        if self.checkpoint is not None:
            found = self.checkpoint.restore(self.method, store_kind=self.state.store_kind)
        if found is None:
            return guess, {}
        self.state = replace(found, vector=None, meta={})
        return np.asarray(found.vector).reshape(guess.shape), found.meta

    def record(self, it: int, energy: float, rnorm: float, **extra) -> None:
        """History, telemetry sample and guard check of iteration ``it``."""
        self.state.iteration = it
        self.state.energies.append(energy)
        self.state.residual_norms.append(rnorm)
        if self.telemetry:
            self.telemetry.solver_iteration(self.method, it, energy, rnorm, **extra)
        self._guard.check(it, energy, rnorm)

    def save(self, vector: np.ndarray, meta: dict, *, converged: bool = False) -> None:
        """Offer the current restart state to the checkpointer."""
        self._saver.save(replace(self.state, vector=vector, meta=meta), converged=converged)

    def result(self, vector: np.ndarray, converged: bool, label: str) -> SolveResult:
        """Make the final state durable and assemble the result; ``vector``
        leaves store-backed memory, which the session is about to close.  A
        resume with its budget already spent reports the checkpointed energy."""
        self._saver.finish()
        s = self.state
        return SolveResult(
            energy=s.energies[-1] if s.energies else 0.0,
            vector=vector if self.store is None else np.array(vector),
            converged=converged, n_iterations=s.iteration, n_sigma=s.n_sigma,
            energies=s.energies, residual_norms=s.residual_norms, method=label,
        )
