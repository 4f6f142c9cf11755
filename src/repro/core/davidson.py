"""Davidson subspace diagonalization for the lowest eigenpair.

Per the paper's Table 2 setup: "In the subspace method, the Olsen correction
vector is used as a basis vector and the optimal step length for mixing the
correction vector with current approximation vector is computed at each
iteration by diagonalization of the [...] subspace."

This is the reference method the automatically adjusted single-vector scheme
is measured against.  It stores up to ``max_subspace`` basis and sigma
vectors (the memory cost the paper's single-vector method eliminates);
:class:`Subspace` is that storage and the dense algebra on it, shared with
the block solver in :mod:`repro.core.multiroot`.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpointer
from .guards import DEFAULT_DIVERGENCE_THRESHOLD
from .model_space import DiagonalPreconditioner
from .olsen import SolveResult, olsen_correction
from .operator import SigmaFn
from .session import SolveSession

__all__ = ["davidson_solve", "Subspace", "orthogonalize"]


def orthogonalize(t: np.ndarray, basis: list[np.ndarray]) -> float:
    """Project ``basis`` out of ``t`` in place (twice, for numerical
    safety) and return the norm of what is left."""
    for _ in range(2):
        for b in basis:
            t -= (b @ t) * b
    return float(np.linalg.norm(t))


class Subspace:
    """The raveled basis and sigma vectors a Davidson iteration holds in its
    session's store: with an ``MmapStore`` the O(2m vectors) live on disk and
    only the O(1) working pair plus kernel block intermediates stay resident."""

    def __init__(self, session: SolveSession):
        self.session = session
        self.basis: list[np.ndarray] = []
        self.sigmas: list[np.ndarray] = []

    def extend(self, basis=(), sigmas=()) -> None:
        """Hold more basis vectors and/or sigma vectors of held ones."""
        self.basis.extend(self.session.hold(b) for b in basis)
        self.sigmas.extend(self.session.hold(s) for s in sigmas)

    def ritz_pairs(self, n_roots: int) -> tuple[np.ndarray, list[tuple]]:
        """Rayleigh-Ritz: the ``n_roots`` lowest Ritz values and, for each,
        the (Ritz vector, its Hamiltonian product) pair."""
        Hs = np.array([[b @ s for s in self.sigmas] for b in self.basis])
        evals, evecs = np.linalg.eigh(0.5 * (Hs + Hs.T))

        def combine(vectors, coeff):
            return sum(c * v for c, v in zip(coeff, vectors))

        coeffs = evecs[:, :n_roots].T
        return evals[:n_roots], [(combine(self.basis, c), combine(self.sigmas, c)) for c in coeffs]

    def collapse(self, basis, sigmas=()) -> None:
        """Restart from ``basis`` (and its ``sigmas``, when known) - fresh
        arrays, not views of the abandoned vectors, whose buffers are reclaimed
        (on-disk blocks for ``MmapStore``, a no-op for ``DenseStore``)."""
        self.session.close_held()
        self.basis, self.sigmas = [], []
        self.extend(basis, sigmas)


def davidson_solve(
    sigma_fn: SigmaFn,
    guess: np.ndarray,
    precond: DiagonalPreconditioner,
    *,
    energy_tol: float = 1e-10,
    residual_tol: float = 1e-5,
    max_iterations: int = 60,
    max_subspace: int = 12,
    telemetry=None,
    checkpoint: Checkpointer | None = None,
    divergence_threshold: float | None = DEFAULT_DIVERGENCE_THRESHOLD,
    store=None,
) -> SolveResult:
    """Davidson iteration for the lowest eigenpair.

    ``sigma_fn`` is any sigma callable - typically a
    :class:`repro.core.operator.HamiltonianOperator`, which brings plan
    reuse, kernel counters, and telemetry accounting with it.

    Counts one "iteration" per sigma evaluation so iteration numbers are
    directly comparable with the single-vector methods (paper Table 2); the
    telemetry sample carries the subspace size.  The checkpoint is the
    current Ritz vector: a restart collapses the subspace to that vector
    (the same state a ``max_subspace`` collapse would keep), so resumption
    costs at most the usual post-collapse re-expansion.  See
    :mod:`repro.core.session` for the last four parameters.
    """
    shape = guess.shape
    session = SolveSession("davidson", telemetry, checkpoint, divergence_threshold, store)
    with session:
        ritz, meta = session.restore(guess)
        ritz = (ritz / np.linalg.norm(ritz)).ravel()
        prev_e = meta.get("prev_e", np.inf)
        sub = Subspace(session)
        sub.extend([ritz])
        converged = False
        for it in range(session.state.iteration + 1, max_iterations + 1):
            # evaluate sigma of the newest basis vector
            sub.extend(sigmas=[sigma_fn(sub.basis[-1].reshape(shape)).ravel()])
            session.state.n_sigma += 1
            k = len(sub.basis)
            evals, [(ritz, hritz)] = sub.ritz_pairs(1)
            e = float(evals[0])
            rnorm = float(np.linalg.norm(hritz - e * ritz))
            session.record(it, e, rnorm, subspace=k)
            converged = abs(e - prev_e) < energy_tol and rnorm < residual_tol
            if checkpoint is not None:
                unit = ritz / np.linalg.norm(ritz)
                session.save(unit.reshape(shape), {"prev_e": e}, converged=converged)
            if converged:
                break
            prev_e = e
            t = olsen_correction(ritz.reshape(shape), hritz.reshape(shape), e, precond).ravel()
            if k >= max_subspace:
                nrm = np.linalg.norm(ritz)
                sub.collapse([ritz / nrm], [hritz / nrm])
            tnorm = orthogonalize(t, sub.basis)
            if tnorm < 1e-14:
                # subspace is numerically exhausted: converged as far as possible
                converged = rnorm < residual_tol
                break
            sub.extend([t / tnorm])
        return session.result(ritz.reshape(shape), converged, "davidson")
