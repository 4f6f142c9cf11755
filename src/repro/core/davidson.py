"""Davidson subspace diagonalization for the lowest eigenpair.

Per the paper's Table 2 setup: "In the subspace method, the Olsen correction
vector is used as a basis vector and the optimal step length for mixing the
correction vector with current approximation vector is computed at each
iteration by diagonalization of the [...] subspace."

This is the reference method the automatically adjusted single-vector scheme
is measured against.  It stores up to ``max_subspace`` basis and sigma
vectors (the memory cost the paper's single-vector method eliminates);
:class:`Subspace` is that storage and the dense algebra on it, shared with
the block solver in :mod:`repro.core.multiroot`.  The storage is two row
blocks of ``max_subspace`` rows each, basis V and sigmas S, allocated once
per solve from the session's store, so Davidson(k) holds exactly 2k vectors
(on disk with an ``MmapStore``).  The projected matrix H = V S^T is grown,
never recomputed: one column (``V[:k] @ s``) per new sigma and one row
(``S[:k] @ v``) per new basis vector, and a collapse restarts it.  An
iteration at subspace size k so reads 8k held vectors, as eight GEMVs over
the blocks' first k rows: H's new column, the Ritz vector ``c @ V[:k]``,
its sigma ``c @ S[:k]``, H's new row, and four to project the correction
out of V (classical Gram-Schmidt, applied twice).
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


def orthogonalize(t: np.ndarray, basis: np.ndarray) -> float:
    """Project the orthonormal rows of ``basis`` out of ``t`` in place -
    classical Gram-Schmidt, applied twice for numerical safety (CGS2) - and
    return the norm of what is left."""
    for _ in range(2):
        t -= (basis @ t) @ basis
    return float(np.linalg.norm(t))


class Subspace:
    """A Davidson subspace of up to ``rows`` raveled basis vectors (``V``)
    and their sigma vectors (``S``), two blocks in the session's store that
    are closed with it, and the projected matrix ``H`` = V S^T over the
    first ``k`` basis and ``ns`` sigma rows."""

    def __init__(self, session: SolveSession, rows: int, dimension: int):
        self.V = session.allocate((rows, dimension))
        self.S = session.allocate((rows, dimension))
        self.H = np.empty((rows, rows))
        self.k = self.ns = 0

    @property
    def basis(self) -> np.ndarray:
        return self.V[: self.k]

    def add_basis(self, v: np.ndarray) -> None:
        """Hold basis vector ``v`` (orthonormal to the held ones) and add its
        row to H."""
        k = self.k
        self.V[k] = v
        self.H[k, : self.ns] = self.S[: self.ns] @ self.V[k]
        self.k = k + 1

    def add_sigma(self, s: np.ndarray) -> None:
        """Hold the sigma vector of the oldest basis vector without one and
        add its column to H."""
        j = self.ns
        self.S[j] = s
        self.H[: self.k, j] = self.V[: self.k] @ self.S[j]
        self.ns = j + 1

    def ritz_pairs(self, n_roots: int) -> tuple[np.ndarray, list[tuple]]:
        """Rayleigh-Ritz over the held pairs: the ``n_roots`` lowest Ritz
        values and, for each, the (Ritz vector, its sigma) pair - fresh
        arrays, one GEMV each."""
        k = self.k
        h = self.H[:k, :k]
        evals, evecs = np.linalg.eigh(0.5 * (h + h.T))
        coeffs = evecs[:, :n_roots].T
        return evals[:n_roots], [(c @ self.V[:k], c @ self.S[:k]) for c in coeffs]

    def collapse(self, basis=(), sigmas=()) -> None:
        """Restart from ``basis`` (orthonormal, and its ``sigmas`` when
        known), overwriting the blocks' rows and H; the vectors must not be
        views of the blocks."""
        self.k = self.ns = 0
        for v in basis:
            self.add_basis(v)
        for s in sigmas:
            self.add_sigma(s)


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
        # a collapse keeps one pair and adds the correction: 2 rows at least
        sub = Subspace(session, max(max_subspace, 2), ritz.size)
        sub.add_basis(ritz)
        converged = False
        for it in range(session.state.iteration + 1, max_iterations + 1):
            # evaluate sigma of the newest basis vector
            sub.add_sigma(sigma_fn(sub.V[sub.k - 1].reshape(shape)).ravel())
            session.state.n_sigma += 1
            k = sub.k
            evals, [(ritz, hritz)] = sub.ritz_pairs(1)
            e = float(evals[0])
            residual = hritz - e * ritz
            rnorm = float(np.linalg.norm(residual))
            session.record(it, e, rnorm, subspace=k)
            converged = abs(e - prev_e) < energy_tol and rnorm < residual_tol
            if checkpoint is not None:
                unit = ritz / np.linalg.norm(ritz)
                session.save(unit.reshape(shape), {"prev_e": e}, converged=converged)
            if converged:
                break
            prev_e = e
            t = olsen_correction(ritz.reshape(shape), residual.reshape(shape), e, precond).ravel()
            del residual  # not alive during the next sigma call
            if k >= max_subspace:
                nrm = np.linalg.norm(ritz)
                sub.collapse([ritz / nrm], [hritz / nrm])
            tnorm = orthogonalize(t, sub.basis)
            if tnorm < 1e-14:
                # subspace is numerically exhausted: converged as far as possible
                converged = rnorm < residual_tol
                break
            t /= tnorm
            sub.add_basis(t)
        return session.result(ritz.reshape(shape), converged, "davidson")
