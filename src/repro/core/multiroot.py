"""Block (multi-root) Davidson for several lowest eigenpairs.

Extension beyond the paper (which targets the lowest root only): a blocked
subspace iteration returning the k lowest eigenstates - used to resolve
excited states and spin gaps, e.g. the CN+ singlet-triplet splitting that
makes the paper's Table-2 system so hard for single-vector solvers.

``sigma_fn`` is any one-vector callable.  The block's outstanding sigma
vectors are streamed: each is computed and held in the session's vector
store before the next is computed, so an out-of-core store never sees a
stack of them in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .davidson import Subspace, orthogonalize
from .model_space import DiagonalPreconditioner
from .session import SolveSession

__all__ = ["MultiRootResult", "davidson_multiroot"]


@dataclass
class MultiRootResult:
    """k lowest eigenpairs from a block Davidson iteration."""

    energies: np.ndarray  # (k,)
    vectors: list[np.ndarray]
    converged: bool
    n_iterations: int
    n_sigma: int
    residual_norms: np.ndarray  # (k,) final residuals
    history: list[np.ndarray] = field(default_factory=list)


def _orthonormalize(vecs: list[np.ndarray], against: list[np.ndarray]) -> list[np.ndarray]:
    out: list[np.ndarray] = []
    for v in vecs:
        w = v.copy()
        nrm = orthogonalize(w, against + out)
        if nrm > 1e-10:
            w /= nrm
            out.append(w)
    return out


def davidson_multiroot(
    sigma_fn: Callable[[np.ndarray], np.ndarray],
    guesses: list[np.ndarray],
    precond: DiagonalPreconditioner,
    *,
    n_roots: int | None = None,
    energy_tol: float = 1e-9,
    residual_tol: float = 1e-5,
    max_iterations: int = 80,
    max_subspace: int | None = None,
    store=None,
) -> MultiRootResult:
    """Block Davidson for the ``n_roots`` lowest eigenpairs.

    ``guesses`` seed the subspace (at least n_roots of them); preconditioned
    residuals of all unconverged roots are appended every iteration.
    ``store`` holds the block subspace - the k-times-larger version of
    Davidson's memory hog - as described in :mod:`repro.core.session`.
    """
    if not guesses:
        raise ValueError("need at least one guess vector")
    shape = guesses[0].shape
    k = n_roots or len(guesses)
    if len(guesses) < k:
        raise ValueError("need at least n_roots guess vectors")
    max_subspace = max_subspace or max(8 * k, 24)

    with SolveSession("multiroot", store=store) as session:
        sub = Subspace(session)
        sub.extend(_orthonormalize([g.ravel() for g in guesses], []))
        if len(sub.basis) < k:
            raise ValueError("guess vectors are linearly dependent")
        prev = np.full(k, np.inf)
        history: list[np.ndarray] = []
        theta = np.zeros(k)
        ritz = sub.basis[:k]
        rnorms = np.full(k, np.inf)
        for _ in range(max_iterations):
            pending = sub.basis[len(sub.sigmas):]
            # a generator: each sigma is held before the next is computed
            sub.extend(sigmas=(sigma_fn(b.reshape(shape)).ravel() for b in pending))
            session.state.n_sigma += len(pending)
            theta, pairs = sub.ritz_pairs(k)
            history.append(theta.copy())
            ritz = [r for r, _ in pairs]
            residuals = [hr - theta[i] * r for i, (r, hr) in enumerate(pairs)]
            rnorms = np.array([np.linalg.norm(r) for r in residuals])
            if np.all(np.abs(theta - prev) < energy_tol) and np.all(rnorms < residual_tol):
                break
            prev = theta.copy()
            fresh = [
                precond.solve(residuals[r].reshape(shape), float(theta[r])).ravel()
                for r in range(k)
                if not rnorms[r] < residual_tol
            ]
            if len(sub.basis) + len(fresh) > max_subspace:
                # collapse to the Ritz vectors, keeping the new directions
                sub.collapse(_orthonormalize(ritz, []))
            added = _orthonormalize(fresh, sub.basis)
            if not added:
                break  # subspace is numerically exhausted
            sub.extend(added)
        return MultiRootResult(
            energies=theta,
            vectors=[v.reshape(shape) for v in ritz],
            converged=bool(np.all(rnorms < residual_tol)),
            n_iterations=len(history),
            n_sigma=session.state.n_sigma,
            residual_norms=rnorms,
            history=history,
        )
