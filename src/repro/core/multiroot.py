"""Block (multi-root) Davidson for several lowest eigenpairs.

Extension beyond the paper (which targets the lowest root only): a blocked
subspace iteration returning the k lowest eigenstates - used to resolve
excited states and spin gaps, e.g. the CN+ singlet-triplet splitting that
makes the paper's Table-2 system so hard for single-vector solvers.

``sigma_fn`` is any one-vector callable.  The subspace is the same
:class:`~repro.core.davidson.Subspace` of two row blocks the one-root
solver uses; the block's outstanding sigma vectors are streamed into it,
each computed and held before the next is computed, so an out-of-core
store never sees a stack of them in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

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


def _orthonormalize(vecs: Iterable[np.ndarray], sub: Subspace) -> int:
    """Add each of ``vecs`` to ``sub``'s basis, orthonormalized against the
    rows held before it (the ones just added included); return how many
    were independent enough to keep."""
    added = 0
    for v in vecs:
        w = v.ravel().copy()
        nrm = orthogonalize(w, sub.basis)
        if nrm > 1e-10:
            w /= nrm
            sub.add_basis(w)
            added += 1
    return added


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
        # a collapse keeps k Ritz vectors and adds up to k new directions
        sub = Subspace(session, max(max_subspace, 2 * k, len(guesses)), guesses[0].size)
        if _orthonormalize(guesses, sub) < k:
            raise ValueError("guess vectors are linearly dependent")
        prev = np.full(k, np.inf)
        history: list[np.ndarray] = []
        theta = np.zeros(k)
        ritz = [v.copy() for v in sub.basis[:k]]
        rnorms = np.full(k, np.inf)
        for _ in range(max_iterations):
            session.state.n_sigma += sub.k - sub.ns
            for j in range(sub.ns, sub.k):
                sub.add_sigma(sigma_fn(sub.V[j].reshape(shape)).ravel())
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
            if sub.k + len(fresh) > max_subspace:
                # collapse to the Ritz vectors, keeping the new directions
                sub.collapse()
                _orthonormalize(ritz, sub)
            if not _orthonormalize(fresh, sub):
                break  # subspace is numerically exhausted
        return MultiRootResult(
            energies=theta,
            vectors=[v.reshape(shape) for v in ritz],
            converged=bool(np.all(rnorms < residual_tol)),
            n_iterations=len(history),
            n_sigma=session.state.n_sigma,
            residual_norms=rnorms,
            history=history,
        )
