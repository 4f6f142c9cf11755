"""Model-space preconditioner for the single-vector and Davidson solvers.

The paper (section 4): "In all the calculations a model space is selected to
improve the convergence.  Inside the model space the exact Hamiltonian is
used to compute the correction vector; outside the model space the diagonal
elements are used."

Concretely this is an approximation H0 of H that equals the exact Hamiltonian
block over the ``size`` determinants with the lowest diagonal elements and
diag(H) elsewhere; ``solve`` applies (H0 - shift)^-1 to a CI vector.

**(H0 - shift)^-1 commutes with transposition bitwise.**  On a closed-shell
space H commutes with C -> C^T, so an iteration started from a vector with
C = eps * C^T stays in that sector in exact arithmetic, and
:class:`~repro.core.kernels.DgemmKernel` evaluates sigma of such a vector
from its alpha half alone - but only when the parity holds *exactly*
(:func:`~repro.core.kernels.transpose_parity`).  Every solver here makes
its new directions with ``solve`` and otherwise combines vectors
elementwise with scalars, which keeps an exact parity exact; ``solve``
itself does not, because ``problem.diagonal`` is symmetric only to
round-off (1.4e-14 on H2O/6-31G) and the model-space block is a dense
solve.  So when its argument has an exact parity, ``solve`` returns
``0.5 * (out + eps * out.T)``: a round-off-sized change (H0 commutes with
transposition in exact arithmetic) that makes the iterates of ``auto``,
``olsen`` and Davidson qualify for the half sweep on every call.  Two
cheaper-looking designs were measured (H2O/6-31G, FCI(4+4,12)) and fail.
A *tolerance* test on the iterates: without the projection their
asymmetry |C - C^T| / |C| is 1e-15 ... 4e-15 for ``auto`` and grows from
5e-15 to 2.6e-10 for Davidson (a normalised small correction amplifies
the noise), so a tight tolerance stops firing and a loose one accepts
vectors that are not in the sector - and the half sweep of such a vector
is sigma of its *symmetrised copy*, which is the second design.
Symmetrising only the operator's input is worse than nothing: the
antisymmetric round-off then sees eigenvalue 0 instead of about E, is
amplified ~|E| / (H_d - E) per step, and ``auto`` needs 38 instead of 15
sigma calls, Davidson 19 instead of 12.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import det_matrix_element
from .kernels import add_transpose, transpose_parity
from .plans import SigmaPlan
from .problem import CIProblem

__all__ = ["ModelSpacePreconditioner", "DiagonalPreconditioner"]


class DiagonalPreconditioner:
    """Plain Davidson preconditioner: H0 = diag(H)."""

    def __init__(self, problem: CIProblem, *, floor: float = 1e-8):
        self.problem = problem
        self.diag = problem.diagonal
        self.floor = floor

    def solve(self, R: np.ndarray, shift: float) -> np.ndarray:
        """(H0 - shift)^-1 R, in the exact transpose sector of R when it has
        one (module docstring); any other R gets the plain quotient's bits."""
        out = self._solve(R, shift)
        eps = transpose_parity(SigmaPlan.for_problem(self.problem), R)
        return 0.5 * add_transpose(out, eps) if eps else out

    def _solve(self, R: np.ndarray, shift: float) -> np.ndarray:
        """R / (diag - shift), with small denominators floored."""
        den = self.diag - shift
        small = np.abs(den) < self.floor
        den[small] = np.where(den[small] < 0, -self.floor, self.floor)
        return R / den

    def apply_h0(self, X: np.ndarray) -> np.ndarray:
        """H0 X (used for the crude first-iteration <t|H|t> estimate)."""
        return self.diag * X


class ModelSpacePreconditioner(DiagonalPreconditioner):
    """H0 = exact H inside a small model space, diag(H) outside."""

    def __init__(self, problem: CIProblem, size: int = 50, *, floor: float = 1e-8):
        super().__init__(problem, floor=floor)
        na, nb = problem.shape
        diag = self.diag.ravel().copy()
        mask = problem.symmetry_mask
        if mask is not None:
            # never select symmetry-forbidden determinants
            diag = np.where(mask.ravel(), diag, np.inf)
        size = min(size, int(np.isfinite(diag).sum()))
        if size < 1:
            raise ValueError("model space must contain at least one determinant")
        # the set a stable full argsort would pick, ties at the cut included:
        # partition finds the cut, and only the few candidates are sorted
        cut = np.partition(diag, size - 1)[size - 1]
        candidates = np.flatnonzero(diag <= cut)
        sel = candidates[np.argsort(diag[candidates], kind="stable")[:size]]
        self.selection = np.sort(sel)
        ia = self.selection // nb
        ib = self.selection % nb
        ma, mb = problem.space_a.masks, problem.space_b.masks
        H = np.empty((size, size))
        for i in range(size):
            for j in range(i + 1):
                v = det_matrix_element(
                    problem.mo,
                    int(ma[ia[i]]),
                    int(mb[ib[i]]),
                    int(ma[ia[j]]),
                    int(mb[ib[j]]),
                )
                H[i, j] = v
                H[j, i] = v
        self.h_model = H
        self.size = size

    def _solve(self, R: np.ndarray, shift: float) -> np.ndarray:
        out = super()._solve(R, shift)
        flat = out.ravel()
        rflat = R.ravel()
        A = self.h_model - shift * np.eye(self.size)
        try:
            xm = np.linalg.solve(A, rflat[self.selection])
        except np.linalg.LinAlgError:
            # singular shift: fall back to regularized solve
            xm = np.linalg.lstsq(A, rflat[self.selection], rcond=None)[0]
        flat[self.selection] = xm
        return out

    def apply_h0(self, X: np.ndarray) -> np.ndarray:
        out = self.diag * X
        flat = out.ravel()
        xflat = X.ravel()
        flat[self.selection] = self.h_model @ xflat[self.selection]
        return out

    def ground_state_guess(self) -> np.ndarray:
        """Initial CI vector: lowest eigenvector of the model-space block."""
        evals, evecs = np.linalg.eigh(self.h_model)
        guess = np.zeros(self.problem.dimension)
        guess[self.selection] = evecs[:, 0]
        return guess.reshape(self.problem.shape)
