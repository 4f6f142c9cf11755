"""Approximate correlation methods calibrated against FCI.

The paper's title - *calibrating quantum chemistry* - refers to FCI's role
as the exact reference against which approximate methods are measured.
This module supplies the standard ladder to calibrate:

* **MP2** - second-order Moller-Plesset perturbation theory (closed shell,
  canonical orbitals),
* **CISD** - configuration interaction with singles and doubles, realized
  as a determinant-level truncation of the FCI space (excitation level <= 2
  from the reference determinant) solved with the same Davidson machinery,
* **CISD+Q** - the renormalized Davidson size-consistency correction
  E_Q = (1 - c0^2) (E_CISD - E_ref).

All three reuse the FCI sigma kernels and string spaces, so agreement of
the full-excitation limit with FCI is an internal consistency test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scf.mo import MOIntegrals
from .davidson import davidson_solve
from .model_space import ModelSpacePreconditioner
from .olsen import SolveResult
from .problem import CIProblem
from .kernels import sigma_dgemm

__all__ = ["mp2_energy", "TruncatedCI", "cisd", "CalibrationResult"]


def mp2_energy(mo: MOIntegrals, mo_energy: np.ndarray, n_occ: int) -> float:
    """Closed-shell MP2 correlation energy from canonical MO integrals.

    ``mo_energy`` are the orbital energies matching ``mo`` (after any
    frozen-core slicing); ``n_occ`` counts doubly-occupied active orbitals.
    """
    n = mo.n_orbitals
    if n_occ <= 0 or n_occ >= n:
        raise ValueError("MP2 needs both occupied and virtual orbitals")
    eps = np.asarray(mo_energy, dtype=float)
    if eps.size != n:
        raise ValueError("need one orbital energy per active orbital")
    o = slice(0, n_occ)
    v = slice(n_occ, n)
    # (ia|jb) in chemists' notation
    g_ovov = mo.g[o, v, o, v]
    d = (
        eps[o][:, None, None, None]
        + eps[o][None, None, :, None]
        - eps[v][None, :, None, None]
        - eps[v][None, None, None, :]
    )
    t = g_ovov / d
    e2 = 2.0 * np.sum(t * g_ovov) - np.sum(
        t * g_ovov.transpose(0, 3, 2, 1)
    )
    return float(e2)


@dataclass
class CalibrationResult:
    """One truncated-CI solve."""

    energy: float  # total (includes e_core)
    correlation: float  # vs the reference determinant
    solve: SolveResult
    c0: float  # reference-determinant weight
    dimension: int


class TruncatedCI:
    """Excitation-truncated CI on top of the FCI machinery.

    Masks the FCI determinant grid to excitation level <= ``max_excitation``
    relative to the aufbau reference determinant and runs Davidson with the
    projected sigma.  max_excitation = 2 is CISD; n_electrons recovers FCI.
    """

    def __init__(self, problem: CIProblem, max_excitation: int):
        if max_excitation < 0:
            raise ValueError("excitation level must be non-negative")
        self.problem = problem
        self.max_excitation = max_excitation
        ref_a = int(problem.space_a.masks[0])
        ref_b = int(problem.space_b.masks[0])
        exc_a = np.array(
            [bin(int(m) ^ ref_a).count("1") // 2 for m in problem.space_a.masks]
        )
        exc_b = np.array(
            [bin(int(m) ^ ref_b).count("1") // 2 for m in problem.space_b.masks]
        )
        self.mask = (exc_a[:, None] + exc_b[None, :]) <= max_excitation
        sym = problem.symmetry_mask
        if sym is not None:
            self.mask &= sym

    @property
    def dimension(self) -> int:
        return int(self.mask.sum())

    def project(self, C: np.ndarray) -> np.ndarray:
        out = C.copy()
        out[~self.mask] = 0.0
        return out

    def solve(
        self,
        *,
        model_space_size: int = 50,
        energy_tol: float = 1e-10,
        residual_tol: float = 1e-6,
        max_iterations: int = 100,
    ) -> CalibrationResult:
        problem = self.problem

        def sigma_fn(C: np.ndarray) -> np.ndarray:
            return self.project(sigma_dgemm(problem, self.project(C)))

        pre = ModelSpacePreconditioner(
            problem, min(model_space_size, self.dimension)
        )
        guess = self.project(pre.ground_state_guess())
        nrm = np.linalg.norm(guess)
        if nrm < 1e-12:
            guess = np.zeros(problem.shape)
            guess[0, 0] = 1.0
        else:
            guess /= nrm
        res = davidson_solve(
            sigma_fn,
            guess,
            pre,
            energy_tol=energy_tol,
            residual_tol=residual_tol,
            max_iterations=max_iterations,
        )
        e_ref = float(problem.diagonal[0, 0])
        c0 = float(res.vector[0, 0]) / float(np.linalg.norm(res.vector))
        return CalibrationResult(
            energy=res.energy + problem.mo.e_core,
            correlation=res.energy - e_ref,
            solve=res,
            c0=abs(c0),
            dimension=self.dimension,
        )


def cisd(problem: CIProblem, **kwargs) -> tuple[CalibrationResult, float]:
    """CISD energy plus the renormalized Davidson +Q correction.

    Returns (cisd_result, davidson_q_correction); total CISD+Q energy is
    ``cisd_result.energy + correction``.
    """
    result = TruncatedCI(problem, 2).solve(**kwargs)
    c0sq = result.c0**2
    if c0sq < 0.25:
        # the renormalized correction is meaningless once the reference
        # determinant no longer dominates (strongly multireference regime)
        return result, float("nan")
    q = (1.0 - c0sq) / c0sq * result.correlation
    return result, float(q)
