"""Olsen's single-vector correction and iteration (paper eqs. 11-13).

The correction vector for approximate eigenpair (E, C) is

    t = -(H0 - E~)^-1 (H - E~) C,   E~ = E + Delta,

where Delta (the first-order eigenvalue correction, paper eq. 12) is chosen
so that <C|t> = 0:

    Delta = <C| (H0-E)^-1 (H-E) |C> / <C| (H0-E)^-1 |C>.

``single_vector_solve`` is the one iteration the paper's Table 2 varies,
C <- S (C + lambda t), with a *step rule* saying where lambda comes from.
``olsen_solve`` runs it with a constant - the original scheme uses lambda = 1
and, as Table 2 shows, frequently fails to converge tightly; the "modified"
scheme damps with a fixed lambda (0.7 in the paper) - and
:mod:`repro.core.auto_single` with the retroactive 2x2 rule of eqs. 14-15.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Checkpointer
from .guards import DEFAULT_DIVERGENCE_THRESHOLD
from .model_space import DiagonalPreconditioner
from .operator import SigmaFn
from .session import SolveResult, SolveSession

__all__ = ["olsen_correction", "olsen_solve", "single_vector_solve", "SolveResult"]


def olsen_correction(
    C: np.ndarray,
    sigma: np.ndarray,
    energy: float,
    precond: DiagonalPreconditioner,
) -> np.ndarray:
    """Olsen correction vector, orthogonal to C by construction."""
    residual = sigma - energy * C
    x_r = precond.solve(residual, energy)
    x_c = precond.solve(C, energy)
    denom = float(np.vdot(C, x_c))
    if abs(denom) < 1e-300:
        return -x_r
    delta = float(np.vdot(C, x_r)) / denom
    return -x_r + delta * x_c


class ConstantStep:
    """The step rule of the original and the damped Olsen scheme.  A step
    rule names the result (``label``), exposes ``lam`` (the step that reached
    the current iterate), takes its restart scalars from a checkpoint's meta
    and returns the previous energy (``load``), hands them back (``meta``),
    and makes the next normalized iterate (``advance``)."""

    def __init__(self, step: float):
        self.lam = step
        self.label = f"olsen(step={step})"

    def load(self, meta: dict) -> float:
        return meta.get("prev_e", np.inf)

    def meta(self, energy: float) -> dict:
        return {"prev_e": energy, "step": self.lam}

    def advance(self, C, sigma, t, energy: float, precond) -> np.ndarray:
        C = C + self.lam * t
        C /= np.linalg.norm(C)
        return C


def single_vector_solve(
    session: SolveSession, rule, sigma_fn: SigmaFn, guess: np.ndarray,
    precond: DiagonalPreconditioner, energy_tol: float, residual_tol: float, max_iterations: int,
) -> SolveResult:
    """C <- S (C + lambda t) with lambda from ``rule``, inside ``session``.

    Only C, sigma and scratch the size of one CI vector are alive at any
    time.  Convergence requires *both* the energy change below ``energy_tol``
    and the residual norm below ``residual_tol`` (the paper's tight
    criterion).  The checkpoint carries C and the rule's scalars, so an
    interrupted-plus-resumed solve replays the uninterrupted sequence exactly.
    """
    with session:
        C, meta = session.restore(guess / np.linalg.norm(guess))
        prev_e = rule.load(meta)
        C = session.hold(C, reuse=True)
        converged = False
        for it in range(session.state.iteration + 1, max_iterations + 1):
            sigma = sigma_fn(C)
            session.state.n_sigma += 1
            e = float(np.vdot(C, sigma))
            rnorm = float(np.linalg.norm(sigma - e * C))
            session.record(it, e, rnorm, lam=rule.lam)
            converged = abs(e - prev_e) < energy_tol and rnorm < residual_tol
            if not converged:
                t = olsen_correction(C, sigma, e, precond)
                C = session.hold(rule.advance(C, sigma, t, e, precond), reuse=True)
            session.save(C, rule.meta(e), converged=converged)
            if converged:
                break
            prev_e = e
        return session.result(C, converged, rule.label)


def olsen_solve(
    sigma_fn: SigmaFn,
    guess: np.ndarray,
    precond: DiagonalPreconditioner,
    *,
    step: float = 1.0,
    energy_tol: float = 1e-10,
    residual_tol: float = 1e-5,
    max_iterations: int = 60,
    telemetry=None,
    checkpoint: Checkpointer | None = None,
    divergence_threshold: float | None = DEFAULT_DIVERGENCE_THRESHOLD,
    store=None,
) -> SolveResult:
    """Single-vector Olsen iteration with fixed mixing step ``step``.

    step=1.0 reproduces the original Olsen scheme; step=0.7 the paper's
    "modified" damped variant.  See :func:`single_vector_solve` for the
    iteration and :mod:`repro.core.session` for the last four parameters.
    """
    session = SolveSession("olsen", telemetry, checkpoint, divergence_threshold, store)
    return single_vector_solve(
        session, ConstantStep(step), sigma_fn, guess, precond,
        energy_tol, residual_tol, max_iterations,
    )
