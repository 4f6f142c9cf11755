"""The paper's automatically adjusted single-vector diagonalization method.

The new approximation is built with an adaptive step length (eq. 13),

    C(n+1) = S(n) (C(n) + lambda(n) t(n)),

where t(n) is the Olsen correction.  The optimal step would come from
diagonalizing the 2x2 matrix in span{C(n), t(n)}, but its (t, H t) element
cannot be formed without storing a second Hamiltonian product - exactly the
memory/IO cost the method is designed to avoid.  The paper's device (eqs.
14-15): at iteration n+1 the *already computed* energy E(n+1) reveals the
missing element of iteration n,

    <t|H|t> = ( E(n+1)/S^2 - E(n) - 2 lambda <C|H|t> ) / lambda^2,

so the 2x2 problem of iteration n is diagonalized retroactively and its
optimal mixing ratio becomes the step length of iteration n+1:
lambda(n+1) = lambda_opt(n).  The first iteration uses a crude estimate
<t|H0|t> from the preconditioner.

Only C, sigma and scratch the size of one CI vector are alive at any time.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .checkpoint import Checkpointer
from .guards import DEFAULT_DIVERGENCE_THRESHOLD
from .model_space import DiagonalPreconditioner
from .olsen import SolveResult, single_vector_solve
from .operator import SigmaFn
from .session import SolveSession

__all__ = ["auto_adjusted_solve"]


def _optimal_step(
    e_cc: float, e_ct: float, e_tt: float, t_norm2: float, on_fallback=None
) -> float:
    """Mixing ratio of the lowest root of the 2x2 pencil in span{C, t}.

    Solves [[e_cc, e_ct], [e_ct, e_tt]] x = mu [[1, 0], [0, t_norm2]] x and
    returns lambda = x_t / x_C for the lowest root mu.

    When the 2x2 solve is ill-conditioned - non-finite inputs (the eq. 14
    retroactive recovery divides by lambda^2), a numerically vanishing
    correction norm, an eigensolver failure, or a lowest root with no C
    component - the method degrades to a plain Olsen step (lambda = 1) and
    reports it through ``on_fallback(reason)``.
    """
    if not all(map(np.isfinite, (e_cc, e_ct, e_tt, t_norm2))) or t_norm2 <= 0.0:
        if on_fallback:
            on_fallback("non_finite_2x2")
        return 1.0
    A = np.array([[e_cc, e_ct], [e_ct, e_tt]])
    B = np.array([[1.0, 0.0], [0.0, t_norm2]])
    try:
        evals, evecs = scipy.linalg.eigh(A, B)
    except (np.linalg.LinAlgError, ValueError):
        if on_fallback:
            on_fallback("eigh_failed")
        return 1.0
    vec = evecs[:, 0]
    if abs(vec[0]) < 1e-12:
        if on_fallback:
            on_fallback("degenerate_root")
        return 1.0
    return float(vec[1] / vec[0])


class AutoStep:
    """The eq. 14-15 step rule (see :class:`repro.core.olsen.ConstantStep`).

    ``prev`` (the previous iteration's energy, <C|H|t>, <t|t>, lambda, S^2)
    and ``lam`` are the method's whole restart state beside C.  Ill-conditioned
    2x2 solves fall back to a plain Olsen step (lambda = 1), counted under
    ``faults.recovered.lambda_fallback``.
    """

    label = "auto"

    def __init__(self, max_step: float, telemetry=None):
        self.max_step = max_step
        self.telemetry = telemetry

    def load(self, meta: dict) -> float:
        self.prev: dict | None = meta.get("prev")
        self.lam = meta.get("lambda", 1.0)
        return np.inf if self.prev is None else self.prev["energy"]

    def meta(self, energy: float) -> dict:
        return {"prev": self.prev, "lambda": self.lam}

    def _on_fallback(self, reason: str) -> None:
        if self.telemetry:
            self.telemetry.registry.counter("faults.recovered.lambda_fallback").inc()
            self.telemetry.registry.counter(f"faults.detected.{reason}").inc()

    def advance(self, C, sigma, t, energy: float, precond) -> np.ndarray:
        prev = self.prev
        t_norm2 = float(np.vdot(t, t))
        e_ct = float(np.vdot(sigma, t))  # <C|H|t>
        if prev is None:
            # crude first-iteration estimate: <t|H|t> ~ <t|H0|t>
            e_tt = float(np.vdot(t, precond.apply_h0(t)))
            lam = _optimal_step(
                energy, e_ct, e_tt, max(t_norm2, 1e-300), self._on_fallback
            )
        else:
            # eq. 14: recover <t|H|t> of the *previous* iteration from the
            # current energy, then eq. 15: lambda(n+1) = lambda_opt(n).
            lp = prev["lambda"]
            s2 = prev["s2"]  # S^2 of the previous normalization
            e_tt_prev = (energy / s2 - prev["energy"] - 2.0 * lp * prev["e_ct"]) / (lp * lp)
            lam = _optimal_step(
                prev["energy"], prev["e_ct"], e_tt_prev, prev["t_norm2"], self._on_fallback
            )
        if not np.isfinite(lam) or lam == 0.0:
            self._on_fallback("degenerate_step")
            lam = 1.0
        self.lam = lam = float(np.clip(lam, -self.max_step, self.max_step))

        new = C + lam * t
        nrm2 = 1.0 + lam * lam * t_norm2  # <C|t> = 0
        self.prev = {
            "energy": energy,
            "e_ct": e_ct,
            "t_norm2": t_norm2,
            "lambda": lam,
            "s2": 1.0 / nrm2,
        }
        return new / np.sqrt(nrm2)


def auto_adjusted_solve(
    sigma_fn: SigmaFn,
    guess: np.ndarray,
    precond: DiagonalPreconditioner,
    *,
    energy_tol: float = 1e-10,
    residual_tol: float = 1e-5,
    max_iterations: int = 60,
    max_step: float = 4.0,
    telemetry=None,
    checkpoint: Checkpointer | None = None,
    divergence_threshold: float | None = DEFAULT_DIVERGENCE_THRESHOLD,
    store=None,
) -> SolveResult:
    """Automatically adjusted single-vector iteration (paper section 2.2).

    :func:`repro.core.olsen.single_vector_solve` with the :class:`AutoStep`
    rule; ``max_step`` clips |lambda|.  The telemetry sample's ``lam`` is the
    step length used to *reach* the current iterate.  The checkpoint is the
    CI vector plus the eq. 14-15 scalars - the paper's selling point: one
    vector is all a multi-week campaign needs to survive.  See
    :mod:`repro.core.session` for the last four parameters.
    """
    session = SolveSession("auto", telemetry, checkpoint, divergence_threshold, store)
    return single_vector_solve(
        session, AutoStep(max_step, telemetry), sigma_fn, guess, precond,
        energy_tol, residual_tol, max_iterations,
    )
