"""HamiltonianOperator: one sigma operator for every solver and driver.

Composes, in a fixed order, everything the eigensolvers previously wired up
as ad-hoc closures:

    sigma = kernel(C)                              (plan-driven H C)
          + spin_penalty * (S^2 C - s2_target C)   (optional state targeting)
    sigma = P_irrep sigma                          (optional symmetry projection)

plus observability: cumulative kernel counters, a call count, and
per-evaluation FLOP/byte/time accounting through
:mod:`repro.obs.accounting` when a telemetry object is attached.

The operator is callable (``op(C)``) so it drops into every solver that
expects a plain ``sigma_fn``.  ``apply_batch(C_stack)`` is the shared
vector-at-a-time loop over ``apply`` - a convenience for scripts and tests;
no solver calls it (:mod:`repro.core.kernels` has the measurement why).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .kernels import (
    SigmaKernel,
    add_transpose,
    apply_batch_loop,
    make_kernel,
    timed_apply,
    transpose_parity,
)
from .plans import SigmaPlan
from .spin import SpinOperator

__all__ = ["HamiltonianOperator", "SigmaFn"]

# what every eigensolver accepts: sigma = f(C) on one (na, nb) CI vector.
# A HamiltonianOperator satisfies it.
SigmaFn = Callable[[np.ndarray], np.ndarray]


class HamiltonianOperator:
    """sigma = H C (plus optional spin penalty and symmetry projection).

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.CIProblem`.
    kernel:
        A registered kernel name ("dgemm", "moc") or a ready
        :class:`~repro.core.kernels.SigmaKernel` instance.  Names are
        resolved through the kernel registry against the problem's cached
        :class:`~repro.core.plans.SigmaPlan`.
    block_columns:
        Column-block width for the kernel; None uses the plan's
        cache-sized default (:meth:`SigmaPlan.default_block_columns`).
    spin_penalty, s2_target:
        When ``spin_penalty`` is non-zero, adds
        ``spin_penalty * (S^2 C - s2_target C)`` to shift states of the
        wrong spin multiplicity up in energy.
    project_symmetry:
        Apply the problem's irrep projection to the result (a no-op when
        the problem has no symmetry mask).
    telemetry:
        Optional :class:`repro.obs.Telemetry`; every evaluation is then
        accounted through the audited path.  None is a strict no-op.
    """

    def __init__(
        self,
        problem,
        kernel: str | SigmaKernel = "dgemm",
        *,
        block_columns: int | None = None,
        spin_penalty: float = 0.0,
        s2_target: float = 0.0,
        project_symmetry: bool = True,
        telemetry=None,
        spin_operator: SpinOperator | None = None,
    ):
        self.problem = problem
        self.plan = SigmaPlan.for_problem(problem)
        if isinstance(kernel, str):
            kernel = make_kernel(kernel, self.plan, block_columns=block_columns)
        self.kernel = kernel
        self.spin_penalty = float(spin_penalty)
        self.s2_target = float(s2_target)
        self.project_symmetry = project_symmetry
        self.telemetry = telemetry
        self._spin_op = spin_operator
        if self.spin_penalty and self._spin_op is None:
            self._spin_op = SpinOperator(problem)
        self.counters = kernel.make_counters()
        self.n_calls = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.problem.shape

    def _decorate(self, C: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Spin penalty + symmetry projection for one vector, in the order
        the pre-refactor solver closures applied them."""
        if self.spin_penalty:
            penalty = self._spin_op.apply_s2(C) - self.s2_target * C
            eps = transpose_parity(self.plan, C)
            if eps:
                # S^2 commutes with transposition but its round-off does not
                # (5e-18 on H2O/6-31G): without this the sigma of an exactly
                # eps-symmetric C leaves the sector, and every later sigma
                # of the solve silently runs the general sweep
                penalty = 0.5 * add_transpose(penalty, eps)
            sigma = sigma + self.spin_penalty * penalty
        if self.project_symmetry and self.problem.symmetry_mask is not None:
            sigma = self.problem.project_symmetry(sigma)
        return sigma

    def apply(self, C) -> np.ndarray:
        """sigma for one (na, nb) CI vector.

        ``C`` is an ndarray; a store-backed vector is passed as the store's
        ``as_ndarray()`` (an ``np.memmap`` *is* an ndarray, so the kernels
        stream its pages block by block).
        """
        C = np.asarray(C)
        sigma = self._decorate(
            C, timed_apply(self.kernel, C, self.counters, self.telemetry)
        )
        self.n_calls += 1
        return sigma

    apply_batch = apply_batch_loop
    __call__ = apply

    def __repr__(self) -> str:
        bits = [f"kernel={self.kernel.name!r}"]
        if self.spin_penalty:
            bits.append(f"spin_penalty={self.spin_penalty}")
        if self.project_symmetry and self.problem.symmetry_mask is not None:
            bits.append("projected")
        return f"HamiltonianOperator({', '.join(bits)}, calls={self.n_calls})"
