"""DGEMM-based sigma vector: the paper's central algorithm.

sigma = H C is evaluated matrix-free in four pieces:

* one-electron  sum_pq h_pq (E^a_pq + E^b_pq),
* same-spin alpha-alpha and beta-beta two-electron terms through the
  N-2-electron intermediate string space (paper eqs. 7-9):

      D[(q>s), K] = sum_J  <J| a+_q a+_s |K>* C_J        (vector gather)
      E[(p>r), K] = sum_(q>s) W[(pr),(qs)] D[(qs), K]    (dense DGEMM)
      sigma_I    += sum_(p>r) <I| a+_p a+_r |K> E[(pr), K]  (scatter)

  with W[(pr),(qs)] = (pq|rs) - (ps|rq),
* the mixed-spin (alpha-beta) term through single-excitation gathers
  (paper eqs. 4-6):

      D[(rs), Ma, Kb] = sum_Mb <Kb|E^b_rs|Mb> C[Ma, Mb]   (gather)
      E[(pq), Ma, Kb] = sum_rs (pq|rs) D[(rs), Ma, Kb]    (dense DGEMM)
      sigma[Ka, Kb]  += sum_(pq),Ma <Ka|E^a_pq|Ma> E[(pq), Ma, Kb].

This module is the stable functional entry point; the implementation lives
in the kernel/operator layer: :class:`repro.core.plans.SigmaPlan` compiles
the index structure once per problem (cached on the problem object), and
:class:`repro.core.kernels.DgemmKernel` performs the blocked
gather/DGEMM/scatter sweeps - batched over CI vectors when driven through
:class:`repro.core.operator.HamiltonianOperator`.  Calling ``sigma_dgemm``
repeatedly therefore no longer rebuilds tables in the hot path.

``block_columns`` controls the column-block width of the dense
intermediates; the default None uses the plan's cache-sized width
(:meth:`SigmaPlan.default_block_columns`).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from ..obs.accounting import account_sigma_dgemm
from .kernels import DgemmKernel, SigmaCounters
from .plans import SigmaPlan
from .problem import CIProblem

__all__ = ["sigma_dgemm", "one_electron_operators", "SigmaCounters"]


def one_electron_operators(problem: CIProblem) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Sparse one-electron operators T_sigma[I,J] = sum_pq h_pq <I|E_pq|J>.

    Returns the operators cached on the problem's :class:`SigmaPlan`.
    """
    plan = SigmaPlan.for_problem(problem)
    return plan.Ta, plan.Tb


def sigma_dgemm(
    problem: CIProblem,
    C: np.ndarray,
    *,
    block_columns: int | None = None,
    counters: SigmaCounters | None = None,
    telemetry=None,
) -> np.ndarray:
    """Full sigma = H C with the DGEMM-based algorithm (no e_core shift).

    ``telemetry`` (a :class:`repro.obs.Telemetry`) folds this evaluation's
    FLOP/gather/scatter counts and wall time into its metrics registry
    through the audited accounting path; None (the default) skips all
    instrumentation.
    """
    if telemetry and counters is None:
        counters = SigmaCounters()
    t0 = time.perf_counter() if telemetry else 0.0
    kernel = DgemmKernel(SigmaPlan.for_problem(problem), block_columns=block_columns)
    sigma = kernel.apply(C, counters)
    if telemetry:
        account_sigma_dgemm(telemetry.registry, counters, time.perf_counter() - t0)
    return sigma
