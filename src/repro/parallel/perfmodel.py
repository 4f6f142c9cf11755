"""Analytic performance model of the alpha-beta routine (paper Table 1).

Reproduces the operation- and communication-count comparison between the
minimum-operation-count (MOC) and DGEMM-based FCI algorithms:

=================  =============================  =====================
                   MOC                            DGEMM
-----------------  -----------------------------  ---------------------
kernel             indexed multiply-and-add       DGEMM (+ gather/scatter)
operation count    Nci (n-na) na (n-nb) nb        ~ Nci n^2 na nb
communication      Nci na (n-na)  (collective)    3 Nci na  (get + acc)
=================  =============================  =====================

``measured_counts`` additionally runs both real kernels with counters on a
small CI problem so the model columns can be checked against observed
gather/DGEMM/indexed-op counts (the Table-1 benchmark does exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.problem import CIProblem
from ..core.kernels import MOCCounters, SigmaCounters, sigma_dgemm, sigma_moc

__all__ = ["PerfModelRow", "alpha_beta_model", "measured_counts"]


@dataclass
class PerfModelRow:
    """Model predictions for one FCI space."""

    label: str
    nci: float
    moc_operations: float
    dgemm_operations: float
    moc_comm_elements: float
    dgemm_comm_elements: float

    @property
    def operation_ratio(self) -> float:
        return self.moc_operations / self.dgemm_operations if self.dgemm_operations else np.inf

    @property
    def comm_ratio(self) -> float:
        return self.moc_comm_elements / self.dgemm_comm_elements if self.dgemm_comm_elements else np.inf


def alpha_beta_model(
    label: str, n_orbitals: int, n_alpha: int, n_beta: int, nci: float
) -> PerfModelRow:
    """Evaluate the Table-1 formulas for one FCI space.

    ``nci`` is the (possibly symmetry-reduced) CI dimension; the counts use
    the paper's conventions (elements, not bytes).
    """
    n, na, nb = n_orbitals, n_alpha, n_beta
    return PerfModelRow(
        label=label,
        nci=float(nci),
        moc_operations=float(nci) * (n - na) * na * (n - nb) * nb,
        dgemm_operations=float(nci) * n * n * na * nb,
        moc_comm_elements=float(nci) * na * (n - na),
        dgemm_comm_elements=3.0 * float(nci) * na,
    )


def measured_counts(problem: CIProblem, seed: int = 0) -> dict[str, dict[str, int]]:
    """Run both sigma kernels once with instrumentation counters.

    Returns {"dgemm": {...}, "moc": {...}} and asserts both kernels agree
    numerically (raises otherwise) - keeping Table 1 honest.
    """
    C = problem.random_vector(seed)
    dc = SigmaCounters()
    mc = MOCCounters()
    s1 = sigma_dgemm(problem, C, counters=dc)
    s2 = sigma_moc(problem, C, counters=mc)
    err = float(np.max(np.abs(s1 - s2)))
    if err > 1e-9:
        raise AssertionError(f"sigma kernels disagree by {err:g}")
    out = {"dgemm": dc.as_dict(), "moc": mc.as_dict()}
    out["agreement_error"] = err  # type: ignore[assignment]
    return out
