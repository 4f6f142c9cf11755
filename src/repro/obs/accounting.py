"""The audited FLOP/byte accounting path behind every performance figure.

Historically each benchmark re-derived GF-rates and communication volumes
with its own arithmetic; this module is the single place where

* kernel counters (:class:`repro.core.kernels.SigmaCounters`,
  :class:`repro.core.kernels.MOCCounters`) are converted into registry
  metrics,
* simulator results (``ParallelReport``, ``TraceResult``) are folded into
  the same metric names, and
* the closed-form operation counts of the paper's Table 1 are available for
  cross-checking the measured counters (the test suite asserts the two
  agree exactly on small FCI spaces).

Only duck-typed values cross this boundary - ``repro.obs`` never imports
kernel or simulator modules, so it remains a leaf every layer can use.

Canonical metric names
----------------------
========================  =========  =========================================
name                      kind       meaning
------------------------  ---------  -----------------------------------------
sigma.<algo>.calls        counter    sigma evaluations accounted
sigma.<algo>.flops        counter    kernel floating-point operations
sigma.<algo>.seconds      timer      wall seconds per evaluation
sigma.dgemm.gemm_calls    counter    dense DGEMMs (E_K = W_K.D_K per N-2 string
                                     and block, E_k = G_k.D_k per beta string)
sigma.dgemm.gather_elems  counter    vector-gather traffic (elements)
sigma.dgemm.scatter_elems counter    vector-scatter traffic (elements)
sigma.moc.indexed_ops     counter    indexed multiply-add updates
integrals.quartets.computed counter  shell quartets evaluated by the ERI engine
integrals.quartets.screened counter  shell quartets skipped by Schwarz screening
integrals.eri.flops       counter    dense-contraction FLOPs of ERI assembly
integrals.eri.bytes       counter    gather/operand traffic of ERI assembly
integrals.eri.seconds     timer      wall seconds per ERI assembly
integrals.mo_transform.flops counter AO->MO quarter-transformation FLOPs
x1.virtual_seconds        counter    simulated wall-clock, summed over runs
x1.flops                  counter    simulated FLOPs (all ranks)
x1.bytes_sent             counter    one-sided put/acc traffic (bytes)
x1.bytes_received         counter    one-sided get traffic (bytes)
x1.bytes_communicated     counter    sent + received
x1.load_imbalance         histogram  per-run max-minus-mean finish skew (s)
x1.gflops_per_msp         gauge      sustained per-MSP rate of the last run
x1.aggregate_tflops       gauge      aggregate rate of the last run
========================  =========  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Any, Mapping

from .metrics import MetricsRegistry

__all__ = [
    "FlopLedger",
    "gflops_rate",
    "dgemm_mixed_spin_flops",
    "dgemm_same_spin_flops",
    "moc_mixed_spin_ops",
    "eri_quartet_flops",
    "mo_transform_flops",
    "account_sigma_dgemm",
    "account_sigma_moc",
    "account_eri",
    "account_mo_transform",
    "account_parallel_report",
    "account_trace_result",
]


def gflops_rate(flops: float, seconds: float) -> float:
    """FLOPs over seconds in GF/s (0 for degenerate inputs)."""
    return flops / seconds / 1e9 if seconds > 0 else 0.0


# -- closed-form operation counts (the audited Table-1 model) ----------------


def dgemm_mixed_spin_flops(n_orbitals: int, n_beta: int, nci: float) -> float:
    """Exact DGEMM FLOPs of the mixed-spin routine on an unblocked space.

    The paper's Table-1 entry is ~ Nci n^2 n_a n_b: a determinant meets only
    the excitations its occupation allows, not the n^2 x n^2 product a dense
    D over all orbital pairs would need (2 n^4 Nci).  The kernel multiplies
    exactly that: for each beta string, the ``per_b`` = n_b (n - n_b + 1)
    single excitations that reach it (n_b orbitals it can have gained times
    the n - n_b + 1 it can have lost, p = q included) against the
    *pair-packed* integrals - (pq|rs) = (qp|rs) = (pq|sr), npair =
    n(n+1)/2 rows - so E_k = G[:, pairs_k] . D_k is (npair x per_b) @
    (per_b x n_alpha_strings) and the sweep 2 npair per_b Nci, which is
    what ``SigmaCounters.dgemm_flops`` accumulates for the alpha-beta term:
    n (n+1) n_b (n - n_b + 1) Nci against Table 1's order of magnitude
    n^2 n_a n_b Nci (0.54 of the full pair-packed product 2 npair^2 Nci at
    FCI(6+6,12), 0.16 of 2 n^4 Nci).
    """
    n = int(n_orbitals)
    npair = n * (n + 1) // 2
    per_b = int(n_beta) * (n - int(n_beta) + 1)
    return 2.0 * npair * per_b * float(nci)


def dgemm_same_spin_flops(n_orbitals: int, n_electrons: int, n_columns: float) -> float:
    """Exact DGEMM FLOPs of one same-spin routine call.

    For each of the NK = C(n, k-2) N-2-electron strings K, E_K = W_K . D_K
    with W_K the L x L block of W over the L = C(n-k+2, 2) orbital pairs
    empty in K and D_K (L x n_columns): 2 L^2 NK M multiply-adds, the
    quantity ``SigmaCounters.dgemm_flops`` accumulates for each same-spin
    term (the full pair space would be 2 C(n,2)^2 NK M: 5.6x more at
    n = 12, k = 6).  Table 1 has no same-spin row - the paper counts the
    alpha-beta routine, which dominates.
    """
    n, k = int(n_orbitals), int(n_electrons)
    if k < 2:
        return 0.0
    open_pairs = comb(n - k + 2, 2)
    return 2.0 * open_pairs**2 * comb(n, k - 2) * float(n_columns)


def moc_mixed_spin_ops(n_orbitals: int, n_alpha: int, n_beta: int, nci: float) -> float:
    """Paper Table 1: indexed ops of the MOC alpha-beta routine."""
    n = n_orbitals
    return float(nci) * n_alpha * (n - n_alpha) * n_beta * (n - n_beta)


def eri_quartet_flops(
    npair_bra: int,
    npair_ket: int,
    ncomp_bra: int,
    ncomp_ket: int,
    nherm_bra: int,
    nherm_ket: int,
) -> float:
    """Exact multiply-add count of one batched ERI shell quartet.

    The batched engine evaluates two dense contractions per quartet: the
    broadcast GEMM folding the (signed) ket Hermite coefficients into the
    windowed R lattice (2 * npair_bra * npair_ket * ncomp_ket * nherm_ket
    * nherm_bra) and the bra-side GEMM (2 * npair_bra * nherm_bra *
    ncomp_bra * ncomp_ket).  ``nherm_*`` are the flattened Hermite lattice
    sizes (l_a + l_b + 1)^3.  This is the quantity
    ``EriStats.flops`` accumulates, cross-checked by the test suite.
    """
    ket_gemm = 2.0 * npair_bra * npair_ket * ncomp_ket * nherm_ket * nherm_bra
    bra_gemm = 2.0 * npair_bra * nherm_bra * ncomp_bra * ncomp_ket
    return ket_gemm + bra_gemm


def mo_transform_flops(n_ao: int, n_mo: int) -> float:
    """Multiply-add count of the four AO->MO quarter transformations.

    Step k contracts an (n_ao^(4-k+1) x n_mo^(k-1)) tensor with the
    (n_ao x n_mo) coefficient matrix: 2 * n_ao^(5-k) * n_mo^k each.
    """
    a, m = float(n_ao), float(n_mo)
    return 2.0 * (a**4 * m + a**3 * m**2 + a**2 * m**3 + a * m**4)


@dataclass
class FlopLedger:
    """A self-describing FLOP/byte tally for one accounted activity."""

    name: str
    flops: float = 0.0
    bytes_moved: float = 0.0
    seconds: float = 0.0
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def gflops(self) -> float:
        return gflops_rate(self.flops, self.seconds)

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved (inf when nothing moved)."""
        return self.flops / self.bytes_moved if self.bytes_moved else float("inf")

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "flops": self.flops,
            "bytes_moved": self.bytes_moved,
            "seconds": self.seconds,
            "gflops": self.gflops,
            "detail": dict(self.detail),
        }


# -- kernel counter accounting ----------------------------------------------


def account_sigma_dgemm(
    registry: MetricsRegistry,
    counters: Mapping[str, float] | Any,
    wall_seconds: float,
) -> FlopLedger:
    """Fold one instrumented DGEMM-kernel sigma evaluation into the registry
    (one call, one timer sample).

    ``counters`` is a ``SigmaCounters`` instance or its ``as_dict()``.
    """
    c = counters.as_dict() if hasattr(counters, "as_dict") else dict(counters)
    flops = float(c.get("dgemm_flops", 0.0))
    gathers = float(c.get("gather_elements", 0.0))
    scatters = float(c.get("scatter_elements", 0.0))
    registry.counter("sigma.dgemm.calls").inc()
    registry.counter("sigma.dgemm.flops").inc(flops)
    registry.counter("sigma.dgemm.gemm_calls").inc(float(c.get("dgemm_calls", 0.0)))
    registry.counter("sigma.dgemm.gather_elems").inc(gathers)
    registry.counter("sigma.dgemm.scatter_elems").inc(scatters)
    registry.timer("sigma.dgemm.seconds").observe(wall_seconds)
    return FlopLedger(
        name="sigma.dgemm",
        flops=flops,
        bytes_moved=8.0 * (gathers + scatters),
        seconds=wall_seconds,
        detail={"gather_elements": gathers, "scatter_elements": scatters},
    )


def account_sigma_moc(
    registry: MetricsRegistry,
    counters: Mapping[str, float] | Any,
    wall_seconds: float,
) -> FlopLedger:
    """Fold one instrumented MOC-kernel sigma evaluation into the registry
    (one call, one timer sample)."""
    c = counters.as_dict() if hasattr(counters, "as_dict") else dict(counters)
    indexed = float(c.get("indexed_ops", 0.0))
    elements = float(c.get("matrix_elements_computed", 0.0))
    registry.counter("sigma.moc.calls").inc()
    registry.counter("sigma.moc.indexed_ops").inc(indexed)
    registry.counter("sigma.moc.matrix_elements").inc(elements)
    registry.counter("sigma.moc.flops").inc(2.0 * indexed)
    registry.timer("sigma.moc.seconds").observe(wall_seconds)
    return FlopLedger(
        name="sigma.moc",
        flops=2.0 * indexed,
        bytes_moved=8.0 * 3.0 * indexed,  # gather-modify-scatter per update
        seconds=wall_seconds,
        detail={"indexed_ops": indexed, "matrix_elements": elements},
    )


def account_eri(
    registry: MetricsRegistry,
    stats: Mapping[str, float] | Any,
    wall_seconds: float,
) -> FlopLedger:
    """Fold one ERI assembly into the registry.

    ``stats`` is an :class:`repro.integrals.two_electron.EriStats` instance
    or its ``as_dict()``.
    """
    s = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    flops = float(s.get("flops", 0.0))
    bytes_moved = float(s.get("bytes_moved", 0.0))
    computed = float(s.get("quartets_computed", 0.0))
    screened = float(s.get("quartets_screened", 0.0))
    registry.counter("integrals.eri.assemblies").inc()
    registry.counter("integrals.quartets.computed").inc(computed)
    registry.counter("integrals.quartets.screened").inc(screened)
    registry.counter("integrals.eri.flops").inc(flops)
    registry.counter("integrals.eri.bytes").inc(bytes_moved)
    registry.timer("integrals.eri.seconds").observe(wall_seconds)
    return FlopLedger(
        name="integrals.eri",
        flops=flops,
        bytes_moved=bytes_moved,
        seconds=wall_seconds,
        detail={"quartets_computed": computed, "quartets_screened": screened},
    )


def account_mo_transform(
    registry: MetricsRegistry, n_ao: int, n_mo: int, wall_seconds: float
) -> FlopLedger:
    """Fold one AO->MO integral transformation into the registry."""
    flops = mo_transform_flops(n_ao, n_mo)
    bytes_moved = 8.0 * (float(n_ao) ** 4 + float(n_mo) ** 4)
    registry.counter("integrals.mo_transform.calls").inc()
    registry.counter("integrals.mo_transform.flops").inc(flops)
    registry.timer("integrals.mo_transform.seconds").observe(wall_seconds)
    return FlopLedger(
        name="integrals.mo_transform",
        flops=flops,
        bytes_moved=bytes_moved,
        seconds=wall_seconds,
        detail={"n_ao": float(n_ao), "n_mo": float(n_mo)},
    )


# -- simulator accounting -----------------------------------------------------


def _account_x1_run(
    registry: MetricsRegistry,
    *,
    elapsed: float,
    flops: float,
    bytes_sent: float,
    bytes_received: float,
    n_msps: int,
    load_imbalance: float | None = None,
    phase_seconds: Mapping[str, float] | None = None,
) -> FlopLedger:
    comm = bytes_sent + bytes_received
    registry.counter("x1.runs").inc()
    registry.counter("x1.virtual_seconds").inc(elapsed)
    registry.counter("x1.flops").inc(flops)
    registry.counter("x1.bytes_sent").inc(bytes_sent)
    registry.counter("x1.bytes_received").inc(bytes_received)
    registry.counter("x1.bytes_communicated").inc(comm)
    if load_imbalance is not None:
        registry.histogram("x1.load_imbalance").observe(load_imbalance)
    per_msp = gflops_rate(flops, elapsed) / max(n_msps, 1)
    registry.gauge("x1.gflops_per_msp").set(per_msp)
    registry.gauge("x1.aggregate_tflops").set(gflops_rate(flops, elapsed) / 1e3)
    detail: dict[str, float] = {"n_msps": float(n_msps)}
    if phase_seconds:
        for phase, seconds in phase_seconds.items():
            registry.counter(f"x1.phase.{phase}.seconds").inc(seconds)
            detail[f"phase.{phase}"] = float(seconds)
    return FlopLedger(
        name="x1.run",
        flops=flops,
        bytes_moved=comm,
        seconds=elapsed,
        detail=detail,
    )


def account_parallel_report(registry: MetricsRegistry, report: Any, n_msps: int = 1) -> FlopLedger:
    """Account a numeric-mode ``ParallelReport`` (duck-typed)."""
    return _account_x1_run(
        registry,
        elapsed=report.elapsed,
        flops=report.flops,
        bytes_sent=report.bytes_communicated,
        bytes_received=0.0,
        n_msps=n_msps,
        load_imbalance=report.load_imbalance,
        phase_seconds=report.phase_times,
    )


def account_trace_result(registry: MetricsRegistry, result: Any) -> FlopLedger:
    """Account a paper-scale ``TraceResult`` (duck-typed)."""
    return _account_x1_run(
        registry,
        elapsed=result.elapsed,
        flops=result.total_flops,
        bytes_sent=result.comm_bytes,
        bytes_received=0.0,
        n_msps=result.n_msps,
        load_imbalance=result.load_imbalance,
        phase_seconds=result.phase_seconds,
    )
